"""Relational substrate: schemas, relations, tries, queries and catalogs.

This package provides everything the join engines and the TrieJax accelerator
model need from a relational database:

* :class:`~repro.relational.schema.Schema` and
  :class:`~repro.relational.relation.Relation` — set-semantics tables of
  integer tuples.
* :class:`~repro.relational.trie.TrieIndex` — the flat (EmptyHeaded-layout)
  trie indexes that LFTJ/CTJ scan (paper Section 2.2.1 and Figure 6).
* :class:`~repro.relational.layout.MemoryLayout` — byte-address assignment of
  trie arrays for the memory-hierarchy models.
* :class:`~repro.relational.query.ConjunctiveQuery` plus the datalog and SQL
  front ends (paper Table 1 and Figure 1).
* :class:`~repro.relational.catalog.Database` — the catalog every engine runs
  against.
"""

from repro.relational.schema import Schema
from repro.relational.relation import Relation
from repro.relational.trie import TrieIndex
from repro.relational.layout import ArrayRegion, MemoryLayout
from repro.relational.query import Atom, ConjunctiveQuery
from repro.relational.datalog import (
    DatalogSyntaxError,
    parse_datalog,
)
from repro.relational.sql import SQLSyntaxError, parse_sql_join
from repro.relational.catalog import (
    Catalog,
    CatalogState,
    Database,
    DeltaBatch,
    MutationEvent,
    OverlayCatalog,
    RelationState,
)
from repro.relational.sharding import (
    HashPartitioner,
    ScatterSpec,
    ShardedDatabase,
    shard_alias,
    shard_database,
)
from repro.relational.statistics import (
    is_alpha_acyclic,
    is_cyclic,
)

__all__ = [
    "Schema",
    "Relation",
    "TrieIndex",
    "ArrayRegion",
    "MemoryLayout",
    "Atom",
    "ConjunctiveQuery",
    "DatalogSyntaxError",
    "parse_datalog",
    "SQLSyntaxError",
    "parse_sql_join",
    "Catalog",
    "CatalogState",
    "Database",
    "DeltaBatch",
    "MutationEvent",
    "OverlayCatalog",
    "RelationState",
    "HashPartitioner",
    "ScatterSpec",
    "ShardedDatabase",
    "shard_alias",
    "shard_database",
    "is_alpha_acyclic",
    "is_cyclic",
]
