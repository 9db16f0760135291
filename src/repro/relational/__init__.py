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
from repro.relational.relation import Relation, relation_from_pairs
from repro.relational.trie import TrieIndex
from repro.relational.layout import ArrayRegion, MemoryLayout
from repro.relational.query import Atom, ConjunctiveQuery, single_relation_query
from repro.relational.datalog import (
    DatalogSyntaxError,
    parse_datalog,
    parse_program,
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
    RangePartitioner,
    ScatterSpec,
    ShardedDatabase,
    partitioner_from_spec,
    shard_alias,
    shard_database,
)
from repro.relational.statistics import (
    DatabaseStatistics,
    FractionalEdgeCover,
    ScatterWorkEstimate,
    agm_bound,
    agm_exponent,
    database_statistics,
    fractional_edge_cover,
    is_alpha_acyclic,
    is_cyclic,
    nested_loop_work_estimate,
    pairwise_work_estimate,
    scatter_work_estimate,
    wcoj_work_estimate,
)

__all__ = [
    "Schema",
    "Relation",
    "relation_from_pairs",
    "TrieIndex",
    "ArrayRegion",
    "MemoryLayout",
    "Atom",
    "ConjunctiveQuery",
    "single_relation_query",
    "DatalogSyntaxError",
    "parse_datalog",
    "parse_program",
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
    "RangePartitioner",
    "ScatterSpec",
    "ShardedDatabase",
    "partitioner_from_spec",
    "shard_alias",
    "shard_database",
    "DatabaseStatistics",
    "FractionalEdgeCover",
    "ScatterWorkEstimate",
    "agm_bound",
    "agm_exponent",
    "database_statistics",
    "fractional_edge_cover",
    "is_alpha_acyclic",
    "is_cyclic",
    "nested_loop_work_estimate",
    "pairwise_work_estimate",
    "scatter_work_estimate",
    "wcoj_work_estimate",
]
