"""Sharded catalogs: partition relations across :class:`Database` shards.

This module grows the single-node catalog into the ROADMAP's first scaling
direction.  A :class:`ShardedDatabase` satisfies the same
:class:`~repro.relational.catalog.Catalog` protocol a
:class:`~repro.relational.catalog.Database` does — engines, statistics and
the service layer keep working unchanged against its merged (global) view —
while additionally splitting every relation into ``num_shards`` disjoint
fragments, each stored in its own shard :class:`Database` with its own
lazily built trie indexes.

**Partitioning.**  Every relation is partitioned on its first attribute
(for an edge relation, the source vertex) by one multiplicative
:class:`HashPartitioner` — the software form of the paper's split of the
first variable's values across threads (Section 3.4).  A value's shard
depends on nothing but the value, so one partitioner routes every
relation and there is no fitted state to persist.

**Scatter-gather.**  A query fans out by rewriting its *seed atom* — the
first atom of its body — to a shard-local alias (:func:`shard_alias`).
Shard ``i``'s task executes the rewritten query against
:meth:`ShardedDatabase.shard_view`, an
:class:`~repro.relational.catalog.OverlayCatalog` that resolves the alias to
shard ``i``'s fragment and every other relation name to the global view.
Because the fragments partition the seed relation disjointly, the union of
the per-shard results is exactly the monolithic result.
:meth:`ShardedDatabase.scatter_spec` encodes this rewrite;
:class:`repro.service.scatter.ScatterGatherExecutor` runs it.

**Invalidation.**  :meth:`ShardedDatabase.insert_into` routes each row to
its shard and emits one :class:`~repro.relational.catalog.MutationEvent`
per shard that received rows, each carrying that shard's exact batch; a
cached shard partial is patched from the rows hashed to its own shard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.relational.catalog import (
    CatalogState,
    Database,
    MutationEvent,
    MutationSource,
    OverlayCatalog,
    RelationState,
)
from repro.relational.query import Atom, ConjunctiveQuery
from repro.relational.relation import Relation
from repro.relational.trie import TrieIndex
from repro.util.validation import check_positive

#: Deterministic virtual-time cost of dispatching one scatter task
#: (request fan-out, shard-queue handoff), in modelled nanoseconds.
SCATTER_DISPATCH_COST_NS = 25.0

#: Deterministic virtual-time cost per partial-result tuple flowing through
#: the gather/merge step, in modelled nanoseconds.
SCATTER_MERGE_COST_PER_TUPLE_NS = 0.25


def shard_alias(relation_name: str) -> str:
    """The reserved relation name a scatter task's seed atom is rewritten to."""
    return f"{relation_name}@shard"


# --------------------------------------------------------------------------- #
# Partitioners
# --------------------------------------------------------------------------- #
class HashPartitioner:
    """Multiplicative (Knuth) hash of the shard attribute's value.

    Spreads consecutive vertex ids across shards, so the community-graph
    datasets — whose vertex ids cluster by community — still balance.
    """

    def __init__(self, num_shards: int):
        check_positive("num_shards", num_shards)
        self.num_shards = num_shards

    def shard_of(self, value: int) -> int:
        return ((int(value) * 2654435761) & 0xFFFFFFFF) % self.num_shards

    def describe(self) -> str:
        return f"hash({self.num_shards})"


# --------------------------------------------------------------------------- #
# Scatter plumbing
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScatterSpec:
    """How one query fans out over the shards of a :class:`ShardedDatabase`.

    Attributes
    ----------
    seed_relation:
        The stored relation the seed atom (the query's first) binds.
    alias:
        Reserved name the seed atom is rewritten to (see :func:`shard_alias`).
    query:
        The rewritten query (identical to the original except the seed
        atom's relation name).  Shard-independent: one compiled plan for it
        serves every shard.
    """

    seed_relation: str
    alias: str
    query: ConjunctiveQuery


# --------------------------------------------------------------------------- #
# The sharded catalog
# --------------------------------------------------------------------------- #
class ShardedDatabase(MutationSource):
    """A :class:`~repro.relational.catalog.Catalog` partitioned over N shards.

    Parameters
    ----------
    name:
        Catalog name; shard databases are named ``{name}.shard{i}``.
    num_shards:
        Number of shard databases.  ``1`` is allowed (useful as the
        degenerate point of shard-count sweeps).
    replication_factor:
        Copies kept of every fragment.  Replica ``r`` of
        fragment ``i`` lives on node ``(i + r) % num_shards``, so losing
        one node leaves every fragment reachable when the factor is >= 2.
        ``1`` (the default) keeps only the primary — no fault tolerance,
        no extra memory.  The scatter executor retries a failed shard task
        on the next replica in this placement order.
    """

    def __init__(
        self,
        name: str = "sharded",
        num_shards: int = 2,
        replication_factor: int = 1,
    ):
        super().__init__()
        check_positive("num_shards", num_shards)
        if not isinstance(replication_factor, int) or replication_factor < 1:
            raise ValueError(
                f"replication_factor must be an integer >= 1, got "
                f"{replication_factor!r}; 1 means primaries only (no replicas)"
            )
        if replication_factor > num_shards:
            raise ValueError(
                f"replication_factor {replication_factor} exceeds num_shards "
                f"{num_shards}: each replica of a fragment must live on a "
                f"distinct node; lower the factor or add shards"
            )
        self.name = name
        self.num_shards = num_shards
        self.replication_factor = replication_factor
        self._global = Database(f"{name}.global")
        self._shards: Tuple[Database, ...] = tuple(
            Database(f"{name}.shard{i}") for i in range(num_shards)
        )
        #: Replica fragment stores, keyed ``(relation, shard, replica >= 1)``.
        #: Each is a lightweight Database holding one fragment copy with its
        #: own trie cache, standing in for the fragment's host node.
        self._replicas: Dict[Tuple[str, int, int], Database] = {}
        #: Routes every relation's rows by their first value.
        self._partitioner = HashPartitioner(num_shards)

    # ------------------------------------------------------------------ #
    # Relation management
    # ------------------------------------------------------------------ #
    def check_define(self, relation: Relation, replace: bool = False) -> None:
        """Validate a (re)definition; touches nothing.

        Checks the name is free (unless replacing).  Both mutators (and a
        write-ahead layer, before logging) go through this: a rejected
        definition leaves no trace.
        """
        if not replace and relation.name in self._global:
            raise KeyError(f"relation {relation.name!r} already exists in {self.name!r}")

    def add_relation(self, relation: Relation) -> None:
        """Register ``relation``; its name must be unused."""
        self.check_define(relation)
        self.replace_relation(relation)

    def replace_relation(self, relation: Relation) -> None:
        """Register ``relation``, replacing (and re-partitioning) any existing one.

        The one registration step: clear what the name held, then split
        the rows by the hash of their first value.
        """
        name = relation.name
        self._global.replace_relation(relation)
        for key in [k for k in self._replicas if k[0] == name]:
            del self._replicas[key]
        fragments = [Relation(name, relation.schema) for _ in self._shards]
        for row in relation.sorted_rows():
            fragments[self._partitioner.shard_of(row[0])].insert(row)
        for shard, fragment in zip(self._shards, fragments):
            shard.replace_relation(fragment)
        self._build_replicas(name)
        self._notify(MutationEvent(name, kind="define"))

    def _build_replicas(self, name: str) -> None:
        """Copy ``name``'s fragments onto their replica nodes.

        Replica ``r`` of fragment ``i`` lands on node ``(i + r) %
        num_shards`` as a standalone Database, so a replica read builds and
        caches its own tries — exactly what a fragment copy on another
        node would do.  No-op at the default ``replication_factor=1``.
        """
        for shard, shard_db in enumerate(self._shards):
            fragment = shard_db.relation(name)
            for r in range(1, self.replication_factor):
                replica = Database(f"{self.name}.shard{shard}.r{r}")
                replica.add_relation(Relation(name, fragment.schema, fragment.sorted_rows()))
                self._replicas[(name, shard, r)] = replica

    # ------------------------------------------------------------------ #
    # State hooks (what a durable layer persists and restores)
    # ------------------------------------------------------------------ #
    def dump_state(self) -> CatalogState:
        """Whole relations, per-shard fragments, the partitioner, cached tries."""
        relations = []
        for name in self.relation_names():
            relation = self._global.relation(name)
            fragments = {None: relation.sorted_rows()}
            for shard, shard_db in enumerate(self._shards):
                fragments[shard] = shard_db.relation(name).sorted_rows()
            relations.append(
                RelationState(
                    name,
                    relation.schema.attributes,
                    "partitioned",
                    fragments,
                    self.shard_attribute(name),
                    self._partitioner_spec(),
                )
            )
        tries = [(trie, None) for trie in self._global.cached_tries()]
        for shard, shard_db in enumerate(self._shards):
            tries.extend((trie, shard) for trie in shard_db.cached_tries())
        shape = {
            "catalog_kind": "sharded",
            "num_shards": str(self.num_shards),
            "partitioner_kind": "hash",
        }
        return CatalogState(shape, tuple(relations), tuple(tries))

    def load_state(
        self,
        relations: Iterable[RelationState],
        tries: Iterable[Tuple[TrieIndex, Optional[int]]] = (),
    ) -> None:
        """Rebuild from :meth:`dump_state` output without re-partitioning.

        Every unit loads its own fragment and tries.  A relation that is
        not hash-partitioned over this catalog's shards on its first
        attribute raises :class:`ValueError` before anything loads.
        """
        relations, tries = list(relations), list(tries)
        for state in relations:
            first = state.attributes[:1]
            if state.placement != "partitioned" or state.shard_attribute not in first:
                raise ValueError(
                    f"relation {state.name!r} has placement {state.placement!r} on "
                    f"{state.shard_attribute!r}; a sharded catalog partitions every "
                    "relation on its first attribute"
                )
            if state.partitioner != self._partitioner_spec():
                raise ValueError(
                    f"relation {state.name!r} has partitioner {state.partitioner!r}; "
                    f"a sharded catalog hashes every relation over its {self.num_shards} shards"
                )
        self._global.load_state(relations, tries)
        for shard, shard_db in enumerate(self._shards):
            shard_db.load_state(relations, tries, fragment=shard)
        for state in relations:
            self._build_replicas(state.name)  # KeyError if a fragment is missing

    def _partitioner_spec(self) -> Dict[str, Any]:
        """The partitioner record a durable layer stores with each relation."""
        return {"kind": "hash", "num_shards": self.num_shards}

    # ------------------------------------------------------------------ #
    # Catalog read surface (delegates to the merged global view)
    # ------------------------------------------------------------------ #
    def relation(self, name: str) -> Relation:
        return self._global.relation(name)

    def relation_names(self) -> Tuple[str, ...]:
        return self._global.relation_names()

    def __contains__(self, name: str) -> bool:
        return name in self._global

    def trie(self, relation_name: str, attribute_order: Sequence[str]) -> TrieIndex:
        return self._global.trie(relation_name, attribute_order)

    def trie_for_atom(self, atom: Atom, variable_order: Sequence[str]) -> TrieIndex:
        return self._global.trie_for_atom(atom, variable_order)

    def validate_query(self, query: ConjunctiveQuery) -> None:
        self._global.validate_query(query)

    def total_tuples(self) -> int:
        return self._global.total_tuples()

    def size_in_bytes(self, bytes_per_value: int = 4) -> int:
        return self._global.size_in_bytes(bytes_per_value)

    # ------------------------------------------------------------------ #
    # Shard introspection
    # ------------------------------------------------------------------ #
    @property
    def global_database(self) -> Database:
        """The merged single-node view (full relations, shared tries)."""
        return self._global

    @property
    def shard_databases(self) -> Tuple[Database, ...]:
        """The per-shard databases holding the fragments."""
        return self._shards

    def shard_attribute(self, name: str) -> str:
        """Attribute ``name`` is split on: always its first."""
        return self._global.relation(name).schema.attributes[0]

    def partitioner_for(self, name: str) -> Optional[HashPartitioner]:
        """The partitioner routing ``name`` (``None`` for an unknown name)."""
        return self._partitioner if name in self._global else None

    def shard_relation(self, name: str, shard: int) -> Relation:
        """Shard ``shard``'s fragment of ``name``."""
        return self._shards[shard].relation(name)

    def replica_nodes(self, name: str, shard: int) -> Tuple[int, ...]:
        """Nodes hosting ``name``'s fragment ``shard``, primary first.

        Replica ``r`` lives on node ``(shard + r) % num_shards``.
        """
        return tuple(
            (shard + r) % self.num_shards for r in range(self.replication_factor)
        )

    def shard_replica_database(self, name: str, shard: int, replica: int) -> Database:
        """The Database holding replica ``replica`` of ``name``'s fragment ``shard``."""
        if replica == 0:
            return self._shards[shard]
        try:
            return self._replicas[(name, shard, replica)]
        except KeyError:
            raise ValueError(
                f"relation {name!r} has no replica {replica} of shard {shard}; "
                f"replication_factor is {self.replication_factor}"
            ) from None

    def shard_cardinalities(self, name: str) -> Tuple[int, ...]:
        """Per-shard fragment sizes of ``name``."""
        return tuple(
            self.shard_relation(name, shard).cardinality
            for shard in range(self.num_shards)
        )

    def describe(self) -> str:
        """Human-readable shard layout (used by the CLI)."""
        replication = (
            f", replication x{self.replication_factor}"
            if self.replication_factor > 1
            else ""
        )
        lines = [f"catalog {self.name!r}: {self.num_shards} shard(s){replication}"]
        for name in self.relation_names():
            counts = "/".join(str(c) for c in self.shard_cardinalities(name))
            lines.append(
                f"  {name}: partitioned on {self.shard_attribute(name)!r} "
                f"by {self._partitioner.describe()}, fragments {counts}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def insert_into(self, relation_name: str, rows: Iterable[Sequence[int]]) -> int:
        """Insert ``rows``, routing each to its shard; return how many were new.

        Emits one :class:`MutationEvent` per shard that received rows, with
        that shard's actual new-row delta.
        """
        relation = self._global.relation(relation_name)
        normalized = [relation.normalize_row(row) for row in rows]  # before any state changes
        by_shard: Dict[int, List[Tuple[int, ...]]] = {}
        for row in normalized:
            by_shard.setdefault(self._partitioner.shard_of(row[0]), []).append(row)
        # The merged global view updates before any event fires: a
        # subscriber runs its delta joins from inside the notification, and
        # the post-state semi-naive rewrite needs every non-delta atom to
        # read the fully post-insert relation (a cache read patches from
        # the logged rows against the same global view).
        self._global.insert_into(relation_name, normalized)
        inserted_total = 0
        for shard in sorted(by_shard):
            # Fragments partition the global relation under the same
            # routing function, so new-in-fragment == new-in-global.
            batch = self._shards[shard].insert_batch(relation_name, by_shard[shard])
            for r in range(1, self.replication_factor):
                self._replicas[(relation_name, shard, r)].insert_into(
                    relation_name, by_shard[shard]
                )
            inserted_total += batch.count
            self._notify(MutationEvent(relation_name, shard=shard, delta=batch))
        return inserted_total

    # ------------------------------------------------------------------ #
    # Scatter planning
    # ------------------------------------------------------------------ #
    def scatter_spec(self, query: ConjunctiveQuery) -> ScatterSpec:
        """How ``query`` fans out over this catalog's shards.

        The seed is the query's first atom: every relation is partitioned,
        so whichever relation it binds, its fragments split the result
        disjointly.
        """
        self.validate_query(query)
        seed = query.atoms[0]
        alias = shard_alias(seed.relation)
        rewritten = ConjunctiveQuery(
            f"{query.name}@scatter",
            query.head_variables,
            [Atom(alias, seed.variables), *query.atoms[1:]],
        )
        return ScatterSpec(
            seed_relation=seed.relation,
            alias=alias,
            query=rewritten,
        )

    def shard_view(self, shard: int, spec: ScatterSpec, replica: int = 0) -> OverlayCatalog:
        """The catalog view shard ``shard``'s scatter task executes against.

        Resolves the spec's alias to that shard's fragment of the seed
        relation and every other name to this catalog's global view, so
        non-seed atoms read full relations and their tries are shared
        across all shard tasks.  ``replica`` selects which copy of the seed
        fragment the task reads (0 is the primary); the fragment contents
        are identical either way.
        """
        seed = self.shard_replica_database(spec.seed_relation, shard, replica)
        suffix = f".r{replica}" if replica else ""
        return OverlayCatalog(
            self._global,
            {spec.alias: (seed, spec.seed_relation)},
            f"{self.name}.view{shard}{suffix}",
        )


def shard_database(
    database: Database,
    num_shards: int,
    partitioner: str = "hash",
    name: Optional[str] = None,
    replication_factor: int = 1,
) -> ShardedDatabase:
    """Re-partition an existing monolithic ``database`` into N shards.

    Rows are copied (not shared), so mutating the source database afterwards
    cannot desynchronise the fragments from the sharded global view.
    ``partitioner`` accepts only ``"hash"``, the one shard layout.
    """
    if partitioner != "hash":
        raise ValueError(
            f"unknown partitioner {partitioner!r}; every sharded catalog hashes "
            "its relations on their first attribute"
        )
    sharded = ShardedDatabase(
        name or f"{database.name}.x{num_shards}",
        num_shards=num_shards,
        replication_factor=replication_factor,
    )
    for relation_name in database.relation_names():
        source = database.relation(relation_name)
        sharded.add_relation(
            Relation(source.name, source.schema, source.sorted_rows())
        )
    return sharded
