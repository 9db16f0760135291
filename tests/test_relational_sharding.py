"""Sharded catalog semantics: partitioners, fragments, events.

The invariants under test are the ones scatter-gather correctness rests on:
fragments of a partitioned relation are disjoint and their union is the
global relation; routing is deterministic; and mutation events carry the
shard the change landed in.
"""

import pytest

from repro.graphs import community_graph, graph_database, pattern_query
from repro.relational.query import Atom, ConjunctiveQuery
from repro.relational import (
    Catalog,
    DeltaBatch,
    HashPartitioner,
    MutationEvent,
    RangePartitioner,
    Relation,
    Schema,
    ShardedDatabase,
    shard_alias,
    shard_database,
)

PARTITIONERS = ("hash", "range")
SHARD_COUNTS = (1, 2, 4)


@pytest.fixture()
def base_db():
    return graph_database(community_graph(60, 300, seed=2020))


# --------------------------------------------------------------------------- #
# Partitioners
# --------------------------------------------------------------------------- #
class TestPartitioners:
    def test_hash_partitioner_is_deterministic_and_in_range(self):
        partitioner = HashPartitioner(4)
        shards = [partitioner.shard_of(v) for v in range(200)]
        assert shards == [partitioner.shard_of(v) for v in range(200)]
        assert set(shards) <= {0, 1, 2, 3}
        # A multiplicative hash must not map consecutive ids to one shard.
        assert len(set(shards)) == 4

    def test_range_partitioner_fits_equal_count_runs(self):
        partitioner = RangePartitioner(3)
        partitioner.fit(list(range(30)))
        assert len(partitioner.boundaries) == 2
        shards = [partitioner.shard_of(v) for v in range(30)]
        assert shards == sorted(shards)  # contiguous ranges
        assert set(shards) == {0, 1, 2}
        # Values beyond the fitted domain land in the last shard.
        assert partitioner.shard_of(10_000) == 2

    def test_single_shard_partitioners_route_everything_to_zero(self):
        for kind in (HashPartitioner(1), RangePartitioner(1)):
            kind.fit([1, 2, 3])
            assert {kind.shard_of(v) for v in range(50)} == {0}


# --------------------------------------------------------------------------- #
# The sharded catalog
# --------------------------------------------------------------------------- #
class TestShardedDatabase:
    def test_satisfies_catalog_protocol(self, base_db):
        assert isinstance(base_db, Catalog)
        assert isinstance(shard_database(base_db, 2), Catalog)

    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_fragments_partition_the_relation(self, base_db, partitioner, num_shards):
        sharded = shard_database(base_db, num_shards, partitioner=partitioner)
        full = set(base_db.relation("E").sorted_rows())
        seen = set()
        for shard in range(num_shards):
            rows = set(sharded.shard_relation("E", shard).sorted_rows())
            assert not (seen & rows), "fragments must be disjoint"
            seen |= rows
        assert seen == full
        assert set(sharded.relation("E").sorted_rows()) == full  # global view

    @pytest.mark.parametrize(
        ("kwargs", "match"),
        [
            ({"num_shards": 0}, "num_shards"),
            ({"partitioner": "modulo"}, "unknown partitioner"),
            ({"partitioner": None}, "unknown partitioner"),
        ],
    )
    def test_invalid_layout_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ShardedDatabase("s", **kwargs)

    def test_rejected_definition_touches_no_state(self, base_db):
        """A duplicate name must fail before the global view, the
        partitioner table or any fragment sees the new rows."""
        sharded = shard_database(base_db, 2)
        partitioner = sharded.partitioner_for("E")
        fragments = [sharded.shard_relation("E", s).sorted_rows() for s in range(2)]
        events = []
        sharded.subscribe_invalidation(events.append)
        impostor = Relation("E", Schema(("src", "dst")), [(90001, 90002)])
        with pytest.raises(KeyError, match="already exists"):
            sharded.add_relation(impostor)
        assert sharded.relation("E").sorted_rows() == base_db.relation("E").sorted_rows()
        assert sharded.partitioner_for("E") is partitioner and not events
        assert [sharded.shard_relation("E", s).sorted_rows() for s in range(2)] == fragments
        assert sharded.insert_into("E", [(90003, 90004)]) == 1

    def test_insert_routes_rows_and_emits_shard_events(self, base_db):
        sharded = shard_database(base_db, 4, partitioner="hash")
        events = []
        sharded.subscribe_invalidation(events.append)
        partitioner = sharded.partitioner_for("E")
        rows = [(1001, 1), (1002, 2), (1003, 3)]
        before = sharded.shard_cardinalities("E")
        inserted = sharded.insert_into("E", rows)
        assert inserted == 3
        after = sharded.shard_cardinalities("E")
        touched = {partitioner.shard_of(src) for src, _ in rows}
        for shard in range(4):
            expected_delta = sum(
                1 for src, _ in rows if partitioner.shard_of(src) == shard
            )
            assert after[shard] - before[shard] == expected_delta
        assert {event.shard for event in events} == touched
        assert all(isinstance(event, MutationEvent) for event in events)
        assert sum(event.delta for event in events) == 3
        assert all(event.relation == "E" for event in events)

    def test_duplicate_insert_emits_conservative_zero_delta_event(self, base_db):
        sharded = shard_database(base_db, 2)
        existing = base_db.relation("E").sorted_rows()[0]
        events = []
        sharded.subscribe_invalidation(events.append)
        assert sharded.insert_into("E", [existing]) == 0
        assert len(events) == 1 and events[0].delta == 0

    def test_monolithic_database_emits_whole_relation_events(self, base_db):
        events = []
        base_db.subscribe_invalidation(events.append)
        inserted = base_db.insert_into("E", [(5001, 5002)])
        assert inserted == 1
        expected = DeltaBatch.from_rows([(5001, 5002)])
        assert events == [
            MutationEvent("E", shard=None, delta=expected, kind="insert")
        ]

    def test_unsubscribe_stops_events(self, base_db):
        sharded = shard_database(base_db, 2)
        events = []
        sharded.subscribe_invalidation(events.append)
        assert sharded.unsubscribe_invalidation(events.append)
        sharded.insert_into("E", [(9001, 9002)])
        assert events == []

    def test_describe_names_layout(self, base_db):
        sharded = shard_database(base_db, 2, partitioner="range")
        text = sharded.describe()
        assert "2 shard(s)" in text and "partitioned on 'src'" in text


# --------------------------------------------------------------------------- #
# Scatter specs and shard views
# --------------------------------------------------------------------------- #
class TestScatterSpec:
    def test_seed_is_first_partitioned_atom(self, base_db):
        sharded = shard_database(base_db, 2)
        spec = sharded.scatter_spec(pattern_query("cycle3"))
        assert spec.seed_index == 0 and spec.seed_relation == "E"
        assert spec.query.atoms[0].relation == shard_alias("E")
        assert all(atom.relation == "E" for atom in spec.query.atoms[1:])
        # Head and variables are untouched by the rewrite.
        assert spec.query.head_variables == pattern_query("cycle3").head_variables

    def test_a_small_first_relation_seeds_the_fan_out(self, base_db):
        """Any relation, however small, is partitioned, so it can seed."""
        sharded = shard_database(base_db, 3)
        sharded.add_relation(Relation("dims", Schema(("k", "v")), [(1, 10), (2, 20)]))
        assert sum(sharded.shard_cardinalities("dims")) == 2
        query = ConjunctiveQuery(
            "q", ("k", "v", "w"), [Atom("dims", ("k", "v")), Atom("E", ("k", "w"))]
        )
        spec = sharded.scatter_spec(query)
        assert spec.seed_index == 0 and spec.seed_relation == "dims"
        assert spec.query.atoms[0] == Atom(shard_alias("dims"), ("k", "v"))
        assert spec.query.atoms[1:] == query.atoms[1:]

    def test_shard_view_resolves_alias_to_fragment(self, base_db):
        sharded = shard_database(base_db, 2)
        spec = sharded.scatter_spec(pattern_query("path3"))
        view = sharded.shard_view(1, spec)
        assert view.relation(spec.alias) is sharded.shard_relation("E", 1)
        assert view.relation("E") is sharded.relation("E")
        assert spec.alias in view and "E" in view
        view.validate_query(spec.query)  # must not raise

    def test_shard_view_tries_scan_fragment_only(self, base_db):
        sharded = shard_database(base_db, 2)
        spec = sharded.scatter_spec(pattern_query("path3"))
        view = sharded.shard_view(0, spec)
        alias_atom = spec.query.atoms[0]
        trie = view.trie_for_atom(alias_atom, ("x", "y", "z"))
        assert trie.num_tuples == sharded.shard_relation("E", 0).cardinality
        full_trie = view.trie_for_atom(spec.query.atoms[1], ("x", "y", "z"))
        assert full_trie.num_tuples == sharded.relation("E").cardinality
