"""The recovery equivalence gate.

A recovered store must be indistinguishable from a freshly built in-memory
catalog over the same logical rows: byte-identical relation fragments,
byte-identical query results, identical JoinStats, and identical cache
behaviour (a re-run hits the same cached tries and does the same work).
That property is exercised across engines (lftj + ctj) and shard counts
{1, 2}, under a Zipf-skewed, update-heavy mutation mix with a snapshot
taken mid-workload and further mutations left pending in the WAL — the
crash-between-snapshots case the durable tier exists for.
"""

import pytest

from repro.graphs import pattern_query
from repro.joins.ctj import CachedTrieJoin
from repro.joins.generic_join import GenericJoin
from repro.joins.leapfrog import LeapfrogTrieJoin
from repro.api import Session
from repro.relational import Database, Relation, Schema, ShardedDatabase
from repro.storage import (
    DurableCatalog,
    MutationLog,
    SQLiteStore,
    StorageError,
    StoreFormatError,
    open_store,
    store_exists,
    store_info,
)
from repro.util.rng import DeterministicRNG

SHARD_COUNTS = (1, 2, 4)
ENGINES = {
    "lftj": LeapfrogTrieJoin,
    "ctj": CachedTrieJoin,
    "generic_join": GenericJoin,
}
QUERIES = ("cycle3", "path3")

NUM_VERTICES = 40
BASE_EDGES = 150
WORKLOAD_BATCHES = 12
ROWS_PER_BATCH = 8


def zipf_edges(rng, count):
    """Edges with Zipf-skewed endpoints — many duplicates, hot vertices."""
    edges = []
    for _ in range(count):
        src = rng.zipf_value(NUM_VERTICES, 1.2)
        dst = rng.zipf_value(NUM_VERTICES, 0.9)
        if src != dst:
            edges.append((src, dst))
    return edges


def update_heavy_workload(seed):
    """Batches of inserts drawn from the same skewed stream (an update-heavy
    mix: later batches mostly collide with already-present rows)."""
    rng = DeterministicRNG(seed)
    return [zipf_edges(rng, ROWS_PER_BATCH) for _ in range(WORKLOAD_BATCHES)]


def run_all(catalog):
    """Every (engine, query) result over ``catalog``, run twice.

    The second run exercises the trie/result caches warmed by the first —
    "cache behaviour" equivalence means both runs match, not just one.
    """
    observed = {}
    for engine_name, engine_cls in ENGINES.items():
        engine = engine_cls()
        for query_name in QUERIES:
            query = pattern_query(query_name)
            for attempt in (1, 2):
                result = engine.execute(query, catalog)
                observed[(engine_name, query_name, attempt)] = (
                    sorted(result.tuples),
                    result.stats.lub_searches,
                    result.stats.index_element_reads,
                )
    return observed


def assert_equivalent(recovered, reference):
    """Fragment-level and query-level equivalence of two catalogs."""
    assert sorted(recovered.relation_names()) == sorted(reference.relation_names())
    for name in reference.relation_names():
        assert sorted(recovered.relation(name).sorted_rows()) == sorted(
            reference.relation(name).sorted_rows()
        ), f"relation {name!r} rows diverged"
    if isinstance(reference, ShardedDatabase):
        for index, (left, right) in enumerate(
            zip(recovered.shard_databases, reference.shard_databases)
        ):
            for name in right.relation_names():
                assert sorted(left.relation(name).sorted_rows()) == sorted(
                    right.relation(name).sorted_rows()
                ), f"shard {index} fragment of {name!r} diverged"
    assert run_all(recovered) == run_all(reference)


class TestMonolithicRecovery:
    def seed_edges(self):
        return sorted(set(zipf_edges(DeterministicRNG(2020), BASE_EDGES)))

    def test_crash_between_snapshots_loses_nothing(self, tmp_path):
        store_dir = str(tmp_path / "store")
        workload = update_heavy_workload(7)

        db = open_store(store_dir, name="gate")
        db.add_relation(Relation("E", Schema(("src", "dst")), self.seed_edges()))
        reference = Database("gate")
        reference.add_relation(Relation("E", Schema(("src", "dst")), self.seed_edges()))

        for index, batch in enumerate(workload):
            assert db.insert_into("E", batch) == reference.insert_into("E", batch)
            if index == WORKLOAD_BATCHES // 2:
                db.snapshot()  # mid-workload snapshot; later batches stay in the WAL
        assert db.info()["wal_records"] > 0  # the crash happens before a snapshot
        db.close()

        recovered = open_store(store_dir, name="gate")
        try:
            assert_equivalent(recovered, reference)
        finally:
            recovered.close()

    def test_recovery_is_idempotent(self, tmp_path):
        """Recover, mutate nothing, recover again — same state both times."""
        store_dir = str(tmp_path / "store")
        db = open_store(store_dir, name="gate")
        db.add_relation(Relation("E", Schema(("src", "dst")), self.seed_edges()))
        db.close()
        for _ in range(2):
            recovered = open_store(store_dir, name="gate")
            try:
                assert sorted(recovered.relation("E").sorted_rows()) == self.seed_edges()
            finally:
                recovered.close()

    def test_segments_are_adopted_not_rebuilt(self, tmp_path):
        """After a snapshot with warm tries, recovery must adopt the
        persisted segments (mmap'd views), not rebuild from rows."""
        store_dir = str(tmp_path / "store")
        db = open_store(store_dir, name="gate")
        db.add_relation(Relation("E", Schema(("src", "dst")), self.seed_edges()))
        db.trie("E", ("src", "dst"))
        db.snapshot()
        db.close()

        recovered = open_store(store_dir, name="gate")
        try:
            trie = recovered.trie("E", ("src", "dst"))
            assert isinstance(trie.level_values(0), memoryview)  # mmap-backed
            assert trie.num_tuples == len(self.seed_edges())
        finally:
            recovered.close()


class TestShardedRecovery:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_equivalence_across_shard_counts(self, tmp_path, num_shards):
        store_dir = str(tmp_path / "store")
        seed_edges = sorted(set(zipf_edges(DeterministicRNG(11), BASE_EDGES)))
        workload = update_heavy_workload(13)

        db = open_store(store_dir, name="gate", num_shards=num_shards)
        reference = ShardedDatabase("gate", num_shards=num_shards)
        for catalog in (db, reference):
            catalog.add_relation(Relation("E", Schema(("src", "dst")), seed_edges))

        for index, batch in enumerate(workload):
            assert db.insert_into("E", batch) == reference.insert_into("E", batch)
            if index == WORKLOAD_BATCHES // 2:
                db.snapshot()
        db.close()

        recovered = open_store(store_dir, name="gate", num_shards=num_shards)
        try:
            assert recovered.num_shards == num_shards
            assert_equivalent(recovered, reference)
        finally:
            recovered.close()

    def test_a_recovered_store_routes_new_rows_as_before(self, tmp_path):
        """Rows inserted after recovery land in the shards the live catalog
        would have chosen: the hash depends on the value alone."""
        store_dir = str(tmp_path / "store")
        rows = [(i, i + 1) for i in range(1, 21)]
        reference = ShardedDatabase("gate", num_shards=2)
        with open_store(store_dir, name="gate", num_shards=2) as db:
            for catalog in (db, reference):
                catalog.add_relation(Relation("E", Schema(("src", "dst")), rows))
            db.snapshot()
        late = [(1000 + i, 1000 + i + 1) for i in range(20)]
        with open_store(store_dir, name="gate") as recovered:
            assert recovered.insert_into("E", late) == reference.insert_into("E", late)
            for shard in range(2):
                assert (
                    recovered.shard_relation("E", shard).sorted_rows()
                    == reference.shard_relation("E", shard).sorted_rows()
                )
            assert all(recovered.shard_cardinalities("E"))


class TestStoreHandling:
    def test_store_info_without_recovery(self, tmp_path):
        store_dir = str(tmp_path / "store")
        assert not store_exists(store_dir)
        db = open_store(store_dir, name="gate")
        db.add_relation(Relation("E", Schema(("src", "dst")), [(1, 2)]))
        db.snapshot()
        db.close()
        assert store_exists(store_dir)
        info = store_info(store_dir)
        assert info["kind"] == "single"
        assert info["snapshot_rows"] == 1

    def test_shard_count_mismatch_is_rejected(self, tmp_path):
        store_dir = str(tmp_path / "store")
        open_store(store_dir, name="gate", num_shards=2).close()
        with pytest.raises(StorageError, match="shard"):
            open_store(store_dir, num_shards=4)

    def test_monolithic_store_rejects_shard_request(self, tmp_path):
        store_dir = str(tmp_path / "store")
        open_store(store_dir, name="gate").close()
        with pytest.raises(StorageError):
            open_store(store_dir, num_shards=2)

    def test_open_store_defaults_to_existing_shape(self, tmp_path):
        store_dir = str(tmp_path / "store")
        open_store(store_dir, name="gate", num_shards=2).close()
        recovered = open_store(store_dir)
        try:
            assert recovered.info()["kind"] == "sharded"
            assert recovered.num_shards == 2
        finally:
            recovered.close()

    def test_torn_wal_tail_recovers_applied_prefix(self, tmp_path):
        """A crash mid-append leaves a torn record; recovery keeps every
        mutation that completed and drops the one that never applied."""
        import os

        store_dir = str(tmp_path / "store")
        db = open_store(store_dir, name="gate")
        db.add_relation(Relation("E", Schema(("src", "dst")), [(1, 2)]))
        db.snapshot()
        db.insert_into("E", [(3, 4)])
        db.insert_into("E", [(5, 6)])
        db.close()

        wal_file = os.path.join(store_dir, "mutations.wal")
        with open(wal_file, "r+b") as handle:
            handle.seek(0, 2)
            handle.truncate(handle.tell() - 5)  # tear the final record

        recovered = open_store(store_dir, name="gate")
        try:
            assert sorted(recovered.relation("E").sorted_rows()) == [(1, 2), (3, 4)]
        finally:
            recovered.close()


class TestValidateLogApply:
    """Regressions on the write-ahead seam: what is acknowledged survives,
    what is rejected leaves no trace."""

    def test_writes_after_a_torn_tail_survive_reopen(self, tmp_path):
        """torn tail → open → insert → reopen → insert → reopen: every
        acknowledged insert is there and the store stays recoverable."""
        import os

        store_dir = str(tmp_path / "store")
        with open_store(store_dir, name="gate") as db:
            db.add_relation(Relation("E", Schema(("src", "dst")), [(1, 2)]))
            db.snapshot()
            db.insert_into("E", [(3, 4)])
        with open(os.path.join(store_dir, "mutations.wal"), "ab") as handle:
            handle.write(b'0badc0de {"kind":"insert","relation":"E","ro')  # crash mid-append

        with open_store(store_dir) as db:
            assert db.insert_into("E", [(7, 8)]) == 1
        with open_store(store_dir) as db:
            assert sorted(db.relation("E").sorted_rows()) == [(1, 2), (3, 4), (7, 8)]
            assert db.insert_into("E", [(9, 9)]) == 1
        with open_store(store_dir) as db:
            assert sorted(db.relation("E").sorted_rows()) == [
                (1, 2), (3, 4), (7, 8), (9, 9),
            ]
            assert db.info()["wal_records"] == 3

    def test_rejected_define_is_not_logged_and_store_reopens(self, tmp_path):
        """A definition the catalog rejects (a duplicate name) must raise
        *before* the WAL sees it — or every later open replays the same
        failure."""
        store_dir = str(tmp_path / "store")
        db = open_store(store_dir, num_shards=2)
        db.add_relation(Relation("F", Schema(("a", "b")), [(1, 1)]))
        before = db.info()["wal_records"]
        with pytest.raises(KeyError, match="already exists"):
            db.add_relation(Relation("F", Schema(("a", "b")), [(2, 2)]))
        assert db.info()["wal_records"] == before == 1
        db.close()

        with open_store(store_dir) as recovered:
            assert recovered.relation_names() == ("F",)
            assert sorted(recovered.relation("F").sorted_rows()) == [(1, 1)]

    def test_rejected_insert_is_not_logged(self, tmp_path):
        with open_store(str(tmp_path / "store")) as db:
            db.add_relation(Relation("E", Schema(("src", "dst")), [(1, 2)]))
            before = db.info()["wal_records"]
            with pytest.raises(ValueError, match="arity"):
                db.insert_into("E", [(1, 2, 3)])
            with pytest.raises(ValueError, match="64-bit"):
                db.insert_into("E", [(3, 4), (5, 2**63)])
            with pytest.raises(KeyError):
                db.insert_into("missing", [(1, 2)])
            assert db.info()["wal_records"] == before

    @pytest.mark.parametrize(
        ("kind", "relation", "rows", "error"),
        [
            ("insert", "missing", [[1, 2]], "not found"),
            ("insert", "E", [[3, 4], [5, 2**63]], "64-bit"),
            ("define", "F", [[1, 2], [3]], "arity"),
            ("define", "F", [[1, 2], [-(2**63) - 1, 0]], "64-bit"),
        ],
        ids=["insert-unknown", "insert-outside-int64", "define-short", "define-outside-int64"],
    )
    def test_a_logged_record_the_catalog_rejects_fails_typed(
        self, tmp_path, kind, relation, rows, error
    ):
        """A WAL record replay cannot apply (an unknown relation, a short
        row, or a value past the signed 64-bit range logged before such
        values were rejected at insert) fails the open with a
        StoreFormatError naming its seq."""
        store_dir = tmp_path / "store"
        with open_store(str(store_dir)) as db:
            db.add_relation(Relation("E", Schema(("src", "dst")), [(1, 2)]))
        with MutationLog(str(store_dir / "mutations.wal")) as wal:
            data = {"attributes": ["a", "b"], "replace": False} if kind == "define" else {}
            seq = wal.append(kind, relation, rows=rows, **data).seq
        with pytest.raises(StoreFormatError, match=f"record {seq} .*{error}"):
            open_store(str(store_dir))

    def test_a_json_fragment_is_an_unknown_encoding(self, tmp_path):
        """Fragments are 64-bit words only; the retired JSON encoding fails typed."""
        store_dir = tmp_path / "store"
        with open_store(str(store_dir)) as db:
            db.add_relation(Relation("E", Schema(("src", "dst")), [(1, 2)]))
            db.snapshot()
        with SQLiteStore(str(store_dir / "catalog.sqlite")) as store:
            store._conn.execute(
                "UPDATE fragments SET encoding = 'json', data = ?", (b"[[1,2]]",)
            )
            store._conn.commit()
        with pytest.raises(StoreFormatError, match="unknown fragment encoding 'json'"):
            open_store(str(store_dir))


    def test_a_failed_snapshot_write_keeps_the_previous_snapshot(self, tmp_path):
        store_dir = tmp_path / "store"
        with open_store(str(store_dir)) as db:
            db.add_relation(Relation("E", Schema(("src", "dst")), [(1, 2)]))
            db.snapshot()
        with SQLiteStore(str(store_dir / "catalog.sqlite")) as store:
            (shard,) = store.fragment_shards("E")
            before = store.load_fragment("E", shard)

            def fragments():
                yield ("E", shard, [(9, 9)], 2)
                raise OSError("disk gone")

            with pytest.raises(OSError, match="disk gone"):
                store.write_snapshot(store.load_relations(), fragments())
            assert store.load_fragment("E", shard) == before
            with pytest.raises(KeyError, match="no fragment \\('E', shard 99\\)"):
                store.load_fragment("E", 99)

    def test_a_logged_record_of_unknown_kind_fails_typed(self, tmp_path):
        store_dir = tmp_path / "store"
        with open_store(str(store_dir)) as db:
            db.add_relation(Relation("E", Schema(("src", "dst")), [(1, 2)]))
        with MutationLog(str(store_dir / "mutations.wal")) as wal:
            seq = wal.append("delete", "E", rows=[[1, 2]]).seq
        with pytest.raises(StoreFormatError, match=f"record {seq} has unknown kind 'delete'"):
            open_store(str(store_dir))

    def test_the_durable_layer_wraps_only_an_empty_catalog(self, tmp_path):
        database = Database("full")
        database.add_relation(Relation("E", Schema(("src", "dst")), [(1, 2)]))
        with pytest.raises(StorageError, match="'full' already holds relations"):
            DurableCatalog(database, str(tmp_path / "store"))
        assert not (tmp_path / "store").exists()
        with pytest.raises(StorageError, match="no durable store at"):
            store_info(str(tmp_path / "store"))

    def test_a_store_of_another_format_version_fails_typed(self, tmp_path):
        store_dir = tmp_path / "store"
        with open_store(str(store_dir)) as db:
            db.add_relation(Relation("E", Schema(("src", "dst")), [(1, 2)]))
            db.snapshot()
        with SQLiteStore(str(store_dir / "catalog.sqlite")) as store:
            store.set_meta("format_version", "999")
        with pytest.raises(StoreFormatError, match="format version 999 is not supported"):
            open_store(str(store_dir))


class TestStoreCompatibility:
    """Stores written while a sharded catalog could also broadcast a relation
    (``replicate_threshold``) or split it on another attribute
    (``shard_attributes``).  The usual shape — every relation partitioned on
    its first attribute — opens unchanged; any other layout fails typed."""

    EDGES = [(i, (i * 7) % 23) for i in range(1, 40)]

    def older_sharded_store(self, store_dir):
        """What ``repro store init --shards 2`` wrote before: a snapshot with
        warm tries, the two retired meta keys, and (after later commands) a
        WAL ``define`` that logged its resolved placement."""
        with open_store(store_dir, name="gate", num_shards=2) as db:
            db.add_relation(Relation("E", Schema(("src", "dst")), self.EDGES))
            db.trie("E", ("src", "dst"))
            db.snapshot()
        with SQLiteStore(f"{store_dir}/catalog.sqlite") as store:
            store.set_meta("replicate_threshold", "0")
            store.set_meta("shard_attributes", "{}")
        with MutationLog(f"{store_dir}/mutations.wal") as wal:
            wal.append(
                "define", "F", attributes=["a", "b"], rows=[[1, 2], [2, 3]],
                replace=False, replicate=False,
            )
            wal.append("insert", "E", rows=[[100, 1], [101, 2]])

    def test_the_older_sharded_shape_opens_and_answers_identically(self, tmp_path):
        store_dir = str(tmp_path / "store")
        self.older_sharded_store(store_dir)
        reference = ShardedDatabase("gate", num_shards=2)
        reference.add_relation(Relation("E", Schema(("src", "dst")), self.EDGES))
        reference.add_relation(Relation("F", Schema(("a", "b")), [(1, 2), (2, 3)]))
        reference.insert_into("E", [(100, 1), (101, 2)])
        with open_store(store_dir) as recovered:
            assert recovered.info()["wal_records"] == 2
            assert_equivalent(recovered, reference)
            assert recovered.dump_state().relations == reference.dump_state().relations

    @pytest.mark.parametrize(
        "layout", ["replicated-row", "non-first-shard-attribute", "replicated-define"]
    )
    def test_a_layout_other_than_first_attribute_partitioning_fails_typed(
        self, tmp_path, layout
    ):
        store_dir = str(tmp_path / "store")
        self.older_sharded_store(store_dir)
        with SQLiteStore(f"{store_dir}/catalog.sqlite") as store:
            if layout == "replicated-row":
                store._conn.execute(
                    "UPDATE relations SET placement = 'replicated', "
                    "shard_attribute = NULL, partitioner = NULL"
                )
                store._conn.execute("DELETE FROM fragments WHERE shard >= 0")
            elif layout == "non-first-shard-attribute":
                store._conn.execute("UPDATE relations SET shard_attribute = 'dst'")
            store._conn.commit()
        if layout == "replicated-define":
            with MutationLog(f"{store_dir}/mutations.wal") as wal:
                wal.append(
                    "define", "D", attributes=["k", "v"], rows=[[1, 10]],
                    replace=False, replicate=True,
                )
        with pytest.raises(StoreFormatError, match="first attribute"):
            open_store(store_dir)

    @pytest.mark.parametrize("where", ["meta", "relation-record"])
    def test_a_store_stamped_with_another_partitioner_fails_typed(self, tmp_path, where):
        store_dir = str(tmp_path / "store")
        with open_store(store_dir, name="gate", num_shards=2) as db:
            db.add_relation(Relation("E", Schema(("src", "dst")), self.EDGES))
            db.snapshot()
        with SQLiteStore(f"{store_dir}/catalog.sqlite") as store:
            if where == "meta":
                store.set_meta("partitioner_kind", "range")
            else:
                store._conn.execute(
                    "UPDATE relations SET partitioner = ?",
                    ('{"boundaries": [10], "kind": "range", "num_shards": 2}',),
                )
                store._conn.commit()
        with pytest.raises(StoreFormatError, match="range"):
            open_store(store_dir)
        with pytest.raises(StoreFormatError, match="range"):
            Session(storage_dir=store_dir, shards=2)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda tmp: ShardedDatabase("gate", num_shards=2, partitioner="hash"),
            lambda tmp: open_store(str(tmp / "store"), num_shards=2, partitioner="hash"),
            lambda tmp: Session(shards=2, partitioner="hash"),
        ],
        ids=["ShardedDatabase", "open_store", "Session"],
    )
    def test_the_partitioner_keyword_is_gone(self, tmp_path, factory):
        with pytest.raises(TypeError, match="partitioner"):
            factory(tmp_path)
