"""Unit tests for the TrieJax building blocks: config, operations, PJR cache and
the Cupid walk's Midwife / MatchMaker / LUB steps."""

import math

import pytest

from repro.core import (
    COMPONENT_NAMES,
    CupidProgram,
    Operation,
    PJRCache,
    Scheduler,
    SpawnRequest,
    Task,
    TrieJaxConfig,
)
from repro.joins import QueryCompiler
from repro.memory import MemoryHierarchy
from repro.relational import ConjunctiveQuery, Database, Relation, Schema
from repro.relational.query import Atom

#: The two-level relation of the walk tests: root [1, 2, 4, 5], leaves [1, 2, 2, 4, 5].
R_ROWS = [(1, 1), (1, 2), (2, 2), (4, 4), (5, 5)]


def cupid(relations, atoms, order, config=None):
    """A Cupid program over ``relations`` (``name -> rows``) for ``q(order) = atoms``."""
    database = Database("unit")
    for name, rows in relations.items():
        arity = len(rows[0]) if rows else 1
        schema = Schema(tuple(f"a{i}" for i in range(arity)))
        database.add_relation(Relation(name, schema, rows))
    query = ConjunctiveQuery(
        "q", order, [Atom(name, variables) for name, variables in atoms]
    )
    plan = QueryCompiler(enable_caching=False).compile(query, variable_order=order)
    return CupidProgram(
        plan, database, config or TrieJaxConfig(num_threads=1), PJRCache(4096)
    )


def drive(program, task=None):
    """Run one thread's generator to completion, declining every spawn."""
    generator = program.task_generator(task or program.root_task())
    operations, reply = [], None
    try:
        while True:
            item = generator.send(reply)
            reply = False if isinstance(item, SpawnRequest) else None
            operations.append(item)
    except StopIteration:
        return operations


def tagged(operations, tag):
    return [op for op in operations if isinstance(op, Operation) and op.tag == tag]


def region_of(program, depth, participant):
    """The values region of one participant of one depth."""
    _values, region, _offsets, _offsets_region, _parent = program.tables[depth].participants[
        participant
    ]
    return region


def inside(region, address):
    return region.base_address <= address < region.base_address + region.size_in_bytes


class TestConfig:
    def test_defaults_match_paper_design_point(self):
        config = TrieJaxConfig()
        assert config.frequency_ghz == pytest.approx(2.38)
        assert config.num_threads == 32
        assert config.pjr_size_bytes == 4 * 1024 * 1024
        assert config.core_area_mm2 == pytest.approx(5.31)
        assert config.cycle_time_ns == pytest.approx(0.42, abs=0.01)

    def test_component_units_cover_all_components(self):
        units = TrieJaxConfig().component_units()
        assert set(units) == set(COMPONENT_NAMES)
        assert all(count >= 1 for count in units.values())

    def test_validation(self):
        with pytest.raises(ValueError):
            TrieJaxConfig(num_threads=0)
        with pytest.raises(ValueError):
            TrieJaxConfig(mt_scheme="magic")
        with pytest.raises(ValueError):
            TrieJaxConfig(pjr_banks=0)

    def test_with_helpers_return_modified_copies(self):
        config = TrieJaxConfig()
        assert config.with_threads(8).num_threads == 8
        assert config.with_threads(8, mt_scheme="static").mt_scheme == "static"
        assert config.without_pjr_cache().enable_pjr_cache is False
        assert config.with_write_bypass(False).hierarchy.write_bypass is False
        assert config.with_pjr_size(1024).pjr_size_bytes == 1024
        # Original untouched.
        assert config.num_threads == 32 and config.enable_pjr_cache

    def test_cycles_to_ns(self):
        config = TrieJaxConfig(frequency_ghz=2.0)
        assert config.cycles_to_ns(10) == pytest.approx(5.0)


class TestOperations:
    def test_operation_validation(self):
        Operation("lub", 1, (0,))
        with pytest.raises(ValueError):
            Operation("warp_drive", 1)
        with pytest.raises(ValueError):
            Operation("lub", 0)
        with pytest.raises(ValueError):
            Operation("lub", 1, write_bytes=-1)

    def test_spawn_request_defaults(self):
        request = SpawnRequest(Task(0, (), (), None))
        assert request.force is False
        assert request.cycles == 1

    def test_spawned_task_carries_the_remaining_matches(self):
        config = TrieJaxConfig(num_threads=4, mt_scheme="dynamic")
        program = cupid({"R": [(1,), (2,), (4,), (5,)]}, [("R", ("x",))], ("x",), config)
        generator = program.task_generator(program.root_task())
        item = next(generator)
        while not isinstance(item, SpawnRequest):
            item = next(generator)
        spawned = item.task
        assert spawned.depth == 0
        assert [value for value, _cursors in spawned.pending] == [2, 4, 5]
        # Granted: this thread keeps only its current match ...
        generator.send(True)
        for _item in generator:
            pass
        assert program.results == [(1,)]
        # ... and the sibling thread walks the rest from the snapshot.
        drive(program, spawned)
        assert program.results == [(1,), (2,), (4,), (5,)]


class TestScheduler:
    def test_a_thread_that_yields_neither_operation_nor_spawn_fails(self):
        class Program:
            def task_generator(self, task):
                yield task

        config = TrieJaxConfig(num_threads=2)
        scheduler = Scheduler(config, MemoryHierarchy(config.hierarchy, config.dram))
        with pytest.raises(TypeError, match="thread 0 yielded unsupported item str"):
            scheduler.run(Program(), "not an operation")


class TestLUB:
    """LUB: one probe per binary-search iteration, one load per cursor read."""

    def test_probe_count_and_addresses(self):
        program = cupid(
            {"R": [(1,), (2,), (4,), (5,)], "S": [(4,)]},
            [("R", ("x",)), ("S", ("x",))],
            ("x",),
        )
        operations = drive(program)
        probes = tagged(operations, "lub_probe")
        assert 0 < len(probes) <= math.ceil(math.log2(4)) + 1
        region = region_of(program, 0, 0)
        assert all(op.component == "lub" for op in probes)
        assert all(inside(region, op.read_addresses[0]) for op in probes)
        assert program.results == [(4,)]

    def test_lub_miss_ends_the_intersection(self):
        program = cupid(
            {"R": [(1,), (2,), (4,), (5,)], "S": [(99,)]},
            [("R", ("x",)), ("S", ("x",))],
            ("x",),
        )
        operations = drive(program)
        assert program.results == []
        assert tagged(operations, "match") == []
        # The search that falls off R's range is the last thing MatchMaker does.
        assert operations[-1].tag == "lub_probe"
        assert len(tagged(operations, "seek")) == 1

    def test_one_load_per_cursor_read(self):
        program = cupid(
            {"R": [(1,), (2,), (4,), (5,)], "S": [(2,), (4,)]},
            [("R", ("x",)), ("S", ("x",))],
            ("x",),
        )
        operations = drive(program)
        loads = tagged(operations, "lub_load")
        # Two initial reads, one after R's seek to 2, two after the match on 2.
        assert len(loads) == 5
        assert all(len(op.read_addresses) == 1 for op in loads)
        assert program.results == [(2,), (4,)]


class TestMidwife:
    def test_expand_reads_two_offsets_and_bounds_the_children(self):
        program = cupid({"R": R_ROWS}, [("R", ("x", "y"))], ("x", "y"))
        operations = drive(program)
        expands = tagged(operations, "midwife_expand")
        assert len(expands) == 4  # one per root value
        _values, _region, _offsets, offsets_region, _parent = program.tables[1].participants[0]
        for op in expands:
            assert op.component == "midwife"
            first, second = op.read_addresses
            assert second - first == offsets_region.element_size
            assert inside(offsets_region, first) and inside(offsets_region, second)
        # Each root value's children come out of exactly its two offsets.
        assert program.results == R_ROWS


class TestMatchMaker:
    def test_single_participant_scans_its_range(self):
        program = cupid({"R": R_ROWS}, [("R", ("x", "y"))], ("x", "y"))
        operations = drive(program)
        # Four root values plus five leaves, every one read once.
        assert len(tagged(operations, "lub_load")) == 4 + 5
        assert tagged(operations, "lub_probe") == []

    def test_two_way_intersection_equals_the_set_intersection(self):
        root, leaves = [1, 2, 4, 5], [2, 3, 4, 6]
        program = cupid(
            {"R": [(v,) for v in root], "S": [(v,) for v in leaves]},
            [("R", ("x",)), ("S", ("x",))],
            ("x",),
        )
        drive(program)
        assert [row[0] for row in program.results] == sorted(set(root) & set(leaves))

    def test_every_match_records_one_cursor_per_participant(self):
        program = cupid(
            {"R": [(1,), (2,), (4,), (5,)], "S": [(2,), (4,)]},
            [("R", ("x",)), ("S", ("x",))],
            ("x",),
        )
        participants = program.tables[0].participants
        generator = program._find_matches(participants, [-1] * 2)
        try:
            while True:
                next(generator)
        except StopIteration as stop:
            matches = stop.value
        assert matches == [(2, (1, 0)), (4, (2, 1))]
        for value, cursors in matches:
            assert [p[0][c] for p, c in zip(participants, cursors)] == [value, value]

    def test_empty_child_range_short_circuits_before_dispatch(self):
        # S is empty, so y's range in S is empty: R's Midwife read still
        # happens, MatchMaker is never dispatched for y.
        program = cupid(
            {"R": R_ROWS, "S": []},
            [("R", ("x", "y")), ("S", ("y",))],
            ("x", "y"),
        )
        assert program.empty_input()
        operations = drive(program)
        assert len(tagged(operations, "dispatch_matchmaker")) == 1  # x only
        assert len(tagged(operations, "midwife_expand")) == 4
        assert tagged(operations, "lub_probe") == []
        assert program.results == []


class TestPJRCache:
    def test_lookup_miss_then_hit_after_finalize(self):
        cache = PJRCache(capacity_bytes=4096)
        key = ("z", (1,))
        assert cache.lookup(key) is None
        assert cache.try_allocate(key, path_signature=(7, 1))
        assert cache.append(key, (7, 1), (2, {"t": 0}))
        assert cache.append(key, (7, 1), (4, {"t": 1}))
        assert cache.finalize(key, (7, 1))
        entry = cache.lookup(key)
        assert [value for value, _ in entry] == [2, 4]
        assert cache.stats.hits == 1
        assert cache.stats.lookups == 2
        assert cache.stats.values_replayed == 2
        assert cache.num_entries == 1 and cache.num_pending == 0

    def test_pending_entries_are_not_visible(self):
        cache = PJRCache(capacity_bytes=4096)
        key = ("z", (1,))
        cache.try_allocate(key, (0,))
        cache.append(key, (0,), (9, {"t": 3}))
        assert cache.lookup(key) is None  # still in the insertion buffer

    def test_single_path_validation(self):
        """A second path may not populate the same in-flight entry (Section 3.5)."""
        cache = PJRCache(capacity_bytes=4096)
        key = ("z", (2,))
        assert cache.try_allocate(key, path_signature=(1, 2))
        assert not cache.try_allocate(key, path_signature=(5, 2))
        assert cache.stats.allocation_rejected == 1
        assert not cache.append(key, (5, 2), (1, {"t": 0}))
        # Re-allocation from the owning path is idempotent.
        assert cache.try_allocate(key, path_signature=(1, 2))

    def test_allocate_rejected_for_completed_entry(self):
        cache = PJRCache(capacity_bytes=4096)
        key = ("z", (3,))
        cache.try_allocate(key, (0,))
        cache.finalize(key, (0,))
        assert not cache.try_allocate(key, (9,))

    def test_entry_overflow_deallocates(self):
        cache = PJRCache(capacity_bytes=4096, entry_capacity_values=2)
        key = ("z", (1,))
        cache.try_allocate(key, (0,))
        assert cache.append(key, (0,), (1, {"t": 0}))
        assert cache.append(key, (0,), (2, {"t": 1}))
        assert not cache.append(key, (0,), (3, {"t": 2}))  # overflow
        assert cache.stats.overflows == 1
        assert not cache.finalize(key, (0,))
        assert cache.lookup(key) is None

    def test_capacity_eviction_is_lru(self):
        cache = PJRCache(capacity_bytes=64, bytes_per_value=8)
        # Each entry holds 4 values of 8 bytes = 32 bytes; two entries fill it.
        for i in range(2):
            key = ("z", (i,))
            cache.try_allocate(key, (i,))
            for v in range(4):
                assert cache.append(key, (i,), (v, {"t": v}))
            cache.finalize(key, (i,))
        cache.lookup(("z", (1,)))  # entry 1 recently used; entry 0 is LRU
        key = ("z", (9,))
        cache.try_allocate(key, (9,))
        for v in range(4):
            assert cache.append(key, (9,), (v, {"t": v}))
        cache.finalize(key, (9,))
        assert cache.stats.evictions >= 1
        assert cache.peek(("z", (0,))) is None
        assert cache.peek(("z", (1,))) is not None

    def test_abort_releases_space(self):
        cache = PJRCache(capacity_bytes=4096)
        key = ("z", (5,))
        cache.try_allocate(key, (1,))
        cache.append(key, (1,), (1, {"t": 0}))
        used = cache.bytes_used
        cache.abort(key, (1,))
        assert cache.bytes_used < used
        assert cache.stats.entries_aborted == 1

    def test_reset(self):
        cache = PJRCache(capacity_bytes=4096)
        key = ("z", (1,))
        cache.try_allocate(key, (0,))
        cache.finalize(key, (0,))
        cache.reset()
        assert cache.num_entries == 0
        assert cache.stats.lookups == 0

    def test_stats_dict_and_hit_rate(self):
        cache = PJRCache(capacity_bytes=4096)
        assert cache.stats.hit_rate == 0.0
        cache.lookup(("z", (1,)))
        payload = cache.stats.as_dict()
        assert payload["lookups"] == 1
        assert payload["misses"] == 1

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            PJRCache(capacity_bytes=0)
        with pytest.raises(ValueError):
            PJRCache(capacity_bytes=1024, entry_capacity_values=0)
