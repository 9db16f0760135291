"""Unit tests for the TrieJax building blocks: config, operations, PJR cache, units."""

import pytest

from repro.core import (
    COMPONENT_NAMES,
    LUBUnit,
    MatchMakerUnit,
    MidwifeUnit,
    Operation,
    PJRCache,
    Participant,
    SpawnRequest,
    Task,
    TrieJaxConfig,
)
from repro.relational import MemoryLayout, Relation, Schema, TrieIndex


def drain(generator):
    """Run a unit generator to completion, returning (operations, return value)."""
    operations = []
    try:
        while True:
            operations.append(next(generator))
    except StopIteration as stop:
        return operations, stop.value


def build_trie_and_layout():
    relation = Relation(
        "R", Schema(("x", "y")), [(1, 1), (1, 2), (2, 2), (4, 4), (5, 5)]
    )
    trie = TrieIndex(relation)
    layout = MemoryLayout()
    layout.add_trie("R", trie)
    return trie, layout


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
        request = SpawnRequest(Task(depth=0))
        assert request.force is False
        assert request.cycles == 1

    def test_task_clone_context_is_deep(self):
        task = Task(depth=1, binding={"x": 1}, positions={"t": [0, 1]})
        binding, positions = task.clone_context()
        binding["x"] = 99
        positions["t"][0] = 99
        assert task.binding["x"] == 1
        assert task.positions["t"][0] == 0
        assert not task.is_replay
        assert Task(depth=0, pending_matches=[]).is_replay



class TestLUBUnit:
    def test_probe_count_and_result(self):
        trie, layout = build_trie_and_layout()
        unit = LUBUnit(TrieJaxConfig(), layout)
        values = trie.level_values(0)  # [1, 2, 4, 5]
        operations, position = drain(unit.search("R", 0, values, 0, len(values), 4))
        assert position == 2
        assert all(op.component == "lub" for op in operations)
        assert len(operations) <= 3  # ceil(log2(4)) + slack
        region = layout.values_region("R", 0)
        for op in operations:
            assert region.base_address <= op.read_addresses[0] < region.base_address + region.size_in_bytes

    def test_not_found_returns_hi(self):
        trie, layout = build_trie_and_layout()
        unit = LUBUnit(TrieJaxConfig(), layout)
        values = trie.level_values(0)
        _ops, position = drain(unit.search("R", 0, values, 0, len(values), 99))
        assert position == len(values)

    def test_read_value_emits_one_load(self):
        trie, layout = build_trie_and_layout()
        unit = LUBUnit(TrieJaxConfig(), layout)
        operations, index = drain(unit.read_value("R", 0, 2))
        assert index == 2
        assert len(operations) == 1
        assert operations[0].tag == "lub_load"


class TestMidwifeUnit:
    def test_expand_reads_two_offsets_and_returns_range(self):
        trie, layout = build_trie_and_layout()
        unit = MidwifeUnit(TrieJaxConfig(), layout)
        operations, child_range = drain(unit.expand("R", trie, 0, 0))
        assert child_range == trie.children_range(0, 0)
        assert len(operations) == 1
        assert len(operations[0].read_addresses) == 2
        assert operations[0].component == "midwife"


class TestMatchMakerUnit:
    def make_unit(self, layout):
        config = TrieJaxConfig()
        return MatchMakerUnit(config, LUBUnit(config, layout))

    def test_empty_participants(self):
        _trie, layout = build_trie_and_layout()
        unit = self.make_unit(layout)
        operations, matches = drain(unit.find_matches([]))
        assert matches == []
        assert operations == []

    def test_single_participant_scans_range(self):
        trie, layout = build_trie_and_layout()
        unit = self.make_unit(layout)
        participant = Participant("R", trie.level_values(0), 0, 0, trie.level_size(0))
        operations, matches = drain(unit.find_matches([participant]))
        assert [value for value, _idx in matches] == list(trie.level_values(0))
        assert len(operations) == trie.level_size(0)

    def test_two_way_intersection_matches_reference(self):
        trie, layout = build_trie_and_layout()
        layout_b = layout  # same layout namespace reused for a second logical range
        unit = self.make_unit(layout)
        level0 = Participant("R", trie.level_values(0), 0, 0, trie.level_size(0))
        # Intersect the root [1,2,4,5] with the leaf level [1,2,2,4,5] range [0,5).
        level1 = Participant("R", trie.level_values(1), 1, 0, trie.level_size(1))
        operations, matches = drain(unit.find_matches([level0, level1]))
        values = [value for value, _idx in matches]
        assert values == sorted(set(trie.level_values(0)) & set(trie.level_values(1)))
        # Every match records an index per participating trie key.
        for _value, indexes in matches:
            assert set(indexes) == {"R"}

    def test_empty_range_short_circuits(self):
        trie, layout = build_trie_and_layout()
        unit = self.make_unit(layout)
        empty = Participant("R", trie.level_values(0), 0, 2, 2)
        other = Participant("R", trie.level_values(0), 0, 0, 4)
        _ops, matches = drain(unit.find_matches([empty, other]))
        assert matches == []


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
