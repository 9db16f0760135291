"""Eviction-behaviour tests for the PJR cache (``repro.core.pjr_cache``).

The cache is filled past its byte capacity through the full construction
protocol (allocate → append → finalize) and the tests pin down the LRU
eviction order, including lookup-driven LRU refreshes, and check that the
hit/miss/eviction counters stay mutually consistent throughout.
"""

import pytest

from repro.core import PJRCache


def build_entry(cache, key_id, values):
    """Build and finalize one entry via the full construction protocol."""
    key = ("z", (key_id,))
    signature = (key_id,)
    assert cache.try_allocate(key, signature)
    for value in values:
        assert cache.append(key, signature, (value, {"t": value}))
    assert cache.finalize(key, signature)
    return key


@pytest.fixture
def small_cache():
    """Capacity of exactly three 2-value entries (16 bytes each)."""
    return PJRCache(capacity_bytes=48, entry_capacity_values=4, bytes_per_value=8)


class TestCapacityRejection:
    def test_a_match_larger_than_the_whole_cache_is_rejected(self):
        cache = PJRCache(capacity_bytes=8, entry_capacity_values=4, bytes_per_value=8)
        key, signature = ("z", (1,)), (1,)
        assert cache.try_allocate(key, signature)
        assert not cache.append(key, signature, (7, {"t": 7, "u": 8}))
        assert cache.stats.capacity_rejections == 1
        assert cache.bytes_used == 0 and cache.stats.evictions == 0


class TestEvictionOrder:
    def test_fill_past_capacity_evicts_lru(self, small_cache):
        keys = [build_entry(small_cache, i, [10 * i, 10 * i + 1]) for i in range(3)]
        assert small_cache.bytes_used == 48
        assert small_cache.stats.evictions == 0

        # Refresh entry 0: entry 1 becomes the LRU victim.
        assert small_cache.lookup(keys[0]) is not None
        newcomer = build_entry(small_cache, 3, [30, 31])

        assert small_cache.stats.evictions == 1
        assert small_cache.peek(keys[1]) is None
        for key in (keys[0], keys[2], newcomer):
            assert small_cache.peek(key) is not None
        assert small_cache.bytes_used == 48

    def test_eviction_cascade_in_insertion_order(self, small_cache):
        keys = [build_entry(small_cache, i, [10 * i, 10 * i + 1]) for i in range(3)]
        # A 3-value entry (24 bytes) must displace the two oldest entries.
        big = build_entry(small_cache, 9, [90, 91, 92])
        assert small_cache.stats.evictions == 2
        assert small_cache.peek(keys[0]) is None and small_cache.peek(keys[1]) is None
        assert small_cache.peek(keys[2]) is not None and small_cache.peek(big) is not None

    def test_oversized_entry_never_fits(self):
        cache = PJRCache(capacity_bytes=16, entry_capacity_values=8, bytes_per_value=8)
        key, signature = ("z", (1,)), (1,)
        assert cache.try_allocate(key, signature)
        assert cache.append(key, signature, (1, {"t": 1}))
        assert cache.append(key, signature, (2, {"t": 2}))
        # The third value exceeds total capacity: the entry is deallocated,
        # counted as a capacity rejection — not an entry overflow, which is
        # reserved for entries outgrowing entry_capacity_values.
        assert not cache.append(key, signature, (3, {"t": 3}))
        assert cache.stats.capacity_rejections == 1
        assert cache.stats.overflows == 0
        assert cache.num_pending == 0 and cache.num_entries == 0
        assert cache.bytes_used == 0

    def test_overflow_and_capacity_rejection_are_distinct_counters(self):
        # Entry overflow: plenty of SRAM, but the entry exceeds its per-entry
        # value budget.
        roomy = PJRCache(capacity_bytes=4096, entry_capacity_values=2, bytes_per_value=8)
        key, signature = ("z", (1,)), (1,)
        assert roomy.try_allocate(key, signature)
        assert roomy.append(key, signature, (1, {"t": 1}))
        assert roomy.append(key, signature, (2, {"t": 2}))
        assert not roomy.append(key, signature, (3, {"t": 3}))
        assert roomy.stats.overflows == 1
        assert roomy.stats.capacity_rejections == 0

        # Capacity rejection: generous per-entry budget, but the whole SRAM
        # cannot make room even with every complete entry evicted.
        tight = PJRCache(capacity_bytes=8, entry_capacity_values=64, bytes_per_value=8)
        assert tight.try_allocate(key, signature)
        assert tight.append(key, signature, (1, {"t": 1}))
        assert not tight.append(key, signature, (2, {"t": 2}))
        assert tight.stats.capacity_rejections == 1
        assert tight.stats.overflows == 0
        assert tight.stats.as_dict()["capacity_rejections"] == 1


class TestCounterConsistency:
    def test_hit_miss_counters_stay_consistent(self, small_cache):
        keys = [build_entry(small_cache, i, [10 * i, 10 * i + 1]) for i in range(3)]
        assert small_cache.lookup(keys[0]) is not None  # hit (refreshes LRU)
        build_entry(small_cache, 3, [30, 31])  # evicts keys[1]
        assert small_cache.lookup(keys[1]) is None  # miss after eviction
        assert small_cache.lookup(keys[2]) is not None  # hit

        stats = small_cache.stats
        assert stats.lookups == 3
        assert stats.hits == 2
        assert stats.misses == 1
        assert stats.hits + stats.misses == stats.lookups
        assert stats.hit_rate == pytest.approx(2 / 3)
        assert stats.allocations == 4
        assert stats.entries_finalized == 4
        assert stats.values_inserted == 8
        assert stats.evictions == 1
        # Replay counts only hit entries' values (2 values per hit).
        assert stats.values_replayed == 4
        assert stats.sram_reads == stats.lookups + stats.values_replayed
        assert stats.sram_writes == stats.values_inserted

    def test_peek_does_not_touch_stats_or_lru(self, small_cache):
        keys = [build_entry(small_cache, i, [10 * i, 10 * i + 1]) for i in range(3)]
        assert small_cache.peek(keys[0]) is not None
        assert small_cache.stats.lookups == 0
        # peek must not have refreshed keys[0]: it is still the LRU victim.
        build_entry(small_cache, 3, [30, 31])
        assert small_cache.peek(keys[0]) is None

    def test_peak_bytes_tracks_high_water_mark(self, small_cache):
        build_entry(small_cache, 0, [1, 2])
        assert small_cache.stats.peak_bytes_used == 16
        build_entry(small_cache, 1, [3, 4])
        build_entry(small_cache, 2, [5, 6])
        build_entry(small_cache, 3, [7, 8])  # evicts one, peak stays at cap
        assert small_cache.stats.peak_bytes_used == 48
        assert small_cache.bytes_used == 48
