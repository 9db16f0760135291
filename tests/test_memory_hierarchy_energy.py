"""Tests for the memory hierarchy, the energy model and access traces."""

import pytest

from repro.memory import (
    DRAMStats,
    EnergyBreakdown,
    EnergyConstants,
    EnergyModel,
    HierarchyConfig,
    MemoryHierarchy,
)


class TestMemoryHierarchy:
    def test_read_latency_increases_down_the_hierarchy(self):
        hierarchy = MemoryHierarchy()
        cold = hierarchy.read(0)
        warm = hierarchy.read(0)
        assert cold > warm
        assert warm == hierarchy.config.l1_latency
        assert hierarchy.words_read == 2

    def test_l2_and_llc_hits(self):
        config = HierarchyConfig(
            l1_size_bytes=128,
            l1_associativity=2,
            l2_size_bytes=256,
            l2_associativity=2,
            llc_size_bytes=64 * 1024,
        )
        hierarchy = MemoryHierarchy(config)
        # Touch enough distinct lines to overflow L1 (2 lines) but not LLC.
        for line in range(8):
            hierarchy.read(line * 64)
        # Line 0 was evicted from L1/L2 by now but still in LLC.
        latency = hierarchy.read(0)
        assert latency <= config.l1_latency + config.l2_latency + config.llc_latency
        stats = hierarchy.level_stats()
        assert stats["LLC"].reads > 0

    def test_an_l2_hit_costs_l1_plus_l2_latency(self):
        config = HierarchyConfig(
            l1_size_bytes=128, l1_associativity=2, l2_size_bytes=256, l2_associativity=2
        )
        hierarchy = MemoryHierarchy(config)
        for line in range(3):  # L1 keeps lines 1 and 2; L2 keeps all three
            hierarchy.read(line * 64)
        assert hierarchy.read(0) == config.l1_latency + config.l2_latency

    def test_write_buffer_absorbs_small_writes(self):
        hierarchy = MemoryHierarchy()
        latencies = [hierarchy.write(1 << 20, num_bytes=4) for _ in range(15)]
        assert all(latency == 1 for latency in latencies)
        assert hierarchy.dram_stats.writes == 0
        # The 16th word fills the 64-byte buffer and goes to DRAM.
        final = hierarchy.write(1 << 20, num_bytes=4)
        assert final > 1
        assert hierarchy.dram_stats.writes == 1

    def test_write_bypass_keeps_results_out_of_private_caches(self):
        hierarchy = MemoryHierarchy()
        for _ in range(64):
            hierarchy.write(1 << 20, num_bytes=4)
        assert hierarchy.l1.stats.accesses == 0
        assert hierarchy.l2.stats.accesses == 0
        assert hierarchy.llc.stats.writes == 0

    def test_disabling_bypass_routes_writes_through_llc(self):
        config = HierarchyConfig(write_bypass=False)
        hierarchy = MemoryHierarchy(config)
        for _ in range(32):
            hierarchy.write(1 << 20, num_bytes=4)
        assert hierarchy.llc.stats.writes > 0

    def test_flush_write_buffer(self):
        hierarchy = MemoryHierarchy()
        assert hierarchy.flush_write_buffer(0) == 0
        hierarchy.write(1 << 20, num_bytes=4)
        assert hierarchy.flush_write_buffer(1 << 20) > 0
        assert hierarchy.dram_stats.writes == 1

    def test_reset_clears_state_and_stats(self):
        hierarchy = MemoryHierarchy()
        hierarchy.read(0)
        hierarchy.write(1 << 20, num_bytes=64)
        hierarchy.reset()
        assert hierarchy.words_read == 0
        assert hierarchy.words_written == 0
        assert hierarchy.dram_stats.accesses == 0
        assert hierarchy.l1.stats.accesses == 0

    def test_repeated_index_reads_are_served_on_chip(self):
        """The locality argument: a small working set stays in the caches."""
        hierarchy = MemoryHierarchy()
        addresses = [i * 4 for i in range(256)]  # 1 KB working set
        for address in addresses:
            hierarchy.read(address)
        dram_before = hierarchy.dram_stats.accesses
        for _ in range(10):
            for address in addresses:
                hierarchy.read(address)
        assert hierarchy.dram_stats.accesses == dram_before


class TestEnergyModel:
    def test_sram_energy_scales_with_size(self):
        model = EnergyModel()
        assert model.sram_read_energy(4 * 1024 * 1024) > model.sram_read_energy(32 * 1024)
        assert model.sram_write_energy(32 * 1024) > model.sram_read_energy(32 * 1024)

    def test_sram_access_and_leakage(self):
        model = EnergyModel()
        dynamic = model.sram_access_energy(32 * 1024, reads=100, writes=50)
        assert dynamic > 0
        leakage = model.sram_leakage_energy(4 * 1024 * 1024, elapsed_ns=1000.0)
        assert leakage > 0
        assert model.sram_leakage_energy(4 * 1024 * 1024, elapsed_ns=0.0) == 0.0

    def test_dram_energy_includes_background(self):
        model = EnergyModel()
        stats = DRAMStats(reads=10, writes=5, activates=8)
        active_only = model.dram_energy(stats, elapsed_ns=0.0)
        with_background = model.dram_energy(stats, elapsed_ns=10_000.0)
        assert with_background > active_only > 0

    def test_core_energy(self):
        model = EnergyModel()
        assert model.core_energy(active_cycles=1000, idle_cycles=0) > model.core_energy(
            active_cycles=0, idle_cycles=1000
        )

    def test_custom_constants(self):
        constants = EnergyConstants(dram_read_burst_nj=100.0)
        model = EnergyModel(constants)
        stats = DRAMStats(reads=1)
        assert model.dram_energy(stats, 0.0) == pytest.approx(100.0)


class TestEnergyBreakdown:
    def test_add_total_and_fractions(self):
        breakdown = EnergyBreakdown()
        breakdown.add("DRAM", 80.0)
        breakdown.add("L1", 20.0)
        breakdown.add("DRAM", 20.0)
        assert breakdown.total_nj == pytest.approx(120.0)
        assert breakdown.fraction("DRAM") == pytest.approx(100.0 / 120.0)
        fractions = breakdown.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_empty_breakdown(self):
        breakdown = EnergyBreakdown()
        assert breakdown.total_nj == 0.0
        assert breakdown.fraction("DRAM") == 0.0
        assert breakdown.fractions() == {}

    def test_merge(self):
        a = EnergyBreakdown({"DRAM": 10.0})
        b = EnergyBreakdown({"DRAM": 5.0, "L1": 1.0})
        merged = a.merge(b)
        assert merged.components == {"DRAM": 15.0, "L1": 1.0}
        assert a.components == {"DRAM": 10.0}
