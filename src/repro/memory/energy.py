"""Energy accounting for DRAM, SRAM structures and the accelerator core.

The paper obtains energy numbers from three tools: DRAMPower (DRAM command
energy plus background/refresh), Cacti 6.5 (on-chip SRAM access and leakage
energy), and the synthesized design (core logic energy).  None of these tools
are available here, so this module substitutes per-event energy constants of
the same order of magnitude as those tools report for the technologies in the
paper (45 nm logic, DDR3 DRAM).  The figures of merit in the evaluation are
*ratios* — energy reduction versus baselines (Figure 16) and the share of
each component (Figure 15) — which depend on the relative, not absolute,
values; DESIGN.md records this substitution.

All energies are reported in nanojoules (nJ) and all times in nanoseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from repro.memory.cache import CacheStats
from repro.memory.dram import DRAMStats


@dataclass(frozen=True)
class EnergyConstants:
    """Per-event and per-time energy constants.

    DRAM values approximate DDR3 devices (DRAMPower-style): an activate
    (plus implied precharge) costs tens of nanojoules across the rank, a
    64-byte read/write burst a similar amount, and background power —
    dominated by refresh and standby current, the paper's "idle energy" —
    is charged per nanosecond of wall-clock time.

    SRAM values follow the Cacti trend of energy growing roughly with the
    square root of capacity; :meth:`EnergyModel.sram_read_energy` applies
    that scaling from the reference point below.
    """

    # --- DRAM (per command / per time) ---------------------------------- #
    dram_activate_nj: float = 22.0
    dram_read_burst_nj: float = 18.0
    dram_write_burst_nj: float = 20.0
    dram_background_nw_per_ns: float = 0.35   # ~350 mW standby+refresh for the rank

    # --- SRAM (Cacti-style scaling) -------------------------------------- #
    sram_reference_size_bytes: int = 32 * 1024
    sram_reference_read_nj: float = 0.015     # 15 pJ per 32 KB access
    sram_write_multiplier: float = 1.15
    sram_leakage_nw_per_byte: float = 2.5e-11  # ~25 uW per MB, expressed in nJ/ns/byte

    # --- Accelerator core logic ------------------------------------------ #
    core_active_nj_per_cycle: float = 0.020   # ~50 mW at 2.38 GHz when busy
    core_idle_nj_per_cycle: float = 0.002


@dataclass
class EnergyBreakdown:
    """Energy per component, in nanojoules."""

    components: Dict[str, float] = field(default_factory=dict)

    def add(self, component: str, energy_nj: float) -> None:
        self.components[component] = self.components.get(component, 0.0) + energy_nj

    @property
    def total_nj(self) -> float:
        return sum(self.components.values())

    def fraction(self, component: str) -> float:
        total = self.total_nj
        return self.components.get(component, 0.0) / total if total else 0.0

    def fractions(self) -> Dict[str, float]:
        total = self.total_nj
        if not total:
            return {name: 0.0 for name in self.components}
        return {name: value / total for name, value in self.components.items()}

    def merge(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        merged = EnergyBreakdown(dict(self.components))
        for name, value in other.components.items():
            merged.add(name, value)
        return merged


class EnergyModel:
    """Turns event counts and durations into an :class:`EnergyBreakdown`."""

    def __init__(self, constants: EnergyConstants | None = None):
        self.constants = constants or EnergyConstants()

    # ------------------------------------------------------------------ #
    # DRAM
    # ------------------------------------------------------------------ #
    def dram_energy(self, stats: DRAMStats, elapsed_ns: float) -> float:
        """Total DRAM energy: command energy plus background/refresh energy."""
        constants = self.constants
        command = (
            stats.activates * constants.dram_activate_nj
            + stats.reads * constants.dram_read_burst_nj
            + stats.writes * constants.dram_write_burst_nj
        )
        background = constants.dram_background_nw_per_ns * max(elapsed_ns, 0.0)
        return command + background

    # ------------------------------------------------------------------ #
    # SRAM
    # ------------------------------------------------------------------ #
    def sram_read_energy(self, size_bytes: int) -> float:
        """Per-read energy of an SRAM of ``size_bytes`` (Cacti-style sqrt scaling)."""
        constants = self.constants
        scale = math.sqrt(max(size_bytes, 1) / constants.sram_reference_size_bytes)
        return constants.sram_reference_read_nj * scale

    def sram_write_energy(self, size_bytes: int) -> float:
        return self.sram_read_energy(size_bytes) * self.constants.sram_write_multiplier

    def sram_access_energy(
        self, size_bytes: int, reads: int, writes: int = 0
    ) -> float:
        """Dynamic energy of ``reads``/``writes`` accesses to one SRAM structure."""
        return reads * self.sram_read_energy(size_bytes) + writes * self.sram_write_energy(
            size_bytes
        )

    def sram_leakage_energy(self, size_bytes: int, elapsed_ns: float) -> float:
        """Leakage energy of one SRAM structure over ``elapsed_ns``."""
        return self.constants.sram_leakage_nw_per_byte * size_bytes * max(elapsed_ns, 0.0)

    def cache_energy(
        self, stats: CacheStats, size_bytes: int, elapsed_ns: float
    ) -> float:
        """Dynamic plus leakage energy of one cache level."""
        dynamic = self.sram_access_energy(size_bytes, stats.reads, stats.writes)
        return dynamic + self.sram_leakage_energy(size_bytes, elapsed_ns)

    # ------------------------------------------------------------------ #
    # Core logic
    # ------------------------------------------------------------------ #
    def core_energy(self, active_cycles: int, idle_cycles: int = 0) -> float:
        """Energy of the accelerator's datapath/control logic."""
        constants = self.constants
        return (
            active_cycles * constants.core_active_nj_per_cycle
            + idle_cycles * constants.core_idle_nj_per_cycle
        )
