"""Run reports: everything one TrieJax execution produces besides the tuples.

A :class:`RunReport` bundles the timing outcome of the scheduler, the memory
system statistics, the PJR-cache behaviour and the energy breakdown.  The evaluation harness (``repro.eval``) consumes these
reports to regenerate the paper's figures; examples print them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.pjr_cache import PJRCacheStats
from repro.core.scheduler import SchedulerReport
from repro.memory.cache import CacheStats
from repro.memory.dram import DRAMStats
from repro.memory.energy import EnergyBreakdown


@dataclass
class RunReport:
    """Complete account of one accelerated query execution.

    Attributes
    ----------
    query_name / dataset_name:
        Workload identification (dataset name is optional).
    num_results:
        Number of result tuples produced.
    total_cycles / runtime_ns:
        Simulated execution time.
    frequency_ghz:
        Clock the cycle count was converted with.
    scheduler:
        Raw scheduler outcome: per-component busy cycles and operation
        counts, spawn statistics, per-thread activity.
    cache_levels / dram:
        Memory-hierarchy statistics (L1, L2, LLC) and DRAM command counts.
    pjr:
        Partial-join-result cache statistics.
    energy:
        Per-component energy breakdown (DRAM, LLC, L2, L1, PJR cache, core).
    """

    query_name: str
    dataset_name: Optional[str] = None
    num_results: int = 0
    total_cycles: int = 0
    runtime_ns: float = 0.0
    frequency_ghz: float = 0.0
    scheduler: SchedulerReport = field(default_factory=SchedulerReport)
    cache_levels: Dict[str, CacheStats] = field(default_factory=dict)
    dram: DRAMStats = field(default_factory=DRAMStats)
    pjr: PJRCacheStats = field(default_factory=PJRCacheStats)
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)

    # ------------------------------------------------------------------ #
    # Derived figures
    # ------------------------------------------------------------------ #
    @property
    def runtime_seconds(self) -> float:
        return self.runtime_ns * 1e-9

    @property
    def total_energy_nj(self) -> float:
        return self.energy.total_nj

    @property
    def total_energy_joules(self) -> float:
        return self.energy.total_nj * 1e-9

    @property
    def dram_accesses(self) -> int:
        """Main-memory accesses (the Figure 17 metric for TrieJax itself)."""
        return self.dram.accesses

    @property
    def energy_fractions(self) -> Dict[str, float]:
        """Per-component share of total energy (the Figure 15 metric)."""
        return self.energy.fractions()

    @property
    def average_threads_active(self) -> float:
        """Average hardware-thread occupancy over the run."""
        if self.total_cycles <= 0:
            return 0.0
        busy = sum(stats.busy_cycles for stats in self.scheduler.thread_stats.values())
        return busy / self.total_cycles

    def summary(self) -> str:
        """Short human-readable summary used by the examples."""
        lines = [
            f"query {self.query_name}"
            + (f" on {self.dataset_name}" if self.dataset_name else ""),
            f"  results            : {self.num_results}",
            f"  cycles             : {self.total_cycles}",
            f"  runtime            : {self.runtime_ns / 1e3:.2f} us",
            f"  DRAM accesses      : {self.dram.accesses}",
            f"  PJR hit rate       : {self.pjr.hit_rate:.2%}"
            if self.pjr.lookups
            else "  PJR hit rate       : n/a (no cacheable variable)",
            f"  energy             : {self.total_energy_nj / 1e3:.2f} uJ",
            "  energy breakdown   : "
            + ", ".join(
                f"{name} {fraction:.1%}"
                for name, fraction in sorted(
                    self.energy_fractions.items(), key=lambda kv: -kv[1]
                )
            ),
            f"  threads (max/avg)  : {self.scheduler.max_concurrent_threads}"
            f"/{self.average_threads_active:.1f}",
        ]
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        """Flat-ish dictionary used by the reporting layer and tests."""
        return {
            "query": self.query_name,
            "dataset": self.dataset_name,
            "num_results": self.num_results,
            "total_cycles": self.total_cycles,
            "runtime_ns": self.runtime_ns,
            "dram_accesses": self.dram.accesses,
            "energy_nj": self.total_energy_nj,
            "energy_fractions": self.energy_fractions,
            "pjr": self.pjr.as_dict(),
            "cache_levels": {
                name: stats.as_dict() for name, stats in self.cache_levels.items()
            },
            "component_busy_cycles": dict(self.scheduler.component_busy_cycles),
            "max_concurrent_threads": self.scheduler.max_concurrent_threads,
        }
