"""The TrieJax accelerator facade.

:class:`TrieJaxAccelerator` wires together everything Section 3 describes —
the CTJ compiler, the trie indexes laid out in memory, the Cupid /
MatchMaker / Midwife / LUB datapath, the partial-join-result cache, the
multithreaded scheduler and the shared memory hierarchy — behind a single
call::

    accelerator = TrieJaxAccelerator()
    outcome = accelerator.run(pattern_query("cycle3"), database)
    outcome.report.summary()

The functional result (the output tuples) is produced by the same execution
that produces the timing, so the accelerator is always exactly as correct as
the software CTJ implementation (the test suite checks both against the
naive oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import TrieJaxConfig
from repro.core.cupid import CupidProgram
from repro.core.pjr_cache import PJRCache
from repro.core.scheduler import Scheduler
from repro.core.stats import RunReport
from repro.joins.compiler import QueryCompiler
from repro.joins.plan import JoinPlan
from repro.memory.energy import EnergyBreakdown, EnergyModel
from repro.memory.hierarchy import MemoryHierarchy
from repro.relational.catalog import Database
from repro.relational.layout import MemoryLayout
from repro.relational.query import ConjunctiveQuery
from repro.relational.trie import TrieIndex


@dataclass
class AcceleratorOutcome:
    """Functional result plus the full run report of one accelerated query.

    In the default enumeration mode ``tuples`` holds every result tuple and
    ``count`` equals its length.  In count-only aggregation mode (the paper's
    Section 5 extension, requested via ``aggregate="count"``), ``tuples`` is
    empty and ``count`` carries the number of matched bindings.
    """

    tuples: List[Tuple[int, ...]]
    report: RunReport
    plan: JoinPlan
    count: int = 0

    @property
    def cardinality(self) -> int:
        return len(self.tuples) if self.tuples else self.count

    def as_set(self) -> set:
        return set(self.tuples)


class TrieJaxAccelerator:
    """Cycle-approximate model of the TrieJax co-processor.

    Parameters
    ----------
    config:
        Hardware configuration; defaults to the paper's published design
        point (2.38 GHz, 32 threads, 4 MB PJR cache, hybrid MT).
    compiler:
        CTJ query compiler.  The compiler's caching switch is forced to
        follow ``config.enable_pjr_cache`` so plans and hardware agree.
    """

    def __init__(
        self,
        config: Optional[TrieJaxConfig] = None,
        compiler: Optional[QueryCompiler] = None,
    ):
        self.config = config or TrieJaxConfig()
        self.compiler = compiler or QueryCompiler(
            enable_caching=self.config.enable_pjr_cache
        )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        query: ConjunctiveQuery,
        database: Database,
        plan: Optional[JoinPlan] = None,
        dataset_name: Optional[str] = None,
        aggregate: Optional[str] = None,
    ) -> AcceleratorOutcome:
        """Execute ``query`` against ``database`` on the modelled hardware.

        Parameters
        ----------
        aggregate:
            ``None`` (default) enumerates the result tuples; ``"count"``
            enables the aggregation mode sketched in the paper's conclusion:
            matched bindings are counted on-chip and never streamed to
            memory, which removes the result-write DRAM traffic.
        """
        if aggregate not in (None, "count"):
            raise ValueError(f"unsupported aggregate {aggregate!r}; use None or 'count'")
        database.validate_query(query)
        if plan is None:
            plan = self.compiler.compile(query)

        tries, layout = self._build_indexes(plan, database)
        hierarchy = MemoryHierarchy(self.config.hierarchy, self.config.dram)
        pjr_cache = PJRCache(
            capacity_bytes=self.config.pjr_size_bytes,
            entry_capacity_values=self.config.pjr_entry_capacity_values,
            bytes_per_value=self.config.pjr_bytes_per_value,
        )
        program = CupidProgram(
            plan, tries, layout, self.config, pjr_cache, count_only=aggregate == "count"
        )
        scheduler = Scheduler(self.config, hierarchy)

        if program.empty_input():
            report = self._build_report(
                query, dataset_name, program, scheduler, hierarchy, pjr_cache
            )
            return AcceleratorOutcome([], report, plan, count=0)

        scheduler.run(program, program.root_task())
        # Flush any result bytes still sitting in the write-combining buffer.
        hierarchy.flush_write_buffer(layout.result_region().base_address)

        tuples = program.results
        if not plan.query.is_full:
            # Projection queries can repeat head tuples; keep set semantics
            # (dict.fromkeys preserves first-appearance order in one pass).
            tuples = list(dict.fromkeys(program.results))
            program.results = tuples

        report = self._build_report(
            query, dataset_name, program, scheduler, hierarchy, pjr_cache
        )
        return AcceleratorOutcome(tuples, report, plan, count=program.result_count)

    # ------------------------------------------------------------------ #
    # Index construction
    # ------------------------------------------------------------------ #
    def _build_indexes(
        self, plan: JoinPlan, database: Database
    ) -> Tuple[Dict[str, TrieIndex], MemoryLayout]:
        """Build the per-atom tries and assign them addresses."""
        tries: Dict[str, TrieIndex] = {}
        layout = MemoryLayout()
        for binding in plan.atom_bindings:
            if binding.trie_key in tries:
                continue
            trie = database.trie_for_atom(binding.atom, plan.variable_order)
            tries[binding.trie_key] = trie
            layout.add_trie(binding.trie_key, trie)
        layout.result_region()
        return tries, layout

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def _build_report(
        self,
        query: ConjunctiveQuery,
        dataset_name: Optional[str],
        program: CupidProgram,
        scheduler: Scheduler,
        hierarchy: MemoryHierarchy,
        pjr_cache: PJRCache,
    ) -> RunReport:
        total_cycles = scheduler.report.total_cycles
        runtime_ns = self.config.cycles_to_ns(total_cycles)

        energy = self._energy_breakdown(
            scheduler, hierarchy, pjr_cache, runtime_ns, total_cycles
        )
        return RunReport(
            query_name=query.name,
            dataset_name=dataset_name,
            num_results=program.result_count,
            total_cycles=total_cycles,
            runtime_ns=runtime_ns,
            frequency_ghz=self.config.frequency_ghz,
            scheduler=scheduler.report,
            cache_levels=hierarchy.level_stats(),
            dram=hierarchy.dram_stats,
            pjr=pjr_cache.stats,
            energy=energy,
        )

    def _energy_breakdown(
        self,
        scheduler: Scheduler,
        hierarchy: MemoryHierarchy,
        pjr_cache: PJRCache,
        runtime_ns: float,
        total_cycles: int,
    ) -> EnergyBreakdown:
        """Figure 15 components: DRAM, LLC, L2, L1, PJR cache, TrieJax core."""
        model = EnergyModel(self.config.energy)
        breakdown = EnergyBreakdown()
        breakdown.add("DRAM", model.dram_energy(hierarchy.dram_stats, runtime_ns))
        level_sizes = {
            "L1": self.config.hierarchy.l1_size_bytes,
            "L2": self.config.hierarchy.l2_size_bytes,
            "LLC": self.config.hierarchy.llc_size_bytes,
        }
        for name, stats in hierarchy.level_stats().items():
            breakdown.add(name, model.cache_energy(stats, level_sizes[name], runtime_ns))
        breakdown.add(
            "PJR cache",
            model.sram_access_energy(
                self.config.pjr_size_bytes,
                reads=pjr_cache.stats.sram_reads,
                writes=pjr_cache.stats.sram_writes,
            )
            + (
                model.sram_leakage_energy(self.config.pjr_size_bytes, runtime_ns)
                if self.config.enable_pjr_cache
                else 0.0
            ),
        )
        active_cycles = sum(scheduler.report.component_busy_cycles.values())
        idle_cycles = max(0, total_cycles - active_cycles)
        breakdown.add("TrieJaxCore", model.core_energy(active_cycles, idle_cycles))
        return breakdown
