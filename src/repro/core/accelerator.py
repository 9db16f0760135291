"""The TrieJax accelerator model as an engine.

:class:`TrieJaxAccelerator` wires together everything Section 3 describes —
the CTJ compiler, the trie indexes laid out in memory, the Cupid /
MatchMaker / Midwife / LUB datapath, the partial-join-result cache, the
multithreaded scheduler and the shared memory hierarchy — behind the one
engine interface (:class:`~repro.joins.base.EngineProtocol`)::

    execution = TrieJaxAccelerator().execute(pattern_query("cycle3"), database)
    execution.report.summary()

The functional result (the output tuples) is produced by the same execution
that produces the timing, so the accelerator is always exactly as correct as
the software CTJ implementation (the test suite checks both against the
naive oracle).  The execution's cost is the modelled runtime in nanoseconds
— the paper's hardware numbers, not host wall-clock.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import TrieJaxConfig
from repro.core.cupid import CupidProgram
from repro.core.pjr_cache import PJRCache
from repro.core.scheduler import Scheduler
from repro.core.stats import RunReport
from repro.joins.base import CostModel, EngineCapabilities, EngineExecution, EngineProtocol
from repro.joins.compiler import QueryCompiler
from repro.joins.plan import JoinPlan
from repro.memory.energy import EnergyBreakdown, EnergyModel
from repro.memory.hierarchy import MemoryHierarchy
from repro.relational.catalog import Database
from repro.relational.query import ConjunctiveQuery


class TrieJaxAccelerator(EngineProtocol):
    """Cycle-approximate model of the TrieJax co-processor.

    Parameters
    ----------
    config:
        Hardware configuration; defaults to the paper's published design
        point (2.38 GHz, 32 threads, 4 MB PJR cache, hybrid MT).  Plans the
        engine compiles itself cache exactly when ``config.enable_pjr_cache``
        is set, so plans and hardware agree.
    aggregate:
        ``None`` (default) enumerates the result tuples; ``"count"`` enables
        the aggregation mode sketched in the paper's conclusion: matched
        bindings are counted on-chip and never streamed to memory, which
        removes the result-write DRAM traffic.  A count-only execution holds
        no tuples, only ``count``, and is not cacheable.
    dataset_name:
        Label for the run report.
    """

    name = "triejax"
    capabilities = EngineCapabilities(
        supports_plans=True,
        cost_model=CostModel(
            work_model="wcoj",
            ns_per_unit=0.05,
            offload_overhead_ns=10_000.0,
            cyclic_penalty=1.0,
        ),
    )

    def __init__(
        self,
        config: Optional[TrieJaxConfig] = None,
        aggregate: Optional[str] = None,
        dataset_name: Optional[str] = None,
    ):
        if aggregate not in (None, "count"):
            raise ValueError(f"unsupported aggregate {aggregate!r}; use None or 'count'")
        self.config = config or TrieJaxConfig()
        self.aggregate = aggregate
        self.dataset_name = dataset_name
        self.compiler = QueryCompiler(enable_caching=self.config.enable_pjr_cache)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def execute(
        self,
        query: ConjunctiveQuery,
        database: Database,
        plan: Optional[JoinPlan] = None,
    ) -> EngineExecution:
        """Execute ``query`` against ``database`` on the modelled hardware."""
        database.validate_query(query)
        plan_used = plan is not None
        if plan is None:
            plan = self.compiler.compile(query)

        hierarchy = MemoryHierarchy(self.config.hierarchy, self.config.dram)
        pjr_cache = PJRCache(
            capacity_bytes=self.config.pjr_size_bytes,
            entry_capacity_values=self.config.pjr_entry_capacity_values,
            bytes_per_value=self.config.pjr_bytes_per_value,
        )
        program = CupidProgram(
            plan, database, self.config, pjr_cache, count_only=self.aggregate == "count"
        )
        scheduler = Scheduler(self.config, hierarchy)

        tuples = []
        if not program.empty_input():
            scheduler.run(program, program.root_task())
            # Flush any result bytes still sitting in the write-combining buffer.
            hierarchy.flush_write_buffer(program.result_region.base_address)
            tuples = program.results
            if not plan.query.is_full:
                # Projection queries can repeat head tuples; keep set semantics
                # (dict.fromkeys preserves first-appearance order in one pass).
                tuples = list(dict.fromkeys(program.results))
                program.results = tuples

        report = self._build_report(query, program, scheduler, hierarchy, pjr_cache)
        return EngineExecution(
            tuples=tuples,
            cost=max(1.0, report.runtime_ns),
            plan_used=plan_used,
            plan=plan,
            report=report,
            count=program.result_count if self.aggregate == "count" else None,
            cacheable=self.aggregate is None,
        )

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def _build_report(
        self,
        query: ConjunctiveQuery,
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
            dataset_name=self.dataset_name,
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
