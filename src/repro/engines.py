"""The unified engine protocol and the repository's single engine registry.

Before this module existed the repository had three parallel execution
abstractions: ``repro.joins.base.JoinEngine.run`` for the software
algorithms, a service-local backend protocol, and a private engine table
inside ``repro.cli``.  This module
absorbs all three behind one protocol, mirroring how the paper feeds one
CTJ-compiled plan to software LFTJ/CTJ and the TrieJax accelerator alike
(conf_asplos_KalinskyKE20, Section 3.2)::

    engine = create_engine("ctj")
    execution = engine.execute(query, database, plan=plan)

Every engine declares :class:`EngineCapabilities` — whether it consumes
precompiled plans, whether it tolerates repeated variables within an atom,
and a :class:`CostModel` the cost router uses to price it for a given query
— and returns an :class:`EngineExecution` carrying the result tuples, the
deterministic service cost in **modelled nanoseconds** (the unit the
service's virtual clock runs on), and provenance (stats, plan, accelerator
report).

The registry (:data:`ENGINE_FACTORIES`, :func:`create_engine`,
:func:`register_engine`) is the *only* engine table in the repository: the
CLI, :class:`repro.api.Session`, :class:`repro.service.QueryService`, the
evaluation harness and the benchmarks all resolve engine names here.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import TrieJaxAccelerator, TrieJaxConfig
from repro.joins import (
    CachedTrieJoin,
    GenericJoin,
    JoinEngine,
    LeapfrogTrieJoin,
    NaiveJoin,
    PairwiseJoin,
)
from repro.joins.plan import JoinPlan
from repro.joins.stats import JoinStats
from repro.relational.catalog import Database
from repro.relational.query import ConjunctiveQuery


@dataclass(frozen=True)
class CostModel:
    """How the cost router prices an engine for a query.

    ``work_model`` names the work estimator from
    :mod:`repro.relational.statistics` (``"wcoj"``, ``"pairwise"`` or
    ``"nested-loop"``); the estimated work is then scaled and offset::

        cost_ns = offload_overhead_ns
                + work * ns_per_unit * (cyclic_penalty if query is cyclic else 1)

    ``cyclic_penalty`` models the random-access / recomputation tax software
    engines pay on cyclic queries (the blowup the paper's Figures 17/18
    measure); the accelerator's PJR cache and hardware pipeline flatten it
    to 1 at the price of a fixed offload overhead.
    """

    work_model: str = "wcoj"
    ns_per_unit: float = 1.0
    offload_overhead_ns: float = 0.0
    cyclic_penalty: float = 1.0


@dataclass(frozen=True)
class EngineCapabilities:
    """What an engine can consume and how it should be priced."""

    supports_plans: bool = False
    supports_repeated_vars: bool = False
    cost_model: CostModel = field(default_factory=CostModel)


@dataclass
class EngineExecution:
    """Outcome of one engine execution.

    ``cost`` is the deterministic service time in modelled nanoseconds;
    ``plan_used`` records whether the engine actually consumed the
    precompiled plan it was handed (plan-blind engines ignore plans, and
    the plan cache must not count a hit for them); ``cacheable`` is False
    for executions whose tuples are not the full result set (for example
    count-only aggregation) and therefore must not enter the result cache;
    ``scatter`` carries the per-shard work breakdown
    (:class:`repro.service.scatter.ScatterGatherStats`) when the execution
    was fanned out over a sharded catalog; ``degraded``/``missing_shards``
    flag a partial answer whose listed shard fragments were unavailable
    (such an execution is never ``cacheable``).
    """

    tuples: List[Tuple[int, ...]]
    cost: float
    plan_used: bool
    stats: Optional[JoinStats] = None
    plan: Optional[JoinPlan] = None
    report: Optional[object] = None
    count: Optional[int] = None
    cacheable: bool = True
    scatter: Optional[object] = None
    degraded: bool = False
    missing_shards: Tuple[int, ...] = ()

    @property
    def cardinality(self) -> int:
        """Result count: the tuple count, or the aggregated count."""
        if self.tuples:
            return len(self.tuples)
        return self.count if self.count is not None else 0


class EngineProtocol(abc.ABC):
    """One way of executing a conjunctive query, with declared capabilities."""

    #: Registry / report name.
    name: str = "engine"
    #: Declared capabilities (plan support, repeated variables, cost model).
    capabilities: EngineCapabilities = EngineCapabilities()

    @property
    def plan_aware(self) -> bool:
        """Legacy alias for ``capabilities.supports_plans``."""
        return self.capabilities.supports_plans

    @property
    def cost_model(self) -> CostModel:
        return self.capabilities.cost_model

    @abc.abstractmethod
    def execute(
        self,
        query: ConjunctiveQuery,
        database: Database,
        plan: Optional[JoinPlan] = None,
    ) -> EngineExecution:
        """Run ``query`` (compiled as ``plan`` when plan-aware) and cost it."""

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"


class SoftwareEngine(EngineProtocol):
    """An engine wrapping one of the software join algorithms.

    Plan-aware algorithms (LFTJ, CTJ, Generic Join) accept the canonical
    plan from the plan cache; plan-blind ones (naive, pairwise) plan
    internally and the plan argument is ignored.  ``ns_per_work_unit``
    converts the algorithm's abstract work counters (index element reads +
    intermediate results + output tuples) into modelled nanoseconds.
    """

    def __init__(
        self,
        engine: JoinEngine,
        plan_aware: bool,
        ns_per_work_unit: float = 1.0,
        name: Optional[str] = None,
        supports_repeated_vars: bool = False,
        cost_model: Optional[CostModel] = None,
    ):
        self.engine = engine
        self.name = name or engine.name
        self.ns_per_work_unit = ns_per_work_unit
        self.capabilities = EngineCapabilities(
            supports_plans=plan_aware,
            supports_repeated_vars=supports_repeated_vars,
            cost_model=cost_model or CostModel(),
        )

    def execute(
        self,
        query: ConjunctiveQuery,
        database: Database,
        plan: Optional[JoinPlan] = None,
    ) -> EngineExecution:
        if self.plan_aware:
            result = self.engine.run(query, database, plan=plan)
        else:
            result = self.engine.run(query, database)
        stats = result.stats
        work_units = (
            1
            + stats.index_element_reads
            + stats.intermediate_results
            + result.cardinality
        )
        return EngineExecution(
            tuples=result.tuples,
            cost=work_units * self.ns_per_work_unit,
            plan_used=self.plan_aware and plan is not None,
            stats=stats,
            plan=result.plan if self.plan_aware else None,
        )


class AcceleratorEngine(EngineProtocol):
    """The TrieJax accelerator timing model behind the engine protocol.

    The cost is the timing model's simulated runtime in nanoseconds — the
    paper's hardware numbers, not host wall-clock.  ``aggregate="count"``
    enables the on-chip counting mode (tuples are not enumerated, so the
    execution is marked non-cacheable); ``dataset_name`` labels the run
    report.
    """

    name = "triejax"
    capabilities = EngineCapabilities(
        supports_plans=True,
        supports_repeated_vars=False,
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
        self.accelerator = TrieJaxAccelerator(config)
        self.aggregate = aggregate
        self.dataset_name = dataset_name

    def execute(
        self,
        query: ConjunctiveQuery,
        database: Database,
        plan: Optional[JoinPlan] = None,
    ) -> EngineExecution:
        outcome = self.accelerator.run(
            query,
            database,
            plan=plan,
            dataset_name=self.dataset_name,
            aggregate=self.aggregate,
        )
        return EngineExecution(
            tuples=outcome.tuples,
            cost=max(1.0, outcome.report.runtime_ns),
            plan_used=plan is not None,
            plan=outcome.plan,
            report=outcome.report,
            count=outcome.count,
            cacheable=self.aggregate is None,
        )


# --------------------------------------------------------------------------- #
# The single engine registry
# --------------------------------------------------------------------------- #
#: Calibrated cost models for the built-in engines.  The constants are
#: coarse but deterministic: software WCOJ engines charge one modelled ns
#: per work unit and a cyclic-miss penalty (CTJ's PJR cache softens it
#: relative to plain LFTJ); the accelerator charges a fixed offload
#: overhead plus a small per-unit cost, so small/acyclic queries stay on
#: software while heavy cyclic queries route to the accelerator model.
_COST_MODELS: Dict[str, CostModel] = {
    "naive": CostModel(work_model="nested-loop"),
    "lftj": CostModel(work_model="wcoj", cyclic_penalty=48.0),
    "ctj": CostModel(work_model="wcoj", cyclic_penalty=32.0),
    "generic": CostModel(work_model="wcoj", ns_per_unit=1.25, cyclic_penalty=40.0),
    "pairwise": CostModel(work_model="pairwise", cyclic_penalty=32.0),
}

#: Factories for every registered engine, by name.  This is the one engine
#: table in the repository.
ENGINE_FACTORIES: Dict[str, Callable[[], EngineProtocol]] = {
    "naive": lambda: SoftwareEngine(
        NaiveJoin(),
        plan_aware=False,
        supports_repeated_vars=True,
        cost_model=_COST_MODELS["naive"],
    ),
    "lftj": lambda: SoftwareEngine(
        LeapfrogTrieJoin(), plan_aware=True, cost_model=_COST_MODELS["lftj"]
    ),
    "ctj": lambda: SoftwareEngine(
        CachedTrieJoin(), plan_aware=True, cost_model=_COST_MODELS["ctj"]
    ),
    "generic": lambda: SoftwareEngine(
        GenericJoin(), plan_aware=True, name="generic", cost_model=_COST_MODELS["generic"]
    ),
    "pairwise": lambda: SoftwareEngine(
        PairwiseJoin("hash"),
        plan_aware=False,
        name="pairwise",
        cost_model=_COST_MODELS["pairwise"],
    ),
    "triejax": lambda: AcceleratorEngine(),
}


def engine_names() -> Tuple[str, ...]:
    """Currently registered engine names, sorted for stable choice lists."""
    return tuple(sorted(ENGINE_FACTORIES))


def register_engine(
    name: str, factory: Callable[[], EngineProtocol], replace: bool = False
) -> None:
    """Register ``factory`` under ``name`` in the shared registry.

    Registration is visible to every consumer (CLI, Session, service,
    harness) because they all resolve names through this module.
    """
    if name in ENGINE_FACTORIES and not replace:
        raise KeyError(f"engine {name!r} already registered (pass replace=True)")
    ENGINE_FACTORIES[name] = factory


def create_engine(name: str) -> EngineProtocol:
    """Instantiate the engine registered under ``name``."""
    try:
        factory = ENGINE_FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown engine {name!r}; registered engines: {', '.join(engine_names())}"
        ) from None
    return factory()
