"""The one engine interface every join algorithm and the accelerator implement.

The paper hands one CTJ-compiled plan to software LFTJ/CTJ and to TrieJax
alike (conf_asplos_KalinskyKE20, Section 3.2).  Here every engine — the WCOJ
family (LFTJ, CTJ, Generic Join), the traditional pairwise engine, the naive
oracle and the TrieJax model — is an :class:`EngineProtocol`::

    execution = engine.execute(query, database, plan=plan)

Each declares :class:`EngineCapabilities` — whether it consumes precompiled
plans and whether it tolerates repeated variables within an atom, which
``"auto"`` routing checks while it walks a fixed software-engine order
(:mod:`repro.api.routing`) — and returns an :class:`EngineExecution`
carrying the result tuples (in head-variable order), the deterministic
service cost in **modelled nanoseconds** (the unit the service's virtual
clock runs on), and provenance (the :class:`~repro.joins.stats.JoinStats`
counters, the plan, the accelerator report).  The interface lives beside
the algorithms so the accelerator model in :mod:`repro.core` can implement
it without an import cycle; the registry of named engines is
:mod:`repro.engines`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.joins.plan import JoinPlan
from repro.joins.stats import JoinStats
from repro.relational.catalog import Database
from repro.relational.query import ConjunctiveQuery


@dataclass(frozen=True)
class EngineCapabilities:
    """What an engine can consume."""

    supports_plans: bool = False
    supports_repeated_vars: bool = False


@dataclass
class EngineExecution:
    """Outcome of one engine execution.

    ``tuples`` are the output tuples, each ordered by the query's head
    variables, without duplicates (set semantics).  ``cost`` is the
    deterministic service time in modelled nanoseconds; ``plan_used``
    records whether the engine actually consumed the precompiled plan it was
    handed (plan-blind engines ignore plans, and the plan cache must not
    count a hit for them); ``cacheable`` is False for executions whose
    tuples are not the full result set (for example count-only aggregation)
    and therefore must not enter the result cache; ``scatter`` carries the
    per-shard work breakdown (:class:`repro.service.scatter.ScatterGatherStats`)
    when the execution was fanned out over a sharded catalog;
    ``degraded``/``missing_shards`` flag a partial answer whose listed shard
    fragments were unavailable (such an execution is never ``cacheable``).
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
    #: Declared capabilities (plan support, repeated variables).
    capabilities: EngineCapabilities = EngineCapabilities()

    @abc.abstractmethod
    def execute(
        self,
        query: ConjunctiveQuery,
        database: Database,
        plan: Optional[JoinPlan] = None,
    ) -> EngineExecution:
        """Run ``query`` (compiled as ``plan`` when plan-aware) and cost it."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def software_cost(stats: JoinStats, rows: int) -> float:
    """A software engine's service cost: one modelled ns per work unit.

    The work units are the algorithm's abstract counters — index element
    reads plus intermediate results plus output tuples — plus one for the
    call itself.
    """
    return float(1 + stats.index_element_reads + stats.intermediate_results + rows)
