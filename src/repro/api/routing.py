"""Cost-based routing: pick the cheapest registered engine for a query.

This implements the ROADMAP's multi-backend routing item: instead of the
service's historical round-robin rotation, each query is priced against
every candidate engine using the cardinality estimates of
:mod:`repro.relational.statistics` and the engine's declared
:class:`~repro.joins.base.CostModel`, and the cheapest eligible engine
wins.  The estimates are pure functions of (query, database), so routing is
deterministic and reproducible.

The net effect on the paper's workload mirrors the paper's own division of
labour: small/acyclic patterns (paths, stars) stay on the software CTJ
engine, while heavy cyclic patterns (Cycle-3/4, Clique-4) — where software
pays the cyclic random-access tax the accelerator's PJR cache removes —
route to the TrieJax model despite its fixed offload overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.joins.base import EngineProtocol
from repro.relational.catalog import Database
from repro.relational.query import ConjunctiveQuery
from repro.relational.sharding import SCATTER_DISPATCH_COST_NS
from repro.relational.statistics import (
    active_domain_size,
    has_repeated_atom_variables,
    is_cyclic,
    nested_loop_work_estimate,
    pairwise_work_estimate,
    scatter_work_estimate,
    wcoj_work_estimate,
)

#: Work estimators by cost-model name (all take a precomputed domain size).
_WORK_MODELS = {
    "wcoj": lambda query, database, domain: wcoj_work_estimate(
        query, database, domain=domain
    ),
    "pairwise": lambda query, database, domain: pairwise_work_estimate(
        query, database, domain=domain
    ),
    "nested-loop": lambda query, database, domain: nested_loop_work_estimate(
        query, database
    ),
}


@dataclass(frozen=True)
class EngineEstimate:
    """One engine's price for one query.

    ``shards`` is 1 for a monolithic execution; greater values mean the
    engine was priced for scatter-gather over a sharded catalog, in which
    case ``work`` is the critical-path (slowest-shard) work plus the
    per-shard dispatch charge.
    """

    engine: str
    work: float
    cost_ns: float
    eligible: bool
    reason: str
    shards: int = 1


@dataclass(frozen=True)
class RouteDecision:
    """Outcome of routing one query: the winner plus every estimate."""

    chosen: str
    cyclic: bool
    estimates: Tuple[EngineEstimate, ...]
    reason: str

    def estimate_for(self, engine: str) -> Optional[EngineEstimate]:
        for estimate in self.estimates:
            if estimate.engine == engine:
                return estimate
        return None

    def describe(self) -> str:
        """Human-readable routing table (used by ``repro explain``)."""
        lines = [
            f"query shape     : {'cyclic' if self.cyclic else 'acyclic'}",
            f"chosen engine   : {self.chosen} ({self.reason})",
            "engine estimates:",
        ]
        for est in sorted(self.estimates, key=lambda e: (not e.eligible, e.cost_ns)):
            marker = "->" if est.engine == self.chosen else "  "
            status = "" if est.eligible else f"  [ineligible: {est.reason}]"
            lines.append(
                f"  {marker} {est.engine:<10} work ~{est.work:>14.1f}"
                f"  cost ~{est.cost_ns:>14.1f} ns{status}"
            )
        return "\n".join(lines)


class CostRouter:
    """Prices a query on every candidate engine and picks the cheapest.

    Ties break on engine name, so routing is fully deterministic.  Engines
    whose capabilities cannot execute the query (repeated variables within
    an atom on a trie-join engine) are excluded before comparison.
    """

    def estimates(
        self,
        query: ConjunctiveQuery,
        database: Database,
        engines: Mapping[str, EngineProtocol],
    ) -> Tuple[bool, Tuple[EngineEstimate, ...]]:
        """Per-engine estimates for ``query``; returns (cyclic, estimates).

        The active-domain scan and each work model run at most once per
        call, however many engines share them — pricing sits on the latency
        path of every unpinned request.
        """
        cyclic = is_cyclic(query)
        repeated = has_repeated_atom_variables(query)
        num_shards = getattr(database, "num_shards", 1)
        domain: Optional[int] = None
        work_by_model: dict = {}
        estimates = []
        for name in sorted(engines):
            engine = engines[name]
            model = engine.cost_model
            if repeated and not engine.capabilities.supports_repeated_vars:
                estimates.append(
                    EngineEstimate(
                        name, float("inf"), float("inf"), False,
                        "repeated variables within an atom unsupported",
                    )
                )
                continue
            work_model = model.work_model if model.work_model in _WORK_MODELS else "wcoj"
            if work_model not in work_by_model:
                # Sharded catalogs price the scatter-gather plan: shards run
                # in parallel, so the slowest shard's work is the critical
                # path, plus a fixed dispatch charge per shard task.
                scatter = (
                    scatter_work_estimate(query, database, work_model)
                    if num_shards > 1
                    else None
                )
                if scatter is not None:
                    work_by_model[work_model] = (scatter.parallel, num_shards)
                else:
                    if work_model != "nested-loop" and domain is None:
                        domain = active_domain_size(database, query)
                    work_by_model[work_model] = (
                        _WORK_MODELS[work_model](query, database, domain),
                        1,
                    )
            work, shards = work_by_model[work_model]
            penalty = model.cyclic_penalty if cyclic else 1.0
            # The dispatch charge is already in nanoseconds and engine-
            # independent (it matches the executor's flat per-task cost),
            # so it is added after the engine's work scaling, not inside it.
            dispatch_ns = SCATTER_DISPATCH_COST_NS * shards if shards > 1 else 0.0
            cost = (
                model.offload_overhead_ns
                + work * model.ns_per_unit * penalty
                + dispatch_ns
            )
            reason = model.work_model if shards == 1 else (
                f"{model.work_model}, scatter-gather x{shards}"
            )
            estimates.append(EngineEstimate(name, work, cost, True, reason, shards))
        return cyclic, tuple(estimates)

    def choose(
        self,
        query: ConjunctiveQuery,
        database: Database,
        engines: Mapping[str, EngineProtocol],
    ) -> RouteDecision:
        """Route ``query`` to the cheapest eligible engine in ``engines``."""
        if not engines:
            raise ValueError("cannot route: no engines configured")
        cyclic, estimates = self.estimates(query, database, engines)
        eligible = [est for est in estimates if est.eligible]
        if not eligible:
            raise ValueError(
                f"no configured engine can execute {query.name!r}: "
                + "; ".join(f"{est.engine}: {est.reason}" for est in estimates)
            )
        winner = min(eligible, key=lambda est: (est.cost_ns, est.engine))
        reason = (
            f"cheapest of {len(eligible)} eligible engine(s) "
            f"at ~{winner.cost_ns:.0f} modelled ns"
        )
        return RouteDecision(winner.engine, cyclic, estimates, reason)

    def pinned(
        self,
        engine_name: str,
        query: ConjunctiveQuery,
        database: Database,
        engines: Mapping[str, EngineProtocol],
        with_estimates: bool = False,
    ) -> RouteDecision:
        """A decision for an explicitly requested engine.

        Pinning needs no pricing; pass ``with_estimates=True`` to include
        the full estimate table anyway (``explain`` does, for display).
        """
        if engine_name not in engines:
            raise KeyError(
                f"engine {engine_name!r} not configured; have {sorted(engines)}"
            )
        if with_estimates:
            cyclic, estimates = self.estimates(query, database, engines)
        else:
            cyclic, estimates = is_cyclic(query), ()
        return RouteDecision(engine_name, cyclic, estimates, "pinned by caller")
