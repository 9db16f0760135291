"""Incremental view maintenance: patch cached results instead of dropping them.

Every :class:`~repro.service.pipeline.QueryPipeline` tracks its catalog
through one :class:`ResultMaintainer`: it subscribes to the catalog's
mutation events and, for *patchable* events (exact insert batches, see
:attr:`repro.relational.catalog.MutationEvent.patchable`), computes each
dependent entry's **delta result** with a semi-naive delta join
(:func:`repro.joins.delta.evaluate_delta`) and merges it into the cached
entry in place, so the next request does not pay the full join again.
Non-patchable events — relation (re)definitions, inexact batches — and any
solver failure fall back to ``ResultCache.invalidate``'s drop, so
maintenance can degrade to recompute but never to a wrong answer.

Two caches are maintained:

* the **result cache** of complete query results: the delta join runs
  against the full catalog, with the event's rows as the only delta;
* the **shard-partial cache** behind a scatter-gather executor (when one is
  present): delegated to :meth:`ScatterGatherExecutor.maintain`, which
  patches only the fragment entries the event's shard touches and respects
  the fault-injection path (a patch whose fragment is unreachable is lost —
  the entry drops).

Both read one :class:`~repro.joins.delta.DeltaCatalog` per event: the
event's rows are loaded once into one ``~delta`` database, and every delta
join of the event — each result entry, each shard partial, each
continuous-query subscriber — reads a view over it, so each Δ trie is
built once per attribute order per event.

The maintainer owns a dedicated plan-aware engine (LFTJ by default) and a
:class:`~repro.joins.delta.DeltaPlanner` so delta-term plans are compiled
once and maintenance work is accounted with real ``JoinStats``; the
accumulated virtual-time cost is surfaced as :attr:`cost_ns` for the
service's clock and traces.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Iterable, Optional, Tuple

from repro.engines import create_engine
from repro.joins.compiler import QueryCompiler
from repro.joins.delta import DeltaCatalog, DeltaPlanner, evaluate_delta
from repro.relational.catalog import MutationEvent
from repro.relational.query import ConjunctiveQuery
from repro.service.caches import ResultCache
from repro.service.metrics import RECORD_WINDOW

@dataclass(frozen=True)
class MaintenanceReport:
    """What one mutation event did to the caches.

    ``patchable`` records whether the incremental path was even attempted;
    a ``False`` means the event forced drop-and-recompute (and the drop
    counts land in ``*_dropped``).  ``cost_ns`` is the virtual-time cost of
    the delta joins run for this event (0 for pure drops).
    """

    patchable: bool
    result_patched: int = 0
    result_dropped: int = 0
    partial_patched: int = 0
    partial_dropped: int = 0
    cost_ns: float = 0.0

    @property
    def patched(self) -> int:
        return self.result_patched + self.partial_patched

    @property
    def dropped(self) -> int:
        return self.result_dropped + self.partial_dropped


class ResultMaintainer:
    """Routes catalog mutation events to patch-or-drop cache maintenance.

    Each patchable event gets one :class:`~repro.joins.delta.DeltaCatalog`
    (:meth:`delta_catalog`), shared by the result-cache solver, the
    scatter executor's partial maintenance and :meth:`delta_for`; every
    entry still runs its own :func:`~repro.joins.delta.evaluate_delta`.

    Parameters
    ----------
    catalog:
        The live (post-insert) catalog the delta joins read.  Mutation
        events are observed *after* the catalog applied them, which is
        exactly what the post-state semi-naive rewrite needs.
    result_cache:
        The complete-result cache to maintain.
    scatter:
        Optional :class:`~repro.service.scatter.ScatterGatherExecutor`
        whose shard-partial cache should be maintained too.
    compiler:
        Compiler for delta-term plans (shared with the service where
        possible so signatures agree); a private caching compiler by
        default.
    engine:
        Plan-aware engine the delta terms run on; LFTJ by default — the
        cache-less engine keeps maintenance cost independent of any
        PJR-cache state.
    clock:
        Zero-argument callable giving the current virtual time, used for
        the scatter fault-path check (a fragment unreachable *now* cannot
        be patched).  Defaults to a constant 0.0.
    """

    def __init__(
        self,
        catalog,
        result_cache: ResultCache,
        scatter=None,
        compiler: Optional[QueryCompiler] = None,
        engine=None,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.catalog = catalog
        self.result_cache = result_cache
        self.scatter = scatter
        self.compiler = compiler or QueryCompiler(enable_caching=True)
        self.planner = DeltaPlanner(self.compiler)
        self.engine = engine if engine is not None else create_engine("lftj")
        self.clock = clock or (lambda: 0.0)
        #: Accumulated virtual-time cost of every delta join run so far.
        self.cost_ns = 0.0
        #: The latest per-mutation reports, in event order (a window, like
        #: the service's ``metrics.records``; ``cost_ns`` and the caches'
        #: ``stats`` carry the lifetime totals).
        self.reports: Deque[MaintenanceReport] = deque(maxlen=RECORD_WINDOW)
        # The latest event and its delta catalog.  Holding the event itself
        # (not its id) means the identity check cannot match a recycled id.
        self._event_delta: Optional[Tuple[MutationEvent, DeltaCatalog]] = None

    # ------------------------------------------------------------------ #
    # Event handling
    # ------------------------------------------------------------------ #
    def on_mutation(self, event: MutationEvent) -> MaintenanceReport:
        """Maintain both caches for one mutation event; returns the report.

        This is the one method :class:`~repro.service.pipeline.QueryPipeline`
        subscribes to the catalog
        (``catalog.subscribe_invalidation(maintainer.on_mutation)``); the
        caches' ``invalidate`` methods run only from here.
        """
        if not event.patchable:
            result_dropped = self.result_cache.invalidate(event)
            partial_dropped = 0
            if self.scatter is not None and self.scatter.partial_cache is not None:
                partial_dropped = self.scatter.partial_cache.invalidate(event)
            report = MaintenanceReport(
                patchable=False,
                result_dropped=result_dropped,
                partial_dropped=partial_dropped,
            )
            self.reports.append(report)
            return report
        cost_before = self.cost_ns
        patched, dropped = self.result_cache.maintain(event, self._solve)
        partial_patched = partial_dropped = 0
        if self.scatter is not None and self.scatter.partial_cache is not None:
            partial_patched, partial_dropped, partial_cost_ns = self.scatter.maintain(
                event, self.delta_catalog(event), self.planner, self.engine,
                now=self.clock(),
            )
            self.cost_ns += partial_cost_ns
        report = MaintenanceReport(
            patchable=True,
            result_patched=patched,
            result_dropped=dropped,
            partial_patched=partial_patched,
            partial_dropped=partial_dropped,
            cost_ns=self.cost_ns - cost_before,
        )
        self.reports.append(report)
        return report

    # ------------------------------------------------------------------ #
    # Delta computation
    # ------------------------------------------------------------------ #
    def delta_catalog(self, event: MutationEvent) -> DeltaCatalog:
        """``event``'s delta catalog: made on its first use, then reused.

        Its ``~delta`` database and tries are built lazily, on the first
        delta term that reads them, so an event with no dependent entry and
        no subscriber builds nothing.
        """
        memo = self._event_delta
        if memo is None or memo[0] is not event:
            memo = (event, DeltaCatalog(self.catalog, {event.relation: event.delta.rows}))
            self._event_delta = memo
        return memo[1]

    def delta_for(
        self, query: ConjunctiveQuery, event: MutationEvent
    ) -> Tuple[Tuple[int, ...], ...]:
        """The rows ``event`` added to ``query``'s result (sorted).

        Shared by the result-cache solver and continuous-query subscribers
        (:meth:`repro.api.session.Session.subscribe`); compiled delta plans
        are memoised across both uses, and both read the event's one
        :meth:`delta_catalog`.
        """
        result = evaluate_delta(
            query, self.delta_catalog(event).view, self.engine, self.planner
        )
        self.cost_ns += result.cost_ns
        return result.tuples

    def _solve(
        self, key: str, query: ConjunctiveQuery, event: MutationEvent
    ) -> Optional[Iterable[Tuple[int, ...]]]:
        """Delta rows one cached entry gains from ``event`` (None = drop)."""
        del key  # full-result entries need no per-key context
        return self.delta_for(query, event)


__all__ = [
    "MaintenanceReport",
    "ResultMaintainer",
]
