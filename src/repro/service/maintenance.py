"""Incremental view maintenance: patch cached results on read, over an insert log.

Every :class:`~repro.service.pipeline.QueryPipeline` tracks its catalog
through one :class:`ResultMaintainer`.  Maintenance is *deferred* (Colby,
Griffin, Libkin, Mumick & Trickey, SIGMOD 1996): an insert event only
appends its rows to the maintainer's :class:`InsertLog`, and every cached
entry records the log position it is up to date with.  A read of an entry
that is behind — ``ResultCache.get`` / ``peek``, and the scatter
executor's partial probe — runs **one** semi-naive delta join
(:func:`repro.joins.delta.evaluate_delta`) over every row logged since that
position and merges the result, so an entry pays once per read however
many insert events it missed, and an entry evicted before anyone reads it
pays nothing.  Relation (re)definitions, the one non-patchable event,
still drop their dependent entries at once, and a solver failure
degrades to the same drop, so maintenance can degrade to recompute but
never to a wrong answer.

Two caches are maintained:

* the **result cache** of complete query results: the delta join runs
  against the full catalog, with the logged rows as the only delta;
* the **shard-partial cache** behind a scatter-gather executor (when one is
  present): :meth:`ScatterGatherExecutor.maintain
  <repro.service.scatter.ScatterGatherExecutor.maintain>` seeds the
  fragment's Δ with the logged rows hashed to the entry's own shard and
  respects the fault-injection path (a patch whose fragment is unreachable
  at the reading request's virtual time is lost — the entry drops).

**The log is bounded.**  It truncates below the oldest live entry's
position.  Every logged row is in its relation, so the log never holds
more than one copy of each relation.  An insert that leaves an entry with
a backlog larger than the rows its relation held at the entry's position
drops that entry (its delta join would read more new rows than a
recompute reads old ones), so the log holds at most half of a relation
that keeps growing under an entry nobody reads.

A :class:`~repro.api.Subscription` is one more reader of the log: its
position holds back truncation like a live entry's, and a poll runs one
delta join over its backlog.

The maintainer owns a dedicated plan-aware engine (LFTJ by default) and a
:class:`~repro.joins.delta.DeltaPlanner` so delta-term plans are compiled
once and maintenance work is accounted with real ``JoinStats``; the
accumulated virtual-time cost is surfaced as :attr:`cost_ns`, and each
cache adds a read's share to the reading request's service time.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.engines import create_engine
from repro.joins.compiler import QueryCompiler
from repro.joins.delta import DeltaCatalog, DeltaPlanner, DeltaResult, evaluate_delta
from repro.relational.catalog import MutationEvent
from repro.relational.query import ConjunctiveQuery
from repro.service.caches import ResultCache
from repro.service.metrics import RECORD_WINDOW

Row = Tuple[int, ...]


class InsertLog:
    """Append-only log of the rows each relation gained, by insert batch.

    :attr:`position` counts the non-empty batches appended so far.  A cached
    entry *synced at* position ``p`` reflects every batch below ``p``;
    :meth:`since` gives the rows it lacks and :meth:`backlog` their count
    for one relation.  :meth:`truncate` forgets the batches no live entry
    lacks.
    """

    def __init__(self) -> None:
        self.position = 0
        # relation -> the kept rows, oldest first.
        self._rows: Dict[str, List[Row]] = {}
        # relation -> per kept batch, its position and the absolute offset
        # of its first row (absolute: counted from the relation's first
        # logged row, truncated ones included).
        self._positions: Dict[str, List[int]] = {}
        self._offsets: Dict[str, List[int]] = {}
        # relation -> absolute offset of its first kept row.
        self._base: Dict[str, int] = {}

    def append(self, relation: str, rows: Sequence[Row]) -> None:
        """Log one insert batch of ``relation`` (an empty one is not a batch)."""
        if not rows:
            return
        kept = self._rows.setdefault(relation, [])
        self._positions.setdefault(relation, []).append(self.position)
        self._offsets.setdefault(relation, []).append(
            self._base.setdefault(relation, 0) + len(kept)
        )
        kept.extend(rows)
        self.position += 1

    def _start(self, relation: str, position: int) -> int:
        """Index into the kept rows of the first row logged at ``position`` or later.

        ``relation`` has kept rows: every caller checks first.
        """
        positions = self._positions[relation]
        batch = bisect_left(positions, position)
        if batch == len(positions):
            return len(self._rows[relation])
        return self._offsets[relation][batch] - self._base[relation]

    def backlog(self, relation: str, position: int) -> int:
        """How many rows ``relation`` gained from ``position`` on."""
        kept = self._rows.get(relation)
        return len(kept) - self._start(relation, position) if kept else 0

    def since(self, position: int) -> Dict[str, List[Row]]:
        """Every relation's rows logged from ``position`` on (none left out)."""
        deltas = {}
        for relation, kept in self._rows.items():
            rows = kept[self._start(relation, position):]
            if rows:
                deltas[relation] = rows
        return deltas

    def truncate(self, relation: str, position: int) -> None:
        """Forget ``relation``'s batches logged below ``position``."""
        positions = self._positions.get(relation)
        if not positions:
            return
        batch = bisect_left(positions, position)
        if batch == len(positions):
            for table in (self._rows, self._positions, self._offsets, self._base):
                del table[relation]
            return
        start = self._offsets[relation][batch]
        del self._rows[relation][: start - self._base[relation]]
        del positions[:batch]
        del self._offsets[relation][:batch]
        self._base[relation] = start

    def __len__(self) -> int:
        """Rows kept, over every relation."""
        return sum(len(kept) for kept in self._rows.values())


@dataclass(frozen=True)
class MaintenanceReport:
    """What one mutation event did to the caches.

    ``patchable`` records whether the event was logged for read-time
    patching; a ``False`` means it forced drop-and-recompute of every
    dependent entry.  The drop counts land in ``*_dropped``: for a
    patchable event they are the entries whose backlog outgrew their
    relation.  Patches happen on read, so they are counted by the caches'
    ``stats.patches``, not here.
    """

    patchable: bool
    result_dropped: int = 0
    partial_dropped: int = 0

    @property
    def dropped(self) -> int:
        return self.result_dropped + self.partial_dropped


class ResultMaintainer:
    """Logs catalog mutations and patches cached entries when they are read.

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
    """

    def __init__(
        self,
        catalog,
        result_cache: ResultCache,
        scatter=None,
        compiler: Optional[QueryCompiler] = None,
        engine=None,
    ):
        self.catalog = catalog
        self.result_cache = result_cache
        self.scatter = scatter
        self.compiler = compiler or QueryCompiler(enable_caching=True)
        self.planner = DeltaPlanner(self.compiler)
        self.engine = engine if engine is not None else create_engine("lftj")
        #: Accumulated virtual-time cost of every delta join run so far.
        self.cost_ns = 0.0
        #: The latest per-mutation reports, in event order (a window, like
        #: the service's ``metrics.records``; ``cost_ns`` and the caches'
        #: ``stats`` carry the lifetime totals).
        self.reports: Deque[MaintenanceReport] = deque(maxlen=RECORD_WINDOW)
        #: Every row inserted since the oldest live entry's position.
        self.log = InsertLog()
        self.caches: Tuple[ResultCache, ...] = (result_cache,)
        result_cache.attach(self.log, self.solve)
        if scatter is not None and scatter.partial_cache is not None:
            scatter.partial_cache.attach(self.log, self._solve_partial)
            self.caches += (scatter.partial_cache,)
        #: Live subscriptions (:class:`~repro.api.Subscription`): one that
        #: is not ``stale`` holds back the log of its ``relations`` at its
        #: ``position``, like a live entry.
        self.subscriptions: List = []
        # The latest backlog's start and its delta catalog (reads and polls,
        # until the next event).
        self._read_delta: Optional[Tuple[int, DeltaCatalog]] = None

    # ------------------------------------------------------------------ #
    # Event handling
    # ------------------------------------------------------------------ #
    def on_mutation(self, event: MutationEvent) -> MaintenanceReport:
        """Log one mutation event, or drop what it makes stale; returns the report.

        This is the one method :class:`~repro.service.pipeline.QueryPipeline`
        subscribes to the catalog
        (``catalog.subscribe_invalidation(maintainer.on_mutation)``).  A
        patchable event appends its rows to :attr:`log` and runs no delta
        join: each dependent entry catches up when it is next read.  The
        entries whose backlog outgrew the relation are dropped
        (:meth:`ResultCache.expire <repro.service.caches.ResultCache.expire>`),
        and the log forgets what no live entry or subscription lacks.  Any
        other event drops its dependent entries at once.  A subscription of
        the relation goes stale (its next poll re-executes) on such an
        event, or when its backlog outgrew the relation.
        """
        relation = event.relation
        self._read_delta = None  # its rows may predate a redefinition
        cardinality = None
        if event.patchable:
            self.log.append(relation, event.delta.rows)
            cardinality = self.catalog.relation(relation).cardinality
            dropped = [cache.expire(relation, cardinality) for cache in self.caches]
        else:
            dropped = [cache.invalidate(event) for cache in self.caches]
        oldest = [cache.oldest(relation) for cache in self.caches]
        for subscription in self.subscriptions:
            if subscription.stale or relation not in subscription.relations:
                continue
            backlog = self.log.backlog(relation, subscription.position)
            subscription.stale = cardinality is None or backlog > cardinality - backlog
            if not subscription.stale:
                oldest.append(subscription.position)
        self.log.truncate(
            relation, min((p for p in oldest if p is not None), default=self.log.position)
        )
        report = MaintenanceReport(event.patchable, *dropped)
        self.reports.append(report)
        return report

    # ------------------------------------------------------------------ #
    # Delta computation
    # ------------------------------------------------------------------ #
    def _since(self, position: int) -> DeltaCatalog:
        """The delta catalog of every row logged from ``position`` on.

        Entries and subscriptions synced at the same position and read
        before the next insert share it, and with it its Δ tries.
        """
        memo = self._read_delta
        if memo is None or memo[0] != position:
            memo = (position, DeltaCatalog(self.catalog, self.log.since(position)))
            self._read_delta = memo
        return memo[1]

    def solve(
        self, key: str, query: ConjunctiveQuery, since: int, now: float
    ) -> DeltaResult:
        """What a result entry or subscription synced at ``since`` lacks: one delta join."""
        del key, now  # full results need no per-key context or fault check
        result = evaluate_delta(query, self._since(since).view, self.engine, self.planner)
        self.cost_ns += result.cost_ns
        return result

    def _solve_partial(
        self, key: str, query: ConjunctiveQuery, since: int, now: float
    ) -> Optional[DeltaResult]:
        """What a shard partial synced at ``since`` lacks (``None``: drop it)."""
        del query  # the executor rebuilds the fragment's query from its spec
        result = self.scatter.maintain(
            key, self._since(since).deltas, self.engine, self.planner, now
        )
        if result is not None:
            self.cost_ns += result.cost_ns
        return result


__all__ = [
    "InsertLog",
    "MaintenanceReport",
    "ResultMaintainer",
]
