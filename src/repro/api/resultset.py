"""ResultSet: the lazy result surface returned by :meth:`Session.execute`.

A :class:`ResultSet` is the single API-boundary result type: it knows its
query, canonical signature, routed engine and plan up front, and defers the
actual execution until the tuples are first consumed (iteration,
:meth:`to_list`, ``len``, ``.stats``...).  Execution happens exactly once
and is memoised; the caches of the owning :class:`~repro.api.session.Session`
are populated at that moment, not at submit time, so a ResultSet that is
never consumed never pays for — or publishes — a result.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Tuple

from repro.api.routing import RouteDecision
from repro.joins.plan import JoinPlan
from repro.joins.stats import JoinStats
from repro.relational.query import ConjunctiveQuery
from repro.service.pipeline import CompletedQuery


class ResultSet:
    """Lazy, iterable view over one statement execution.

    ``executor`` runs the request pipeline once; every property reads
    through its memoised :class:`~repro.service.pipeline.CompletedQuery`
    (one without an engine execution is a result-cache replay).
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        signature: str,
        backend: str,
        executor: Callable[[], CompletedQuery],
        route: Optional[RouteDecision] = None,
    ):
        self.query = query
        self.signature = signature
        self.backend = backend
        self.route = route
        self._executor = executor
        self._completed: Optional[CompletedQuery] = None

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    @property
    def executed(self) -> bool:
        """Whether the execution has been forced yet."""
        return self._completed is not None

    def _force(self) -> CompletedQuery:
        if self._completed is None:
            self._completed = self._executor()
        return self._completed

    def _of_execution(self, attribute: str, replayed=None):
        """``attribute`` of the engine execution (``replayed`` for a cache replay)."""
        execution = self._force().execution
        return replayed if execution is None else getattr(execution, attribute)

    # ------------------------------------------------------------------ #
    # Tuples
    # ------------------------------------------------------------------ #
    @property
    def tuples(self) -> List[Tuple[int, ...]]:
        return self._force().tuples

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        return iter(self._force().tuples)

    def __len__(self) -> int:
        return len(self._force().tuples)

    def to_list(self) -> List[Tuple[int, ...]]:
        """The output tuples as a fresh list (head-variable order)."""
        return list(self._force().tuples)

    def to_set(self) -> set:
        """The output as a set of tuples (order-insensitive comparison)."""
        return set(self._force().tuples)

    @property
    def cardinality(self) -> int:
        """Result count (the aggregated count for count-only executions)."""
        return self._of_execution("cardinality", len(self._force().tuples))

    # ------------------------------------------------------------------ #
    # Provenance
    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> Optional[JoinStats]:
        """Algorithm counters of the run (``None`` for cache replays)."""
        return self._of_execution("stats")

    @property
    def plan(self) -> Optional[JoinPlan]:
        """The compiled plan the run used (``None`` for plan-blind engines)."""
        plan = self._of_execution("plan")
        return plan if plan is not None else self._force().prepared.plan

    @property
    def report(self) -> Optional[object]:
        """The accelerator run report, when the engine produced one."""
        return self._of_execution("report")

    @property
    def shard_stats(self) -> Optional[object]:
        """Per-shard work breakdown of a scatter-gather execution.

        A :class:`repro.service.scatter.ScatterGatherStats` when the
        statement ran over a sharded catalog; ``None`` for monolithic
        executions and cache replays.
        """
        return self._of_execution("scatter")

    @property
    def degraded(self) -> bool:
        """True when the answer is a flagged partial (shard fragments lost).

        Only possible under ``on_shard_loss="partial"`` with an armed fault
        plan; a degraded result is exactly the union of the surviving shard
        fragments and is never entered into the result cache.
        """
        return self._of_execution("degraded", False)

    @property
    def missing_shards(self) -> Tuple[int, ...]:
        """Shards whose fragments are absent from a degraded answer."""
        return self._of_execution("missing_shards", ())

    @property
    def trace(self) -> Optional[object]:
        """The finished :class:`repro.obs.Span` tree of this execution.

        ``None`` unless the owning session was built with ``trace=...``;
        forcing the ResultSet is what produces (and finishes) the trace.
        """
        return self._force().prepared.trace

    @property
    def cost(self) -> float:
        """Deterministic service cost of the run, in modelled nanoseconds
        (the engine's cost, or the replay constant for a cache replay)."""
        return self._force().service_time

    @property
    def from_cache(self) -> bool:
        """True when the tuples were replayed from the session result cache."""
        return self._force().execution is None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = f"{len(self._completed.tuples)} tuples" if self.executed else "pending"
        return f"ResultSet(query={self.query.name!r}, backend={self.backend!r}, {state})"
