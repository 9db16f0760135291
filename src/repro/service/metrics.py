"""Per-query and aggregate metrics of the query service.

Each served request produces one :class:`QueryRecord` (arrival / start /
finish times in the service's virtual clock, the backend that ran it, and
which cache layer — result cache, plan cache, or a fresh compile — satisfied
it).  :class:`ServiceMetrics` is **bounded**: it keeps the latest
:data:`RECORD_WINDOW` records and folds each record into running totals.
In the service report every *count* (completed, hits, compiles, retries,
per-backend and per-priority requests, the makespan's endpoints) is a
lifetime total; latency and queue-wait *distributions*
(:func:`repro.eval.metrics.summarise_latencies`) are over the window — exact
until a service has completed more than the window, and labelled "last N of
M requests" from then on.  Reports render through
:mod:`repro.eval.reporting`, so they look like the paper's tables.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.eval.metrics import summarise_latencies
from repro.eval.reporting import format_latency_summary, format_table

#: Records a :class:`ServiceMetrics` keeps (the latest ones).  No committed
#: scenario, suite or test completes more than 400 requests per service, so
#: every report they print is exact.
RECORD_WINDOW = 4096


@dataclass(slots=True)
class QueryRecord:
    """Everything the service remembers about one completed request.

    Times are in the service's virtual clock (modelled nanoseconds, see
    :mod:`repro.engines`); ``service_time`` is the backend-charged
    cost, a small constant for result-cache hits.  ``wall_elapsed`` is the
    *host* wall-clock span (seconds) of the request's engine work when a
    concurrent execution backend measured one — ``None`` under the
    virtual-time backend and for cache hits (no engine ran).  Virtual and
    wall clocks are different units on purpose: virtual time is the
    deterministic model, wall time is the measurement.
    """

    request_id: int
    query_name: str
    signature: str
    backend: str
    priority: str
    arrival_time: float
    start_time: float
    finish_time: float
    service_time: float
    result_count: int
    result_cache_hit: bool
    plan_cache_hit: bool
    compiled: bool
    wall_elapsed: Optional[float] = None
    #: Fault-tolerance outcome (see repro.service.faults): how many scatter
    #: attempts beyond the first the request burned, how many of those timed
    #: out, whether the answer is a flagged partial (missing shards), and
    #: whether the request failed outright (on_shard_loss="fail").
    retries: int = 0
    timeouts: int = 0
    degraded: bool = False
    failed: bool = False

    @property
    def queue_wait(self) -> float:
        """Virtual time spent between arrival and dispatch."""
        return self.start_time - self.arrival_time

    @property
    def latency(self) -> float:
        """End-to-end virtual time from arrival to completion."""
        return self.finish_time - self.arrival_time


@dataclass(slots=True)
class ClassTotals:
    """Lifetime counts of one (backend, priority) class of requests."""

    requests: int = 0
    result_hits: int = 0
    plan_hits: int = 0
    compiles: int = 0
    retries: int = 0
    timeouts: int = 0
    degraded: int = 0
    failed: int = 0
    measured: int = 0


@dataclass
class ServiceMetrics:
    """Aggregate view over the completed requests of one service.

    ``records`` is the window of latest records and ``totals`` the lifetime
    counts per ``(backend, priority)`` class (module docstring: which
    summary reads which).  ``wall_drain_seconds`` accumulates the host
    wall-clock time spent inside :meth:`QueryService.drain`, so wall-clock
    throughput sits next to the virtual-time numbers on every backend.
    """

    records: Deque[QueryRecord] = field(default_factory=lambda: deque(maxlen=RECORD_WINDOW))
    wall_drain_seconds: float = 0.0
    #: Engine executions that fell back inline after the process pool broke
    #: (mirrored from the execution backend at drain time; 0 elsewhere).
    inline_fallbacks: int = 0
    totals: Dict[Tuple[str, str], ClassTotals] = field(default_factory=dict)
    #: The makespan's endpoints over every request ever recorded.
    first_arrival: float = float("inf")
    last_finish: float = float("-inf")

    def record(self, record: QueryRecord) -> None:
        self.records.append(record)
        key = (record.backend, record.priority)
        totals = self.totals.get(key)
        if totals is None:
            totals = self.totals[key] = ClassTotals()
        totals.requests += 1
        totals.result_hits += record.result_cache_hit
        totals.plan_hits += record.plan_cache_hit
        totals.compiles += record.compiled
        totals.retries += record.retries
        totals.timeouts += record.timeouts
        totals.degraded += record.degraded
        totals.failed += record.failed
        totals.measured += record.wall_elapsed is not None
        if record.arrival_time < self.first_arrival:
            self.first_arrival = record.arrival_time
        if record.finish_time > self.last_finish:
            self.last_finish = record.finish_time

    # ------------------------------------------------------------------ #
    # Lifetime counts
    # ------------------------------------------------------------------ #
    def total(self, backend: Optional[str] = None, priority: Optional[str] = None) -> ClassTotals:
        """Lifetime counts of every request, or of one backend / priority."""
        result = ClassTotals()
        for (of_backend, of_priority), totals in self.totals.items():
            if backend in (None, of_backend) and priority in (None, of_priority):
                for name in ClassTotals.__slots__:
                    setattr(result, name, getattr(result, name) + getattr(totals, name))
        return result

    @property
    def completed(self) -> int:
        return self.total().requests

    @property
    def makespan(self) -> float:
        """Virtual time from the first arrival to the last completion."""
        return self.last_finish - self.first_arrival if self.totals else 0.0

    def throughput(self) -> float:
        """Completed requests per virtual time unit."""
        span = self.makespan
        return self.completed / span if span > 0 else 0.0

    @property
    def measured_executions(self) -> int:
        """Requests that carried a measured host wall-clock span (zero for
        virtual runs; cache hits run no engine on any backend)."""
        return self.total().measured

    def wall_throughput(self) -> float:
        """Completed requests per host second spent inside :meth:`drain`.

        The denominator is the *drain* wall time, which every backend
        accumulates, so this is a host-throughput figure even for virtual
        runs.  Exactly ``0.0`` when no drain time was accumulated or nothing
        completed; never raises ``ZeroDivisionError``.
        """
        if self.wall_drain_seconds <= 0:
            return 0.0
        return self.completed / self.wall_drain_seconds

    def result_cache_hit_rate(self) -> float:
        total = self.total()
        return total.result_hits / total.requests if total.requests else 0.0

    def plan_cache_hit_rate(self) -> float:
        """Plan reuses over plan lookups (result-cache hits never look up a plan)."""
        total = self.total()
        lookups = total.requests - total.result_hits
        return total.plan_hits / lookups if lookups else 0.0

    def compiles(self) -> int:
        """How many requests paid a fresh compilation."""
        return self.total().compiles

    def total_retries(self) -> int:
        """Scatter attempts beyond the first, summed over all requests."""
        return self.total().retries

    def degraded_results(self) -> int:
        """Requests answered with a flagged partial (missing shards)."""
        return self.total().degraded

    def failed_requests(self) -> int:
        """Requests that failed outright on unrecoverable shard loss."""
        return self.total().failed

    # ------------------------------------------------------------------ #
    # Distributions over the window
    # ------------------------------------------------------------------ #
    def latency_summary(self) -> Dict[str, float]:
        return summarise_latencies([r.latency for r in self.records])

    def queue_wait_summary(self) -> Dict[str, float]:
        return summarise_latencies([r.queue_wait for r in self.records])

    def wall_execution_summary(self) -> Dict[str, float]:
        """Host wall-clock spans of measured engine work (seconds).

        Only records with a measured ``wall_elapsed`` contribute (pooled
        backends measure; the virtual backend and cache hits do not), so
        ``count`` may be below the window's length.  A pure virtual run
        yields the zero summary ``{"count": 0, "mean": 0.0, "p50": 0.0,
        "p95": 0.0, "max": 0.0}``; this never raises.
        """
        return summarise_latencies(
            [r.wall_elapsed for r in self.records if r.wall_elapsed is not None]
        )

    def _window_by(self, attribute: str) -> Dict[str, List[QueryRecord]]:
        groups: Dict[str, List[QueryRecord]] = {}
        for record in self.records:
            groups.setdefault(getattr(record, attribute), []).append(record)
        return groups

    def by_backend(self) -> Dict[str, List[QueryRecord]]:
        return self._window_by("backend")

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def backend_rows(self) -> List[Tuple[object, ...]]:
        """Per-backend table rows: requests, latency stats, hit counts."""
        rows: List[Tuple[object, ...]] = []
        window = self.by_backend()
        for backend in sorted({backend for backend, _priority in self.totals}):
            total = self.total(backend=backend)
            summary = summarise_latencies([r.latency for r in window.get(backend, ())])
            rows.append(
                (
                    backend,
                    total.requests,
                    summary["mean"],
                    summary["p95"],
                    total.result_hits,
                    total.plan_hits,
                    total.compiles,
                )
            )
        return rows

    def priority_rows(self) -> List[Tuple[object, ...]]:
        """Per-priority table rows: requests, queue wait and latency stats."""
        rows: List[Tuple[object, ...]] = []
        window = self._window_by("priority")
        for priority in sorted({priority for _backend, priority in self.totals}):
            group = window.get(priority, ())
            waits = summarise_latencies([r.queue_wait for r in group])
            latencies = summarise_latencies([r.latency for r in group])
            rows.append(
                (
                    priority,
                    self.total(priority=priority).requests,
                    waits["mean"],
                    waits["p95"],
                    latencies["mean"],
                )
            )
        return rows

    def summary(self, cache_lines: Sequence[str] = ()) -> str:
        """Multi-line service report (optionally extended with cache lines)."""
        total = self.total()
        lines = [
            f"requests completed   : {total.requests}",
            f"virtual makespan     : {self.makespan:.1f} ns (modelled)",
            f"throughput           : {self.throughput():.4f} requests/ns",
            format_latency_summary("latency", self.latency_summary(), unit="ns"),
            format_latency_summary("queue wait", self.queue_wait_summary(), unit="ns"),
        ]
        if total.requests > len(self.records):
            lines.append(
                f"distributions        : last {len(self.records)} of "
                f"{total.requests} requests"
            )
        lines += [
            f"result-cache hit rate: {self.result_cache_hit_rate():.1%}",
            f"plan-cache hit rate  : {self.plan_cache_hit_rate():.1%}",
            f"fresh compilations   : {total.compiles}",
        ]
        if self.wall_drain_seconds > 0:
            lines.append(
                f"host drain time      : {self.wall_drain_seconds:.3f} s wall "
                f"({self.wall_throughput():.1f} requests/s)"
            )
        if total.retries or total.timeouts or total.degraded or total.failed:
            lines.append(
                f"fault tolerance      : {total.retries} retries, {total.timeouts} "
                f"timeouts, {total.degraded} degraded, {total.failed} failed"
            )
        if self.inline_fallbacks:
            lines.append(
                f"inline fallbacks     : {self.inline_fallbacks} engine "
                f"execution(s) ran inline after the process pool broke"
            )
        wall = self.wall_execution_summary()
        if wall["count"]:
            # Engine spans are fractions of a second; report milliseconds so
            # the one-decimal rendering keeps signal.
            scaled = {
                key: value * 1e3 if key != "count" else value
                for key, value in wall.items()
            }
            lines.append(format_latency_summary("host execution", scaled, unit="ms"))
        backend_header = (
            "backend", "requests", "mean lat", "p95 lat", "result hits", "plan hits", "compiles"
        )
        priority_header = ("priority", "requests", "mean wait", "p95 wait", "mean lat")
        lines += [
            *cache_lines,
            format_table(backend_header, self.backend_rows()),
            format_table(priority_header, self.priority_rows()),
        ]
        return "\n".join(lines)
