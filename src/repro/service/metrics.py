"""Per-query and aggregate metrics of the query service.

Each served request produces one :class:`QueryRecord` (arrival / start /
finish times in the service's virtual clock, the backend that ran it, and
which cache layer — result cache, plan cache, or a fresh compile — satisfied
it).  :class:`ServiceMetrics` aggregates the records into the summaries the
service report prints: latency and queue-wait distributions (via
:func:`repro.eval.metrics.summarise_latencies`), per-backend and
per-priority breakdowns, and cache hit rates, all rendered through
:mod:`repro.eval.reporting` so service reports look like the paper's
tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.eval.metrics import summarise_latencies
from repro.eval.reporting import format_latency_summary, format_table


@dataclass
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


@dataclass
class ServiceMetrics:
    """Aggregate view over all completed requests of one service.

    ``wall_drain_seconds`` accumulates the host wall-clock time spent inside
    :meth:`QueryService.drain` (all drains of this service), so wall-clock
    throughput is available next to the virtual-time numbers whatever the
    execution backend.
    """

    records: List[QueryRecord] = field(default_factory=list)
    wall_drain_seconds: float = 0.0
    #: Engine executions that fell back inline after the process pool broke
    #: (mirrored from the execution backend at drain time; 0 elsewhere).
    inline_fallbacks: int = 0

    def record(self, record: QueryRecord) -> None:
        self.records.append(record)

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    @property
    def completed(self) -> int:
        return len(self.records)

    @property
    def makespan(self) -> float:
        """Virtual time from the first arrival to the last completion."""
        if not self.records:
            return 0.0
        first = min(r.arrival_time for r in self.records)
        last = max(r.finish_time for r in self.records)
        return last - first

    def throughput(self) -> float:
        """Completed requests per virtual time unit."""
        span = self.makespan
        return self.completed / span if span > 0 else 0.0

    def latency_summary(self) -> Dict[str, float]:
        return summarise_latencies([r.latency for r in self.records])

    def queue_wait_summary(self) -> Dict[str, float]:
        return summarise_latencies([r.queue_wait for r in self.records])

    @property
    def measured_executions(self) -> int:
        """Records carrying a measured host wall-clock span.

        Zero for pure virtual runs: the virtual backend never measures, and
        cache hits run no engine on any backend.
        """
        return sum(1 for r in self.records if r.wall_elapsed is not None)

    def wall_execution_summary(self) -> Dict[str, float]:
        """Host wall-clock spans of measured engine work (seconds).

        Only records with a measured ``wall_elapsed`` contribute (the
        threaded backend measures; the virtual backend and cache hits do
        not), so the summary ``count`` equals :attr:`measured_executions`
        and may be below :attr:`completed` — that is the honest number of
        measured executions, not a bug.  A pure virtual run yields the
        well-defined zero summary ``{"count": 0, "mean": 0.0, "p50": 0.0,
        "p95": 0.0, "max": 0.0}``; this never raises.
        """
        return summarise_latencies(
            [r.wall_elapsed for r in self.records if r.wall_elapsed is not None]
        )

    def wall_throughput(self) -> float:
        """Completed requests per host second spent inside :meth:`drain`.

        Defined as ``completed / wall_drain_seconds`` — the denominator is
        the *drain* wall time, which every backend accumulates (virtual
        included), so this is a host-throughput figure even for virtual
        runs.  Returns exactly ``0.0`` when no drain time was accumulated
        (a service that never drained) or nothing completed; never raises
        ``ZeroDivisionError``.
        """
        if self.wall_drain_seconds <= 0 or not self.records:
            return 0.0
        return self.completed / self.wall_drain_seconds

    def result_cache_hit_rate(self) -> float:
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.result_cache_hit) / len(self.records)

    def plan_cache_hit_rate(self) -> float:
        """Plan reuses over plan lookups (result-cache hits never look up a plan)."""
        lookups = [r for r in self.records if not r.result_cache_hit]
        if not lookups:
            return 0.0
        return sum(1 for r in lookups if r.plan_cache_hit) / len(lookups)

    def compiles(self) -> int:
        """How many requests paid a fresh compilation."""
        return sum(1 for r in self.records if r.compiled)

    def total_retries(self) -> int:
        """Scatter attempts beyond the first, summed over all requests."""
        return sum(r.retries for r in self.records)

    def total_timeouts(self) -> int:
        """Per-task timeouts, summed over all requests."""
        return sum(r.timeouts for r in self.records)

    def degraded_results(self) -> int:
        """Requests answered with a flagged partial (missing shards)."""
        return sum(1 for r in self.records if r.degraded)

    def failed_requests(self) -> int:
        """Requests that failed outright on unrecoverable shard loss."""
        return sum(1 for r in self.records if r.failed)

    def by_backend(self) -> Dict[str, List[QueryRecord]]:
        groups: Dict[str, List[QueryRecord]] = {}
        for record in self.records:
            groups.setdefault(record.backend, []).append(record)
        return groups

    def by_priority(self) -> Dict[str, List[QueryRecord]]:
        groups: Dict[str, List[QueryRecord]] = {}
        for record in self.records:
            groups.setdefault(record.priority, []).append(record)
        return groups

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def backend_rows(self) -> List[Tuple[object, ...]]:
        """Per-backend table rows: requests, latency stats, hit counts."""
        rows: List[Tuple[object, ...]] = []
        groups = self.by_backend()
        for backend in sorted(groups):
            group = groups[backend]
            summary = summarise_latencies([r.latency for r in group])
            rows.append(
                (
                    backend,
                    len(group),
                    summary["mean"],
                    summary["p95"],
                    sum(1 for r in group if r.result_cache_hit),
                    sum(1 for r in group if r.plan_cache_hit),
                    sum(1 for r in group if r.compiled),
                )
            )
        return rows

    def priority_rows(self) -> List[Tuple[object, ...]]:
        """Per-priority table rows: requests, queue wait and latency stats."""
        rows: List[Tuple[object, ...]] = []
        groups = self.by_priority()
        for priority in sorted(groups):
            group = groups[priority]
            waits = summarise_latencies([r.queue_wait for r in group])
            latencies = summarise_latencies([r.latency for r in group])
            rows.append(
                (priority, len(group), waits["mean"], waits["p95"], latencies["mean"])
            )
        return rows

    def summary(self, cache_lines: Sequence[str] = ()) -> str:
        """Multi-line service report (optionally extended with cache lines)."""
        lines = [
            f"requests completed   : {self.completed}",
            f"virtual makespan     : {self.makespan:.1f} ns (modelled)",
            f"throughput           : {self.throughput():.4f} requests/ns",
            format_latency_summary("latency", self.latency_summary(), unit="ns"),
            format_latency_summary("queue wait", self.queue_wait_summary(), unit="ns"),
            f"result-cache hit rate: {self.result_cache_hit_rate():.1%}",
            f"plan-cache hit rate  : {self.plan_cache_hit_rate():.1%}",
            f"fresh compilations   : {self.compiles()}",
        ]
        if self.wall_drain_seconds > 0:
            lines.append(
                f"host drain time      : {self.wall_drain_seconds:.3f} s wall "
                f"({self.wall_throughput():.1f} requests/s)"
            )
        retries, timeouts = self.total_retries(), self.total_timeouts()
        degraded, failed = self.degraded_results(), self.failed_requests()
        if retries or timeouts or degraded or failed:
            lines.append(
                f"fault tolerance      : {retries} retries, {timeouts} "
                f"timeouts, {degraded} degraded, {failed} failed"
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
        lines.extend(cache_lines)
        lines.append(
            format_table(
                ("backend", "requests", "mean lat", "p95 lat", "result hits", "plan hits", "compiles"),
                self.backend_rows(),
            )
        )
        lines.append(
            format_table(
                ("priority", "requests", "mean wait", "p95 wait", "mean lat"),
                self.priority_rows(),
            )
        )
        return "\n".join(lines)
