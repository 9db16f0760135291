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

:meth:`ServiceMetrics.exposition` renders the same numbers in the
Prometheus text format (``repro workload --metrics out.prom``): counters
from the running totals, histograms over the window.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.eval.metrics import summarise_latencies
from repro.eval.reporting import format_latency_summary, format_table

if TYPE_CHECKING:
    from repro.service.admission import AdmissionStats
    from repro.service.caches import CacheStats

#: Records a :class:`ServiceMetrics` keeps (the latest ones).  No committed
#: scenario, suite or test completes more than 400 requests per service, so
#: every report they print is exact.
RECORD_WINDOW = 4096

#: Histogram bounds of the virtual-time families (modelled ns): the
#: service's costs span cache replays (~1 ns) to heavy scatter fan-outs.
LATENCY_BUCKETS_NS = (10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9)
#: Histogram bounds of the measured host wall-clock engine spans (seconds).
WALL_BUCKETS_S = (0.001, 0.01, 0.1, 1.0, 10.0)
#: The :class:`~repro.service.caches.CacheStats` counters exposed per cache.
CACHE_OPS = ("lookups", "hits", "insertions", "evictions", "invalidations", "drops", "patches")


def _number(value: float) -> str:
    """Prometheus sample rendering: integers without a trailing ``.0``."""
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _labels(names: Sequence[str], values: Sequence[str], le: Optional[float] = None) -> str:
    parts = [f'{name}="{value}"' for name, value in zip(names, values)]
    if le is not None:
        parts.append(f'le="{_number(le)}"')
    return "{" + ",".join(parts) + "}" if parts else ""


def _family(
    lines: List[str],
    name: str,
    kind: str,
    description: str,
    label_names: Sequence[str],
    samples: Mapping[Tuple[str, ...], object],
    buckets: Sequence[float] = (),
) -> None:
    """Append one ``repro_`` family: its header, then its samples by label set.

    A counter or gauge sample is a number.  A histogram sample is its
    observations in record order: each ``_bucket`` line counts those at or
    below its bound (a bisect into the sorted values, so the counts are
    cumulative by construction), then ``_sum`` and ``_count``.
    """
    name = f"repro_{name}"
    lines += (f"# HELP {name} {description}", f"# TYPE {name} {kind}")
    for key, value in sorted(samples.items()):
        labels = _labels(label_names, key)
        if kind != "histogram":
            lines.append(f"{name}{labels} {_number(value)}")
            continue
        observed = sorted(value)
        for bound in (*buckets, float("inf")):
            count = bisect_right(observed, bound)
            lines.append(f"{name}_bucket{_labels(label_names, key, bound)} {count}")
        # Plain left-to-right adds in record order: sum() compensates on
        # Python 3.12+, which can move the last digit.
        total = 0.0
        for observation in value:
            total += observation
        lines.append(f"{name}_sum{labels} {_number(total)}")
        lines.append(f"{name}_count{labels} {len(observed)}")


@dataclass(slots=True)
class QueryRecord:
    """Everything the service remembers about one completed request.

    Times are in the service's virtual clock (modelled nanoseconds, see
    :mod:`repro.engines`); ``service_time`` is the backend-charged
    cost, a small constant for result-cache hits.  ``wall_elapsed`` is the
    *host* wall-clock span (seconds) of the request's engine work when the
    process backend measured one (a fan-out's slowest shard) — ``None``
    under the virtual-time backend and for cache hits (no engine ran).  Virtual and
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
    #: attempts beyond the first the request burned, whether the answer is a
    #: flagged partial (missing shards), and whether the request failed
    #: outright (on_shard_loss="fail").
    retries: int = 0
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

    # ------------------------------------------------------------------ #
    # Distributions over the window
    # ------------------------------------------------------------------ #
    def latency_summary(self) -> Dict[str, float]:
        return summarise_latencies([r.latency for r in self.records])

    def queue_wait_summary(self) -> Dict[str, float]:
        return summarise_latencies([r.queue_wait for r in self.records])

    def wall_execution_summary(self) -> Dict[str, float]:
        """Host wall-clock spans of measured engine work (seconds).

        Only records with a measured ``wall_elapsed`` contribute (the
        process backend measures; the virtual backend and cache hits do
        not), so ``count`` may be below the window's length.  A pure virtual run
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
        if total.retries or total.degraded or total.failed:
            lines.append(
                f"fault tolerance      : {total.retries} retries, "
                f"{total.degraded} degraded, {total.failed} failed"
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

    def exposition(
        self,
        caches: Sequence[Tuple[str, CacheStats]],
        admission: AdmissionStats,
        clock: float,
    ) -> str:
        """Prometheus text exposition of the service's metrics.

        Counters are lifetime totals (``requests_total`` sums to
        :attr:`completed` however long the service ran); the latency,
        queue-wait and wall histograms are over the window.  ``caches``
        names each cache's stats (``plan``, ``result`` and, on a scatter
        path, ``shard_partial``); ``admission`` and ``clock`` are the
        service's.  A label-less counter appears once its event has
        happened, never as a zero.
        """
        total = self.total()
        wall = [r.wall_elapsed for r in self.records if r.wall_elapsed is not None]
        faults = (
            ("retry", total.retries),
            ("degraded", total.degraded),
            ("failed", total.failed),
            ("inline_fallback", self.inline_fallbacks),
        )
        lines: List[str] = []
        _family(
            lines, "requests_total", "counter",
            "Completed requests by engine backend and priority class.",
            ("backend", "priority"),
            {key: totals.requests for key, totals in self.totals.items()},
        )
        _family(
            lines, "result_cache_request_hits_total", "counter",
            "Requests answered entirely from the result cache.",
            (), {(): total.result_hits} if total.result_hits else {},
        )
        _family(
            lines, "plan_compilations_total", "counter",
            "Requests that paid a fresh plan compilation.",
            (), {(): total.compiles} if total.compiles else {},
        )
        _family(
            lines, "query_latency_virtual_ns", "histogram",
            "End-to-end virtual-time latency (arrival to completion).",
            ("backend",),
            {(key,): [r.latency for r in group] for key, group in self.by_backend().items()},
            LATENCY_BUCKETS_NS,
        )
        _family(
            lines, "queue_wait_virtual_ns", "histogram",
            "Virtual time between arrival and dispatch.",
            ("priority",),
            {
                (key,): [r.queue_wait for r in group]
                for key, group in self._window_by("priority").items()
            },
            LATENCY_BUCKETS_NS,
        )
        _family(
            lines, "execution_wall_seconds", "histogram",
            "Measured host wall-clock engine spans (process backend only).",
            (), {(): wall} if wall else {}, WALL_BUCKETS_S,
        )
        _family(
            lines, "fault_events_total", "counter",
            "Fault-tolerance events of the scatter path (see repro.service.faults).",
            ("kind",), {(kind,): count for kind, count in faults if count},
        )
        _family(
            lines, "cache_operations_total", "counter",
            "Cache activity by cache and operation.",
            ("cache", "op"),
            {(name, op): getattr(stats, op) for name, stats in caches for op in CACHE_OPS},
        )
        _family(
            lines, "result_patches_total", "counter",
            "Cached results patched in place by incremental maintenance.",
            ("cache",),
            {(name,): stats.patches for name, stats in caches if name != "plan"},
        )
        _family(
            lines, "admission_requests_total", "counter",
            "Admission-controller outcomes.",
            ("outcome",),
            {
                ("submitted",): admission.submitted,
                ("queued",): admission.queued,
                ("rejected",): admission.rejected,
            },
        )
        for name, description, value in (
            ("admission_peak_in_flight", "Peak concurrently executing requests.",
             admission.peak_in_flight),
            ("admission_peak_queue_depth", "Peak admission queue depth.",
             admission.peak_queue_depth),
            ("virtual_clock_ns", "The service's persisted virtual clock.", clock),
            ("drain_wall_seconds_total", "Host wall time spent inside drain().",
             self.wall_drain_seconds),
        ):
            _family(lines, name, "gauge", description, (), {(): value})
        return "\n".join(lines) + "\n"
