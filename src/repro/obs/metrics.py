"""Structured metrics: counters, gauges, histograms and text exposition.

:class:`MetricsRegistry` holds named metric families; each family carries
zero or more label dimensions and renders in the Prometheus text exposition
format (``# HELP`` / ``# TYPE`` headers, ``name{label="v"} value`` samples,
cumulative ``_bucket``/``_sum``/``_count`` series for histograms).  Rendering
is deterministic: families in registration order, label sets sorted.

The serving layer does not push into a registry on the hot path — its
bounded :class:`~repro.service.metrics.ServiceMetrics` stays the source of
truth — instead :func:`service_registry` projects a service's running
totals (counters), its window of latest records (histograms), cache
counters and admission stats into a registry on demand
(``repro workload --metrics out.prom``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Default histogram buckets for virtual-time latencies (modelled ns): the
#: service's costs span cache replays (~1 ns) to heavy scatter fan-outs.
DEFAULT_LATENCY_BUCKETS_NS = (
    10.0,
    100.0,
    1e3,
    1e4,
    1e5,
    1e6,
    1e7,
    1e8,
    1e9,
)

LabelValues = Tuple[str, ...]


def _format_value(value: float) -> str:
    """Prometheus sample rendering: integers without a trailing ``.0``."""
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(names: Sequence[str], values: LabelValues, extra: str = "") -> str:
    parts = [f'{name}="{value}"' for name, value in zip(names, values)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class _Family:
    """Shared mechanics of one named metric family with label dimensions."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: Sequence[str]):
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._children: Dict[LabelValues, object] = {}

    def labels(self, *values: object, **kwargs: object):
        """The child tracking one combination of label values."""
        if kwargs:
            if values:
                raise ValueError("pass label values positionally or by name, not both")
            try:
                values = tuple(str(kwargs[name]) for name in self.label_names)
            except KeyError as exc:
                raise KeyError(
                    f"metric {self.name!r} has labels {self.label_names}, "
                    f"missing {exc.args[0]!r}"
                ) from None
        key = tuple(str(value) for value in values)
        if len(key) != len(self.label_names):
            raise ValueError(
                f"metric {self.name!r} expects {len(self.label_names)} label "
                f"value(s) {self.label_names}, got {len(key)}"
            )
        child = self._children.get(key)
        if child is None:
            child = self._new_child()
            self._children[key] = child
        return child

    def _default(self):
        """The label-less child (for families declared without labels)."""
        return self.labels()

    def _new_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def _sorted_children(self):
        return sorted(self._children.items())

    def render(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} {self.kind}"]
        lines.extend(self._render_samples())
        return lines

    def _render_samples(self) -> List[str]:  # pragma: no cover - overridden
        raise NotImplementedError


class _CounterChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got increment {amount}")
        self.value += amount


class Counter(_Family):
    """A monotonically increasing value (requests served, cache hits...)."""

    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def _render_samples(self) -> List[str]:
        return [
            f"{self.name}{_format_labels(self.label_names, key)} "
            f"{_format_value(child.value)}"
            for key, child in self._sorted_children()
        ]


class _GaugeChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Gauge(_Family):
    """A value that can go up and down (queue depth, in-flight requests...)."""

    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._default().set(value)

    def _render_samples(self) -> List[str]:
        return [
            f"{self.name}{_format_labels(self.label_names, key)} "
            f"{_format_value(child.value)}"
            for key, child in self._sorted_children()
        ]


class _HistogramChild:
    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: Tuple[float, ...]):
        self.buckets = buckets
        self.counts = [0] * len(buckets)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1


class Histogram(_Family):
    """A cumulative-bucket distribution (Prometheus ``_bucket`` semantics)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Sequence[str],
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_NS,
    ):
        super().__init__(name, help, label_names)
        ordered = tuple(sorted(float(b) for b in buckets))
        if not ordered:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = ordered

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    def _render_samples(self) -> List[str]:
        lines: List[str] = []
        for key, child in self._sorted_children():
            cumulative = 0
            for bound, bucket_count in zip(child.buckets, child.counts):
                cumulative += bucket_count
                label = _format_labels(
                    self.label_names, key, extra=f'le="{_format_value(bound)}"'
                )
                lines.append(f"{self.name}_bucket{label} {cumulative}")
            label = _format_labels(self.label_names, key, extra='le="+Inf"')
            lines.append(f"{self.name}_bucket{label} {child.count}")
            plain = _format_labels(self.label_names, key)
            lines.append(f"{self.name}_sum{plain} {_format_value(child.total)}")
            lines.append(f"{self.name}_count{plain} {child.count}")
        return lines


class MetricsRegistry:
    """Named metric families with deterministic text exposition."""

    def __init__(self, namespace: str = "repro"):
        self.namespace = namespace
        self._families: Dict[str, _Family] = {}

    def _register(self, family: _Family) -> _Family:
        existing = self._families.get(family.name)
        if existing is not None:
            if type(existing) is not type(family) or existing.label_names != family.label_names:
                raise ValueError(
                    f"metric {family.name!r} already registered with a "
                    "different type or label set"
                )
            return existing
        self._families[family.name] = family
        return family

    def _qualify(self, name: str) -> str:
        return f"{self.namespace}_{name}" if self.namespace else name

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._register(Counter(self._qualify(name), help, labels))

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge(self._qualify(name), help, labels))

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_NS,
    ) -> Histogram:
        return self._register(Histogram(self._qualify(name), help, labels, buckets))

    def families(self) -> Tuple[_Family, ...]:
        return tuple(self._families.values())

    def render(self) -> str:
        """The full Prometheus text exposition (families in registration order)."""
        lines: List[str] = []
        for family in self._families.values():
            lines.extend(family.render())
        return "\n".join(lines) + ("\n" if lines else "")


# --------------------------------------------------------------------------- #
# Serving-layer projection
# --------------------------------------------------------------------------- #
def _cache_counters(registry: MetricsRegistry, cache_name: str, stats) -> None:
    ops = registry.counter(
        "cache_operations_total",
        "Cache activity by cache and operation.",
        labels=("cache", "op"),
    )
    for op, value in (
        ("lookups", stats.lookups),
        ("hits", stats.hits),
        ("insertions", stats.insertions),
        ("evictions", stats.evictions),
        ("invalidations", stats.invalidations),
        ("drops", stats.drops),
        ("patches", stats.patches),
    ):
        ops.labels(cache=cache_name, op=op).inc(value)


def service_registry(
    service,
    registry: Optional[MetricsRegistry] = None,
    latency_buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS_NS,
) -> MetricsRegistry:
    """Project a :class:`~repro.service.QueryService`'s state into a registry.

    Covers the per-request metrics (requests/latency/queue-wait by backend
    and priority), the plan/result/partial cache counters, admission stats
    and the host wall-clock aggregates.  Counters are lifetime totals
    (``requests_total`` sums to ``metrics.completed`` however long the
    service ran); histograms observe the window of latest records.  Call it
    after draining; repeated calls on a fresh registry are idempotent
    snapshots.
    """
    registry = registry if registry is not None else MetricsRegistry()
    requests = registry.counter(
        "requests_total",
        "Completed requests by engine backend and priority class.",
        labels=("backend", "priority"),
    )
    result_hits = registry.counter(
        "result_cache_request_hits_total",
        "Requests answered entirely from the result cache.",
    )
    compiles = registry.counter(
        "plan_compilations_total", "Requests that paid a fresh plan compilation."
    )
    latency = registry.histogram(
        "query_latency_virtual_ns",
        "End-to-end virtual-time latency (arrival to completion).",
        labels=("backend",),
        buckets=latency_buckets,
    )
    queue_wait = registry.histogram(
        "queue_wait_virtual_ns",
        "Virtual time between arrival and dispatch.",
        labels=("priority",),
        buckets=latency_buckets,
    )
    wall_execution = registry.histogram(
        "execution_wall_seconds",
        "Measured host wall-clock engine spans (threaded backend only).",
        buckets=(0.001, 0.01, 0.1, 1.0, 10.0),
    )
    faults = registry.counter(
        "fault_events_total",
        "Fault-tolerance events of the scatter path (see repro.service.faults).",
        labels=("kind",),
    )
    metrics = service.metrics
    for (backend, priority), totals in metrics.totals.items():
        requests.labels(backend=backend, priority=priority).inc(totals.requests)
    total = metrics.total()
    # A sample appears once its event has happened, never as a zero.
    if total.result_hits:
        result_hits.inc(total.result_hits)
    if total.compiles:
        compiles.inc(total.compiles)
    for kind, count in (
        ("retry", total.retries),
        ("timeout", total.timeouts),
        ("degraded", total.degraded),
        ("failed", total.failed),
    ):
        if count:
            faults.labels(kind=kind).inc(count)
    for record in metrics.records:
        latency.labels(record.backend).observe(record.latency)
        queue_wait.labels(record.priority).observe(record.queue_wait)
        if record.wall_elapsed is not None:
            wall_execution.observe(record.wall_elapsed)
    if service.metrics.inline_fallbacks:
        faults.labels(kind="inline_fallback").inc(service.metrics.inline_fallbacks)

    _cache_counters(registry, "plan", service.plan_cache.stats)
    _cache_counters(registry, "result", service.result_cache.stats)
    if service.scatter is not None and service.scatter.partial_cache is not None:
        _cache_counters(registry, "shard_partial", service.scatter.partial_cache.stats)

    patches = registry.counter(
        "result_patches_total",
        "Cached results patched in place by incremental maintenance.",
        labels=("cache",),
    )
    patches.labels(cache="result").inc(service.result_cache.stats.patches)
    if service.scatter is not None and service.scatter.partial_cache is not None:
        patches.labels(cache="shard_partial").inc(
            service.scatter.partial_cache.stats.patches
        )

    admission = service.admission.stats
    admission_counter = registry.counter(
        "admission_requests_total",
        "Admission-controller outcomes.",
        labels=("outcome",),
    )
    admission_counter.labels(outcome="submitted").inc(admission.submitted)
    admission_counter.labels(outcome="queued").inc(admission.queued)
    admission_counter.labels(outcome="rejected").inc(admission.rejected)
    registry.gauge(
        "admission_peak_in_flight", "Peak concurrently executing requests."
    ).set(admission.peak_in_flight)
    registry.gauge(
        "admission_peak_queue_depth", "Peak admission queue depth."
    ).set(admission.peak_queue_depth)

    registry.gauge(
        "virtual_clock_ns", "The service's persisted virtual clock."
    ).set(service.clock)
    registry.gauge(
        "drain_wall_seconds_total", "Host wall time spent inside drain()."
    ).set(service.metrics.wall_drain_seconds)
    return registry


__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_NS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "service_registry",
]
