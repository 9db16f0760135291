"""Hierarchical spans and the tracer that collects them.

One :class:`Span` covers one phase of one request — the whole query, its
admission wait, the plan-cache probe, the engine execution, a single shard's
scatter leg — on **two clocks**:

* ``start_ns`` / ``end_ns`` are *virtual* time, the service's deterministic
  modelled clock.  They are always present and are bit-reproducible for a
  seeded workload, whatever execution backend runs the work.
* ``wall_elapsed_s`` is the *host* wall-clock span of the phase, recorded
  only when a real execution backend measured one
  (:class:`~repro.service.backends.ProcessPoolBackend`).  Virtual runs carry
  no wall fields at all, so their exported traces are byte-identical
  run-to-run.

**Deterministic identity.**  Spans carry no ids while they are being built;
:meth:`Tracer.finish` assigns ``trace_id`` (per finished root, in emission
order) and ``span_id`` (pre-order walk of the tree) when a root span is
finished.  The serving layer finishes every query trace at the request's
virtual-time *completion* event, which both execution backends process in
the same order — so ids, parentage and ordering are identical under
:class:`VirtualTimeBackend` and :class:`ProcessPoolBackend` by construction.

**Zero overhead when off.**  The default tracer everywhere is
:data:`NULL_TRACER`, whose ``enabled`` flag is ``False``; instrumented code
guards every tracing block with ``if tracer.enabled`` so the disabled cost
is one attribute read per *request* (never per tuple — the join inner loops
are not instrumented).  ``benchmarks/bench_obs_overhead.py`` pins the
<2% overhead budget on the kernel hot path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

#: Version stamped into every exported span (see :mod:`repro.obs.export`).
SCHEMA_VERSION = 1

#: ``trace_id`` of process-level event spans (catalog mutations,
#: invalidation storms) that belong to no single query.
PROCESS_TRACE_ID = -1


@dataclass
class SpanEvent:
    """A point-in-time annotation attached to a span (cache hit, mutation...)."""

    name: str
    t_ns: float
    attributes: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {"name": self.name, "t_ns": self.t_ns, "attributes": self.attributes}


class Span:
    """One timed phase in a trace tree.

    Build spans through :meth:`Tracer.begin` / :meth:`Span.child`; ids are
    assigned by :meth:`Tracer.finish`.  A span's ``end_ns`` defaults to its
    ``start_ns`` (instantaneous) until :meth:`end` is called.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_ns",
        "end_ns",
        "wall_elapsed_s",
        "attributes",
        "events",
        "children",
    )

    def __init__(
        self,
        name: str,
        start_ns: float,
        attributes: Optional[Dict[str, object]] = None,
    ):
        self.name = name
        self.trace_id: Optional[int] = None
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None
        self.start_ns = float(start_ns)
        self.end_ns = float(start_ns)
        self.wall_elapsed_s: Optional[float] = None
        self.attributes: Dict[str, object] = dict(attributes) if attributes else {}
        self.events: List[SpanEvent] = []
        self.children: List[Span] = []

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def child(
        self,
        name: str,
        start_ns: float,
        attributes: Optional[Dict[str, object]] = None,
    ) -> "Span":
        """Open a child span starting at virtual ``start_ns``."""
        span = Span(name, start_ns, attributes)
        self.children.append(span)
        return span

    def end(self, end_ns: float) -> "Span":
        """Close the span at virtual ``end_ns`` (must not precede the start)."""
        end_ns = float(end_ns)
        if end_ns < self.start_ns:
            raise ValueError(
                f"span {self.name!r} cannot end at {end_ns} before its start "
                f"{self.start_ns}"
            )
        self.end_ns = end_ns
        return self

    def event(self, name: str, t_ns: float, **attributes: object) -> SpanEvent:
        """Attach a point-in-time event to this span."""
        event = SpanEvent(name, float(t_ns), dict(attributes))
        self.events.append(event)
        return event

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, pre-order (parents first)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First descendant (pre-order, self included) with ``name``."""
        for span in self.walk():
            if span.name == name:
                return span
        return None


class Tracer:
    """Collects finished trace trees and assigns their deterministic ids.

    The tracer itself is passive: instrumented code opens a root span with
    :meth:`begin`, builds the tree through :meth:`Span.child` /
    :meth:`Span.event`, and hands the finished root back through
    :meth:`finish`, which assigns ``trace_id``/``span_id``/``parent_id`` and
    appends the root to :attr:`spans`.  Export through
    :mod:`repro.obs.export` (JSONL / Chrome trace-event format).

    Determinism is the *caller's* ordering contract: the serving layer
    finishes traces in virtual-time completion order.
    """

    #: Instrumented code guards every tracing block on this flag.
    enabled = True

    def __init__(self) -> None:
        #: Finished root spans, in emission order.
        self.spans: List[Span] = []
        self._next_trace_id = 0
        self._next_span_id = 1

    # ------------------------------------------------------------------ #
    # Span lifecycle
    # ------------------------------------------------------------------ #
    def begin(
        self,
        name: str,
        start_ns: float,
        attributes: Optional[Dict[str, object]] = None,
    ) -> Span:
        """Open a root span (no ids yet — they are assigned at :meth:`finish`)."""
        return Span(name, start_ns, attributes)

    def finish(self, root: Span) -> Span:
        """Seal a trace: assign deterministic ids and record the root."""
        if root.trace_id is None:
            root.trace_id = self._next_trace_id
            self._next_trace_id += 1
        for span in root.walk():
            span.trace_id = root.trace_id
            span.span_id = self._next_span_id
            self._next_span_id += 1
            for child in span.children:
                child.parent_id = span.span_id
        root.parent_id = None
        self.spans.append(root)
        return root

    def emit(
        self,
        name: str,
        t_ns: float,
        attributes: Optional[Dict[str, object]] = None,
    ) -> Span:
        """Record an instantaneous process-level event span.

        Used for happenings that belong to no single query — catalog
        mutations and the invalidations they trigger.  The span lives on
        the reserved :data:`PROCESS_TRACE_ID` lane.
        """
        span = Span(name, t_ns, attributes)
        span.trace_id = PROCESS_TRACE_ID
        return self.finish(span)

    # ------------------------------------------------------------------ #
    # Collection
    # ------------------------------------------------------------------ #
    def clear(self) -> None:
        """Drop collected spans and reset id counters (fresh trace session)."""
        self.spans.clear()
        self._next_trace_id = 0
        self._next_span_id = 1

    def all_spans(self) -> List[Span]:
        """Every finished span, flattened in (emission, pre-order) order."""
        return [span for root in self.spans for span in root.walk()]

    def __len__(self) -> int:
        return len(self.spans)


class NullTracer(Tracer):
    """The default no-op tracer: ``enabled`` is False, nothing is recorded.

    Instrumented code never reaches the span-building calls when it honours
    the ``if tracer.enabled`` guard; the methods are still safe no-ops so
    an unguarded call cannot crash or accumulate state.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def begin(self, name, start_ns, attributes=None) -> Span:
        return Span(name, start_ns, attributes)

    def finish(self, root: Span) -> Span:
        return root  # never recorded

    def emit(self, name, t_ns, attributes=None) -> Span:
        return Span(name, t_ns, attributes)


#: Shared no-op tracer instance used as the default everywhere.
NULL_TRACER = NullTracer()


def coerce_tracer(trace: object) -> Tracer:
    """Resolve a ``trace=`` argument to a tracer.

    ``True`` builds a fresh recording :class:`Tracer`; a ready tracer passes
    through; ``None``/``False`` yield :data:`NULL_TRACER`.
    """
    if isinstance(trace, Tracer):
        return trace
    if trace is True:
        return Tracer()
    if trace in (None, False):
        return NULL_TRACER
    raise TypeError(f"trace must be a Tracer, True/False or None, got {trace!r}")


__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "PROCESS_TRACE_ID",
    "SCHEMA_VERSION",
    "Span",
    "SpanEvent",
    "Tracer",
    "coerce_tracer",
]
