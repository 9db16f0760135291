"""Observability: hierarchical tracing and trace tooling.

The subsystem has three pieces:

* :mod:`repro.obs.trace` — :class:`Tracer` / :class:`Span`: hierarchical
  spans on two clocks (deterministic virtual time always, host wall time
  when a real backend measured one) with deterministic ids assigned at
  finish time in the serving layer's completion order.
* :mod:`repro.obs.export` — JSONL (schema-versioned, byte-deterministic)
  and Chrome trace-event / Perfetto exporters plus the JSONL validator.
* :mod:`repro.obs.summarize` — per-phase latency breakdowns and per-query
  critical-path analysis over exported traces (``repro trace summarize``).

Tracing is off by default everywhere (:data:`NULL_TRACER`); enable it with
``Session(trace=True)`` / ``QueryService(tracer=Tracer())`` or the CLI's
``--trace`` flags.  Serving metrics live beside the numbers they count:
:meth:`repro.service.QueryService.exposition` renders them in the
Prometheus text format (``repro workload --metrics``).
"""

from repro.obs.export import (
    OPTIONAL_SPAN_FIELDS,
    REQUIRED_SPAN_FIELDS,
    TRACE_FORMATS,
    chrome_trace_events,
    read_jsonl,
    span_to_dict,
    validate_jsonl,
    validate_span_dict,
    write_chrome_trace,
    write_jsonl,
    write_trace,
)
from repro.obs.instrument import (
    annotate_execute_span,
    attach_scatter_legs,
    join_stats_attributes,
)
from repro.obs.summarize import (
    build_trace_trees,
    critical_path,
    phase_breakdown,
    query_roots,
    summarize_trace,
)
from repro.obs.trace import (
    NULL_TRACER,
    PROCESS_TRACE_ID,
    SCHEMA_VERSION,
    NullTracer,
    Span,
    SpanEvent,
    Tracer,
    coerce_tracer,
)

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "OPTIONAL_SPAN_FIELDS",
    "PROCESS_TRACE_ID",
    "REQUIRED_SPAN_FIELDS",
    "SCHEMA_VERSION",
    "Span",
    "SpanEvent",
    "TRACE_FORMATS",
    "Tracer",
    "annotate_execute_span",
    "attach_scatter_legs",
    "build_trace_trees",
    "chrome_trace_events",
    "coerce_tracer",
    "critical_path",
    "join_stats_attributes",
    "phase_breakdown",
    "query_roots",
    "read_jsonl",
    "span_to_dict",
    "summarize_trace",
    "validate_jsonl",
    "validate_span_dict",
    "write_chrome_trace",
    "write_jsonl",
    "write_trace",
]
