"""Trace exporters and the span-line schema.

Two interchange formats:

* **JSONL** — one span per line, schema-versioned (:data:`SCHEMA_VERSION`),
  sorted keys and fixed separators so a deterministic trace serialises
  byte-identically.  This is the format ``repro trace validate`` /
  ``repro trace summarize`` consume.
* **Chrome trace-event format** — a ``{"traceEvents": [...]}`` JSON
  document loadable by ``chrome://tracing`` and Perfetto.  Each query trace
  gets its own ``tid`` lane; spans become complete (``"X"``) events and
  span events become instants (``"i"``).  Virtual nanoseconds are mapped to
  the format's microsecond ``ts`` field.

The JSONL span schema (one object per line)::

    {
      "schema": 1,             # SCHEMA_VERSION
      "trace_id": 3,           # per finished trace; -1 = process events
      "span_id": 17,           # unique per tracer session, pre-order
      "parent_id": 16,         # null for roots
      "name": "execute",
      "start_ns": 120.0,       # virtual time
      "end_ns": 2120.0,        # virtual time, >= start_ns
      "attributes": {...},     # flat or one-level-nested JSON values
      "events": [{"name": ..., "t_ns": ..., "attributes": {...}}, ...],
      "wall_elapsed_s": 0.004  # optional: measured host span (process backend only)
    }
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, TextIO, Union

from repro.obs.trace import SCHEMA_VERSION, Span, Tracer

#: Top-level keys every span line must carry.
REQUIRED_SPAN_FIELDS = (
    "schema",
    "trace_id",
    "span_id",
    "parent_id",
    "name",
    "start_ns",
    "end_ns",
    "attributes",
    "events",
)

#: Optional top-level keys a span line may carry.
OPTIONAL_SPAN_FIELDS = ("wall_elapsed_s",)


def span_to_dict(span: Span) -> Dict[str, object]:
    """The JSONL representation of one (finished, id-assigned) span."""
    payload: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "start_ns": span.start_ns,
        "end_ns": span.end_ns,
        "attributes": span.attributes,
        "events": [event.as_dict() for event in span.events],
    }
    if span.wall_elapsed_s is not None:
        payload["wall_elapsed_s"] = span.wall_elapsed_s
    return payload


def _span_line(span: Span) -> str:
    # sort_keys + fixed separators: deterministic traces serialise
    # byte-identically (the determinism tests compare raw file bytes).
    return json.dumps(span_to_dict(span), sort_keys=True, separators=(",", ":"))


def write_jsonl(tracer: Tracer, destination: Union[str, TextIO]) -> int:
    """Write every collected span as JSONL; returns the line count."""
    spans = tracer.all_spans()
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            return write_jsonl_spans(spans, handle)
    return write_jsonl_spans(spans, destination)


def write_jsonl_spans(spans: Iterable[Span], handle: TextIO) -> int:
    count = 0
    for span in spans:
        handle.write(_span_line(span))
        handle.write("\n")
        count += 1
    return count


def read_jsonl(path: str) -> List[Dict[str, object]]:
    """Load a JSONL trace back into span dictionaries (no validation)."""
    spans: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans


# --------------------------------------------------------------------------- #
# Schema validation
# --------------------------------------------------------------------------- #
def validate_span_dict(obj: object) -> List[str]:
    """Validate one decoded span line; returns a list of problems (empty = ok)."""
    errors: List[str] = []
    if not isinstance(obj, dict):
        return [f"span line must be a JSON object, got {type(obj).__name__}"]
    for key in REQUIRED_SPAN_FIELDS:
        if key not in obj:
            errors.append(f"missing required field {key!r}")
    allowed = set(REQUIRED_SPAN_FIELDS) | set(OPTIONAL_SPAN_FIELDS)
    for key in obj:
        if key not in allowed:
            errors.append(f"unknown field {key!r}")
    if errors:
        return errors
    if obj["schema"] != SCHEMA_VERSION:
        errors.append(f"schema {obj['schema']!r} != supported {SCHEMA_VERSION}")
    if not isinstance(obj["trace_id"], int) or isinstance(obj["trace_id"], bool):
        errors.append("trace_id must be an integer")
    if not isinstance(obj["span_id"], int) or isinstance(obj["span_id"], bool):
        errors.append("span_id must be an integer")
    elif obj["span_id"] < 1:
        errors.append("span_id must be >= 1")
    if obj["parent_id"] is not None and not isinstance(obj["parent_id"], int):
        errors.append("parent_id must be an integer or null")
    if not isinstance(obj["name"], str) or not obj["name"]:
        errors.append("name must be a non-empty string")
    for key in ("start_ns", "end_ns"):
        if not isinstance(obj[key], (int, float)) or isinstance(obj[key], bool):
            errors.append(f"{key} must be a number")
    if not errors and obj["end_ns"] < obj["start_ns"]:
        errors.append("end_ns must be >= start_ns")
    if not isinstance(obj["attributes"], dict):
        errors.append("attributes must be an object")
    if not isinstance(obj["events"], list):
        errors.append("events must be an array")
    else:
        for index, event in enumerate(obj["events"]):
            if not isinstance(event, dict):
                errors.append(f"events[{index}] must be an object")
                continue
            if not isinstance(event.get("name"), str):
                errors.append(f"events[{index}].name must be a string")
            t_ns = event.get("t_ns")
            if not isinstance(t_ns, (int, float)) or isinstance(t_ns, bool):
                errors.append(f"events[{index}].t_ns must be a number")
            if not isinstance(event.get("attributes", {}), dict):
                errors.append(f"events[{index}].attributes must be an object")
    wall = obj.get("wall_elapsed_s")
    if wall is not None and (not isinstance(wall, (int, float)) or isinstance(wall, bool)):
        errors.append("wall_elapsed_s must be a number when present")
    return errors


def validate_jsonl(path: str) -> List[str]:
    """Validate every line of a JSONL trace; returns ``line N: problem`` strings."""
    errors: List[str] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"line {number}: invalid JSON ({exc.msg})")
                continue
            for problem in validate_span_dict(obj):
                errors.append(f"line {number}: {problem}")
    return errors


# --------------------------------------------------------------------------- #
# Chrome trace-event format
# --------------------------------------------------------------------------- #
def chrome_trace_events(tracer: Tracer) -> List[Dict[str, object]]:
    """The Chrome/Perfetto ``traceEvents`` list of every collected span."""
    events: List[Dict[str, object]] = []
    lanes_named = set()
    for span in tracer.all_spans():
        tid = span.trace_id if span.trace_id is not None else 0
        if tid not in lanes_named:
            lanes_named.add(tid)
            name = "events" if tid < 0 else f"trace {tid}"
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": name},
                }
            )
        args = dict(span.attributes)
        if span.wall_elapsed_s is not None:
            args["wall_elapsed_s"] = span.wall_elapsed_s
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": "repro",
                "pid": 1,
                "tid": tid,
                # Virtual nanoseconds land on the format's microsecond axis.
                "ts": span.start_ns / 1e3,
                "dur": span.duration_ns / 1e3,
                "args": args,
            }
        )
        for event in span.events:
            events.append(
                {
                    "ph": "i",
                    "name": event.name,
                    "cat": "repro",
                    "pid": 1,
                    "tid": tid,
                    "ts": event.t_ns / 1e3,
                    "s": "t",
                    "args": dict(event.attributes),
                }
            )
    return events


def write_chrome_trace(tracer: Tracer, destination: Union[str, TextIO]) -> int:
    """Write the Chrome trace-event document; returns the event count."""
    document = {
        "displayTimeUnit": "ns",
        "otherData": {"schema": SCHEMA_VERSION, "producer": "repro.obs"},
        "traceEvents": chrome_trace_events(tracer),
    }
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True, separators=(",", ":"))
            handle.write("\n")
    else:
        json.dump(document, destination, sort_keys=True, separators=(",", ":"))
        destination.write("\n")
    return len(document["traceEvents"])


#: Trace file formats the CLI accepts.
TRACE_FORMATS = ("jsonl", "chrome")


def write_trace(tracer: Tracer, path: str, format: str = "jsonl") -> int:
    """Write the collected trace in ``format``; returns the span/event count."""
    if format == "jsonl":
        return write_jsonl(tracer, path)
    if format == "chrome":
        return write_chrome_trace(tracer, path)
    raise ValueError(f"unknown trace format {format!r}; choose from {TRACE_FORMATS}")


__all__ = [
    "OPTIONAL_SPAN_FIELDS",
    "REQUIRED_SPAN_FIELDS",
    "TRACE_FORMATS",
    "chrome_trace_events",
    "read_jsonl",
    "span_to_dict",
    "validate_jsonl",
    "validate_span_dict",
    "write_chrome_trace",
    "write_jsonl",
    "write_jsonl_spans",
    "write_trace",
]
