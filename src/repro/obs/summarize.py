"""Trace analysis: per-phase latency breakdowns and critical paths.

Consumes the JSONL span files written by :mod:`repro.obs.export` and powers
``repro trace summarize out.jsonl``: reassemble each query's span tree,
aggregate virtual time by phase across all queries, and report each query's
critical path — the child phase chain that dominated its end-to-end latency
(for scatter fan-outs, the slowest shard leg).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.eval.metrics import summarise_latencies
from repro.eval.reporting import format_table
from repro.obs.export import read_jsonl
from repro.obs.trace import PROCESS_TRACE_ID


class SpanNode:
    """One decoded span line re-linked into its trace tree."""

    __slots__ = ("data", "children")

    def __init__(self, data: Dict[str, object]):
        self.data = data
        self.children: List["SpanNode"] = []

    @property
    def name(self) -> str:
        return self.data["name"]  # type: ignore[return-value]

    @property
    def trace_id(self) -> int:
        return self.data["trace_id"]  # type: ignore[return-value]

    @property
    def span_id(self) -> int:
        return self.data["span_id"]  # type: ignore[return-value]

    @property
    def duration_ns(self) -> float:
        return float(self.data["end_ns"]) - float(self.data["start_ns"])  # type: ignore[arg-type]

    @property
    def attributes(self) -> Dict[str, object]:
        return self.data.get("attributes", {})  # type: ignore[return-value]

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def build_trace_trees(spans: Sequence[Dict[str, object]]) -> List[SpanNode]:
    """Re-link decoded span lines into root nodes (process events included).

    Spans arrive parent-before-child within a trace (the exporter flattens
    pre-order), but the function tolerates any order by linking through the
    ``parent_id`` index.
    """
    nodes = {span["span_id"]: SpanNode(span) for span in spans}
    roots: List[SpanNode] = []
    for span in spans:
        node = nodes[span["span_id"]]
        parent_id = span.get("parent_id")
        parent = nodes.get(parent_id) if parent_id is not None else None
        if parent is not None:
            parent.children.append(node)
        else:
            roots.append(node)
    return roots


def query_roots(roots: Sequence[SpanNode]) -> List[SpanNode]:
    """The per-query root spans, excluding the process-event lane."""
    return [root for root in roots if root.trace_id != PROCESS_TRACE_ID]


def phase_breakdown(roots: Sequence[SpanNode]) -> Dict[str, Dict[str, float]]:
    """Virtual-time latency summaries keyed by span name, across all queries."""
    durations: Dict[str, List[float]] = {}
    for root in query_roots(roots):
        for node in root.walk():
            durations.setdefault(node.name, []).append(node.duration_ns)
    return {name: summarise_latencies(series) for name, series in sorted(durations.items())}


def critical_path(root: SpanNode) -> List[SpanNode]:
    """The chain of longest child spans from ``root`` down to a leaf."""
    path = [root]
    node = root
    while node.children:
        node = max(node.children, key=lambda child: (child.duration_ns, -child.span_id))
        path.append(node)
    return path


def _describe_node(node: SpanNode) -> str:
    label = node.name
    shard = node.attributes.get("shard")
    if shard is not None:
        label = f"{label}[shard={shard}]"
    return label


def critical_path_rows(roots: Sequence[SpanNode]) -> List[Tuple[object, ...]]:
    """One table row per query: latency, dominant phase, and the full path."""
    rows: List[Tuple[object, ...]] = []
    for root in query_roots(roots):
        path = critical_path(root)
        dominant = max(path[1:] or path, key=lambda node: node.duration_ns)
        total = root.duration_ns
        share = (dominant.duration_ns / total) if total > 0 else 0.0
        rows.append(
            (
                root.trace_id,
                root.attributes.get("request_id", ""),
                root.attributes.get("query", ""),
                total,
                _describe_node(dominant),
                f"{share:.0%}",
                " > ".join(_describe_node(node) for node in path[1:]) or "-",
            )
        )
    return rows


def fault_rows(roots: Sequence[SpanNode]) -> List[Tuple[object, ...]]:
    """One row per query that hit fault-tolerance machinery.

    Sums the ``scatter.retries`` attributes the serving stack attaches to
    execute spans (only when nonzero — see
    :func:`repro.obs.instrument.attach_scatter_legs`), plus the
    degraded/failed flags.  Queries with no fault activity produce no
    row, so fault-free traces summarize without this section.
    """
    rows: List[Tuple[object, ...]] = []
    for root in query_roots(roots):
        retries = 0
        missing: Tuple[object, ...] = ()
        degraded = failed = False
        for node in root.walk():
            attrs = node.attributes
            retries += int(attrs.get("scatter.retries", 0) or 0)
            if attrs.get("scatter.degraded"):
                degraded = True
                missing = tuple(attrs.get("scatter.missing_shards", ()) or ())
            if attrs.get("failed"):
                failed = True
                missing = tuple(attrs.get("missing_shards", ()) or ()) or missing
        if retries or degraded or failed:
            if failed:
                outcome = "failed"
            elif degraded:
                outcome = "degraded" + (
                    f" (missing {','.join(str(s) for s in missing)})" if missing else ""
                )
            else:
                outcome = "recovered"
            rows.append(
                (
                    root.trace_id,
                    root.attributes.get("request_id", ""),
                    root.attributes.get("query", ""),
                    retries,
                    outcome,
                )
            )
    return rows


def summarize_trace(
    path: str, limit: Optional[int] = None, spans: Optional[Sequence[Dict[str, object]]] = None
) -> str:
    """The full ``repro trace summarize`` report for a JSONL trace file."""
    if spans is None:
        spans = read_jsonl(path)
    roots = build_trace_trees(spans)
    queries = query_roots(roots)
    process_events = [root for root in roots if root.trace_id == PROCESS_TRACE_ID]

    lines = [
        f"trace: {path}",
        f"  spans      : {len(spans)}",
        f"  queries    : {len(queries)}",
        f"  events     : {len(process_events)} process-level",
    ]
    if not queries:
        return "\n".join(lines)

    wall = [
        root.data["wall_elapsed_s"]
        for root in queries
        if root.data.get("wall_elapsed_s") is not None
    ]
    lines.append(
        "  wall fields: "
        + (f"{len(wall)} spans carry host timings" if wall else "none (virtual run)")
    )

    phase_rows = [
        (
            name,
            int(summary["count"]),
            summary["mean"],
            summary["p50"],
            summary["p95"],
            summary["max"],
        )
        for name, summary in phase_breakdown(roots).items()
    ]
    lines.append("")
    lines.append(
        format_table(
            ["phase", "count", "mean ns", "p50 ns", "p95 ns", "max ns"],
            phase_rows,
            title="per-phase virtual-time breakdown",
        )
    )

    faults = fault_rows(roots)
    if faults:
        lines.append("")
        lines.append(
            format_table(
                ["trace", "request", "query", "retries", "outcome"],
                faults,
                title="fault tolerance",
            )
        )

    rows = critical_path_rows(roots)
    rows.sort(key=lambda row: -float(row[3]))
    if limit is not None:
        shown = rows[:limit]
        suffix = f" (top {len(shown)} of {len(rows)} by latency)"
    else:
        shown = rows
        suffix = ""
    lines.append("")
    lines.append(
        format_table(
            ["trace", "request", "query", "latency ns", "dominant", "share", "critical path"],
            shown,
            title="critical paths" + suffix,
        )
    )
    return "\n".join(lines)


__all__ = [
    "SpanNode",
    "build_trace_trees",
    "critical_path",
    "critical_path_rows",
    "fault_rows",
    "phase_breakdown",
    "query_roots",
    "summarize_trace",
]
