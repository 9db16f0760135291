"""Plain-text rendering of experiment results.

Every experiment in :mod:`repro.eval.experiments` returns structured rows;
this module turns them into aligned text tables (and simple ASCII series) so
the benchmark harness can print the same rows/series the paper's tables and
figures report.  No plotting library is required.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
    float_format: str = "{:.3g}",
) -> str:
    """Render ``rows`` as an aligned monospace table."""
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered: List[str] = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(float_format.format(cell))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)

    widths = [len(str(h)) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(render_line([str(h) for h in headers]))
    lines.append(render_line(["-" * w for w in widths]))
    for row in rendered_rows:
        lines.append(render_line(row))
    return "\n".join(lines)


def format_ratio_summary(name: str, summary: Dict[str, float]) -> str:
    """One-line min/mean/max summary of a ratio series (paper-style phrasing)."""
    return (
        f"{name}: {summary['mean']:.1f}x on average "
        f"(geomean {summary['geomean']:.1f}x, range {summary['min']:.1f}x - {summary['max']:.1f}x)"
    )


def format_latency_summary(
    name: str, summary: Dict[str, float], unit: str = "units"
) -> str:
    """One-line rendering of a :func:`repro.eval.metrics.summarise_latencies` dict.

    The serving subsystem reports latencies in backend-specific abstract work
    units (or nanoseconds for the accelerator backend); ``unit`` labels them.
    """
    return (
        f"{name}: mean {summary['mean']:.1f} {unit}, "
        f"p50 {summary['p50']:.1f}, p95 {summary['p95']:.1f}, "
        f"max {summary['max']:.1f} (n={int(summary['count'])})"
    )
