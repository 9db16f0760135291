"""Compare two sets of benchmark runs: ``python perf/compare.py A.json B.json``.

Both files come from ``python perf/run.py --runs N --json OUT``.  One row
per (workload, end-to-end metric): each side's median and quartiles over
its runs, the change of B's median against A's (A is the base), and a
verdict against the metric's bound in ``BENCHMARK.json``:

``ok``          B's median is not worse than A's by more than the bound;
``worse``       it is;
``unresolved``  it is not, but either side's quartile spread is wider than
                the bound, so "unchanged" cannot be claimed — unless every
                run of B reads better than every run of A (``better``).

``setup_s`` is judged on its medians only, as the benchmark's driver does.
Exits 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import os
import sys
from statistics import median, quantiles
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = quantiles(values, n=4)
    return q1, median(values), q3


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, middle, q3 = _quartiles(values)
    return (q3 - q1) / middle


def end_to_end_values(runs: List[dict]) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) → that metric's value in every untraced run."""
    table: Dict[Tuple[str, str], List[float]] = {}
    for run in runs:
        if run["trace"]:
            continue
        for name, metric in run["metrics"].items():
            table.setdefault((run["workload"], name), []).append(metric["value"])
    return table


def compare(runs_a: List[dict], runs_b: List[dict], benchmark: dict) -> List[dict]:
    values_a, values_b = end_to_end_values(runs_a), end_to_end_values(runs_b)
    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            key = (workload, metric["name"])
            if key not in values_a or key not in values_b:
                continue
            a, b = values_a[key], values_b[key]
            change = median(b) / median(a) - 1.0
            worsening = change if metric["better"] == "lower" else -change
            b_all_better = (
                max(b) < min(a) if metric["better"] == "lower" else min(b) > max(a)
            )
            widest = 0.0 if metric["name"] == "setup_s" else max(spread(a), spread(b))
            if worsening > metric["bound"]:
                verdict = "worse"
            elif widest > metric["bound"]:
                verdict = "better" if b_all_better else "unresolved"
            else:
                verdict = "ok"
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "a": _quartiles(a),
                    "b": _quartiles(b),
                    "runs": (len(a), len(b)),
                    "spread": (spread(a), spread(b)),
                    "change": change,
                    "bound": metric["bound"],
                    "verdict": verdict,
                }
            )
    return rows


def render(rows: List[dict]) -> str:
    header = (
        f"{'workload':<10} {'metric':<13} {'unit':<4} "
        f"{'A median [q1, q3]':>31} {'B median [q1, q3]':>31} "
        f"{'B/A-1':>8} {'spread A/B':>13} {'bound':>6}  verdict"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        cells = []
        for q1, q2, q3 in (row["a"], row["b"]):
            cells.append(f"{q2:>10.4f} [{q1:>8.4f}, {q3:>8.4f}]")
        lines.append(
            f"{row['workload']:<10} {row['metric']:<13} {row['unit']:<4} "
            f"{cells[0]:>31} {cells[1]:>31} {row['change']:>+8.2%} "
            f"{row['spread'][0]:>6.2%}/{row['spread'][1]:<6.2%} {row['bound']:>6.0%}  "
            f"{row['verdict']}"
        )
    lines.append("change = B's median against A's (base A); n = "
                 + ", ".join(sorted({f"{a}/{b}" for a, b in (r["runs"] for r in rows)}))
                 + " runs per side")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    sides = []
    for path in argv:
        with open(path, "r", encoding="utf-8") as handle:
            sides.append(json.load(handle)["runs"])
    rows = compare(sides[0], sides[1], load_benchmark())
    print(render(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
