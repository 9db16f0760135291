"""Benchmark report formatting, run-manifest artifacts and baseline comparison.

The one formatter, writer and compare tool behind every ``repro bench``
suite (:mod:`repro.eval.suites`): an invocation can print its report,
persist it as JSON or as a self-describing run directory, and diff it
against a committed baseline (``BENCH_<suite>.json``) with a regression
threshold.

The artifact layout, per run, under a results root (``eval/results/`` by
convention)::

    eval/results/<run>/
      manifest.json    # config snapshot: suite meta, platform, versions
      metrics.jsonl    # raw measurements, one JSON object per line
      summary.json     # headline numbers + pass/fail checks

``manifest.json`` answers "what exactly ran"; ``metrics.jsonl`` is the
append-friendly raw record downstream tooling greps; ``summary.json`` is
what a human (or CI) reads first.  All three are deterministic renderings
(sorted keys) of the in-memory report, so identical runs produce identical
artifacts.

Comparison against a committed baseline is **meta-aware**: per-kernel
timings are only judged when the run's (dataset, scale, seed) match the
baseline's — a ``--smoke`` run against the full-scale baseline still gets
the structural checks (same kernel rows, same check names) but never a
bogus timing verdict.  Matching meta does not mean the same host: wall
numbers in a committed baseline are host-specific (``meta.host_cpus`` /
``meta.machine`` record where it was measured).
"""

from __future__ import annotations

import json
import os
import platform
from typing import Dict, List, Optional

import repro

#: Default results root (relative to the invoking working directory).
DEFAULT_RESULTS_ROOT = os.path.join("eval", "results")

#: Default allowed slowdown before a kernel counts as regressed: current
#: may take up to (1 + threshold) × baseline seconds.
DEFAULT_REGRESSION_THRESHOLD = 0.25

#: The suites :mod:`repro.eval.suites` declares, each with a committed
#: ``BENCH_<suite>.json``.  Spelled here so the CLI parser can offer them
#: without importing the suite module (and with it :mod:`repro.storage`).
SUITE_NAMES = ("kernels", "storage", "concurrency", "chaos", "ivm")

#: Meta fields that must match for timings to be comparable across runs.
COMPARABLE_META_FIELDS = ("suite", "dataset", "scale", "seed")


def format_kernel_report(report: Dict) -> str:
    """Human-readable rendering of a :func:`repro.eval.suites.run_suite` report."""
    meta = report["meta"]
    lines = [
        f"{meta.get('suite', 'kernels')} microbenchmarks — {meta['dataset']} scale {meta['scale']} "
        f"({meta['edges']} edges, seed {meta['seed']}, best of {meta['repeats']})"
    ]
    for name, payload in report["kernels"].items():
        detail = ", ".join(
            f"{key}={value}" for key, value in payload.items() if key != "seconds"
        )
        lines.append(f"  {name:<24s} {payload['seconds'] * 1e3:9.3f} ms  ({detail})")
    checks = report["checks"]
    rendered = " ".join(f"{name}={value}" for name, value in sorted(checks.items()))
    lines.append(f"  checks: {rendered}")
    return "\n".join(lines)


def write_kernel_report(report: Dict, path: str) -> None:
    """Write the report as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def kernel_metrics_rows(report: Dict) -> List[Dict[str, object]]:
    """Flatten a kernel report into ``metrics.jsonl`` rows (one per kernel)."""
    rows: List[Dict[str, object]] = []
    for name, payload in report["kernels"].items():
        row: Dict[str, object] = {"metric": name}
        row.update(payload)
        rows.append(row)
    return rows


def write_run_artifacts(
    run_name: str,
    report: Dict,
    results_root: str = DEFAULT_RESULTS_ROOT,
    extra_manifest: Optional[Dict[str, object]] = None,
) -> str:
    """Persist one benchmark run as ``<results_root>/<run_name>/``.

    Returns the run directory path.  ``report`` is a kernel-suite style
    report (``meta`` / ``kernels`` / ``checks``); ``extra_manifest`` merges
    additional config snapshot entries (CLI flags, git revision...).
    """
    run_dir = os.path.join(results_root, run_name)
    os.makedirs(run_dir, exist_ok=True)

    manifest: Dict[str, object] = {
        "run": run_name,
        "meta": report.get("meta", {}),
        "repro_version": repro.__version__,
        "platform": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "system": platform.system(),
            "machine": platform.machine(),
        },
    }
    if extra_manifest:
        manifest.update(extra_manifest)
    write_kernel_report(manifest, os.path.join(run_dir, "manifest.json"))

    with open(os.path.join(run_dir, "metrics.jsonl"), "w", encoding="utf-8") as handle:
        for row in kernel_metrics_rows(report):
            handle.write(json.dumps(row, sort_keys=True, separators=(",", ":")))
            handle.write("\n")

    summary = {
        "run": run_name,
        "checks": report.get("checks", {}),
        "kernel_seconds": {
            name: payload.get("seconds")
            for name, payload in report.get("kernels", {}).items()
        },
    }
    write_kernel_report(summary, os.path.join(run_dir, "summary.json"))
    return run_dir


# --------------------------------------------------------------------------- #
# Baseline comparison
# --------------------------------------------------------------------------- #
def compare_kernel_reports(
    current: Dict,
    baseline: Dict,
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
) -> Dict:
    """Diff ``current`` against a ``baseline`` kernel report.

    Returns a verdict dictionary:

    ``comparable``
        Whether per-kernel timings were judged at all — requires the
        :data:`COMPARABLE_META_FIELDS` of both reports to match.
    ``missing`` / ``extra``
        Kernel names present in only one report.  Missing kernels fail the
        comparison (a renamed/dropped kernel must update the baseline).
    ``missing_checks``
        Check names the baseline has and the run lacks; they fail the
        comparison too (a claim may not disappear silently).
    ``regressions``
        Kernels whose current seconds exceed ``baseline * (1 + threshold)``
        (only populated when comparable).
    ``rows``
        Per-kernel ``(name, baseline_s, current_s, ratio)`` entries for
        reporting, in baseline order.
    ``ok``
        The overall verdict: structure intact and no timing regressions.
        (Whether the run's own checks held is the run's verdict, not the
        comparison's.)
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    current_kernels = current.get("kernels", {})
    baseline_kernels = baseline.get("kernels", {})
    missing = sorted(set(baseline_kernels) - set(current_kernels))
    extra = sorted(set(current_kernels) - set(baseline_kernels))
    missing_checks = sorted(
        set(baseline.get("checks", {})) - set(current.get("checks", {}))
    )
    current_meta = current.get("meta", {})
    baseline_meta = baseline.get("meta", {})
    comparable = all(
        current_meta.get(field) == baseline_meta.get(field)
        for field in COMPARABLE_META_FIELDS
    )

    rows: List[Dict[str, object]] = []
    regressions: List[str] = []
    if comparable:
        for name, base_payload in baseline_kernels.items():
            if name not in current_kernels:
                continue
            base_s = base_payload.get("seconds")
            cur_s = current_kernels[name].get("seconds")
            if not base_s or cur_s is None:
                continue
            ratio = cur_s / base_s
            regressed = ratio > 1.0 + threshold
            rows.append(
                {
                    "kernel": name,
                    "baseline_seconds": base_s,
                    "current_seconds": cur_s,
                    "ratio": ratio,
                    "regressed": regressed,
                }
            )
            if regressed:
                regressions.append(name)

    return {
        "comparable": comparable,
        "threshold": threshold,
        "missing": missing,
        "extra": extra,
        "missing_checks": missing_checks,
        "regressions": regressions,
        "rows": rows,
        "ok": not missing and not missing_checks and not regressions,
    }


def format_comparison(result: Dict) -> str:
    """Human-readable rendering of :func:`compare_kernel_reports` output."""
    lines = []
    if result["comparable"]:
        lines.append(
            f"baseline comparison (allowed slowdown {result['threshold']:.0%}):"
        )
        for row in result["rows"]:
            marker = "REGRESSED" if row["regressed"] else "ok"
            lines.append(
                f"  {row['kernel']:<24s} {row['baseline_seconds'] * 1e3:9.3f} ms "
                f"-> {row['current_seconds'] * 1e3:9.3f} ms "
                f"({row['ratio']:.2f}x)  {marker}"
            )
    else:
        lines.append(
            "baseline comparison: meta differs (dataset/scale/seed) — "
            "structural checks only, timings not judged"
        )
    if result["missing"]:
        lines.append(f"  MISSING kernels vs baseline: {', '.join(result['missing'])}")
    if result["missing_checks"]:
        lines.append(
            f"  MISSING checks vs baseline: {', '.join(result['missing_checks'])}"
        )
    if result["extra"]:
        lines.append(f"  new kernels not in baseline: {', '.join(result['extra'])}")
    lines.append(f"  verdict: {'OK' if result['ok'] else 'FAIL'}")
    return "\n".join(lines)


def load_report(path: str) -> Dict:
    """Load a JSON benchmark report (e.g. the committed baseline)."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


__all__ = [
    "COMPARABLE_META_FIELDS",
    "DEFAULT_REGRESSION_THRESHOLD",
    "DEFAULT_RESULTS_ROOT",
    "compare_kernel_reports",
    "format_comparison",
    "format_kernel_report",
    "kernel_metrics_rows",
    "load_report",
    "write_kernel_report",
    "write_run_artifacts",
]
