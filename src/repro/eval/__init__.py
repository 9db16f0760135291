"""Evaluation harness: regenerates every table and figure of the paper.

Usage pattern (also what the ``benchmarks/`` directory does)::

    from repro.eval import ExperimentContext, figure13

    context = ExperimentContext(scale=0.01)
    print(figure13(context).to_text())

The ``repro bench`` suites live in :mod:`repro.eval.suites`, which this
package deliberately does not import: it loads :mod:`repro.service`, whose
metrics module imports :mod:`repro.eval.metrics`.
"""

from repro.eval.metrics import (
    arithmetic_mean,
    geometric_mean,
    group_by,
    normalise,
    percentile,
    reduction,
    speedup,
    summarise_latencies,
    summarise_ratios,
)
from repro.eval.reporting import (
    format_distribution,
    format_latency_summary,
    format_ratio_summary,
    format_series,
    format_table,
    indent,
)
from repro.eval.harness import (
    BASELINE_ORDER,
    DEFAULT_EVAL_SCALE,
    ExperimentContext,
)
from repro.eval.artifacts import (
    DEFAULT_REGRESSION_THRESHOLD,
    DEFAULT_RESULTS_ROOT,
    SUITE_NAMES,
    compare_kernel_reports,
    format_comparison,
    format_kernel_report,
    kernel_metrics_rows,
    load_report,
    write_kernel_report,
    write_run_artifacts,
)
from repro.eval.experiments import (
    ENERGY_COMPONENTS,
    EXPERIMENT_REGISTRY,
    FIGURE14_THREAD_COUNTS,
    ExperimentResult,
    ablation_mt_scheme,
    ablation_pjr_cache,
    ablation_write_bypass,
    figure13,
    figure14,
    figure15,
    figure16,
    figure17,
    figure18,
    table1,
    table2,
    table3,
)

__all__ = [
    "arithmetic_mean",
    "geometric_mean",
    "group_by",
    "normalise",
    "percentile",
    "reduction",
    "speedup",
    "summarise_latencies",
    "summarise_ratios",
    "format_distribution",
    "format_latency_summary",
    "format_ratio_summary",
    "format_series",
    "format_table",
    "indent",
    "BASELINE_ORDER",
    "DEFAULT_EVAL_SCALE",
    "DEFAULT_REGRESSION_THRESHOLD",
    "DEFAULT_RESULTS_ROOT",
    "ExperimentContext",
    "SUITE_NAMES",
    "compare_kernel_reports",
    "format_comparison",
    "format_kernel_report",
    "kernel_metrics_rows",
    "load_report",
    "write_run_artifacts",
    "write_kernel_report",
    "ENERGY_COMPONENTS",
    "EXPERIMENT_REGISTRY",
    "FIGURE14_THREAD_COUNTS",
    "ExperimentResult",
    "ablation_mt_scheme",
    "ablation_pjr_cache",
    "ablation_write_bypass",
    "figure13",
    "figure14",
    "figure15",
    "figure16",
    "figure17",
    "figure18",
    "table1",
    "table2",
    "table3",
]
