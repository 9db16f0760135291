"""Evaluation harness: regenerates every table and figure of the paper.

Usage pattern (``repro experiment NAME`` runs the same registry)::

    from repro.eval import ExperimentContext, figure13

    context = ExperimentContext(scale=0.01)
    print(figure13(context).to_text())

The wall-clock benchmark is ``perf/`` (declared in ``BENCHMARK.json``);
this package only regenerates the paper's tables and figures.  It must not
import :mod:`repro.service`, whose metrics module imports
:mod:`repro.eval.metrics`.
"""

from repro.eval.metrics import (
    arithmetic_mean,
    geometric_mean,
    percentile,
    reduction,
    speedup,
    summarise_latencies,
    summarise_ratios,
)
from repro.eval.reporting import (
    format_latency_summary,
    format_ratio_summary,
    format_table,
)
from repro.eval.harness import (
    BASELINE_ORDER,
    DEFAULT_EVAL_SCALE,
    ExperimentContext,
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
    "percentile",
    "reduction",
    "speedup",
    "summarise_latencies",
    "summarise_ratios",
    "format_latency_summary",
    "format_ratio_summary",
    "format_table",
    "BASELINE_ORDER",
    "DEFAULT_EVAL_SCALE",
    "ExperimentContext",
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
