"""Small numeric helpers used by the evaluation harness.

The paper reports speedups and energy reductions as per-workload ratios and
summarises them with averages and ranges ("7-63x on average", "up to 539x").
These helpers centralise that arithmetic so every figure reproduction
summarises its series the same way.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence


def speedup(baseline_time: float, accelerated_time: float) -> float:
    """Ratio of baseline to accelerated runtime (> 1 means the accelerator wins)."""
    if accelerated_time <= 0:
        raise ValueError("accelerated_time must be positive")
    return baseline_time / accelerated_time


def reduction(baseline_value: float, accelerated_value: float) -> float:
    """Ratio of baseline to accelerated consumption (energy, accesses, ...)."""
    if accelerated_value <= 0:
        raise ValueError("accelerated_value must be positive")
    return baseline_value / accelerated_value


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (0 for an empty sequence)."""
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


def arithmetic_mean(values: Sequence[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def summarise_ratios(values: Sequence[float]) -> Dict[str, float]:
    """Min / max / arithmetic and geometric mean of a ratio series."""
    values = list(values)
    if not values:
        return {"min": 0.0, "max": 0.0, "mean": 0.0, "geomean": 0.0}
    return {
        "min": min(values),
        "max": max(values),
        "mean": arithmetic_mean(values),
        "geomean": geometric_mean(values),
    }


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of ``values`` by linear interpolation.

    Returns 0 for an empty sequence so summary tables degrade gracefully.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    lower = int(math.floor(rank))
    upper = int(math.ceil(rank))
    if lower == upper:
        return float(ordered[lower])
    weight = rank - lower
    return float(ordered[lower] * (1.0 - weight) + ordered[upper] * weight)


def summarise_latencies(values: Sequence[float]) -> Dict[str, float]:
    """Count / mean / p50 / p95 / max summary of a latency series.

    Used by the serving subsystem (:mod:`repro.service.metrics`) for latency
    and queue-wait distributions.
    """
    values = list(values)
    if not values:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}
    return {
        "count": len(values),
        "mean": arithmetic_mean(values),
        "p50": percentile(values, 50),
        "p95": percentile(values, 95),
        "max": float(max(values)),
    }
