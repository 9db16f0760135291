"""Instrumentation bridges between the serving stack and the tracer.

The serving layer (:mod:`repro.service.service`) and the synchronous API
path (:mod:`repro.api.session`) both annotate their ``execute`` spans from
the same engine outcome objects; these helpers keep that annotation in one
place — :class:`~repro.joins.stats.JoinStats` counters onto the execute
span, and the per-shard scatter/gather legs reconstructed from a
:class:`~repro.service.scatter.ScatterGatherStats` breakdown.

Shard legs are *derived* spans: they are laid out in virtual time from the
recorded per-task costs using the same model the executor charges
(``dispatch * n + critical path + merge``), rather than traced live on
worker threads — that keeps worker threads free of tracer calls and makes
the leg layout identical under the serial and concurrent fan-outs.
"""

from __future__ import annotations

from typing import Optional

from repro.joins.stats import JoinStats
from repro.obs.trace import Span
from repro.relational.sharding import SCATTER_DISPATCH_COST_NS

def join_stats_attributes(stats: Optional[JoinStats]) -> dict:
    """The span-attribute projection of one execution's engine counters."""
    if stats is None:
        return {}
    return stats.trace_attributes()


def annotate_execute_span(span: Span, execution) -> None:
    """Attach an engine execution's outcome to its ``execute`` span.

    Adds the modelled cost, result cardinality, plan usage and the
    ``JoinStats.TRACE_KEYS`` counters; a scatter fan-out additionally gets
    one child span per shard leg plus a ``gather`` leg (see
    :func:`attach_scatter_legs`).
    """
    span.attributes["cost_ns"] = execution.cost
    span.attributes["cardinality"] = execution.cardinality
    span.attributes["plan_used"] = execution.plan_used
    span.attributes.update(join_stats_attributes(execution.stats))
    if execution.scatter is not None:
        attach_scatter_legs(span, execution.scatter)


def attach_scatter_legs(span: Span, scatter) -> None:
    """Reconstruct per-shard scatter legs as children of the execute span.

    Layout mirrors the executor's virtual-time charge: a ``scatter_dispatch``
    window of ``SCATTER_DISPATCH_COST_NS`` per task, every shard leg starting
    together when dispatch ends (shards run concurrently in the model), and
    the ``gather`` merge starting after the critical-path shard finishes.
    """
    start = span.start_ns
    dispatch_ns = SCATTER_DISPATCH_COST_NS * len(scatter.tasks)
    span.attributes["scatter.shards"] = scatter.num_shards
    span.attributes["scatter.seed_relation"] = scatter.seed_relation
    span.attributes["scatter.seed_partitioned"] = scatter.seed_partitioned
    # Fault-tolerance outcome (repro.service.faults).  Attributes appear
    # only when nonzero, so fault-free traces stay byte-identical.
    if scatter.retries:
        span.attributes["scatter.retries"] = scatter.retries
    if scatter.timeouts:
        span.attributes["scatter.timeouts"] = scatter.timeouts
    if scatter.hedges:
        span.attributes["scatter.hedges"] = scatter.hedges
    if scatter.missing_shards:
        span.attributes["scatter.degraded"] = True
        span.attributes["scatter.missing_shards"] = tuple(scatter.missing_shards)
    span.child("scatter_dispatch", start).end(start + dispatch_ns)
    legs_start = start + dispatch_ns
    for task in scatter.tasks:
        leg = span.child(
            "shard",
            legs_start,
            {
                "shard": task.shard,
                "tuples": task.tuples,
                "from_cache": task.from_cache,
                "fragment_cardinality": task.fragment_cardinality,
            },
        )
        leg.end(legs_start + task.cost_ns)
        if task.attempts > 1:
            leg.attributes["attempts"] = task.attempts
            leg.event(
                "retried", legs_start, attempts=task.attempts, timeouts=task.timeouts
            )
        if task.timeouts:
            leg.attributes["timeouts"] = task.timeouts
        if task.hedged:
            leg.attributes["hedged"] = True
        if task.replica:
            leg.attributes["replica"] = task.replica
        if task.lost:
            leg.attributes["lost"] = True
        if task.wall_seconds is not None:
            leg.wall_elapsed_s = task.wall_seconds
    gather_start = legs_start + scatter.critical_path_ns
    gather = span.child(
        "gather",
        gather_start,
        {
            "merged_tuples": scatter.merged_tuples,
            "duplicates_removed": scatter.duplicates_removed,
        },
    )
    gather.end(gather_start + scatter.merge_cost_ns)


__all__ = [
    "annotate_execute_span",
    "attach_scatter_legs",
    "join_stats_attributes",
]
