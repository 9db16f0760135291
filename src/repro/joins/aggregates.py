"""Aggregation and approximate counting over pattern queries.

The paper's conclusion sketches two extensions: *"extend our accelerator to
other important graph operations such as aggregations (e.g., triangle
counting), and use novel algorithmic approaches to offer approximate
estimations in a fraction of the time"* (Section 5).  This module implements
both on the software side (the accelerator's count-only mode lives in
:mod:`repro.core`):

``count_matches``
    Exact COUNT(*) over a pattern query without materialising the result
    tuples — the trie join's plan kernel, generated with the ``count`` leaf
    action, only increments a counter (or adds a leaf range's length), so
    the (potentially huge) output never touches memory.  This is the
    aggregation mode the paper proposes for triangle counting.

``count_by_variable``
    Per-value counts of one output variable (e.g. triangles per vertex),
    computed in one pass of the plan kernel with the ``group`` leaf action.

``estimate_count``
    Wander-join-style approximate counting: random root-to-leaf walks through
    the trie join, weighted by the inverse of their sampling probability,
    give an unbiased estimate of the result cardinality with a fraction of
    the work of the exact count.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.joins.compiler import QueryCompiler
from repro.joins.leapfrog import resolve_slot_tables, run_plan
from repro.joins.plan import JoinPlan
from repro.joins.stats import JoinStats
from repro.relational.catalog import Database
from repro.relational.query import ConjunctiveQuery
from repro.util.rng import DeterministicRNG
from repro.util.validation import check_positive


@dataclass
class CountResult:
    """Outcome of an exact counting execution."""

    query: ConjunctiveQuery
    count: int
    stats: JoinStats
    plan: JoinPlan


@dataclass
class GroupedCountResult:
    """Outcome of a per-variable-value counting execution."""

    query: ConjunctiveQuery
    variable: str
    counts: Dict[int, int]
    stats: JoinStats
    plan: JoinPlan

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def top(self, k: int = 10) -> List[Tuple[int, int]]:
        """The ``k`` values with the highest counts."""
        return sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


@dataclass
class SampleEstimate:
    """Outcome of the wander-join-style approximate count."""

    query: ConjunctiveQuery
    estimate: float
    standard_error: float
    num_samples: int
    successful_walks: int
    plan: JoinPlan

    def confidence_interval(self, z: float = 1.96) -> Tuple[float, float]:
        """A normal-approximation confidence interval around the estimate."""
        margin = z * self.standard_error
        return (max(0.0, self.estimate - margin), self.estimate + margin)


def count_matches(
    query: ConjunctiveQuery,
    database: Database,
    plan: Optional[JoinPlan] = None,
    use_cache: bool = True,
) -> CountResult:
    """Exact COUNT(*) of a pattern query without materialising results."""
    database.validate_query(query)
    if plan is None:
        plan = QueryCompiler(enable_caching=use_cache).compile(query)
    count, stats = run_plan(plan, database, use_cache, action="count")
    return CountResult(query, count, stats, plan)


def count_by_variable(
    query: ConjunctiveQuery,
    database: Database,
    variable: str,
    plan: Optional[JoinPlan] = None,
    use_cache: bool = True,
) -> GroupedCountResult:
    """COUNT(*) grouped by the values of one output variable.

    For example, ``count_by_variable(cycle3, db, "x")`` returns the number of
    directed triangles each vertex participates in (as the first vertex),
    which is the per-vertex triangle count aggregation the paper mentions.
    """
    database.validate_query(query)
    if plan is None:
        plan = QueryCompiler(enable_caching=use_cache).compile(query)
    if variable not in plan.query.head_variables:
        raise KeyError(
            f"group-by variable {variable!r} is not a head variable of {plan.query.name!r}"
        )
    counts, stats = run_plan(plan, database, use_cache, action="group", group_by=variable)
    return GroupedCountResult(query, variable, counts, stats, plan)


def estimate_count(
    query: ConjunctiveQuery,
    database: Database,
    num_samples: int = 1_000,
    seed: int = 0,
    plan: Optional[JoinPlan] = None,
) -> SampleEstimate:
    """Approximate COUNT(*) via weighted random walks (wander join).

    Each sample performs one root-to-leaf walk through the trie join: at
    every join variable it picks a uniformly random candidate from one
    participating trie range and checks the other participating ranges for
    membership.  A completed walk contributes the product of the sampled
    range sizes (the inverse of its selection probability); a failed walk
    contributes zero.  The sample mean is an unbiased estimator of the exact
    count, and the reported standard error shrinks as ``1/sqrt(num_samples)``.
    """
    check_positive("num_samples", num_samples)
    database.validate_query(query)
    if plan is None:
        plan = QueryCompiler(enable_caching=False).compile(query)
    rng = DeterministicRNG(seed)

    # Resolve the slot program once; every walk reuses the same tries.
    slot_tries, _depth_tables = resolve_slot_tables(plan, database)
    if any(trie.num_tuples == 0 for trie in slot_tries):
        return SampleEstimate(query, 0.0, 0.0, num_samples, 0, plan)
    program = plan.slot_program()

    weights: List[float] = []
    successes = 0
    for _ in range(num_samples):
        weight = _sample_walk(program, slot_tries, rng)
        weights.append(weight)
        if weight > 0:
            successes += 1

    mean = sum(weights) / num_samples
    if num_samples > 1:
        variance = sum((w - mean) ** 2 for w in weights) / (num_samples - 1)
        standard_error = math.sqrt(variance / num_samples)
    else:
        standard_error = float("inf")
    return SampleEstimate(query, mean, standard_error, num_samples, successes, plan)


def _sample_walk(program, slot_tries, rng: DeterministicRNG) -> float:
    """One weighted random walk; returns its inverse-probability weight (or 0).

    ``program`` is the plan's :class:`~repro.joins.plan.SlotProgram` and
    ``slot_tries`` the per-slot tries, both resolved once by the caller.
    """
    positions = [-1] * program.num_positions
    weight = 1.0

    for depth_program in program.depths:
        participants = []
        for index, (slot, level) in enumerate(depth_program.participants):
            trie = slot_tries[slot]
            if level == 0:
                lo, hi = trie.root_range()
            else:
                parent = positions[depth_program.parent_indexes[index]]
                lo, hi = trie.children_range(level - 1, parent)
            if lo >= hi:
                return 0.0
            participants.append((index, trie, level, lo, hi))

        # Sample from the smallest candidate range (lowest variance), then
        # verify the value against every other participant.
        participants.sort(key=lambda item: item[4] - item[3])
        seed_index, seed_trie, seed_level, seed_lo, seed_hi = participants[0]
        range_size = seed_hi - seed_lo
        position = rng.randint(seed_lo, seed_hi - 1)
        value = seed_trie.value_at(seed_level, position)
        positions[depth_program.position_indexes[seed_index]] = position

        for index, trie, level, lo, hi in participants[1:]:
            values = trie.level_values(level)
            probe = bisect_left(values, value, lo, hi)
            if probe >= hi or values[probe] != value:
                return 0.0
            positions[depth_program.position_indexes[index]] = probe

        weight *= range_size

    return weight
