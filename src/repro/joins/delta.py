"""Semi-naive delta plans: evaluate what a batch of inserts *added* to a join.

Given a conjunctive query ``Q = R_1 ⋈ ... ⋈ R_n`` and a batch of freshly
inserted rows ``ΔR`` (a :class:`~repro.relational.catalog.DeltaBatch`), the
new result tuples are exactly

    ⋃_{i : R_i changed}  R_1' ⋈ ... ⋈ ΔR_i ⋈ ... ⋈ R_n'

where every non-delta atom reads the *post-insert* relation.  Any new result
tuple has a witness assignment that uses at least one inserted row in some
atom, so it appears in that atom's term; every term only produces valid
post-state results, and the set union absorbs the overlap between terms.
This is the classic semi-naive rewrite in its post-state form — no
pre-insert snapshot of any relation is needed.

The machinery is deliberately thin over the existing compiler/engine stack:

* :func:`delta_rewrites` produces, per atom over a changed relation, the
  query with that one atom rebound to the relation's *delta alias*
  (``E`` → ``E@delta``).
* :class:`DeltaPlanner` compiles each rewritten query through the normal
  :class:`~repro.joins.compiler.QueryCompiler` (memoised per signature and
  atom position) under a *delta-seeded* variable order: the base query's
  order, stably partitioned so the Δ atom's variables come first.  The
  handful of inserted rows then drives the outermost loops — the WCOJ rule
  "iterate the smallest participant" applied to ``ΔR`` — instead of a scan
  of every root value of the full relation; the union over terms does not
  depend on any term's order.  Each compiled
  :class:`~repro.joins.plan.JoinPlan` runs through the same
  ``slot_program()`` machinery, so ``JoinStats`` accounting stays honest
  for delta joins.
* :func:`evaluate_delta` runs the union and returns the delta result.  The
  terms run against an :class:`~repro.relational.catalog.OverlayCatalog`:
  delta aliases resolve to a private :class:`Database` holding the batch
  rows; every other name falls through to the base catalog (a
  :class:`Database`, :class:`~repro.relational.sharding.ShardedDatabase`
  or a shard view — anything with the catalog read surface).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.joins.compiler import QueryCompiler
from repro.joins.plan import JoinPlan
from repro.joins.stats import JoinStats
from repro.relational.catalog import Database, OverlayCatalog
from repro.relational.query import Atom, ConjunctiveQuery
from repro.relational.relation import Relation

Row = Tuple[int, ...]

#: Suffix distinguishing a delta relation from its base relation inside a
#: rewritten query.  ``@`` cannot appear in user relation names that also
#: serve as datalog identifiers, so the alias never collides.
DELTA_SUFFIX = "@delta"


def delta_alias(relation_name: str) -> str:
    """The delta-relation name atoms are rebound to (``E`` → ``E@delta``)."""
    return f"{relation_name}{DELTA_SUFFIX}"


def is_delta_alias(name: str) -> bool:
    return name.endswith(DELTA_SUFFIX)


def delta_rewrites(
    query: ConjunctiveQuery, relation_names: Iterable[str]
) -> Tuple[Tuple[int, ConjunctiveQuery], ...]:
    """Per-atom rewrites binding one atom to its relation's delta alias.

    Returns ``(atom_index, rewritten_query)`` for every atom whose relation
    is in ``relation_names``; the rewritten query differs from ``query``
    only in that one atom's relation name, so its variable structure — and
    therefore the compiler's heuristic variable order — is identical.
    """
    changed = set(relation_names)
    rewrites: List[Tuple[int, ConjunctiveQuery]] = []
    for index, atom in enumerate(query.atoms):
        if atom.relation not in changed:
            continue
        atoms = list(query.atoms)
        atoms[index] = Atom(delta_alias(atom.relation), atom.variables)
        rewrites.append(
            (
                index,
                ConjunctiveQuery(
                    f"{query.name}@d{index}", query.head_variables, atoms
                ),
            )
        )
    return tuple(rewrites)


@dataclass(frozen=True)
class DeltaPlan:
    """One compiled delta term: which atom is rebound, and its plan."""

    atom_index: int
    query: ConjunctiveQuery
    plan: JoinPlan


class DeltaPlanner:
    """Compiles and memoises the delta terms of queries.

    Plans depend only on query structure and relation names (both carried
    by the canonical signature), never on data, so one compilation per
    ``(signature, relation, atom position)`` serves every subsequent batch.
    Each term's variable order is the base order with the Δ atom's
    variables moved to the front (see the module docstring).
    """

    def __init__(self, compiler: Optional[QueryCompiler] = None):
        self.compiler = compiler or QueryCompiler(enable_caching=True)
        self._memo: Dict[Tuple[str, str, int], DeltaPlan] = {}

    def plans_for(
        self, query: ConjunctiveQuery, relation_names: Iterable[str]
    ) -> Tuple[DeltaPlan, ...]:
        """The compiled delta terms of ``query`` for the changed relations."""
        signature = self.compiler.signature(query)
        plans: List[DeltaPlan] = []
        for index, rewritten in delta_rewrites(query, relation_names):
            key = (signature, query.atoms[index].relation, index)
            plan = self._memo.get(key)
            if plan is None:
                seeds = rewritten.atoms[index].variables
                base = self.compiler.choose_variable_order(rewritten)
                order = sorted(base, key=lambda v: v not in seeds)  # stable
                plan = DeltaPlan(
                    index, rewritten, self.compiler.compile(rewritten, order)
                )
                self._memo[key] = plan
            plans.append(plan)
        return tuple(plans)


@dataclass
class DeltaResult:
    """What a batch of inserts added to a query's result.

    ``tuples`` are the delta result rows (sorted, deduplicated across
    terms); note they may overlap the pre-insert result when an inserted
    row only adds a new *witness* for an existing result tuple — patching
    merges by set union, and subscribers diff against their snapshot.
    ``stats`` aggregates the per-term ``JoinStats`` and ``cost_ns`` the
    per-term virtual-time engine costs, so maintenance work is accounted
    with the same honesty as foreground executions.
    """

    tuples: Tuple[Row, ...]
    stats: JoinStats
    terms: int
    cost_ns: float = 0.0


def evaluate_delta(
    query: ConjunctiveQuery,
    catalog,
    deltas: Mapping[str, Sequence[Row]],
    engine,
    planner: DeltaPlanner,
) -> DeltaResult:
    """Evaluate what the inserted ``deltas`` rows added to ``query``'s result.

    ``catalog`` is the *post-insert* catalog (any object with the catalog
    read surface); ``deltas`` maps relation names — as they appear in the
    query's atoms — to the genuinely-new rows just inserted into them.
    ``engine`` must be plan-aware (the maintainer uses LFTJ); every term
    runs its compiled :class:`JoinPlan` through the normal slot-program
    machinery against an overlay of ``catalog`` (named ``{catalog}~delta``)
    in which each delta alias reads ``ΔR_i`` and every other name the live
    post-insert relation.
    """
    changed = {
        name: tuple(rows)
        for name, rows in deltas.items()
        if rows and name in set(query.relation_names())
    }
    stats = JoinStats()
    if not changed:
        return DeltaResult(tuples=(), stats=stats, terms=0)
    batch = Database(f"{getattr(catalog, 'name', 'catalog')}~delta")
    for name, rows in sorted(changed.items()):
        alias = delta_alias(name)
        batch.add_relation(Relation(alias, catalog.relation(name).schema, rows))
    view = OverlayCatalog(
        catalog, {alias: (batch, alias) for alias in batch.relation_names()}, batch.name
    )
    results: set = set()
    terms = 0
    cost = 0.0
    for delta_plan in planner.plans_for(query, changed):
        execution = engine.execute(delta_plan.query, view, plan=delta_plan.plan)
        results.update(tuple(row) for row in execution.tuples)
        stats.add(execution.stats)
        cost += execution.cost
        terms += 1
    return DeltaResult(
        tuples=tuple(sorted(results)), stats=stats, terms=terms, cost_ns=cost
    )


__all__ = [
    "DELTA_SUFFIX",
    "DeltaPlan",
    "DeltaPlanner",
    "DeltaResult",
    "delta_alias",
    "delta_rewrites",
    "evaluate_delta",
    "is_delta_alias",
]
