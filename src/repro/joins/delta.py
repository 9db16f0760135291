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

* :class:`DeltaPlanner` rewrites the query once per atom over a changed
  relation, rebinding that one atom to the relation's *delta alias*
  (``E`` → ``E@delta``), and compiles each rewritten query through the normal
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
* :class:`DeltaCatalog` loads one batch's Δ rows *once* into one private
  ``~delta`` :class:`Database` (each ``ΔR`` under its delta alias, tries
  built on demand and cached there) and hands out
  :class:`~repro.relational.catalog.OverlayCatalog` views over it: the
  full catalog's, or any base catalog's (a shard view) with extra visible
  names — a shard alias's Δ — resolving to the same stored ``ΔR``, so
  every view of the batch shares one Δ trie per attribute order.
* :func:`evaluate_delta` runs the union against one such view: every atom
  whose relation's delta alias the view resolves is a delta term; every
  other name falls through to the base catalog (a :class:`Database`,
  :class:`~repro.relational.sharding.ShardedDatabase` or a shard view —
  anything with the catalog read surface).
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


def _rewrite(query: ConjunctiveQuery, index: int) -> ConjunctiveQuery:
    """``query`` with atom ``index`` rebound to its relation's delta alias."""
    atoms = list(query.atoms)
    atom = atoms[index]
    atoms[index] = Atom(delta_alias(atom.relation), atom.variables)
    return ConjunctiveQuery(f"{query.name}@d{index}", query.head_variables, atoms)


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
        """The compiled delta terms of ``query`` for the changed relations.

        A memoised term is found without rewriting ``query`` again: this
        runs for every cached entry a mutation event patches.
        """
        signature = self.compiler.signature(query)
        changed = set(relation_names)
        plans: List[DeltaPlan] = []
        for index, atom in enumerate(query.atoms):
            if atom.relation not in changed:
                continue
            key = (signature, atom.relation, index)
            plan = self._memo.get(key)
            if plan is None:
                rewritten = _rewrite(query, index)
                seeds = atom.variables
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


class DeltaCatalog:
    """One batch's Δ rows, loaded once into one private ``~delta`` database.

    ``deltas`` maps relation names of ``catalog`` to the genuinely-new rows
    just inserted into them; empty batches are left out.  The database
    (each ``ΔR`` stored under its :func:`delta_alias`) is built on the
    first view, and its tries on the first delta term that scans them —
    cached in that one database — so a mutation event builds each Δ trie
    at most once per attribute order, however many cached entries and
    shard views it patches, and an event nobody reads builds nothing.
    """

    def __init__(self, catalog, deltas: Mapping[str, Sequence[Row]]):
        self.catalog = catalog
        self.deltas = {name: tuple(rows) for name, rows in deltas.items() if rows}
        self._database: Optional[Database] = None
        self._view: Optional[OverlayCatalog] = None

    @property
    def database(self) -> Database:
        """The ``~delta`` database holding every ``ΔR`` (built once)."""
        if self._database is None:
            batch = Database(f"{getattr(self.catalog, 'name', 'catalog')}~delta")
            for name, rows in sorted(self.deltas.items()):
                schema = self.catalog.relation(name).schema
                batch.add_relation(Relation(delta_alias(name), schema, rows))
            self._database = batch
        return self._database

    @property
    def view(self) -> OverlayCatalog:
        """``catalog`` with every changed relation's delta alias reading its Δ."""
        if self._view is None:
            self._view = self.overlay(self.catalog)
        return self._view

    def overlay(
        self, base, aliases: Optional[Mapping[str, str]] = None
    ) -> OverlayCatalog:
        """``base`` with every changed relation's delta alias reading its Δ.

        ``aliases`` maps further visible names to the changed relation
        whose Δ they read: ``{"E@shard": "E"}`` makes ``E@shard@delta``
        resolve to the stored ``E@delta`` — the same rows and the same
        tries (a scatter task's seed alias, see
        :meth:`~repro.service.scatter.ScatterGatherExecutor.maintain`).
        """
        database = self.database
        names = {name: name for name in self.deltas}
        names.update(aliases or {})
        return OverlayCatalog(
            base,
            {
                delta_alias(visible): (database, delta_alias(relation))
                for visible, relation in names.items()
            },
            f"{getattr(base, 'name', 'catalog')}~delta",
        )


def evaluate_delta(
    query: ConjunctiveQuery, view, engine, planner: DeltaPlanner
) -> DeltaResult:
    """Evaluate what a batch of inserted rows added to ``query``'s result.

    ``view`` is a delta view of the *post-insert* catalog
    (:attr:`DeltaCatalog.view` or :meth:`DeltaCatalog.overlay`): every
    atom whose relation's delta alias it resolves is a delta term, reading
    ``ΔR_i`` under the alias and the live post-insert relations under
    every other name.  ``engine`` must be plan-aware (the maintainer uses
    LFTJ); every term runs its compiled :class:`JoinPlan` through the
    normal slot-program machinery against ``view`` itself, so every term
    and every entry of one batch shares the view's Δ tries.
    """
    changed = [
        name for name in query.relation_names() if delta_alias(name) in view
    ]
    stats = JoinStats()
    if not changed:
        return DeltaResult(tuples=(), stats=stats, terms=0)
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
    "DeltaCatalog",
    "DeltaPlan",
    "DeltaPlanner",
    "DeltaResult",
    "delta_alias",
    "evaluate_delta",
]
