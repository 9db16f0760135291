"""Pairwise (binary join tree) query evaluation.

This is the *traditional* approach the paper contrasts WCOJ algorithms with
(Section 2, Appendix A): decompose the multi-way join into a sequence of
binary joins, each of which materialises an intermediate relation.  The
engine drives the Figures 17/18 comparisons and the Q100/Graphicionado
analytic models:

* the sum of intermediate-relation sizes is the Figure 18 metric;
* the reads/writes counted by the binary operators feed the main-memory
  access estimates of Figure 17.

The planner builds a left-deep tree.  Atom order follows a greedy
smallest-intermediate heuristic (join next the atom sharing a variable with
the current intermediate and having the fewest tuples) — a reasonable stand-in
for the optimisers of MonetDB-class systems; a Cartesian product is only used
when no connected atom remains.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.joins.base import (
    EngineCapabilities,
    EngineExecution,
    EngineProtocol,
    software_cost,
)
from repro.joins.hash_join import hash_join
from repro.joins.plan import JoinPlan
from repro.joins.sort_merge import sort_merge_join
from repro.joins.stats import JoinStats
from repro.relational.catalog import Database
from repro.relational.query import Atom, ConjunctiveQuery
from repro.relational.relation import Relation
from repro.relational.schema import Schema


class PairwiseJoin(EngineProtocol):
    """Left-deep binary-join engine with materialised intermediates.

    Parameters
    ----------
    operator:
        ``"hash"`` (default) or ``"sort_merge"`` — which binary join operator
        the plan uses.  Q100 is modelled over ``"sort_merge"`` (its hardware
        has sort/merge-join operators); Graphicionado's message-passing
        expansion is closer to ``"hash"``.

    Plan-blind: the engine plans its own join tree and ignores any plan it
    is handed.
    """

    name = "pairwise"
    capabilities = EngineCapabilities(supports_repeated_vars=True)

    def __init__(self, operator: str = "hash"):
        if operator not in ("hash", "sort_merge"):
            raise ValueError(f"unknown operator {operator!r}; use 'hash' or 'sort_merge'")
        self.operator = operator

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def execute(
        self,
        query: ConjunctiveQuery,
        database: Database,
        plan: Optional[JoinPlan] = None,
    ) -> EngineExecution:
        database.validate_query(query)
        stats = JoinStats()

        base_relations = [
            self._bind_atom(query, atom, index, database, stats)
            for index, atom in enumerate(query.atoms)
        ]
        order = self._plan_order(query, base_relations)

        current = base_relations[order[0]]
        intermediate_sizes: List[int] = []
        for step, atom_index in enumerate(order[1:], start=1):
            operand = base_relations[atom_index]
            current = self._binary_join(current, operand, f"intermediate_{step}", stats)
            if step < len(order) - 1:
                # Materialised intermediate (not the final join result).
                intermediate_sizes.append(current.cardinality)
        stats.intermediate_results += sum(intermediate_sizes)

        tuples = self._project(query, current, stats)
        stats.output_tuples = len(tuples)
        return EngineExecution(tuples, software_cost(stats, len(tuples)), False, stats=stats)

    # ------------------------------------------------------------------ #
    # Plan construction
    # ------------------------------------------------------------------ #
    def _bind_atom(
        self,
        query: ConjunctiveQuery,
        atom: Atom,
        index: int,
        database: Database,
        stats: JoinStats,
    ) -> Relation:
        """Materialise the atom as a relation whose attributes are the query variables.

        Repeated variables within one atom become a selection (both columns
        equal) followed by a projection onto the distinct variables.
        """
        stored = database.relation(atom.relation)
        schema_attrs: List[str] = []
        for variable in atom.variables:
            if variable not in schema_attrs:
                schema_attrs.append(variable)
        bound = Relation(f"atom_{index}_{atom.relation}", Schema(schema_attrs))
        for row in stored.sorted_rows():
            stats.index_element_reads += len(row)
            assignment: Dict[str, int] = {}
            consistent = True
            for variable, value in zip(atom.variables, row):
                if variable in assignment and assignment[variable] != value:
                    consistent = False
                    break
                assignment[variable] = value
            if consistent:
                bound.insert(tuple(assignment[v] for v in schema_attrs))
        return bound

    def _plan_order(
        self, query: ConjunctiveQuery, base_relations: Sequence[Relation]
    ) -> List[int]:
        """Greedy left-deep atom order: start small, stay connected."""
        remaining = list(range(len(base_relations)))
        remaining.sort(key=lambda i: (base_relations[i].cardinality, i))
        order = [remaining.pop(0)]
        bound_variables = set(base_relations[order[0]].schema.attributes)
        while remaining:
            connected = [
                i
                for i in remaining
                if any(a in bound_variables for a in base_relations[i].schema.attributes)
            ]
            pool = connected if connected else remaining
            nxt = min(pool, key=lambda i: (base_relations[i].cardinality, i))
            remaining.remove(nxt)
            order.append(nxt)
            bound_variables.update(base_relations[nxt].schema.attributes)
        return order

    def _binary_join(
        self, left: Relation, right: Relation, name: str, stats: JoinStats
    ) -> Relation:
        if self.operator == "hash":
            return hash_join(left, right, name, stats)
        return sort_merge_join(left, right, name, stats)

    def _project(
        self, query: ConjunctiveQuery, relation: Relation, stats: JoinStats
    ) -> List[Tuple[int, ...]]:
        indexes = [relation.schema.index_of(v) for v in query.head_variables]
        seen = set()
        tuples: List[Tuple[int, ...]] = []
        for row in relation.sorted_rows():
            stats.index_element_reads += len(row)
            stats.bindings_enumerated += 1
            projected = tuple(row[i] for i in indexes)
            if projected not in seen:
                seen.add(projected)
                tuples.append(projected)
        return tuples
