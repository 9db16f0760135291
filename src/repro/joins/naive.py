"""Naive nested-loop evaluation of conjunctive queries.

This engine exists purely as a correctness oracle: it evaluates the query by
backtracking over the atoms, scanning each atom's relation for tuples
consistent with the current partial binding.  It makes no use of indexes and
has exponential cost, so it is only run on the small inputs the test suite
uses — but its simplicity makes it easy to audit, and every other engine is
required to agree with it exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.joins.base import (
    EngineCapabilities,
    EngineExecution,
    EngineProtocol,
    software_cost,
)
from repro.joins.plan import JoinPlan
from repro.joins.stats import JoinStats
from repro.relational.catalog import Database
from repro.relational.query import Atom, ConjunctiveQuery


class NaiveJoin(EngineProtocol):
    """Backtracking nested-loop engine (the correctness oracle).

    Plan-blind: any plan it is handed is ignored.
    """

    name = "naive"
    capabilities = EngineCapabilities(supports_repeated_vars=True)

    def execute(
        self,
        query: ConjunctiveQuery,
        database: Database,
        plan: Optional[JoinPlan] = None,
    ) -> EngineExecution:
        database.validate_query(query)
        stats = JoinStats()
        results: List[Tuple[int, ...]] = []
        seen: set = set()

        atoms = list(query.atoms)
        binding: Dict[str, int] = {}

        def matches(atom: Atom, row: Tuple[int, ...]) -> bool:
            """Does ``row`` agree with the current binding (and itself)?"""
            local: Dict[str, int] = {}
            for variable, value in zip(atom.variables, row):
                if variable in binding and binding[variable] != value:
                    return False
                if variable in local and local[variable] != value:
                    return False
                local[variable] = value
            return True

        def extend(atom: Atom, row: Tuple[int, ...]) -> List[str]:
            """Bind the variables of ``atom`` not yet bound; return the new ones."""
            new_variables = []
            for variable, value in zip(atom.variables, row):
                if variable not in binding:
                    binding[variable] = value
                    new_variables.append(variable)
            return new_variables

        def search(atom_index: int) -> None:
            if atom_index == len(atoms):
                output = tuple(binding[v] for v in query.head_variables)
                if output not in seen:
                    seen.add(output)
                    results.append(output)
                stats.bindings_enumerated += 1
                return
            atom = atoms[atom_index]
            relation = database.relation(atom.relation)
            for row in relation.sorted_rows():
                stats.index_element_reads += len(row)
                if not matches(atom, row):
                    continue
                new_variables = extend(atom, row)
                search(atom_index + 1)
                for variable in new_variables:
                    del binding[variable]

        search(0)
        stats.output_tuples = len(results)
        return EngineExecution(results, software_cost(stats, len(results)), False, stats=stats)
