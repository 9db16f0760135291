"""The AGM bound: a test oracle for every WCOJ engine's output size.

Section 2.1 of the paper builds on the AGM bound (Atserias, Grohe, Marx): the
worst-case output size of a natural join is ``prod_i |R_i|^{x_i}`` minimised
over *fractional edge covers* ``x`` of the query hypergraph, and an algorithm
is worst-case optimal (WCOJ) when its running time matches that bound.  The
paper's triangle example: with every relation of size ``N`` the bound is
``N^{3/2}``, while any pairwise plan can materialise ``N^2`` intermediate
tuples.  No routing or estimate in ``src/`` reads the bound, so its solver
lives here, beside the checks that use it: output <= AGM bound.
"""

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import pytest
from helpers import edges_database
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import PATTERN_NAMES, pattern_query
from repro.joins import CachedTrieJoin, NaiveJoin
from repro.relational import Atom, ConjunctiveQuery, Database


@dataclass(frozen=True)
class FractionalEdgeCover:
    """An optimal fractional edge cover of a query's hypergraph.

    Attributes
    ----------
    weights:
        One weight per body atom (by atom position), each in ``[0, 1]``.
    agm_exponent_log:
        The optimised objective ``sum_i x_i * log2(|R_i|)``; the AGM bound is
        ``2 ** agm_exponent_log``.
    """

    weights: Tuple[float, ...]
    agm_exponent_log: float

    @property
    def bound(self) -> float:
        return 2.0 ** self.agm_exponent_log


def _solve_cover_lp(
    variable_names: Sequence[str],
    atom_variables: Sequence[Sequence[str]],
    log_sizes: Sequence[float],
) -> Tuple[Tuple[float, ...], float]:
    """Minimise ``sum x_i * log_sizes_i`` s.t. every variable is covered.

    An exhaustive search over half-integral covers (every weight 0, 1/2 or
    1; a handful of atoms per pattern query keeps it cheap).  For binary
    atoms — graph patterns — the cover polytope's vertices are half-integral,
    so the search is exact; for wider atoms it returns a valid, possibly
    looser, upper bound.
    """
    num_atoms = len(atom_variables)
    best_weights: Tuple[float, ...] = (1.0,) * num_atoms
    best_objective = sum(log_sizes)
    steps = (0.0, 0.5, 1.0)

    def covered(weights: Sequence[float]) -> bool:
        for variable in variable_names:
            total = sum(
                weights[i] for i in range(num_atoms) if variable in atom_variables[i]
            )
            if total < 1.0 - 1e-9:
                return False
        return True

    def search(prefix: List[float]) -> None:
        nonlocal best_weights, best_objective
        if len(prefix) == num_atoms:
            if covered(prefix):
                objective = sum(w * s for w, s in zip(prefix, log_sizes))
                if objective < best_objective - 1e-12:
                    best_objective = objective
                    best_weights = tuple(prefix)
            return
        for step in steps:
            search(prefix + [step])

    search([])
    return best_weights, best_objective


def fractional_edge_cover(
    query: ConjunctiveQuery, database: Database
) -> FractionalEdgeCover:
    """Optimal fractional edge cover of ``query`` weighted by relation sizes."""
    database.validate_query(query)
    log_sizes = []
    for atom in query.atoms:
        cardinality = max(database.relation(atom.relation).cardinality, 1)
        log_sizes.append(math.log2(cardinality))
    weights, objective = _solve_cover_lp(
        query.variables, [atom.variables for atom in query.atoms], log_sizes
    )
    return FractionalEdgeCover(weights, objective)


def agm_bound(query: ConjunctiveQuery, database: Database) -> float:
    """The AGM worst-case output bound of ``query`` over ``database``."""
    return fractional_edge_cover(query, database).bound


def agm_exponent(query: ConjunctiveQuery) -> float:
    """The AGM exponent for the uniform case (every relation of size ``N``).

    The bound is ``N ** agm_exponent(query)``; e.g. 1.5 for the triangle
    query, 2.0 for the 4-cycle, and ``len(atoms)`` at most.
    """
    weights, objective = _solve_cover_lp(
        query.variables,
        [atom.variables for atom in query.atoms],
        [1.0] * len(query.atoms),
    )
    return objective


class TestAGMExponent:
    @pytest.mark.parametrize(
        "query_name,expected",
        [
            ("path3", 2.0),     # both atoms needed (y alone covers neither x nor z)
            ("path4", 2.0),     # cover the two end atoms
            ("cycle3", 1.5),    # the classic triangle bound N^(3/2)
            ("cycle4", 2.0),    # opposite edges, weight 1 each
            ("clique4", 2.0),   # 4-clique over directed edges
        ],
    )
    def test_pattern_exponents(self, query_name, expected):
        assert agm_exponent(pattern_query(query_name)) == pytest.approx(expected, abs=1e-6)

    def test_single_atom_query(self):
        query = ConjunctiveQuery("scan", ("a", "b"), [Atom("E", ("a", "b"))])
        assert agm_exponent(query) == pytest.approx(1.0)


class TestAGMBound:
    def test_triangle_bound_matches_formula(self, small_community_db):
        bound = agm_bound(pattern_query("cycle3"), small_community_db)
        edges = small_community_db.relation("E").cardinality
        assert bound == pytest.approx(edges ** 1.5, rel=1e-6)

    def test_cover_weights_are_a_valid_cover(self, small_community_db):
        for name in PATTERN_NAMES:
            query = pattern_query(name)
            cover = fractional_edge_cover(query, small_community_db)
            assert len(cover.weights) == query.num_atoms
            for variable in query.variables:
                total = sum(
                    weight
                    for weight, atom in zip(cover.weights, query.atoms)
                    if atom.uses(variable)
                )
                assert total >= 1.0 - 1e-6
            assert all(-1e-9 <= w <= 1.0 + 1e-9 for w in cover.weights)
            assert cover.bound == pytest.approx(2.0 ** cover.agm_exponent_log)

    @pytest.mark.parametrize("query_name", PATTERN_NAMES)
    def test_output_never_exceeds_bound(self, small_community_db, query_name):
        """Worst-case optimality sanity: |output| <= AGM bound."""
        query = pattern_query(query_name)
        result = CachedTrieJoin().execute(query, small_community_db)
        bound = agm_bound(query, small_community_db)
        assert result.cardinality <= bound + 1e-6

    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_bound_property_on_random_graphs(self, edges):
        database = edges_database(edges)
        for name in ("cycle3", "cycle4"):
            query = pattern_query(name)
            output = len(NaiveJoin().execute(query, database).tuples)
            assert output <= agm_bound(query, database) + 1e-6

    def test_empty_relation_bound_is_one(self):
        database = edges_database([])
        assert agm_bound(pattern_query("cycle3"), database) == pytest.approx(1.0)
