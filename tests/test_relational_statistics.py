"""Tests for the AGM bound and database statistics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import PATTERN_NAMES, edges_database, pattern_query
from repro.joins import CachedTrieJoin, NaiveJoin
from repro.relational import (
    Atom,
    ConjunctiveQuery,
    agm_bound,
    agm_exponent,
    database_statistics,
    fractional_edge_cover,
)


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


class TestDatabaseStatistics:
    def test_summary_counts(self):
        database = edges_database([(0, 1), (1, 2), (2, 0)])
        stats = database_statistics(database)
        assert stats.relation_cardinalities == {"E": 3}
        assert stats.total_tuples == 3
        assert stats.active_domain_size == 3
        assert stats.largest_relation == ("E", 3)

    def test_multiple_relations(self):
        from repro.relational import Database, Relation, Schema

        database = Database("multi")
        database.add_relation(Relation("A", Schema(("x",)), [(1,), (2,)]))
        database.add_relation(Relation("B", Schema(("x", "y")), [(1, 9), (2, 8), (3, 7)]))
        stats = database_statistics(database)
        assert stats.total_tuples == 5
        assert stats.largest_relation == ("B", 3)
        assert stats.active_domain_size == len({1, 2, 3, 7, 8, 9})
