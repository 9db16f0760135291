"""Behavioural tests of the join engines: statistics, caching, operators.

Correctness (same answers as the oracle) is covered in
``test_joins_correctness.py``; these tests check the *properties the paper
relies on*: LFTJ materialises nothing, CTJ caches exactly the cacheable
variables and reuses them, the pairwise engines materialise the intermediate
explosion that Figures 17/18 quantify, and the binary operators behave like
natural joins.
"""

import pytest
from helpers import edges_database

from repro.graphs import community_graph, pattern_query
from repro.joins import (
    CachedTrieJoin,
    GenericJoin,
    JoinStats,
    LeapfrogTrieJoin,
    NaiveJoin,
    PairwiseJoin,
    hash_join,
    natural_join_schema,
    sort_merge_join,
)
from repro.relational import Relation, Schema


class TestJoinStats:
    def test_record_and_merge(self):
        a = JoinStats(output_tuples=2, intermediate_results=5, cache_lookups=4, cache_hits=1)
        a.record_match("x", 3)
        b = JoinStats(output_tuples=1, lub_searches=7)
        b.record_match("x")
        b.record_match("y", 2)
        merged = a.merge(b)
        assert merged.output_tuples == 3
        assert merged.intermediate_results == 5
        assert merged.lub_searches == 7
        assert merged.per_variable_matches == {"x": 4, "y": 2}
        assert merged.cache_misses == 3
        assert a.per_variable_matches == {"x": 3}  # merge does not mutate inputs

    def test_as_dict_contains_all_counters(self):
        stats = JoinStats(output_tuples=1)
        payload = stats.as_dict()
        assert payload["output_tuples"] == 1
        assert "cache_misses" in payload
        assert stats.total_index_accesses == 0


class TestLFTJBehaviour:
    def test_lftj_materialises_nothing(self, small_community_db):
        for name in ("path3", "path4", "cycle3", "cycle4", "clique4"):
            result = LeapfrogTrieJoin().execute(pattern_query(name), small_community_db)
            assert result.stats.intermediate_results == 0
            assert result.stats.cache_lookups == 0

    def test_lftj_counts_lub_searches(self, small_community_db):
        result = LeapfrogTrieJoin().execute(pattern_query("cycle3"), small_community_db)
        assert result.stats.lub_searches > 0
        assert result.stats.index_element_reads > 0

    def test_plan_is_attached_to_result(self, small_community_db):
        result = LeapfrogTrieJoin().execute(pattern_query("path3"), small_community_db)
        assert result.plan is not None
        assert result.plan.variable_order == ("x", "y", "z")


class TestCTJBehaviour:
    def test_ctj_reuses_cached_partial_joins(self, small_community_db):
        result = CachedTrieJoin().execute(pattern_query("path4"), small_community_db)
        assert result.stats.cache_lookups > 0
        assert result.stats.cache_hits > 0
        assert result.stats.cache_hits <= result.stats.cache_lookups
        assert result.stats.intermediate_results > 0

    def test_ctj_caches_nothing_for_cycle3_and_clique4(self, small_community_db):
        for name in ("cycle3", "clique4"):
            result = CachedTrieJoin().execute(pattern_query(name), small_community_db)
            assert result.stats.cache_lookups == 0
            assert result.stats.intermediate_results == 0

    def test_ctj_does_less_leapfrog_work_than_lftj(self, small_community_db):
        """Cache hits replace recomputation, so CTJ issues fewer LUB searches."""
        query = pattern_query("path4")
        ctj = CachedTrieJoin().execute(query, small_community_db)
        lftj = LeapfrogTrieJoin().execute(query, small_community_db)
        assert ctj.stats.lub_searches <= lftj.stats.lub_searches
        assert ctj.stats.index_element_reads < lftj.stats.index_element_reads

    def test_ctj_intermediates_bounded_by_distinct_key_matches(self, small_community_db):
        """Cached values are partial joins, far fewer than the output."""
        query = pattern_query("path4")
        result = CachedTrieJoin().execute(query, small_community_db)
        assert result.stats.intermediate_results < result.cardinality


class TestGenericJoinBehaviour:
    def test_generic_join_materialises_per_level_sets(self, small_community_db):
        result = GenericJoin().execute(pattern_query("cycle3"), small_community_db)
        assert result.stats.index_element_writes > 0

    def test_generic_join_reads_more_than_ctj(self, small_community_db):
        """EmptyHeaded-style scanning touches more elements than cached leapfrogging."""
        query = pattern_query("path4")
        generic = GenericJoin().execute(query, small_community_db)
        ctj = CachedTrieJoin().execute(query, small_community_db)
        assert generic.stats.total_index_accesses > ctj.stats.total_index_accesses


class TestPairwiseBehaviour:
    def test_invalid_operator_rejected(self):
        with pytest.raises(ValueError):
            PairwiseJoin("nested_loop")

    def test_pairwise_intermediates_exceed_ctj(self, small_community_db):
        """The Figure 18 relationship at test scale: pairwise >> CTJ intermediates."""
        for name in ("cycle4", "clique4"):
            query = pattern_query(name)
            pairwise = PairwiseJoin("hash").execute(query, small_community_db)
            ctj = CachedTrieJoin().execute(query, small_community_db)
            assert pairwise.stats.intermediate_results > ctj.stats.intermediate_results

    def test_pairwise_path3_has_single_join_no_intermediates(self, small_community_db):
        result = PairwiseJoin("hash").execute(pattern_query("path3"), small_community_db)
        assert result.stats.intermediate_results == 0

    def test_hash_and_sort_merge_plans_agree(self, small_powerlaw_db):
        query = pattern_query("cycle4")
        hash_result = PairwiseJoin("hash").execute(query, small_powerlaw_db)
        merge_result = PairwiseJoin("sort_merge").execute(query, small_powerlaw_db)
        assert set(hash_result.tuples) == set(merge_result.tuples)
        assert hash_result.stats.intermediate_results == merge_result.stats.intermediate_results

    def test_pairwise_handles_repeated_variable_atoms(self):
        """R(x, x) becomes a selection; only self-loops survive."""
        from repro.relational import Atom, ConjunctiveQuery

        database = edges_database([(1, 1), (1, 2), (3, 3)])
        query = ConjunctiveQuery("loops", ("x",), [Atom("E", ("x", "x"))])
        result = PairwiseJoin("hash").execute(query, database)
        reference = set(NaiveJoin().execute(query, database).tuples)
        assert set(result.tuples) == reference == {(1,), (3,)}


class TestBinaryOperators:
    def make_relations(self):
        left = Relation("L", Schema(("x", "y")), [(1, 10), (2, 20), (3, 30)])
        right = Relation("R", Schema(("y", "z")), [(10, 100), (10, 101), (30, 300)])
        return left, right

    def test_natural_join_schema_order(self):
        left, right = self.make_relations()
        schema = natural_join_schema(left.schema, right.schema)
        assert schema.attributes == ("x", "y", "z")

    def test_hash_join_results(self):
        left, right = self.make_relations()
        stats = JoinStats()
        output = hash_join(left, right, stats=stats)
        assert set(output.sorted_rows()) == {(1, 10, 100), (1, 10, 101), (3, 30, 300)}
        assert stats.index_element_reads > 0
        assert stats.index_element_writes > 0

    def test_sort_merge_join_matches_hash_join(self):
        left, right = self.make_relations()
        assert set(sort_merge_join(left, right).sorted_rows()) == set(
            hash_join(left, right).sorted_rows()
        )

    def test_join_with_no_shared_attributes_is_cartesian(self):
        left = Relation("L", Schema(("a",)), [(1,), (2,)])
        right = Relation("R", Schema(("b",)), [(7,), (8,)])
        for operator in (hash_join, sort_merge_join):
            output = operator(left, right)
            assert output.cardinality == 4

    def test_join_with_empty_input(self):
        left = Relation("L", Schema(("x", "y")))
        right = Relation("R", Schema(("y", "z")), [(1, 2)])
        assert hash_join(left, right).cardinality == 0
        assert sort_merge_join(left, right).cardinality == 0

    def test_join_on_multiple_shared_attributes(self):
        left = Relation("L", Schema(("a", "b", "c")), [(1, 2, 3), (1, 2, 4), (9, 9, 9)])
        right = Relation("R", Schema(("a", "b", "d")), [(1, 2, 7), (9, 8, 1)])
        expected = {(1, 2, 3, 7), (1, 2, 4, 7)}
        assert set(hash_join(left, right).sorted_rows()) == expected
        assert set(sort_merge_join(left, right).sorted_rows()) == expected

    def test_operators_agree_on_random_community_graph(self):
        graph = community_graph(25, 90, seed=4)
        edges = graph.to_relation("E")
        left = edges.rename("L", {"src": "x", "dst": "y"})
        right = edges.rename("R", {"src": "y", "dst": "z"})
        assert set(hash_join(left, right).sorted_rows()) == set(
            sort_merge_join(left, right).sorted_rows()
        )
