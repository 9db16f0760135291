"""Tests for aggregation and approximate counting (the paper's Section 5 extensions)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TrieJaxAccelerator, TrieJaxConfig
from repro.graphs import (
    EXTRA_PATTERN_NAMES,
    community_graph,
    edges_database,
    graph_database,
    pattern_query,
)
from repro.joins import (
    CachedTrieJoin,
    NaiveJoin,
    count_by_variable,
    count_matches,
    estimate_count,
)


class TestExactCounting:
    @pytest.mark.parametrize("query_name", ["path3", "cycle3", "cycle4", "clique4"])
    def test_count_matches_equals_enumeration(self, small_community_db, query_name):
        query = pattern_query(query_name)
        enumerated = CachedTrieJoin().execute(query, small_community_db)
        counted = count_matches(query, small_community_db)
        assert counted.count == enumerated.cardinality
        assert counted.stats.output_tuples == counted.count

    def test_counting_does_not_materialise(self, small_community_db):
        query = pattern_query("path4")
        counted = count_matches(query, small_community_db)
        # The counting execution still uses the CTJ cache but stores no tuples.
        assert counted.count > 0
        assert counted.stats.cache_lookups > 0

    def test_count_without_cache(self, small_community_db):
        query = pattern_query("path4")
        cached = count_matches(query, small_community_db, use_cache=True)
        uncached = count_matches(query, small_community_db, use_cache=False)
        assert cached.count == uncached.count
        assert uncached.stats.cache_lookups == 0

    def test_count_on_empty_graph(self):
        database = edges_database([])
        assert count_matches(pattern_query("cycle3"), database).count == 0

    @given(
        st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=40),
        st.sampled_from(["path3", "cycle3", "cycle4"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_count_matches_oracle_property(self, edges, query_name):
        database = edges_database(edges)
        query = pattern_query(query_name)
        expected = len(NaiveJoin().execute(query, database).tuples)
        assert count_matches(query, database).count == expected


class TestGroupedCounting:
    def test_triangle_count_per_vertex(self, small_community_db):
        query = pattern_query("cycle3")
        grouped = count_by_variable(query, small_community_db, "x")
        enumerated = CachedTrieJoin().execute(query, small_community_db)
        # Reference: count triangles per first vertex from the enumeration.
        reference = {}
        for x, _y, _z in enumerated.tuples:
            reference[x] = reference.get(x, 0) + 1
        assert grouped.counts == reference
        assert grouped.total == enumerated.cardinality

    def test_top_k_is_sorted_by_count(self, small_community_db):
        grouped = count_by_variable(pattern_query("cycle3"), small_community_db, "x")
        top = grouped.top(5)
        counts = [count for _value, count in top]
        assert counts == sorted(counts, reverse=True)
        assert len(top) <= 5

    def test_unknown_group_variable_rejected(self, small_community_db):
        with pytest.raises(KeyError):
            count_by_variable(pattern_query("cycle3"), small_community_db, "nope")


class TestApproximateCounting:
    def test_estimate_close_to_exact_on_dense_graph(self):
        database = graph_database(community_graph(40, 300, seed=5))
        query = pattern_query("cycle3")
        exact = count_matches(query, database).count
        estimate = estimate_count(query, database, num_samples=6000, seed=11)
        assert estimate.num_samples == 6000
        assert estimate.successful_walks > 0
        # Within five standard errors (very conservative, avoids flakiness).
        assert abs(estimate.estimate - exact) <= 5 * estimate.standard_error + 1.0

    def test_estimate_deterministic_for_fixed_seed(self, small_community_db):
        query = pattern_query("cycle3")
        a = estimate_count(query, small_community_db, num_samples=500, seed=3)
        b = estimate_count(query, small_community_db, num_samples=500, seed=3)
        c = estimate_count(query, small_community_db, num_samples=500, seed=4)
        assert a.estimate == b.estimate
        assert a.estimate != c.estimate or a.standard_error != c.standard_error

    def test_estimate_zero_when_no_matches(self):
        database = edges_database([(0, 1), (2, 3)])
        estimate = estimate_count(pattern_query("cycle3"), database, num_samples=200, seed=1)
        assert estimate.estimate == 0.0
        assert estimate.successful_walks == 0

    def test_estimate_on_empty_graph(self):
        database = edges_database([])
        estimate = estimate_count(pattern_query("cycle3"), database, num_samples=10, seed=1)
        assert estimate.estimate == 0.0

    def test_confidence_interval_brackets_estimate(self, small_community_db):
        estimate = estimate_count(
            pattern_query("path3"), small_community_db, num_samples=300, seed=9
        )
        low, high = estimate.confidence_interval()
        assert low <= estimate.estimate <= high
        assert low >= 0.0

    def test_invalid_sample_count(self, small_community_db):
        with pytest.raises(ValueError):
            estimate_count(pattern_query("path3"), small_community_db, num_samples=0)


class TestAcceleratorCountMode:
    def test_count_mode_matches_enumeration(self, small_community_db):
        query = pattern_query("cycle3")
        enumerated = TrieJaxAccelerator().execute(query, small_community_db)
        counted = TrieJaxAccelerator(aggregate="count").execute(query, small_community_db)
        assert counted.count == enumerated.cardinality
        assert counted.tuples == []
        assert counted.cardinality == enumerated.cardinality

    def test_count_mode_eliminates_result_writes(self, small_community_db):
        query = pattern_query("path4")
        enumerated = TrieJaxAccelerator().execute(query, small_community_db)
        counted = TrieJaxAccelerator(aggregate="count").execute(query, small_community_db)
        assert enumerated.report.dram.writes > 0
        assert counted.report.dram.writes == 0
        assert counted.report.total_cycles <= enumerated.report.total_cycles

    def test_count_mode_with_single_thread(self, small_community_db):
        query = pattern_query("cycle4")
        accelerator = TrieJaxAccelerator(TrieJaxConfig(num_threads=1), aggregate="count")
        counted = accelerator.execute(query, small_community_db)
        exact = count_matches(query, small_community_db).count
        assert counted.count == exact

    def test_unsupported_aggregate_rejected(self):
        with pytest.raises(ValueError):
            TrieJaxAccelerator(aggregate="sum")


class TestExtraPatterns:
    def test_extra_patterns_registered(self):
        assert "diamond" in EXTRA_PATTERN_NAMES
        assert "path5" in EXTRA_PATTERN_NAMES

    @pytest.mark.parametrize("name", sorted(EXTRA_PATTERN_NAMES))
    def test_extra_patterns_run_on_all_engines(self, name):
        database = edges_database(
            [(0, 1), (1, 2), (2, 0), (0, 2), (2, 3), (3, 0), (0, 3), (3, 4), (4, 0), (1, 3)]
        )
        query = pattern_query(name)
        expected = set(NaiveJoin().execute(query, database).tuples)
        assert set(CachedTrieJoin().execute(query, database).tuples) == expected
        outcome = TrieJaxAccelerator().execute(query, database)
        assert set(outcome.tuples) == expected

    def test_star3_counts_ordered_neighbour_triples(self):
        database = edges_database([(0, 1), (0, 2), (0, 3)])
        query = pattern_query("star3")
        result = CachedTrieJoin().execute(query, database)
        # All ordered triples of distinct-or-equal neighbours: 3^3 = 27
        # (the pattern does not force a, b, c to differ).
        assert result.cardinality == 27
