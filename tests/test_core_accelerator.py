"""End-to-end tests of the TrieJax accelerator model.

These check the two halves of the model: *functional* correctness (the
accelerator returns exactly the tuples the software engines return) and
*architectural* behaviour (multithreading scales, the PJR cache is used when
and only when the plan says so, result writes bypass the private caches, the
energy breakdown is DRAM-dominated as in Figure 15, and the report carries
consistent numbers).
"""

import pytest
from helpers import edges_database
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MT_SCHEMES, TrieJaxAccelerator, TrieJaxConfig
from repro.graphs import EXTRA_PATTERN_NAMES, PATTERN_NAMES, pattern_query
from repro.joins import CachedTrieJoin, NaiveJoin, QueryCompiler
from repro.relational import Database, Relation, Schema


#: Five vertices with triangles, 4-cycles and 4-cliques for every pattern.
SMALL_GRAPH = edges_database(
    [(0, 1), (1, 2), (2, 0), (0, 2), (2, 3), (3, 0), (0, 3), (3, 4), (4, 0), (1, 3)]
)


def run(query_name, database, config=None):
    accelerator = TrieJaxAccelerator(config or TrieJaxConfig())
    return accelerator.execute(pattern_query(query_name), database)


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("query_name", PATTERN_NAMES)
    def test_matches_software_ctj_on_community_graph(self, small_community_db, query_name):
        expected = set(CachedTrieJoin().execute(pattern_query(query_name), small_community_db).tuples)
        outcome = run(query_name, small_community_db)
        assert set(outcome.tuples) == expected
        assert outcome.cardinality == len(expected)
        assert outcome.report.num_results == len(expected)

    @pytest.mark.parametrize("query_name", ["path3", "cycle3", "cycle4"])
    def test_matches_oracle_on_powerlaw_graph(self, small_powerlaw_db, query_name):
        expected = set(NaiveJoin().execute(pattern_query(query_name), small_powerlaw_db).tuples)
        assert set(run(query_name, small_powerlaw_db).tuples) == expected

    def test_no_duplicate_results(self, small_community_db):
        outcome = run("cycle4", small_community_db)
        assert len(outcome.tuples) == len(set(outcome.tuples))

    def test_empty_database(self):
        database = Database("empty")
        database.add_relation(Relation("E", Schema(("src", "dst"))))
        outcome = run("cycle3", database)
        assert outcome.tuples == []
        assert outcome.report.total_cycles == 0

    def test_no_match_query(self):
        database = edges_database([(0, 1), (2, 3)])
        outcome = run("cycle3", database)
        assert outcome.tuples == []
        assert outcome.report.total_cycles > 0  # it did search

    @pytest.mark.parametrize("scheme", ["static", "dynamic", "hybrid"])
    def test_all_mt_schemes_are_exact(self, small_community_db, scheme):
        expected = set(CachedTrieJoin().execute(pattern_query("cycle4"), small_community_db).tuples)
        config = TrieJaxConfig(num_threads=16, mt_scheme=scheme)
        assert set(run("cycle4", small_community_db, config).tuples) == expected

    def test_single_thread_is_exact(self, small_community_db):
        expected = set(CachedTrieJoin().execute(pattern_query("clique4"), small_community_db).tuples)
        config = TrieJaxConfig(num_threads=1)
        assert set(run("clique4", small_community_db, config).tuples) == expected

    def test_pjr_disabled_is_exact(self, small_community_db):
        expected = set(CachedTrieJoin().execute(pattern_query("path4"), small_community_db).tuples)
        config = TrieJaxConfig(enable_pjr_cache=False)
        assert set(run("path4", small_community_db, config).tuples) == expected

    def test_tiny_pjr_cache_is_exact(self, small_community_db):
        """Capacity pressure (evictions/overflows) must never change results."""
        expected = set(CachedTrieJoin().execute(pattern_query("cycle4"), small_community_db).tuples)
        config = TrieJaxConfig(pjr_size_bytes=256, pjr_entry_capacity_values=4)
        outcome = run("cycle4", small_community_db, config)
        assert set(outcome.tuples) == expected


class TestMultithreadingBehaviour:
    def test_more_threads_fewer_cycles(self, small_community_db):
        single = run("cycle4", small_community_db, TrieJaxConfig(num_threads=1))
        eight = run("cycle4", small_community_db, TrieJaxConfig(num_threads=8))
        thirty_two = run("cycle4", small_community_db, TrieJaxConfig(num_threads=32))
        assert eight.report.total_cycles < single.report.total_cycles
        assert thirty_two.report.total_cycles <= eight.report.total_cycles
        # Figure 14 ballpark: 8 threads give a healthy multiple over 1 thread.
        assert single.report.total_cycles / eight.report.total_cycles > 2.0

    def test_saturation_between_32_and_64_threads(self, small_community_db):
        """Figure 14: going from 32 to 64 threads has a minor effect."""
        t32 = run("cycle4", small_community_db, TrieJaxConfig(num_threads=32))
        t64 = run("cycle4", small_community_db, TrieJaxConfig(num_threads=64))
        improvement = t32.report.total_cycles / max(t64.report.total_cycles, 1)
        assert improvement < 1.5

    def test_concurrency_is_reported(self, small_community_db):
        outcome = run("cycle4", small_community_db, TrieJaxConfig(num_threads=16))
        assert 1 < outcome.report.scheduler.max_concurrent_threads <= 16
        assert outcome.report.scheduler.spawns_granted > 0
        assert outcome.report.average_threads_active > 1.0

    def test_single_thread_never_spawns_concurrent_work(self, small_community_db):
        outcome = run("cycle3", small_community_db, TrieJaxConfig(num_threads=1))
        assert outcome.report.scheduler.max_concurrent_threads == 1

    def test_static_partitioning_uses_many_threads(self, small_community_db):
        outcome = run(
            "cycle3", small_community_db, TrieJaxConfig(num_threads=16, mt_scheme="static")
        )
        assert outcome.report.scheduler.max_concurrent_threads > 4


class TestPJRCacheBehaviour:
    def test_cacheable_queries_hit_the_pjr_cache(self, small_community_db):
        for name in ("path4", "cycle4"):
            outcome = run(name, small_community_db)
            assert outcome.report.pjr.lookups > 0
            assert outcome.report.pjr.hits > 0

    def test_uncacheable_queries_never_touch_the_pjr_cache(self, small_community_db):
        """Paper Section 4.4: cycle3 and clique4 have no valid caches."""
        for name in ("cycle3", "clique4"):
            outcome = run(name, small_community_db)
            assert outcome.report.pjr.lookups == 0
            assert outcome.report.pjr.values_inserted == 0

    def test_disabling_pjr_removes_all_cache_traffic(self, small_community_db):
        outcome = run("path4", small_community_db, TrieJaxConfig(enable_pjr_cache=False))
        assert outcome.report.pjr.lookups == 0

    def test_pjr_cache_reduces_work(self, small_community_db):
        """With the cache on, fewer LUB probes are issued for cacheable queries."""
        with_cache = run("path4", small_community_db)
        without_cache = run(
            "path4", small_community_db, TrieJaxConfig(enable_pjr_cache=False)
        )
        ops_with = with_cache.report.scheduler.operations_by_tag.get("lub_probe", 0)
        ops_without = without_cache.report.scheduler.operations_by_tag.get("lub_probe", 0)
        assert ops_with < ops_without


class TestMemoryAndEnergyBehaviour:
    def test_result_writes_bypass_private_caches(self, small_community_db):
        outcome = run("path3", small_community_db)
        levels = outcome.report.cache_levels
        assert levels["L1"].writes == 0
        assert levels["L2"].writes == 0
        assert outcome.report.dram.writes > 0

    def test_write_bypass_ablation_helps_or_is_neutral(self, small_community_db):
        bypass = run("path4", small_community_db, TrieJaxConfig())
        no_bypass = run(
            "path4", small_community_db, TrieJaxConfig().with_write_bypass(False)
        )
        assert no_bypass.report.total_cycles >= bypass.report.total_cycles

    def test_energy_breakdown_is_dram_dominated(self, small_community_db):
        """Figure 15: the memory system (DRAM) dominates TrieJax energy."""
        for name in ("path3", "cycle4", "clique4"):
            outcome = run(name, small_community_db)
            fractions = outcome.report.energy_fractions
            assert fractions["DRAM"] > 0.5
            assert set(fractions) == {"DRAM", "LLC", "L2", "L1", "PJR cache", "TrieJaxCore"}
            assert sum(fractions.values()) == pytest.approx(1.0)

    def test_pjr_energy_zero_for_uncacheable_queries(self, small_community_db):
        outcome = run("cycle3", small_community_db)
        # Leakage is charged only when the cache is enabled AND used dynamically;
        # for cycle3 there are no accesses, so dynamic PJR energy is ~leakage only,
        # far below 10% of the total (the paper reports "no energy" for these).
        assert outcome.report.energy_fractions["PJR cache"] < 0.1

    def test_report_consistency(self, small_community_db):
        outcome = run("cycle4", small_community_db)
        report = outcome.report
        assert report.total_cycles > 0
        assert report.runtime_ns == pytest.approx(
            report.total_cycles / report.frequency_ghz, rel=1e-6
        )
        assert report.runtime_seconds == pytest.approx(report.runtime_ns * 1e-9)
        assert report.total_energy_joules == pytest.approx(report.total_energy_nj * 1e-9)
        assert report.dram_accesses == report.dram.reads + report.dram.writes
        assert report.scheduler.operations_executed > 0
        payload = report.as_dict()
        assert payload["num_results"] == outcome.cardinality
        assert "DRAM" in payload["energy_fractions"]
        summary = report.summary()
        assert "results" in summary and "energy" in summary

    def test_summary_mentions_missing_pjr_for_uncacheable(self, small_community_db):
        outcome = run("cycle3", small_community_db)
        assert "n/a" in outcome.report.summary()

    def test_dram_traffic_scales_with_output(self, small_powerlaw_db):
        """Queries with more results stream more data to memory."""
        path4 = run("path4", small_powerlaw_db)
        cycle3 = run("cycle3", small_powerlaw_db)
        if path4.cardinality > 4 * max(cycle3.cardinality, 1):
            assert path4.report.dram.writes > cycle3.report.dram.writes


class TestPlanIntegration:
    def test_plan_is_returned_and_cache_specs_respected(self, small_community_db):
        outcome = run("path4", small_community_db)
        assert outcome.plan.uses_cache
        assert outcome.plan.cache_spec_for("z") is not None

    def test_explicit_plan_override(self, small_community_db):
        query = pattern_query("cycle3")
        plan = QueryCompiler().compile(query, variable_order=("z", "y", "x"))
        accelerator = TrieJaxAccelerator()
        outcome = accelerator.execute(query, small_community_db, plan=plan)
        expected = set(NaiveJoin().execute(query, small_community_db).tuples)
        assert set(outcome.tuples) == expected

    def test_dataset_name_is_recorded(self, small_community_db):
        accelerator = TrieJaxAccelerator(dataset_name="community")
        outcome = accelerator.execute(pattern_query("path3"), small_community_db)
        assert outcome.report.dataset_name == "community"


class TestAcceleratorCountMode:
    """The paper's aggregation extension (Section 5): count without emitting."""

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
        assert counted.count == CachedTrieJoin().execute(query, small_community_db).cardinality

    def test_unsupported_aggregate_rejected(self):
        with pytest.raises(ValueError):
            TrieJaxAccelerator(aggregate="sum")

    @pytest.mark.parametrize("name", PATTERN_NAMES + EXTRA_PATTERN_NAMES)
    def test_count_mode_matches_the_oracle_on_every_pattern(self, name):
        query = pattern_query(name)
        counted = TrieJaxAccelerator(aggregate="count").execute(query, SMALL_GRAPH)
        assert counted.count == len(NaiveJoin().execute(query, SMALL_GRAPH).tuples)

    @pytest.mark.parametrize("mt_scheme", MT_SCHEMES)
    def test_count_mode_under_every_mt_scheme(self, small_community_db, mt_scheme):
        query = pattern_query("cycle4")
        config = TrieJaxConfig(num_threads=8, mt_scheme=mt_scheme)
        counted = TrieJaxAccelerator(config, aggregate="count").execute(query, small_community_db)
        assert counted.count == CachedTrieJoin().execute(query, small_community_db).cardinality

    def test_count_mode_without_the_pjr_cache(self, small_community_db):
        query = pattern_query("path4")
        config = TrieJaxConfig(enable_pjr_cache=False)
        counted = TrieJaxAccelerator(config, aggregate="count").execute(query, small_community_db)
        assert counted.count == CachedTrieJoin().execute(query, small_community_db).cardinality
        assert counted.report.dram.writes == 0

    def test_count_on_an_empty_graph(self):
        counted = TrieJaxAccelerator(aggregate="count").execute(
            pattern_query("cycle3"), edges_database([])
        )
        assert counted.count == 0

    @given(
        st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=40),
        st.sampled_from(["path3", "cycle3", "cycle4"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_count_mode_oracle_property(self, edges, query_name):
        database = edges_database(edges)
        query = pattern_query(query_name)
        counted = TrieJaxAccelerator(aggregate="count").execute(query, database)
        assert counted.count == len(NaiveJoin().execute(query, database).tuples)


class TestExtraPatterns:
    def test_extra_patterns_registered(self):
        assert "diamond" in EXTRA_PATTERN_NAMES
        assert "path5" in EXTRA_PATTERN_NAMES

    @pytest.mark.parametrize("name", sorted(EXTRA_PATTERN_NAMES))
    def test_extra_patterns_run_on_all_engines(self, name):
        database = SMALL_GRAPH
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
