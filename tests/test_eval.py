"""Tests for the evaluation harness: metrics, reporting, context and experiments.

The full-figure sweeps run at a very small scale here (a couple of datasets,
tiny graphs) so the whole module stays fast; ``repro experiment`` runs the
same functions at any scale.
"""

import pytest

from repro.core import TrieJaxConfig
from repro.eval import (
    ENERGY_COMPONENTS,
    EXPERIMENT_REGISTRY,
    ExperimentContext,
    ExperimentResult,
    ablation_mt_scheme,
    ablation_pjr_cache,
    ablation_write_bypass,
    figure13,
    figure14,
    figure15,
    figure16,
    figure17,
    figure18,
    format_ratio_summary,
    format_table,
    geometric_mean,
    percentile,
    reduction,
    speedup,
    summarise_latencies,
    summarise_ratios,
    table1,
    table2,
    table3,
)
from repro.graphs import dataset_spec, pattern_query
from repro.relational import parse_datalog


@pytest.fixture(scope="module")
def tiny_context():
    """A deliberately tiny sweep: 2 datasets, 3 queries, 0.4% scale."""
    return ExperimentContext(
        scale=0.004,
        datasets=("bitcoin", "grqc"),
        queries=("path3", "cycle3", "cycle4"),
        triejax_config=TrieJaxConfig(num_threads=8),
    )


@pytest.fixture(scope="module")
def speedups(tiny_context):
    """Figure 14's speedup per thread count on one workload."""
    result = figure14(
        tiny_context,
        thread_counts=(1, 4, 8, 16, 32, 64),
        queries=("cycle4",),
        datasets=("bitcoin",),
    )
    return dict(result.rows)


@pytest.fixture(scope="module")
def write_bypass(tiny_context):
    return ablation_write_bypass(
        tiny_context, queries=("path4", "path3", "cycle3"), datasets=("bitcoin",)
    )


@pytest.fixture(scope="module")
def pjr_by_query(tiny_context):
    """The PJR ablation's row per query on one dataset."""
    result = ablation_pjr_cache(tiny_context, datasets=("bitcoin",))
    return {row[0]: row for row in result.rows}


@pytest.fixture(scope="module")
def mt_ablation(tiny_context):
    return ablation_mt_scheme(tiny_context, datasets=("bitcoin",))


class TestMetrics:
    def test_speedup_and_reduction(self):
        assert speedup(100.0, 10.0) == pytest.approx(10.0)
        assert reduction(50.0, 5.0) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)
        with pytest.raises(ValueError):
            reduction(1.0, 0.0)

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 100.0]) == pytest.approx(10.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([0.0, 4.0]) == pytest.approx(4.0)

    def test_summarise_ratios(self):
        summary = summarise_ratios([1.0, 2.0, 4.0])
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["mean"] == pytest.approx(7.0 / 3.0)
        assert summary["geomean"] == pytest.approx(2.0)
        assert summarise_ratios([])["mean"] == 0.0

    def test_percentile_empty_series_degrades_to_zero(self):
        assert percentile([], 50) == 0.0
        assert percentile([], 0) == 0.0
        assert percentile([], 100) == 0.0

    def test_percentile_single_sample_is_that_sample(self):
        for q in (0, 37, 50, 95, 100):
            assert percentile([42.0], q) == 42.0

    def test_percentile_interpolation_and_bounds(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 0) == 10.0
        assert percentile(values, 100) == 40.0
        assert percentile(values, 50) == pytest.approx(25.0)
        with pytest.raises(ValueError):
            percentile(values, 101)
        with pytest.raises(ValueError):
            percentile(values, -1)

    def test_summarise_latencies_empty_series(self):
        summary = summarise_latencies([])
        assert summary == {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}

    def test_summarise_latencies_single_sample(self):
        summary = summarise_latencies([7.5])
        assert summary["count"] == 1
        assert summary["mean"] == 7.5
        assert summary["p50"] == 7.5
        assert summary["p95"] == 7.5
        assert summary["max"] == 7.5


class TestReporting:
    def test_format_table_alignment_and_floats(self):
        text = format_table(
            ("name", "value"), [("alpha", 1.23456), ("b", 2)], title="Demo"
        )
        assert "Demo" in text
        assert "alpha" in text
        assert "1.23" in text
        lines = text.splitlines()
        assert len(lines) == 6  # title, underline, header, separator, two rows

    def test_format_ratio_summary(self):
        text = format_ratio_summary("speedup", summarise_ratios([2.0, 8.0]))
        assert "5.0x on average" in text
        assert "range 2.0x - 8.0x" in text


class TestExperimentContext:
    def test_database_and_runs_are_memoised(self, tiny_context):
        db_a = tiny_context.database("bitcoin")
        db_b = tiny_context.database("bitcoin")
        assert db_a is db_b
        run_a = tiny_context.run_triejax("path3", "bitcoin")
        run_b = tiny_context.run_triejax("path3", "bitcoin")
        assert run_a is run_b
        baseline_a = tiny_context.run_baseline("ctj", "path3", "bitcoin")
        baseline_b = tiny_context.run_baseline("ctj", "path3", "bitcoin")
        assert baseline_a is baseline_b

    def test_unknown_baseline_rejected(self, tiny_context):
        with pytest.raises(KeyError):
            tiny_context.run_baseline("monetdb", "path3", "bitcoin")

    def test_workload_grid_and_describe(self, tiny_context):
        grid = tiny_context.workload_grid()
        assert len(grid) == len(tiny_context.queries) * len(tiny_context.datasets)
        assert "scale=0.004" in tiny_context.describe()

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            ExperimentContext(scale=0.0)

    def test_custom_config_bypasses_memoisation(self, tiny_context):
        default_run = tiny_context.run_triejax("path3", "bitcoin")
        custom = tiny_context.run_triejax(
            "path3", "bitcoin", TrieJaxConfig(num_threads=2)
        )
        assert custom is not default_run
        assert set(custom.tuples) == set(default_run.tuples)


class TestTables:
    def test_table1_lists_all_queries(self):
        result = table1()
        assert len(result.rows) == 5
        assert any("clique4" in row[1] for row in result.rows)
        assert "table1" in result.to_text()

    def test_table1_datalog_parses_back_to_each_pattern(self):
        for display_name, datalog in table1().rows:
            query = parse_datalog(datalog)
            assert display_name.lower().replace("-", "") == query.name
            pattern = pattern_query(query.name)
            assert query.head_variables == pattern.head_variables
            assert [a.variables for a in query.atoms] == [a.variables for a in pattern.atoms]

    def test_table2_reports_paper_and_generated_sizes(self, tiny_context):
        result = table2(tiny_context)
        assert len(result.rows) == 6
        bitcoin_row = next(row for row in result.rows if row[1] == "bitcoin")
        assert bitcoin_row[2] == 3_783 and bitcoin_row[3] == 24_186
        assert bitcoin_row[6] > 0  # generated edges at this scale
        gnu31_row = next(row for row in result.rows if row[1] == "gnu31")
        assert gnu31_row[6] == 0  # not part of this context's sweep

    def test_table2_generated_sizes_meet_the_scaled_budgets(self, tiny_context):
        for _snap, short, nodes, edges, _category, gen_nodes, gen_edges in table2(
            tiny_context
        ).rows:
            spec = dataset_spec(short)
            assert (spec.num_nodes, spec.num_edges) == (nodes, edges)
            if short in tiny_context.datasets:
                budget_nodes, budget_edges = spec.scaled_counts(tiny_context.scale)
                assert gen_edges == budget_edges
                assert gen_nodes <= budget_nodes  # isolated vertices carry no edges

    def test_table3_mentions_both_platforms(self, tiny_context):
        text = table3(tiny_context).to_text()
        assert "TrieJax core @ 2.38GHz" in text
        assert "Xeon" in text

    def test_table3_defaults_are_the_papers_design_point(self):
        text = table3(ExperimentContext(scale=0.004)).to_text()
        assert "PRJ" not in text  # spelled PJR (the paper's table has a typo)
        for entry in (
            "PJR 4MB SRAM",
            "32 threads",
            "L1D RO 32KB",
            "5.31 mm2",
            "16 x Xeon E5-2630 v3 cores",
        ):
            assert entry in text


class TestFigures:
    def test_figure13_speedups_positive_and_summarised(self, tiny_context):
        result = figure13(tiny_context)
        assert len(result.rows) == len(tiny_context.workload_grid())
        for column in ("q100/TrieJax", "ctj/TrieJax"):
            assert all(value > 0 for value in result.column(column))
        assert len(result.summaries) == 4
        assert "TrieJax speedup vs ctj" in result.summaries[-1]

    def test_figure13_triejax_beats_ctj_on_average(self, tiny_context):
        result = figure13(tiny_context)
        ratios = result.column("ctj/TrieJax")
        assert sum(ratios) / len(ratios) > 1.0

    def test_figure13_wcoj_software_is_the_closest_competitor(self, tiny_context):
        result = figure13(tiny_context)
        mean = {
            system: summarise_ratios(result.column(f"{system}/TrieJax"))["mean"]
            for system in ("ctj", "emptyheaded", "q100")
        }
        assert mean["emptyheaded"] > 1.0
        assert mean["q100"] > mean["emptyheaded"]
        assert mean["ctj"] > mean["emptyheaded"]

    def test_figure14_thread_scaling(self, speedups):
        assert speedups["1T"] == pytest.approx(1.0)
        assert speedups["16T"] > speedups["4T"] > 1.0

    def test_figure14_speedup_grows_to_32_threads_then_saturates(self, speedups):
        assert speedups["8T"] > speedups["4T"]
        assert speedups["32T"] >= speedups["8T"] > 2.0
        assert speedups["64T"] / speedups["32T"] < 1.3

    def test_figure15_fractions_sum_to_one_and_dram_dominates(self, tiny_context):
        result = figure15(tiny_context)
        assert list(result.headers)[1:] == [f"{c} fraction" for c in ENERGY_COMPONENTS]
        for row in result.rows:
            fractions = row[1:]
            assert sum(fractions) == pytest.approx(1.0)
            assert fractions[0] > 0.6  # DRAM share (paper: 74-90%)
        assert [row[0] for row in result.rows] == list(tiny_context.queries)
        assert any("DRAM accounts for" in line for line in result.summaries)

    def test_figure15_pjr_cache_never_dominates(self, tiny_context):
        result = figure15(tiny_context)
        pjr = list(result.headers).index("PJR cache fraction")
        for row in result.rows:
            assert row[pjr] < 0.15
            if row[0] in ("cycle3", "clique4"):  # nothing cacheable
                assert row[pjr] < 0.05

    def test_figure16_energy_reductions_exceed_one(self, tiny_context):
        result = figure16(tiny_context)
        for system in tiny_context.baseline_names():
            assert all(value > 1.0 for value in result.column(f"{system}/TrieJax"))

    def test_figure16_graphicionado_pays_the_least_energy(self, tiny_context):
        # Graphicionado, with its accelerator scaling, is the cheapest baseline.
        result = figure16(tiny_context)
        mean = {
            system: summarise_ratios(result.column(f"{system}/TrieJax"))["mean"]
            for system in tiny_context.baseline_names()
        }
        assert mean["q100"] > mean["graphicionado"]
        assert mean["ctj"] > mean["emptyheaded"] > mean["graphicionado"]

    def test_figure17_access_ordering(self, tiny_context):
        result = figure17(tiny_context)
        ctj = result.column("ctj")
        q100 = result.column("q100")
        assert all(q >= c for q, c in zip(q100, ctj))
        assert len(result.summaries) == 3

    def test_figure17_average_access_ordering(self, tiny_context):
        result = figure17(tiny_context)
        mean = {
            system: sum(result.column(system)) / len(result.rows)
            for system in ("ctj", "emptyheaded", "graphicionado", "q100")
        }
        assert mean["ctj"] <= mean["emptyheaded"] < mean["q100"]
        assert mean["ctj"] < mean["graphicionado"]

    def test_figure18_ctj_fewer_intermediates(self, tiny_context):
        result = figure18(tiny_context, queries=("path4", "cycle4"), datasets=("bitcoin",))
        for _query, _dataset, ctj_ir, pairwise_ir in result.rows:
            assert ctj_ir < pairwise_ir  # both queries are cacheable
        assert len(result.summaries) == 2

    def test_figure18_clique4_caches_nothing(self, tiny_context):
        result = figure18(tiny_context, queries=("clique4",), datasets=("grqc",))
        assert all(row[2] == 0 for row in result.rows)
        assert "no intermediate results" in result.summaries[0]


class TestAblations:
    def test_write_bypass_ablation(self, write_bypass):
        for row in write_bypass.rows:
            assert row[4] >= 1.0  # bypass never hurts

    def test_write_bypass_helps_path4_at_least_as_much_as_cycle3(self, write_bypass):
        benefit = {row[0]: row[4] for row in write_bypass.rows}
        assert benefit["path4"] >= benefit["cycle3"]  # path4 is the write-heavy one

    def test_pjr_ablation_reports_hit_rates(self, pjr_by_query):
        for query in ("path3", "cycle4"):
            assert pjr_by_query[query][5] > 0.0     # cacheable query hits the PJR
        assert pjr_by_query["cycle3"][5] == 0.0     # nothing cacheable

    def test_pjr_ablation_slows_only_cacheable_queries(self, pjr_by_query):
        for query in ("path3", "cycle4"):
            assert pjr_by_query[query][4] >= 0.999  # loses time without the PJR
        assert pjr_by_query["cycle3"][4] == pytest.approx(1.0, abs=0.05)

    def test_mt_scheme_ablation_runs_all_schemes(self, mt_ablation):
        assert all(row[2] > 0 and row[3] > 0 and row[4] > 0 for row in mt_ablation.rows)

    def test_mt_hybrid_is_competitive_with_both_pure_schemes(self, mt_ablation):
        # Within ~20% of each pure scheme.
        assert geometric_mean([row[2] / row[4] for row in mt_ablation.rows]) > 0.8
        assert geometric_mean([row[3] / row[4] for row in mt_ablation.rows]) > 0.8


class TestRegistryAndResult:
    def test_registry_covers_every_artifact(self):
        expected = {
            "table1",
            "table2",
            "table3",
            "figure13",
            "figure14",
            "figure15",
            "figure16",
            "figure17",
            "figure18",
            "ablation_write_bypass",
            "ablation_pjr_cache",
            "ablation_mt_scheme",
        }
        assert set(EXPERIMENT_REGISTRY) == expected

    def test_experiment_result_helpers(self):
        result = ExperimentResult(
            experiment_id="x",
            title="t",
            headers=("a", "b"),
            rows=[(1, 2), (3, 4)],
            summaries=["s"],
            provenance="p",
        )
        assert result.column("b") == [2, 4]
        text = result.to_text()
        assert "x: t" in text and "[p]" in text
        with pytest.raises(ValueError):
            result.column("missing")
