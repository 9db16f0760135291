"""Tests for the evaluation harness: metrics, reporting, context and experiments.

The full-figure sweeps run at a very small scale here (a couple of datasets,
tiny graphs) so the whole module stays fast; the benchmark harness under
``benchmarks/`` runs the figures at their default scale.
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
    format_distribution,
    format_ratio_summary,
    format_series,
    format_table,
    geometric_mean,
    group_by,
    normalise,
    percentile,
    reduction,
    speedup,
    summarise_latencies,
    summarise_ratios,
    table1,
    table2,
    table3,
)


@pytest.fixture(scope="module")
def tiny_context():
    """A deliberately tiny sweep: 2 datasets, 3 queries, 0.4% scale."""
    return ExperimentContext(
        scale=0.004,
        datasets=("bitcoin", "grqc"),
        queries=("path3", "cycle3", "cycle4"),
        triejax_config=TrieJaxConfig(num_threads=8),
    )


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

    def test_normalise(self):
        assert normalise([1.0, 1.0, 2.0]) == [0.25, 0.25, 0.5]
        assert normalise([0.0, 0.0]) == [0.0, 0.0]

    def test_group_by(self):
        rows = [{"q": "a", "v": 1}, {"q": "b", "v": 2}, {"q": "a", "v": 3}]
        grouped = group_by(rows, "q")
        assert list(grouped) == ["a", "b"]
        assert len(grouped["a"]) == 2

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

    def test_format_distribution(self):
        text = format_distribution(("DRAM", "L1"), (0.75, 0.25), width=8)
        assert "DRAM 75.0%" in text and "|" in text

    def test_format_series(self):
        text = format_series("threads", "speedup", [("8T", 5.8), ("32T", 10.8)])
        assert "8T" in text and "10.8" in text


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

    def test_table2_reports_paper_and_generated_sizes(self, tiny_context):
        result = table2(tiny_context)
        assert len(result.rows) == 6
        bitcoin_row = next(row for row in result.rows if row[1] == "bitcoin")
        assert bitcoin_row[2] == 3_783 and bitcoin_row[3] == 24_186
        assert bitcoin_row[6] > 0  # generated edges at this scale
        gnu31_row = next(row for row in result.rows if row[1] == "gnu31")
        assert gnu31_row[6] == 0  # not part of this context's sweep

    def test_table3_mentions_both_platforms(self, tiny_context):
        text = table3(tiny_context).to_text()
        assert "TrieJax core @ 2.38GHz" in text
        assert "Xeon" in text


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

    def test_figure14_thread_scaling(self, tiny_context):
        result = figure14(
            tiny_context,
            thread_counts=(1, 4, 16),
            queries=("cycle4",),
            datasets=("bitcoin",),
        )
        speedups = dict(result.rows)
        assert speedups["1T"] == pytest.approx(1.0)
        assert speedups["16T"] > speedups["4T"] > 1.0

    def test_figure15_fractions_sum_to_one_and_dram_dominates(self, tiny_context):
        result = figure15(tiny_context)
        assert list(result.headers)[1:] == [f"{c} fraction" for c in ENERGY_COMPONENTS]
        for row in result.rows:
            fractions = row[1:]
            assert sum(fractions) == pytest.approx(1.0)
            assert fractions[0] > 0.5  # DRAM share
        assert any("DRAM accounts for" in line for line in result.summaries)

    def test_figure16_energy_reductions_exceed_one(self, tiny_context):
        result = figure16(tiny_context)
        for name in ("q100/TrieJax", "ctj/TrieJax"):
            assert all(value > 1.0 for value in result.column(name))

    def test_figure17_access_ordering(self, tiny_context):
        result = figure17(tiny_context)
        ctj = result.column("ctj")
        q100 = result.column("q100")
        assert all(q >= c for q, c in zip(q100, ctj))
        assert len(result.summaries) == 3

    def test_figure18_ctj_fewer_intermediates(self, tiny_context):
        result = figure18(tiny_context, queries=("path4", "cycle4"), datasets=("bitcoin",))
        for _query, _dataset, ctj_ir, pairwise_ir in result.rows:
            assert ctj_ir <= pairwise_ir
        assert len(result.summaries) == 2

    def test_figure18_clique4_caches_nothing(self, tiny_context):
        result = figure18(tiny_context, queries=("clique4",), datasets=("grqc",))
        assert all(row[2] == 0 for row in result.rows)
        assert "no intermediate results" in result.summaries[0]


class TestAblations:
    def test_write_bypass_ablation(self, tiny_context):
        result = ablation_write_bypass(
            tiny_context, queries=("path3",), datasets=("bitcoin",)
        )
        for row in result.rows:
            assert row[4] >= 1.0  # bypass never hurts

    def test_pjr_ablation_reports_hit_rates(self, tiny_context):
        result = ablation_pjr_cache(tiny_context, datasets=("bitcoin",))
        by_query = {row[0]: row for row in result.rows}
        assert by_query["cycle4"][5] > 0.0      # cacheable query hits the PJR
        assert by_query["cycle3"][5] == 0.0     # nothing cacheable

    def test_mt_scheme_ablation_runs_all_schemes(self, tiny_context):
        result = ablation_mt_scheme(tiny_context, datasets=("bitcoin",))
        assert all(row[2] > 0 and row[3] > 0 and row[4] > 0 for row in result.rows)


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
