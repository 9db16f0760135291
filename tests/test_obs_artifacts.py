"""Benchmark run artifacts and baseline regression comparison
(:mod:`repro.eval.artifacts` and the ``repro bench`` CLI wiring)."""

import copy
import json
import os

import pytest

import repro
from repro.cli import main
from repro.eval import (
    DEFAULT_REGRESSION_THRESHOLD,
    compare_kernel_reports,
    format_comparison,
    kernel_metrics_rows,
    load_report,
    write_run_artifacts,
)


def _report(**meta_overrides):
    meta = {"suite": "kernels", "dataset": "bitcoin", "scale": 0.05, "seed": 2020}
    meta.update(meta_overrides)
    return {
        "meta": meta,
        "kernels": {
            "trie_build": {"seconds": 0.010, "tuples": 1000},
            "lftj_cycle3": {"seconds": 0.050, "results": 99},
            "ctj_cycle3": {"seconds": 0.040, "results": 99},
        },
        "checks": {"engines_agree": "pass"},
    }


class TestRunArtifacts:
    def test_layout_and_contents(self, tmp_path):
        run_dir = write_run_artifacts(
            "nightly", _report(), results_root=str(tmp_path), extra_manifest={"rev": "abc"}
        )
        assert run_dir == str(tmp_path / "nightly")
        assert sorted(os.listdir(run_dir)) == [
            "manifest.json",
            "metrics.jsonl",
            "summary.json",
        ]
        manifest = json.loads((tmp_path / "nightly" / "manifest.json").read_text())
        assert manifest["run"] == "nightly"
        assert manifest["meta"]["dataset"] == "bitcoin"
        assert manifest["repro_version"] == repro.__version__
        assert manifest["rev"] == "abc"
        assert "python" in manifest["platform"]

        rows = [
            json.loads(line)
            for line in (tmp_path / "nightly" / "metrics.jsonl").read_text().splitlines()
        ]
        assert {row["metric"] for row in rows} == {
            "trie_build",
            "lftj_cycle3",
            "ctj_cycle3",
        }
        assert all("seconds" in row for row in rows)

        summary = json.loads((tmp_path / "nightly" / "summary.json").read_text())
        assert summary["checks"] == {"engines_agree": "pass"}
        assert summary["kernel_seconds"]["lftj_cycle3"] == 0.050

    def test_artifacts_deterministic(self, tmp_path):
        for root in ("a", "b"):
            write_run_artifacts("nightly", _report(), results_root=str(tmp_path / root))
        for filename in ("manifest.json", "metrics.jsonl", "summary.json"):
            first = (tmp_path / "a" / "nightly" / filename).read_bytes()
            second = (tmp_path / "b" / "nightly" / filename).read_bytes()
            assert first == second

    def test_kernel_metrics_rows_flatten(self):
        rows = kernel_metrics_rows(_report())
        assert rows[0]["metric"] == "trie_build"
        assert rows[0]["tuples"] == 1000


class TestComparison:
    def test_identical_reports_pass(self):
        verdict = compare_kernel_reports(_report(), _report())
        assert verdict["ok"] and verdict["comparable"]
        assert verdict["regressions"] == [] and verdict["missing"] == []
        assert all(row["ratio"] == pytest.approx(1.0) for row in verdict["rows"])

    def test_regression_detected_beyond_threshold(self):
        current = _report()
        current["kernels"]["lftj_cycle3"]["seconds"] *= 1.5
        verdict = compare_kernel_reports(current, _report(), threshold=0.25)
        assert not verdict["ok"]
        assert verdict["regressions"] == ["lftj_cycle3"]
        (regressed,) = [row for row in verdict["rows"] if row["regressed"]]
        assert regressed["ratio"] == pytest.approx(1.5)

    def test_slowdown_within_threshold_passes(self):
        current = _report()
        current["kernels"]["lftj_cycle3"]["seconds"] *= 1.2
        assert compare_kernel_reports(current, _report(), threshold=0.25)["ok"]

    def test_missing_kernel_fails_even_when_not_comparable(self):
        current = _report(seed=999)  # meta differs -> timings not judged
        del current["kernels"]["ctj_cycle3"]
        current["kernels"]["new_kernel"] = {"seconds": 1.0}
        verdict = compare_kernel_reports(current, _report())
        assert not verdict["comparable"]
        assert verdict["rows"] == []  # no timing judgement
        assert verdict["missing"] == ["ctj_cycle3"]
        assert verdict["extra"] == ["new_kernel"]
        assert not verdict["ok"]

    def test_missing_check_fails(self):
        # A claim may not disappear silently: renaming or dropping a check
        # must update the baseline.
        current = _report()
        current["checks"] = {"renamed_check": "pass"}
        verdict = compare_kernel_reports(current, _report())
        assert verdict["missing_checks"] == ["engines_agree"]
        assert not verdict["ok"]
        assert "MISSING checks" in format_comparison(verdict)

    def test_meta_mismatch_skips_timing_judgement(self):
        current = _report(scale=0.01)
        current["kernels"]["lftj_cycle3"]["seconds"] *= 100  # would regress
        verdict = compare_kernel_reports(current, _report())
        assert not verdict["comparable"]
        assert verdict["ok"]  # structure intact, timings not judged

    def test_zero_baseline_seconds_skipped(self):
        baseline = _report()
        baseline["kernels"]["trie_build"]["seconds"] = 0.0
        verdict = compare_kernel_reports(_report(), baseline)
        assert "trie_build" not in [row["kernel"] for row in verdict["rows"]]
        assert verdict["ok"]

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            compare_kernel_reports(_report(), _report(), threshold=-0.1)

    def test_default_threshold(self):
        assert compare_kernel_reports(_report(), _report())["threshold"] == (
            DEFAULT_REGRESSION_THRESHOLD
        )

    def test_format_comparison_renders_verdicts(self):
        current = _report()
        current["kernels"]["lftj_cycle3"]["seconds"] *= 2
        text = format_comparison(compare_kernel_reports(current, _report()))
        assert "REGRESSED" in text and "verdict: FAIL" in text
        text = format_comparison(compare_kernel_reports(_report(), _report(seed=1)))
        assert "structural checks only" in text and "verdict: OK" in text


class TestBenchCli:
    @pytest.fixture(scope="class")
    def smoke_report_path(self, tmp_path_factory):
        """One real smoke bench run, shared by every CLI comparison test."""
        path = tmp_path_factory.mktemp("bench") / "base.json"
        os.environ["REPRO_BENCH_SEED"] = "7"
        try:
            assert main(["bench", "kernels", "--smoke", "--output", str(path)]) == 0
        finally:
            os.environ.pop("REPRO_BENCH_SEED", None)
        return str(path)

    def test_bench_run_writes_artifacts(self, smoke_report_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_BENCH_SEED", "7")
        exit_code = main(
            [
                "bench",
                "kernels",
                "--smoke",
                "--run",
                "ci-test",
                "--results-root",
                str(tmp_path / "results"),
            ]
        )
        assert exit_code == 0
        run_dir = tmp_path / "results" / "ci-test"
        assert sorted(os.listdir(run_dir)) == [
            "manifest.json",
            "metrics.jsonl",
            "summary.json",
        ]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["cli"]["smoke"] is True
        assert "wrote run artifacts" in capsys.readouterr().out

    def test_bench_compare_ok_against_self(self, smoke_report_path, monkeypatch, capsys):
        # Same seed + scale: meta matches, so timings are judged.  The
        # baseline claims an hour per kernel — a bar no smoke kernel can miss
        # (sub-millisecond kernels lost to a GC pause even with 10x headroom)
        # — so this checks the OK-verdict plumbing, not the host.
        monkeypatch.setenv("REPRO_BENCH_SEED", "7")
        baseline = copy.deepcopy(load_report(smoke_report_path))
        for payload in baseline["kernels"].values():
            if payload.get("seconds"):
                payload["seconds"] = 3600.0
        relaxed = smoke_report_path + ".relaxed"
        with open(relaxed, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle)
        exit_code = main(["bench", "kernels", "--smoke", "--compare", relaxed])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "baseline comparison" in output and "verdict: OK" in output

    def test_bench_compare_fails_on_injected_regression(
        self, smoke_report_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_BENCH_SEED", "7")
        shrunk = copy.deepcopy(load_report(smoke_report_path))
        for payload in shrunk["kernels"].values():
            if payload.get("seconds"):
                payload["seconds"] /= 100.0  # every kernel now "regresses"
        shrunk_path = smoke_report_path + ".shrunk"
        with open(shrunk_path, "w", encoding="utf-8") as handle:
            json.dump(shrunk, handle)
        exit_code = main(["bench", "kernels", "--smoke", "--compare", shrunk_path])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "REGRESSED" in captured.out
        assert "FAIL" in captured.err

    def test_bench_compare_smoke_vs_committed_baseline_structural(
        self, monkeypatch, capsys
    ):
        # The committed baseline is full-scale: a smoke run only gets the
        # structural checks (this is exactly what CI runs).
        baseline = os.path.join(os.path.dirname(__file__), "..", "BENCH_kernels.json")
        if not os.path.exists(baseline):  # pragma: no cover - repo invariant
            pytest.skip("no committed baseline")
        monkeypatch.setenv("REPRO_BENCH_SEED", "7")
        exit_code = main(["bench", "kernels", "--smoke", "--compare", baseline])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "structural checks only" in output
