"""The ``repro bench`` suites (:mod:`repro.eval.suites`): every declared suite
runs in smoke mode against its committed baseline, and the runner's own rules
(best-of-N, seed resolution, tri-state checks, the CLI epilogue) are pinned on
a two-scenario toy suite."""

import json
import os
from types import SimpleNamespace

import pytest

from repro.cli import build_parser, main
from repro.eval import SUITE_NAMES, suites
from repro.eval.suites import SUITES, Suite, run_suite

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")
VERDICTS = {"pass", "fail", "skipped"}


class TestDeclaredSuites:
    def test_cli_offers_exactly_the_declared_suites(self):
        # The parser's choices are SUITE_NAMES (importable without loading the
        # suite module); the declarations must spell the same names.
        assert tuple(SUITES) == SUITE_NAMES
        for name in (*SUITE_NAMES, "all"):
            assert build_parser().parse_args(["bench", name]).suite == name

    @pytest.mark.parametrize("suite", list(SUITES))
    def test_smoke_run_matches_committed_baseline(self, suite, tmp_path, capsys):
        baseline_path = os.path.join(REPO_ROOT, f"BENCH_{suite}.json")
        output = tmp_path / "report.json"
        exit_code = main(
            ["bench", suite, "--smoke", "--compare", baseline_path, "--output", str(output)]
        )
        captured = capsys.readouterr()
        assert exit_code == 0, captured.out + captured.err
        report = json.loads(output.read_text())
        with open(baseline_path, encoding="utf-8") as handle:
            baseline = json.load(handle)
        assert "fail" not in report["checks"].values()
        assert set(report["kernels"]) == set(baseline["kernels"])
        assert set(report["checks"]) == set(baseline["checks"])
        # The committed baseline is honest too: tri-state strings only, and
        # a meta block that says which host its wall numbers came from.
        assert set(baseline["checks"].values()) <= VERDICTS
        assert "fail" not in baseline["checks"].values()
        assert {"host_cpus", "machine", "python"} <= set(baseline["meta"])


def _toy_suite(seconds=(3.0, 1.0, 2.0), broken_holds=True, wall_needs_cpus=1):
    """Two scenarios whose wall seconds are scripted per round."""

    def setup(scale, seed, smoke, workdir):
        assert os.path.isdir(workdir)
        ctx = SimpleNamespace(seed=seed, rounds={"fast": 0, "slow": 0})
        return ctx, {"dataset": "toy", "edges": 0}

    def measure(ctx, label, factor):
        index = ctx.rounds[label]
        ctx.rounds[label] += 1
        row = {"seconds": factor * seconds[index % len(seconds)], "round": index}
        return row, f"{label}-evidence-{index}"

    def derive(rows, evidence, ctx):
        extra = {"slow": {"vs_fast": rows["slow"]["seconds"] / rows["fast"]["seconds"]}}
        claims = {
            "holds": True,
            "broken": broken_holds,
            "wall_ratio": False,
            "kept_fastest_evidence": all(
                evidence[label] == f"{label}-evidence-{rows[label]['round']}"
                for label in rows
            ),
        }
        return extra, claims

    return Suite(
        name="kernels",
        default_scale=1.0,
        smoke_scale=0.5,
        scenarios=(("fast", "fast", 1.0), ("slow", "slow", 10.0)),
        setup=setup,
        measure=measure,
        derive=derive,
        wall_claims={"wall_ratio": wall_needs_cpus},
    )


@pytest.fixture
def toy(monkeypatch):
    """Installs a toy suite under the name ``kernels`` (a name the CLI accepts)."""

    def install(**kwargs):
        monkeypatch.setattr(suites, "SUITES", {"kernels": _toy_suite(**kwargs)})

    return install


class TestRunner:
    def test_best_of_n_keeps_the_fastest_rounds_row(self, toy):
        toy(wall_needs_cpus=10**6)
        report = run_suite("kernels", repeats=3)
        assert report["kernels"]["fast"] == {"seconds": 1.0, "round": 1}
        assert report["kernels"]["slow"]["round"] == 1
        assert report["kernels"]["slow"]["vs_fast"] == 10.0  # derived field merged
        assert report["checks"]["kept_fastest_evidence"] == "pass"
        assert report["meta"]["repeats"] == 3
        assert report["meta"]["scale"] == 1.0

    def test_smoke_runs_one_round_at_the_smoke_scale(self, toy):
        toy()
        report = run_suite("kernels", repeats=3, smoke=True)
        assert report["kernels"]["fast"]["round"] == 0
        assert (report["meta"]["repeats"], report["meta"]["scale"]) == (1, 0.5)
        assert run_suite("kernels", scale=0.125, smoke=True)["meta"]["scale"] == 0.125

    def test_wall_claims_are_skipped_when_unarmed_never_passed(self, toy):
        toy(wall_needs_cpus=1)
        assert run_suite("kernels")["checks"]["wall_ratio"] == "fail"
        assert run_suite("kernels", smoke=True)["checks"]["wall_ratio"] == "skipped"
        toy(wall_needs_cpus=10**6)  # more cores than any host has
        checks = run_suite("kernels")["checks"]
        assert checks["wall_ratio"] == "skipped"
        assert checks["holds"] == "pass"

    def test_seed_comes_from_the_environment_unless_given(self, toy, monkeypatch):
        toy()
        monkeypatch.delenv("REPRO_BENCH_SEED", raising=False)
        assert run_suite("kernels")["meta"]["seed"] == 2020
        monkeypatch.setenv("REPRO_BENCH_SEED", "7")
        assert run_suite("kernels")["meta"]["seed"] == 7
        assert run_suite("kernels", seed=11)["meta"]["seed"] == 11

    def test_meta_names_the_host(self, toy):
        toy()
        meta = run_suite("kernels")["meta"]
        assert meta["suite"] == "kernels" and meta["dataset"] == "toy"
        assert meta["host_cpus"] == (os.cpu_count() or 1)
        assert {"machine", "python", "smoke", "edges"} <= set(meta)


class TestBenchCommand:
    def test_skipped_does_not_fail_and_fail_exits_one(self, toy, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SEED", "7")
        toy(wall_needs_cpus=10**6)
        output = tmp_path / "toy.json"
        assert main(["bench", "kernels", "--seed", "11", "--output", str(output)]) == 0
        report = json.loads(output.read_text())
        assert report["checks"]["wall_ratio"] == "skipped"
        assert report["meta"]["seed"] == 11  # --seed overrides REPRO_BENCH_SEED
        assert "wall_ratio=skipped" in capsys.readouterr().out

        toy(broken_holds=False, wall_needs_cpus=10**6)
        assert main(["bench", "kernels"]) == 1
        assert "'broken' did not hold" in capsys.readouterr().err

    def test_compare_fails_on_a_check_missing_from_the_run(self, toy, tmp_path, capsys):
        toy(wall_needs_cpus=10**6)
        baseline = tmp_path / "baseline.json"
        assert main(["bench", "kernels", "--output", str(baseline)]) == 0
        assert main(["bench", "kernels", "--compare", str(baseline)]) == 0

        stale = json.loads(baseline.read_text())
        stale["checks"]["a_claim_the_run_dropped"] = "pass"
        baseline.write_text(json.dumps(stale))
        capsys.readouterr()
        assert main(["bench", "kernels", "--compare", str(baseline)]) == 1
        captured = capsys.readouterr()
        assert "MISSING checks vs baseline: a_claim_the_run_dropped" in captured.out
        assert "FAIL" in captured.err

    @pytest.mark.parametrize(
        "flags", [["--output", "x.json"], ["--run", "x"], ["--compare", "x.json"]]
    )
    def test_all_rejects_the_single_report_flags(self, toy, flags, capsys):
        toy()
        assert main(["bench", "all", *flags]) == 2
        assert "apply to single suites" in capsys.readouterr().err

    def test_all_compares_each_suite_with_its_own_baseline(
        self, monkeypatch, tmp_path, capsys
    ):
        first = _toy_suite(wall_needs_cpus=10**6)
        second = _toy_suite(wall_needs_cpus=10**6, broken_holds=False)
        monkeypatch.setattr(suites, "SUITES", {"first": first, "second": second})
        monkeypatch.chdir(tmp_path)
        (tmp_path / "BENCH_first.json").write_text(json.dumps(run_suite("first")))
        assert main(["bench", "all"]) == 1  # second's broken claim
        captured = capsys.readouterr()
        assert captured.out.count("verdict: OK") == 1
        assert "no committed baseline BENCH_second.json" in captured.out
        assert "second check 'broken' did not hold" in captured.err
