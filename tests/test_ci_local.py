"""Tests for ``scripts/ci_local.py``, the local runner of the CI workflow.

Besides the runner's own behaviour, this module runs the workflow's tree
invariants (the lint job's ``grep`` / ``test`` steps) inside tier-1, so a
change that breaks one fails here and not only on a hosted runner.
"""

import importlib.util
import os
import sys

import pytest

yaml = pytest.importorskip("yaml")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "ci_local", os.path.join(ROOT, "scripts", "ci_local.py")
)
ci_local = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ci_local)

with open(ci_local.WORKFLOW, encoding="utf-8") as _handle:
    JOBS = yaml.safe_load(_handle)["jobs"]

#: Why a workflow step may be skipped on a development machine.
RUNNER_ONLY = ("uses: ", "pip install", "ruff not installed")

#: The lint job's tree invariants: steps built only from ``grep`` and ``test``.
TREE_INVARIANTS = {
    step["name"]: step["run"]
    for step in JOBS["lint"]["steps"]
    if "run" in step and set(ci_local.commands(step["run"])) <= {"grep", "test"}
}


def write_workflow(tmp_path, jobs):
    """A one-file tree whose workflow is ``jobs``; returns the tree's root."""
    tree = tmp_path / "tree"
    (tree / ".github" / "workflows").mkdir(parents=True)
    (tree / "marker.txt").write_text("uncommitted\n")
    workflow = tree / ".github" / "workflows" / "ci.yml"
    workflow.write_text(yaml.safe_dump({"jobs": jobs}))
    return str(tree), str(workflow)


def run_main(monkeypatch, capsys, tmp_path, jobs):
    tree, workflow = write_workflow(tmp_path, jobs)
    monkeypatch.setattr(ci_local, "ROOT", tree)
    monkeypatch.setattr(ci_local, "WORKFLOW", workflow)
    exit_code = ci_local.main()
    return exit_code, capsys.readouterr().out


class TestCommands:
    @pytest.mark.parametrize(
        "script, programs",
        [
            ("ruff check src tests", ["ruff"]),
            ("! grep -rn heapq src/repro/relational", ["grep"]),
            ("PYTHONPATH=src python -m pytest -x -q", ["python"]),
            ("A=1 B=2 \\\n  python -m pytest tests -q", ["python"]),
            ("# a comment\npython3 perf/run.py\n\npython3 perf/run.py --trace 1",
             ["python3", "python3"]),
        ],
        ids=["plain", "negated", "env-prefix", "continued-line", "comments-and-blanks"],
    )
    def test_first_program_of_each_logical_line(self, script, programs):
        assert list(ci_local.commands(script)) == programs


class TestSkipReason:
    @pytest.mark.parametrize(
        "step, reason",
        [
            ({"uses": "actions/checkout@v4"}, "uses: actions/checkout@v4"),
            ({"run": "python -m pip install ruff"}, "pip install"),
            ({"run": "echo ${{ matrix.python-version }}"}, "GitHub expression"),
            ({"run": "no-such-tool-on-path --help"}, "no-such-tool-on-path not installed"),
            ({"run": "! grep -rn heapq src"}, None),
        ],
        ids=["uses", "pip", "expression", "missing-tool", "runnable"],
    )
    def test_reason(self, step, reason):
        assert ci_local.skip_reason(step) == reason


class TestRunStep:
    @pytest.mark.parametrize(
        "script, ok",
        [("true", True), ("false\ntrue", False), ("false | cat", False)],
        ids=["passes", "errexit", "pipefail"],
    )
    def test_exit_status(self, tmp_path, script, ok):
        passed, _, seconds = ci_local.run_step(script, str(tmp_path), dict(os.environ))
        assert passed is ok
        assert seconds >= 0

    def test_output_merges_stderr_and_runs_in_the_workdir(self, tmp_path):
        (tmp_path / "here.txt").write_text("")
        passed, output, _ = ci_local.run_step(
            "ls\necho to-stderr >&2", str(tmp_path), dict(os.environ)
        )
        assert passed
        assert "here.txt" in output and "to-stderr" in output


class TestWorkflow:
    @pytest.mark.parametrize("job_name", sorted(JOBS))
    def test_only_runner_steps_are_skipped(self, job_name):
        for step in JOBS[job_name]["steps"]:
            reason = ci_local.skip_reason(step)
            assert reason is None or reason.startswith(RUNNER_ONLY), (step, reason)

    @pytest.mark.parametrize("name", sorted(TREE_INVARIANTS))
    def test_tree_invariant_holds(self, name):
        passed, output, _ = ci_local.run_step(TREE_INVARIANTS[name], ROOT, dict(os.environ))
        assert passed, output

    def test_word_format_refuses_array_value_levels_in_build_flat(self, tmp_path):
        with open(os.path.join(ROOT, "src", "repro", "relational", "trie.py")) as handle:
            source = handle.read()
        built = "values: List[list] = [[] for _ in range(arity)]"
        assert source.count(built) == 1
        trie = tmp_path / "src" / "repro" / "relational" / "trie.py"
        trie.parent.mkdir(parents=True)
        step = TREE_INVARIANTS["One word format"]
        words = 'values = [array("q") for _ in range(arity)]'
        for level, passes in ((built, True), (words, False)):
            trie.write_text(source.replace(built, level))
            assert ci_local.run_step(step, str(tmp_path), dict(os.environ))[0] is passes, level


class TestMain:
    def test_prints_one_line_per_step_and_fails_on_a_failing_step(
        self, monkeypatch, capsys, tmp_path
    ):
        jobs = {
            "first": {"steps": [
                {"uses": "actions/checkout@v4"},
                {"name": "Install", "run": "python -m pip install pytest"},
                {"name": "Good", "run": "test -f marker.txt"},
                {"name": "Bad", "run": "echo broken-output\nfalse"},
            ]},
        }
        exit_code, out = run_main(monkeypatch, capsys, tmp_path, jobs)
        assert exit_code == 1
        lines = out.splitlines()
        assert lines[0] == "== first"
        assert lines[1] == "SKIPPED(uses: actions/checkout@v4)  actions/checkout@v4"
        assert lines[2] == "SKIPPED(pip install)  Install"
        assert lines[3].startswith("PASS  Good (")
        assert lines[4].startswith("FAIL  Bad (")
        assert lines[5] == "    broken-output"
        assert lines[-1] == "1 step(s) failed"

    def test_all_passing_exits_zero(self, monkeypatch, capsys, tmp_path):
        jobs = {"only": {"steps": [{"name": "Fine", "run": "true"}]}}
        exit_code, out = run_main(monkeypatch, capsys, tmp_path, jobs)
        assert exit_code == 0
        assert out.splitlines()[-1] == "all runnable steps passed"

    def test_each_job_starts_from_a_fresh_copy_of_the_tree(
        self, monkeypatch, capsys, tmp_path
    ):
        jobs = {
            "writer": {"steps": [{"name": "Write", "run": "echo x > made.txt && rm marker.txt"}]},
            "reader": {"steps": [
                {"name": "Fresh", "run": "test ! -e made.txt && test -f marker.txt"}
            ]},
        }
        exit_code, out = run_main(monkeypatch, capsys, tmp_path, jobs)
        assert exit_code == 0, out
        assert os.path.exists(os.path.join(ci_local.ROOT, "marker.txt"))

    def test_python_is_the_current_interpreter(self, monkeypatch, capsys, tmp_path):
        check = f'test "$({{name}} -c "import sys; print(sys.hexversion)")" = {sys.hexversion}'
        jobs = {"py": {"steps": [
            {"name": name, "run": check.format(name=name)} for name in ("python", "python3")
        ]}}
        exit_code, out = run_main(monkeypatch, capsys, tmp_path, jobs)
        assert exit_code == 0, out

    def test_job_and_step_env_apply_and_pythonpath_does_not_leak(
        self, monkeypatch, capsys, tmp_path
    ):
        monkeypatch.setenv("PYTHONPATH", "/nowhere")
        jobs = {"vars": {"env": {"JOB_VAR": "j"}, "steps": [{
            "name": "Env",
            "env": {"STEP_VAR": "s"},
            "run": 'test -z "${PYTHONPATH:-}" && test "$JOB_VAR$STEP_VAR" = js',
        }]}}
        exit_code, out = run_main(monkeypatch, capsys, tmp_path, jobs)
        assert exit_code == 0, out
