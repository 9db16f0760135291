"""Tests for ``scripts/ci_local.py``, the local runner of the CI workflow.

Besides the runner's own behaviour, this module runs the workflow's tree
invariants (the lint job's ``grep`` / ``test`` steps) inside tier-1, so a
change that breaks one fails here and not only on a hosted runner.
"""

import ast
import importlib.util
import os
import shutil
import subprocess
import sys

import pytest

yaml = pytest.importorskip("yaml")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "ci_local", os.path.join(ROOT, "scripts", "ci_local.py")
)
ci_local = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ci_local)
_spec = importlib.util.spec_from_file_location(
    "unread_names", os.path.join(ROOT, "scripts", "unread_names.py")
)
unread_names = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unread_names)

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

    def test_partition_guard_refuses_a_partitioner_factory_or_placement_knob(self, tmp_path):
        with open(os.path.join(ROOT, "src", "repro", "relational", "sharding.py")) as handle:
            source = handle.read()
        named = "    return PARTITIONER_KINDS[kind](num_shards)\n"
        assert source.count(named) == 1
        factory = "    if callable(kind):\n        return kind(num_shards)\n" + named
        knob = source.replace("replication_factor: int = 1,", "replicate_threshold: int = 0,")
        assert knob != source
        sharding = tmp_path / "src" / "repro" / "relational" / "sharding.py"
        sharding.parent.mkdir(parents=True)
        step = TREE_INVARIANTS["A sharded catalog partitions every relation"]
        for text, passes in ((source, True), (source.replace(named, factory), False),
                             (knob, False)):
            sharding.write_text(text)
            assert ci_local.run_step(step, str(tmp_path), dict(os.environ))[0] is passes

    def test_one_auto_route_refuses_a_cost_model_but_not_the_cpu_baseline(self, tmp_path):
        step = TREE_INVARIANTS["One auto route"]
        module = tmp_path / "src" / "repro" / "joins" / "base.py"
        module.parent.mkdir(parents=True)
        for text, passes in (
            ("model = CPUCostModel(cpu_config)\n", True),
            ("capabilities = EngineCapabilities(cost_model=CostModel())\n", False),
            ("work = wcoj_work_estimate(query, database)\n", False),
            ("self._route_memo = {}\n", False),
        ):
            module.write_text(text)
            assert ci_local.run_step(step, str(tmp_path), dict(os.environ))[0] is passes, text


class TestUnreadNames:
    """The lint step backed by ``scripts/unread_names.py``: every top-level
    ``src/`` name has a reader (it runs ``python``, so no grep/test step)."""

    STEP = next(
        step["run"]
        for step in JOBS["lint"]["steps"]
        if step.get("name") == "Every src/ name has a reader"
    )

    def scan(self, root):
        assert self.STEP.split()[:2] == ["python", "scripts/unread_names.py"]
        return subprocess.run(
            [sys.executable, *self.STEP.split()[1:]],
            cwd=root, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )

    def copy_tree(self, tmp_path):
        for folder in ("src", "scripts"):
            shutil.copytree(
                os.path.join(ROOT, folder), tmp_path / folder,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        return tmp_path / "src" / "repro" / "util"

    def test_every_src_name_has_a_reader(self):
        completed = self.scan(ROOT)
        assert completed.returncode == 0, completed.stdout

    def test_a_planted_unread_def_fails(self, tmp_path):
        module = self.copy_tree(tmp_path) / "validation.py"
        module.write_text(module.read_text() + "\n\ndef never_read():\n    return 0\n")
        completed = self.scan(tmp_path)
        assert completed.returncode == 1
        [line] = completed.stdout.splitlines()
        assert line.startswith("src/repro/util/validation.py:")
        assert line.endswith(" repro.util.validation:never_read has no reader")

    def test_an_allowlist_entry_a_src_module_reads_is_stale(self, tmp_path):
        module = self.copy_tree(tmp_path) / "rng.py"
        module.write_text(
            module.read_text() + "\n\nfrom repro.graphs import community_graph\ncommunity_graph\n"
        )
        completed = self.scan(tmp_path)
        assert completed.returncode == 1
        assert completed.stdout.splitlines() == [
            "ALLOWLIST entry repro.graphs.generators:community_graph is stale: "
            "a src/ module reads it"
        ]


def unread_in(tmp_path, modules, kept=()):
    """The unread symbols of a ``src/`` tree holding ``modules`` (path → text)."""
    for rel, text in modules.items():
        path = tmp_path / "src" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    symbols, readers = unread_names.load(str(tmp_path / "src"))
    return sorted(unread_names.unread(symbols, readers, kept))


class TestUnreadNamesRules:
    """The scan's rules, on small planted trees."""

    @pytest.mark.parametrize(
        "statement, names",
        [
            ("def f():\n    pass", ["f"]),
            ("async def f():\n    pass", ["f"]),
            ("class C:\n    pass", ["C"]),
            ("X = 1", ["X"]),
            ("X = Y = 1", ["X", "Y"]),
            ("X: int = 1", ["X"]),
            ("a, b = 1, 2", []),
            ("__all__ = ['f']", []),
            ("import os", []),
            ("if True:\n    X = 1", []),
        ],
        ids=[
            "def", "async_def", "class", "assign", "chained_assign", "annotated",
            "tuple_target", "dunder", "import", "nested",
        ],
    )
    def test_defined_names(self, statement, names):
        [node] = ast.parse(statement).body
        assert unread_names.defined_names(node) == names

    def test_a_read_is_a_loaded_name_or_an_attribute(self):
        tree = ast.parse("x = y.z + w")
        assert sorted(unread_names.reads(tree)) == ["w", "y", "z"]

    def test_module_names_drop_the_package_init(self, tmp_path):
        src = str(tmp_path)
        for rel, name in (("a/b.py", "a.b"), ("a/__init__.py", "a"), ("top.py", "top")):
            assert unread_names.module_name(src, os.path.join(src, rel)) == name

    def test_a_name_another_module_reads_is_live(self, tmp_path):
        assert unread_in(tmp_path, {
            "pkg/a.py": "def f():\n    return 1\n",
            "pkg/b.py": "from pkg.a import f\nVALUE = f()\nprint(VALUE)\n",
        }) == []

    def test_a_read_by_its_own_module_outside_its_body_counts(self, tmp_path):
        assert unread_in(tmp_path, {
            "pkg/a.py": "def f():\n    return 1\n\nprint(f())\n",
        }) == []

    def test_a_def_that_only_calls_itself_is_unread(self, tmp_path):
        assert unread_in(tmp_path, {
            "pkg/a.py": "def f(n):\n    return f(n - 1) if n else 0\n",
        }) == ["pkg.a:f"]

    def test_the_scan_is_transitive(self, tmp_path):
        # ``helper`` is read only from the body of the unread ``f``.
        assert unread_in(tmp_path, {
            "pkg/a.py": "def helper():\n    return 1\n\ndef f():\n    return helper()\n",
        }) == ["pkg.a:f", "pkg.a:helper"]

    def test_a_kept_symbol_holds_what_it_reads_live(self, tmp_path):
        modules = {
            "pkg/a.py": "def helper():\n    return 1\n\ndef f():\n    return helper()\n",
        }
        assert unread_in(tmp_path, modules, kept=("pkg.a:f",)) == []

    def test_a_re_export_alone_is_not_a_read(self, tmp_path):
        assert unread_in(tmp_path, {
            "pkg/__init__.py": "from pkg.a import f\n\n__all__ = ['f']\n",
            "pkg/a.py": "def f():\n    return 1\n",
        }) == ["pkg.a:f"]

    def test_every_allowlist_entry_names_a_reader_that_exists(self):
        for key, reader in unread_names.ALLOWLIST.items():
            assert ":" in key and reader.strip(), key
            for word in reader.replace(";", " ").split():
                if word.endswith((".py", ".md")):
                    assert os.path.exists(os.path.join(ROOT, word)), (key, word)

    def test_an_allowlist_entry_naming_no_symbol_is_stale(self, monkeypatch, capsys):
        allowlist = dict(unread_names.ALLOWLIST, **{"repro.nowhere:ghost": "nothing"})
        monkeypatch.setattr(unread_names, "ALLOWLIST", allowlist)
        assert unread_names.main() == 1
        assert capsys.readouterr().out.splitlines() == [
            "ALLOWLIST entry repro.nowhere:ghost is stale: no such symbol"
        ]


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
