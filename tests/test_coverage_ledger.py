"""Tests for ``scripts/coverage_ledger.py``: its rules on small planted trees.

The full ledger traces the whole tier-1 suite and runs as its own CI job;
these tests check what it counts and how ``UNRUN`` keys match, fast.
"""

import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "coverage_ledger", os.path.join(ROOT, "scripts", "coverage_ledger.py")
)
coverage_ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(coverage_ledger)

MODULE = """\
def run():
    return 1


def skipped():
    return 2
"""

NESTED = """\
def outer():
    def inner():
        return 3

    return 4
"""


def plant(folder, text):
    """``folder/src/pkg/mod.py`` holding ``text``; returns ``(src, path)``."""
    package = folder / "src" / "pkg"
    package.mkdir(parents=True)
    path = package / "mod.py"
    path.write_text(text)
    return str(folder / "src"), str(path)


def ledger_of(folder, text, unrun, calls=("run",)):
    """The ledger's failure lines after importing the planted module and
    calling ``calls`` under the tracer."""
    src, path = plant(folder, text)

    def run():
        spec = importlib.util.spec_from_file_location("planted_mod", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for name in calls:
            getattr(module, name)()

    _, seen = coverage_ledger.traced(run, src)
    return coverage_ledger.ledger(src, seen, unrun)


class TestRules:
    def test_a_never_run_line_fails(self, tmp_path):
        failures = ledger_of(tmp_path, MODULE, {})
        assert len(failures) == 1
        assert failures[0].endswith(":6 pkg/mod.py::skipped::return 2 never runs")

    @pytest.mark.parametrize(
        "key", ["pkg/mod.py::skipped::return 2", "pkg/mod.py::skipped"],
        ids=["line", "function"],
    )
    def test_an_unrun_line_passes(self, tmp_path, key):
        assert ledger_of(tmp_path, MODULE, {key: coverage_ledger.WORKER}) == []

    def test_a_stale_entry_fails(self, tmp_path):
        unrun = {
            "pkg/mod.py::skipped": coverage_ledger.WORKER,
            "pkg/mod.py::run::return 1": coverage_ledger.WORKER,
        }
        assert ledger_of(tmp_path, MODULE, unrun) == [
            "UNRUN entry pkg/mod.py::run::return 1 is stale: it lists no never-run line"
        ]

    def test_a_nested_functions_lines_are_counted(self, tmp_path):
        src, path = plant(tmp_path / "lines", NESTED)
        assert {3, 5} <= coverage_ledger.executable_lines(path)
        failures = ledger_of(tmp_path / "run", NESTED, {}, calls=("outer",))
        assert len(failures) == 1
        assert failures[0].endswith(":3 pkg/mod.py::outer.inner::return 3 never runs")

    def test_a_line_inserted_above_an_unrun_line_keeps_its_key(self, tmp_path):
        unrun = {"pkg/mod.py::skipped::return 2": coverage_ledger.WORKER}
        assert ledger_of(tmp_path / "before", MODULE, unrun) == []
        shifted = "import os\n\nDEPTH = len(os.sep)\n\n\n" + MODULE
        assert ledger_of(tmp_path / "after", shifted, unrun) == []
        assert ledger_of(tmp_path / "unlisted", shifted, {})[0].endswith(
            ":11 pkg/mod.py::skipped::return 2 never runs"
        )

    def test_tracing_restores_the_tracer_in_place(self, tmp_path):
        before = sys.gettrace()
        ledger_of(tmp_path, MODULE, {})
        assert sys.gettrace() is before


class TestTable:
    """Cheap checks of ``UNRUN`` itself; staleness needs the traced run."""

    REASONS = {
        coverage_ledger.WORKER,
        coverage_ledger.MAIN,
        coverage_ledger.TYPE_CHECKING,
        coverage_ledger.BIG_ENDIAN,
    }
    #: Modules that read bytes or text from outside: every check there runs,
    #: so only a ``TYPE_CHECKING`` import may be listed.
    BOUNDARIES = (
        "repro/storage/segments.py",
        "repro/storage/wal.py",
        "repro/storage/sqlite_store.py",
        "repro/obs/export.py",
        "repro/relational/sql.py",
        "repro/relational/datalog.py",
        "repro/service/faults.py",
    )

    @pytest.mark.parametrize("key", sorted(coverage_ledger.UNRUN))
    def test_every_entry_names_a_line_of_a_src_module(self, key):
        assert coverage_ledger.UNRUN[key] in self.REASONS, key
        path = key.split("::")[0]
        if path in self.BOUNDARIES:
            assert coverage_ledger.UNRUN[key] == coverage_ledger.TYPE_CHECKING, key
        keys = coverage_ledger.line_keys(
            coverage_ledger.SRC, os.path.join(coverage_ledger.SRC, path)
        )
        assert key in {k for pair in keys.values() for k in pair}, key
