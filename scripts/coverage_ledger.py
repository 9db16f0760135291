#!/usr/bin/env python3
"""Fail on a ``src/`` line that tier-1 never runs and :data:`UNRUN` does not list.

Runs the tier-1 suite (``pytest -x -q`` from the repository root, with
``--hypothesis-seed=0``) in this process under a ``sys.settrace`` tracer
limited to ``src/``, then compares the lines it saw run with every
executable line of every ``src/`` module: the line numbers of
``code.co_lines()`` over the module's code object and every code object
nested in it.

A line tier-1 cannot reach (code that runs only in a worker process, under
``python -m``, under ``TYPE_CHECKING`` or on a big-endian host) is listed in
:data:`UNRUN` with that reason.  A key is ``path::function::line text`` (the
line stripped of indentation) or ``path::function`` for every line of a
function; ``path`` is relative to ``src/`` and ``function`` is the dotted
chain of enclosing ``class``/``def`` names (``<module>`` at top level).  Keys
carry no line numbers, so an edit above a listed line leaves its key valid.
Usage::

    python scripts/coverage_ledger.py

Prints one line per never-run line that no key lists (and per stale key: one
that lists no never-run line) and exits 1 if there is any, else prints a
one-line summary and exits 0.  The suite's own output goes to stderr; a
failing suite exits 1 with nothing else checked.  Standard library plus the
test suite's ``pytest`` (and ``hypothesis``); takes about 6 minutes on a
2-vCPU host.
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Why tier-1 cannot run a line, for each reason a key may give.
WORKER = "worker process: the process backend runs it outside the tracer"
MAIN = "python -m: runs only as a script entry point"
TYPE_CHECKING = "TYPE_CHECKING: imported only by type checkers"
BIG_ENDIAN = "big-endian host: the test hosts are little-endian"

#: ``path::function[::line text]`` → why tier-1 cannot run those lines.
UNRUN = {
    "repro/__main__.py::<module>": MAIN,
    "repro/core/operations.py::<module>::from repro.core.cupid import Task": TYPE_CHECKING,
    "repro/service/backends.py::<module>::"
    "from repro.service.service import QueryOutcome, QueryService, ServiceRequest": TYPE_CHECKING,
    "repro/service/caches.py::<module>::"
    "from repro.service.maintenance import InsertLog": TYPE_CHECKING,
    "repro/service/faults.py::<module>::"
    "from repro.service.scatter import ScatterGatherStats": TYPE_CHECKING,
    "repro/service/metrics.py::<module>::"
    "from repro.service.admission import AdmissionStats": TYPE_CHECKING,
    "repro/service/metrics.py::<module>::"
    "from repro.service.caches import CacheStats": TYPE_CHECKING,
    # A worker's pid differs from the exporter's; an in-process attach
    # (what tier-1 runs) leaves the exporter's tracker registration alone.
    "repro/service/shm.py::_owns_private_tracker::"
    "return _POOL_OWNER_PID != handle.owner_pid  # fork child inherits the pid": WORKER,
    "repro/service/shm.py::_attach_segment::try:": WORKER,
    "repro/service/shm.py::_attach_segment::resource_tracker.unregister(": WORKER,
    "repro/service/shm.py::_attach_segment::"
    'getattr(shm, "_name", shm.name), "shared_memory"': WORKER,
    "repro/service/shm.py::_attach_segment::except Exception:": WORKER,
    "repro/service/shm.py::_attach_segment::pass": WORKER,
    "repro/service/shm.py::_warm_worker": WORKER,
    "repro/storage/words.py::pack_words::flat.byteswap()": BIG_ENDIAN,
    "repro/storage/words.py::unpack_words::flat.byteswap()": BIG_ENDIAN,
}


def code_lines(code) -> set:
    """The line numbers of ``code`` and of every code object nested in it."""
    # Line 0 is a module's own entry (3.11), not a line of its text.
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def executable_lines(path: str) -> set:
    with open(path, encoding="utf-8") as handle:
        return code_lines(compile(handle.read(), path, "exec"))


def enclosing_functions(tree: ast.AST) -> dict:
    """Line → the dotted ``class``/``def`` chain that encloses it."""
    owners = {}

    def visit(node, chain):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = chain + (child.name,)
                for line in range(child.lineno, child.end_lineno + 1):
                    owners[line] = ".".join(inner)
                visit(child, inner)
            else:
                visit(child, chain)

    visit(tree, ())
    return owners


def line_keys(src: str, path: str) -> dict:
    """Line → ``(path::function, path::function::line text)`` for ``path``."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    owners = enclosing_functions(ast.parse(text, path))
    rel = os.path.relpath(path, src).replace(os.sep, "/")
    keys = {}
    for number, line in enumerate(text.splitlines(), 1):
        function = f"{rel}::{owners.get(number, '<module>')}"
        keys[number] = (function, f"{function}::{line.strip()}")
    return keys


def traced(run, src: str):
    """``(run(), {path: lines run})`` with ``run`` traced inside ``src``.

    Threads started while ``run`` runs are traced too; the tracers in place
    before the call are restored after it.
    """
    prefix = os.path.join(os.path.abspath(src), "")
    seen, tracers = {}, {}

    def tracer_for(lines):
        add = lines.add

        def local(frame, event, arg):
            add(frame.f_lineno)
            return local

        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        local = tracers.get(filename, False)
        if local is False:
            local = tracers[filename] = (
                tracer_for(seen.setdefault(filename, set()))
                if filename.startswith(prefix) else None
            )
        return local and local(frame, event, arg)

    before, thread_before = sys.gettrace(), threading.gettrace()
    threading.settrace(call)
    sys.settrace(call)
    try:
        result = run()
    finally:
        sys.settrace(before)
        threading.settrace(thread_before)
    return result, seen


def modules(src: str):
    """Every ``.py`` file under ``src``, in a stable order."""
    for folder, dirs, files in os.walk(src):
        dirs.sort()
        for filename in sorted(files):
            if filename.endswith(".py"):
                yield os.path.join(folder, filename)


def never_run(src: str, seen: dict) -> list:
    """``(path, line, keys)`` of every executable ``src`` line not in ``seen``."""
    missed = []
    for path in modules(src):
        lines = executable_lines(path) - seen.get(path, set())
        keys = line_keys(src, path) if lines else {}
        missed += [(path, line, keys[line]) for line in sorted(lines)]
    return missed


def ledger(src: str, seen: dict, unrun: dict) -> list:
    """The failure lines: unlisted never-run lines, then stale keys."""
    failures, used = [], set()
    for path, line, (function, text) in never_run(src, seen):
        listed = [key for key in (function, text) if key in unrun]
        used.update(listed)
        if not listed:
            where = os.path.relpath(path, os.path.dirname(src))
            failures.append(f"{where}:{line} {text} never runs")
    failures += [
        f"UNRUN entry {key} is stale: it lists no never-run line"
        for key in sorted(set(unrun) - used)
    ]
    return failures


def tier1() -> int:
    """Run tier-1 here, its output on stderr; the pytest exit code."""
    import pytest
    from hypothesis import settings

    # Tracing slows every example several times over; no deadline.
    settings.register_profile("ledger", deadline=None)
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    with contextlib.redirect_stdout(sys.stderr):
        return pytest.main([
            "-x", "-q", "-p", "no:cacheprovider",
            "--hypothesis-seed=0", "--hypothesis-profile=ledger",
        ])


def main() -> int:
    exit_code, seen = traced(tier1, SRC)
    if exit_code != 0:
        print(f"tier-1 failed under the tracer (pytest exit code {exit_code})")
        return 1
    failures = ledger(SRC, seen, UNRUN)
    for line in failures:
        print(line)
    if failures:
        return 1
    total = sum(len(executable_lines(path)) for path in modules(SRC))
    print(
        f"every one of {total} executable src/ lines runs under tier-1 "
        f"or is listed in UNRUN ({len(UNRUN)} entries)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
