#!/usr/bin/env python3
"""Fail on a top-level ``src/`` name that nothing in ``src/`` reads.

Every top-level ``def``, ``class`` and assignment of a module under
``src/`` must be read by another ``src/`` module, or by its own module
outside its own body.  A read is a name or an attribute access spelled like
the symbol; an import alone, or a string in ``__all__``, is not a read, so a
name only a package ``__init__`` re-exports is unread.  The scan is
transitive: a read from inside an unread symbol's body does not count, so
the scan repeats until no more names fall out.

A name whose reader lives outside ``src/`` (the README's Public API, an
example CI runs, the frozen ``perf/`` benchmark) is listed in
:data:`ALLOWLIST` with that reader.  Usage::

    python scripts/unread_names.py

Prints one line per unread symbol (and per stale allowlist entry: one that
names no symbol, or a symbol some ``src/`` module reads) and exits 1 if
there is any, else prints a one-line summary and exits 0.  Standard library
only.
"""

from __future__ import annotations

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ``module:name`` → the reader outside ``src/`` that keeps the name.
ALLOWLIST = {
    "repro.engines:register_engine": "README Public API (the engine registry)",
    "repro.graphs.generators:community_graph": "examples/social_network_analysis.py",
    "repro.graphs.loader:write_snap_edge_list": "perf/README.md (wrote the perf corpus)",
    "repro.relational.catalog:Catalog": "README Architecture (the catalog protocol)",
    "repro.service.workload:workload_database": "README Public API; examples/api_quickstart.py",
}


def module_name(src: str, path: str) -> str:
    rel = os.path.relpath(path, src)[: -len(".py")].replace(os.sep, ".")
    return rel[: -len(".__init__")] if rel.endswith(".__init__") else rel


def defined_names(statement: ast.stmt):
    """The names a top-level statement defines (dunders excluded)."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, ast.Assign):
        names = [t.id for t in statement.targets if isinstance(t, ast.Name)]
    elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        names = [statement.target.id]
    else:
        names = []
    return [name for name in names if not name.startswith("__")]


def reads(node: ast.AST):
    """Every name ``node`` reads, spelled as a name or an attribute."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Store):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def load(src: str):
    """``(symbols, readers)`` of every module under ``src``.

    ``symbols`` maps ``"module:name"`` to ``(path, line)``; ``readers`` maps
    a spelled name to the symbols whose bodies read it (``None`` for module
    code outside any symbol, which is always live).
    """
    symbols, readers = {}, {}
    for folder, _, files in os.walk(src):
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(folder, filename)
            module = module_name(src, path)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            for statement in tree.body:
                names = defined_names(statement)
                owner = f"{module}:{names[0]}" if len(names) == 1 else None
                for name in names:
                    symbols[f"{module}:{name}"] = (path, statement.lineno)
                for name in reads(statement):
                    readers.setdefault(name, set()).add(owner)
    return symbols, readers


def unread(symbols, readers, kept) -> set:
    """The symbols no live reader reads, with the ``kept`` ones held live."""
    live = set(symbols)
    while True:
        dead = {
            key for key in live - set(kept)
            if not any(
                owner != key and (owner is None or owner in live)
                for owner in readers.get(key.split(":")[1], ())
            )
        }
        if not dead:
            return set(symbols) - live
        live -= dead


def main() -> int:
    symbols, readers = load(os.path.join(ROOT, "src"))
    failures = [
        f"{os.path.relpath(symbols[key][0], ROOT)}:{symbols[key][1]} {key} has no reader"
        for key in sorted(unread(symbols, readers, ALLOWLIST))
    ]
    # An entry must still name a symbol that src/ alone leaves unread.
    needed = unread(symbols, readers, ())
    failures += [
        f"ALLOWLIST entry {key} is stale: "
        + ("a src/ module reads it" if key in symbols else "no such symbol")
        for key in sorted(set(ALLOWLIST) - needed)
    ]
    for line in failures:
        print(line)
    if failures:
        return 1
    print(f"every one of {len(symbols)} top-level src/ names has a reader")
    return 0


if __name__ == "__main__":
    sys.exit(main())
