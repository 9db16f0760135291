"""The paper's graph pattern matching queries (Table 1).

Table 1 lists the five queries used throughout the evaluation, written over
distinct relation symbols ``R, S, T, U, V, W`` for readability::

    path3(x,y,z)      = R(x,y), S(y,z).
    path4(x,y,z,w)    = R(x,y), S(y,z), T(z,w).
    cycle3(x,y,z)     = R(x,y), S(y,z), T(z,x).
    cycle4(x,y,z,w)   = R(x,y), S(y,z), T(z,w), U(w,x).
    clique4(x,y,z,w)  = R(x,y), S(y,z), T(z,w), U(w,x), V(z,x), W(w,y).

In the evaluation every symbol is bound to the *same* graph edge relation (the
datasets are single graphs), so :func:`pattern_query` builds each query over
one edge relation name, while :func:`table1_rows` renders the distinct-symbol
form for the Table 1 reproduction.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.relational.query import Atom, ConjunctiveQuery

#: Names of the five evaluation queries, in the paper's order.
PATTERN_NAMES: Tuple[str, ...] = ("path3", "path4", "cycle3", "cycle4", "clique4")

#: Variable tuples and edge templates for each pattern.  Each edge template is
#: a pair of variable names; the k-th atom of the query binds the k-th
#: template.
_PATTERN_EDGES: Dict[str, Tuple[Tuple[str, ...], Tuple[Tuple[str, str], ...]]] = {
    "path3": (("x", "y", "z"), (("x", "y"), ("y", "z"))),
    "path4": (("x", "y", "z", "w"), (("x", "y"), ("y", "z"), ("z", "w"))),
    "cycle3": (("x", "y", "z"), (("x", "y"), ("y", "z"), ("z", "x"))),
    "cycle4": (("x", "y", "z", "w"), (("x", "y"), ("y", "z"), ("z", "w"), ("w", "x"))),
    "clique4": (
        ("x", "y", "z", "w"),
        (
            ("x", "y"),
            ("y", "z"),
            ("z", "w"),
            ("w", "x"),
            ("z", "x"),
            ("w", "y"),
        ),
    ),
}

#: Additional patterns beyond Table 1, exposed for library users (the paper's
#: introduction motivates general pattern matching; these are the other small
#: patterns commonly used in the graph-mining literature).  They are not part
#: of the reproduced evaluation but run on every engine and the accelerator.
_EXTRA_PATTERN_EDGES: Dict[str, Tuple[Tuple[str, ...], Tuple[Tuple[str, str], ...]]] = {
    "path5": (
        ("x", "y", "z", "w", "v"),
        (("x", "y"), ("y", "z"), ("z", "w"), ("w", "v")),
    ),
    "cycle5": (
        ("x", "y", "z", "w", "v"),
        (("x", "y"), ("y", "z"), ("z", "w"), ("w", "v"), ("v", "x")),
    ),
    "diamond": (
        # Two triangles sharing the edge (x, z).
        ("x", "y", "z", "w"),
        (("x", "y"), ("y", "z"), ("x", "z"), ("x", "w"), ("w", "z")),
    ),
    "tailed_triangle": (
        ("x", "y", "z", "w"),
        (("x", "y"), ("y", "z"), ("z", "x"), ("z", "w")),
    ),
    "star3": (
        ("x", "a", "b", "c"),
        (("x", "a"), ("x", "b"), ("x", "c")),
    ),
}

#: Names of the extra (non-Table-1) patterns.
EXTRA_PATTERN_NAMES: Tuple[str, ...] = tuple(sorted(_EXTRA_PATTERN_EDGES))

#: Relation symbols used by Table 1 for the distinct-symbol rendering.
_TABLE1_SYMBOLS: Tuple[str, ...] = ("R", "S", "T", "U", "V", "W")


def _pattern_definition(name: str) -> Tuple[Tuple[str, ...], Tuple[Tuple[str, str], ...]]:
    if name in _PATTERN_EDGES:
        return _PATTERN_EDGES[name]
    if name in _EXTRA_PATTERN_EDGES:
        return _EXTRA_PATTERN_EDGES[name]
    raise KeyError(
        f"unknown pattern {name!r}; available patterns: "
        f"{PATTERN_NAMES + EXTRA_PATTERN_NAMES}"
    )


def pattern_query(name: str, edge_relation: str = "E") -> ConjunctiveQuery:
    """Build a pattern query over a single edge relation.

    Parameters
    ----------
    name:
        One of the paper's evaluation patterns (:data:`PATTERN_NAMES`) or one
        of the extra library patterns (:data:`EXTRA_PATTERN_NAMES`).
    edge_relation:
        Name of the stored edge relation every atom binds (default ``"E"``).
    """
    head, edges = _pattern_definition(name)
    atoms = [Atom(edge_relation, pair) for pair in edges]
    return ConjunctiveQuery(name, head, atoms)


def pattern_arity(name: str) -> int:
    """Number of output variables of pattern ``name``."""
    head, _edges = _pattern_definition(name)
    return len(head)


def pattern_num_atoms(name: str) -> int:
    """Number of body atoms of pattern ``name``."""
    _head, edges = _pattern_definition(name)
    return len(edges)


def table1_rows() -> List[Tuple[str, str]]:
    """Rows of Table 1: (query display name, datalog text with distinct symbols)."""
    display_names = {
        "path3": "Path-3",
        "path4": "Path-4",
        "cycle3": "Cycle-3",
        "cycle4": "Cycle-4",
        "clique4": "Clique-4",
    }
    rows = []
    for name in PATTERN_NAMES:
        head, edges = _PATTERN_EDGES[name]
        atoms = []
        for symbol, (a, b) in zip(_TABLE1_SYMBOLS, edges):
            atoms.append(f"{symbol}({a},{b})")
        datalog = f"{name}({','.join(head)}) = {','.join(atoms)}."
        rows.append((display_names[name], datalog))
    return rows


def multi_relation_pattern_query(name: str) -> ConjunctiveQuery:
    """The Table 1 form with distinct relation symbols ``R, S, T, ...``.

    Useful for tests exercising genuinely multi-relation joins (each symbol
    bound to a different stored relation), as in the paper's Figures 2 and 6
    running examples.
    """
    if name not in _PATTERN_EDGES:
        raise KeyError(
            f"unknown pattern {name!r}; available patterns: {PATTERN_NAMES}"
        )
    head, edges = _PATTERN_EDGES[name]
    atoms = [
        Atom(symbol, pair) for symbol, pair in zip(_TABLE1_SYMBOLS, edges)
    ]
    return ConjunctiveQuery(name, head, atoms)


def pattern_relation_symbols(name: str) -> Tuple[str, ...]:
    """The distinct relation symbols used by the Table 1 form of ``name``."""
    _head, edges = _PATTERN_EDGES[name]
    return _TABLE1_SYMBOLS[: len(edges)]
