"""Test-only helpers: reference searches and small graph builders.

No ``src/`` module reads these; ``scripts/unread_names.py`` keeps such code
out of the package.  The searches are the *lowest upper bound* primitive of
the LeapFrog TrieJoin (and of the TrieJax LUB unit) in its reference forms —
the plain binary search and the galloping search that reports its probe
count — which the plan kernel's C-level ``bisect_left`` seeks are held
against.  The builders are fixed graphs and databases for correctness
tests, and one catalog redefinition that forces cached results to drop.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from repro.graphs import Graph, graph_database, pattern_query
from repro.relational import Atom, ConjunctiveQuery, Database, Relation
from repro.util.validation import check_non_negative, check_positive


def lowest_upper_bound(
    values: Sequence[int],
    target: int,
    lo: int = 0,
    hi: int | None = None,
) -> int:
    """Return the index of the first element ``>= target`` in ``values[lo:hi]``.

    This is the core operation of the LUB hardware unit (Section 3.6 of the
    paper): a binary search that returns the *lowest upper bound* position.
    If every element in the window is smaller than ``target``, the returned
    index equals ``hi`` (i.e. one past the window), signalling "not found".

    Parameters
    ----------
    values:
        Sorted (non-decreasing) sequence to search.
    target:
        Value to look up.
    lo, hi:
        Half-open window ``[lo, hi)`` to restrict the search to.  ``hi``
        defaults to ``len(values)``.
    """
    if hi is None:
        hi = len(values)
    if lo < 0 or hi > len(values) or lo > hi:
        raise ValueError(
            f"invalid search window [{lo}, {hi}) for array of length {len(values)}"
        )
    while lo < hi:
        mid = (lo + hi) // 2
        if values[mid] < target:
            lo = mid + 1
        else:
            hi = mid
    return lo


def gallop(
    values: Sequence[int],
    target: int,
    lo: int = 0,
    hi: int | None = None,
) -> Tuple[int, int]:
    """Lowest upper bound via galloping, returning ``(position, probes)``.

    Identical result to :func:`lowest_upper_bound`, but it starts probing
    right at ``lo`` (where a leapfrog cursor already sits, so the answer is
    usually nearby) and reports how many elements it actually compared.  No
    engine runs it: it is the landing-position oracle of the plan kernel of
    :mod:`repro.joins.leapfrog`.  No window validation is performed —
    callers pass cursor positions that are valid by construction.
    """
    if hi is None:
        hi = len(values)
    if lo >= hi:
        return lo, 0
    if values[lo] >= target:
        return lo, 1
    # Exponential phase: bracket the answer in (prev, probe].
    probes = 1
    step = 1
    prev = lo
    probe = lo + 1
    while probe < hi:
        probes += 1
        if values[probe] >= target:
            break
        prev = probe
        step *= 2
        probe = lo + step
    else:
        probe = hi
    # Binary phase inside the bracket.
    b_lo, b_hi = prev + 1, min(probe, hi)
    while b_lo < b_hi:
        mid = (b_lo + b_hi) // 2
        probes += 1
        if values[mid] < target:
            b_lo = mid + 1
        else:
            b_hi = mid
    return b_lo, probes


def edges_database(edges: Iterable[Tuple[int, int]]) -> Database:
    """A database named ``edges`` whose one relation ``E`` holds ``edges``."""
    return graph_database(Graph.from_edges(edges, "edges"))


def redefine_with(database: Database, name: str, rows: Iterable[Tuple[int, ...]]) -> None:
    """Redefine relation ``name`` of ``database`` as its rows plus ``rows``.

    A redefinition is a ``define`` event, which no maintainer can patch:
    every cached result that reads ``name`` drops and the next read
    re-executes against the new relation.
    """
    relation = database.relation(name)
    database.replace_relation(
        Relation(name, relation.schema, [*relation.sorted_rows(), *rows])
    )


def multi_relation_pattern_query(name: str) -> ConjunctiveQuery:
    """Pattern ``name`` in its Table 1 form, one relation symbol per atom.

    The atoms bind ``R, S, T, ...`` in order, as in the paper's Figures 2
    and 6 running examples, so each can be a different stored relation.
    """
    query = pattern_query(name)
    atoms = [Atom(symbol, atom.variables) for symbol, atom in zip("RSTUVW", query.atoms)]
    return ConjunctiveQuery(name, query.head_variables, atoms)


def deterministic_clique(num_nodes: int) -> Graph:
    """Complete directed graph (without self-loops) on ``num_nodes`` vertices."""
    check_positive("num_nodes", num_nodes)
    graph = Graph("clique")
    for source in range(num_nodes):
        for target in range(num_nodes):
            if source != target:
                graph.add_edge(source, target)
    return graph


def deterministic_cycle(num_nodes: int) -> Graph:
    """Single directed cycle 0 -> 1 -> ... -> n-1 -> 0."""
    check_positive("num_nodes", num_nodes)
    graph = Graph("cycle")
    for vertex in range(num_nodes):
        graph.add_edge(vertex, (vertex + 1) % num_nodes)
    return graph


def deterministic_path(num_nodes: int) -> Graph:
    """Single directed path 0 -> 1 -> ... -> n-1."""
    check_positive("num_nodes", num_nodes)
    graph = Graph("path")
    graph.add_vertex(0)
    for vertex in range(num_nodes - 1):
        graph.add_edge(vertex, vertex + 1)
    return graph


def deterministic_star(num_leaves: int) -> Graph:
    """Star graph: vertex 0 points to every leaf (hub-heavy corner case)."""
    check_non_negative("num_leaves", num_leaves)
    graph = Graph("star")
    graph.add_vertex(0)
    for leaf in range(1, num_leaves + 1):
        graph.add_edge(0, leaf)
    return graph


def deterministic_bipartite(left: int, right: int) -> Graph:
    """Complete bipartite graph: every left vertex points to every right vertex."""
    check_positive("left", left)
    check_positive("right", right)
    graph = Graph("bipartite")
    for source in range(left):
        for target in range(left, left + right):
            graph.add_edge(source, target)
    return graph
