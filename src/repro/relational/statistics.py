"""Query shape: α-acyclicity and repeated variables within an atom.

Section 2.1 of the paper builds on the AGM bound (Atserias, Grohe, Marx): the
worst-case output size of a natural join is ``prod_i |R_i|^{x_i}`` minimised
over *fractional edge covers* ``x`` of the query hypergraph, and an algorithm
is worst-case optimal (WCOJ) when its running time matches that bound.  No
code path reads the bound itself; the test suite computes it
(``tests/test_relational_statistics.py``) as an oracle-free upper bound on
every WCOJ engine's output.

This module holds two structural tests of a query: the GYO α-acyclicity
test (:func:`is_alpha_acyclic` / :func:`is_cyclic`) that separates the
paper's path queries from its cycle/clique queries (``repro explain``
prints it as the query shape), and :func:`has_repeated_atom_variables`,
which keeps ``"auto"`` routing (:mod:`repro.api.routing`) off engines that
cannot take ``R(x, x)``.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.relational.query import ConjunctiveQuery


# --------------------------------------------------------------------------- #
# Structure: α-acyclicity (GYO reduction)
# --------------------------------------------------------------------------- #
def is_alpha_acyclic(query: ConjunctiveQuery) -> bool:
    """Whether the query's hypergraph is α-acyclic (GYO ear removal).

    The reduction alternates two rewrites until neither applies: drop every
    variable that occurs in exactly one hyperedge, and drop every hyperedge
    contained in another.  The hypergraph is α-acyclic exactly when this
    empties it.  The paper's path and star patterns are acyclic; its cycle
    and clique patterns are not — and cyclic queries are where
    intermediate-result blowup (and hence the accelerator's PJR cache)
    matters.
    """
    edges: List[Set[str]] = [set(atom.variables) for atom in query.atoms]
    changed = True
    while changed and edges:
        changed = False
        occurrences: Dict[str, int] = {}
        for edge in edges:
            for variable in edge:
                occurrences[variable] = occurrences.get(variable, 0) + 1
        for edge in edges:
            lone = {v for v in edge if occurrences[v] == 1}
            if lone:
                edge -= lone
                changed = True
        edges = [edge for edge in edges if edge]
        for i, edge in enumerate(edges):
            if any(i != j and edge <= other for j, other in enumerate(edges)):
                edges.pop(i)
                changed = True
                break
    return not edges


def is_cyclic(query: ConjunctiveQuery) -> bool:
    """True when the query hypergraph is *not* α-acyclic."""
    return not is_alpha_acyclic(query)


def has_repeated_atom_variables(query: ConjunctiveQuery) -> bool:
    """Whether any atom repeats a variable (e.g. ``R(x, x)``).

    The trie-join engines reject such atoms; ``"auto"`` routing uses this
    to pass over engines whose capabilities do not declare support.
    """
    return any(len(set(atom.variables)) != len(atom.variables) for atom in query.atoms)
