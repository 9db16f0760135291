"""The CTJ query compiler.

Section 3.2 of the paper: *"We use the CTJ compiler to compile SQL join
queries for TrieJax."*  The compiler performs three jobs, all reproduced
here:

1. **Variable ordering** — pick the global elimination order.  LFTJ-family
   engines conventionally follow the query's attribute order refined by
   connectivity: the order starts at the first variable the query mentions
   and each subsequent variable is the one most connected to the already
   ordered prefix (ties broken by atom count and then first appearance, so
   the choice is deterministic).  For the paper's pattern queries this
   yields exactly the orders used in the paper (``x, y, z[, w]``).

2. **Atom bindings** — derive, for every atom, the trie attribute order
   implied by the global order and the level each variable occupies.

3. **Cache structure** — detect which variables can be cached in the
   partial-join-result cache and under which keys (Section 2.2.2).  A
   variable ``v`` is cacheable when the set of earlier variables that
   determine its matches (the earlier variables co-occurring with ``v`` in
   some atom) is a *proper* subset of all earlier variables: the cached
   matches can then be reused whenever the excluded variables change.  This
   reproduces the paper's examples: Path-4 and Cycle-4 cache ``z`` keyed by
   ``y``; Cycle-3 and Clique-4 cache nothing.

The module additionally provides the **canonicalization hooks** used by the
serving layer's plan cache (:mod:`repro.service`): :func:`canonical_form`
α-renames a query's variables into a normal form and
:func:`canonical_signature` derives a stable text key from it, so that
α-equivalent queries (same structure, different variable names or query
name) share one compiled plan.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.joins.plan import AtomBinding, CacheSpec, JoinPlan
from repro.relational.catalog import Database
from repro.relational.query import Atom, ConjunctiveQuery

#: Query name given to every canonical form; the name never influences
#: compilation, so erasing it lets differently named queries share plans.
CANONICAL_QUERY_NAME = "q"


def canonical_form(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """The α-renamed normal form of ``query``.

    Variables are renamed ``v0, v1, ...`` in first-appearance order and the
    query name is erased.  Two queries that differ only in variable names
    and/or query name therefore map to the *same* canonical query, and —
    because :meth:`QueryCompiler.choose_variable_order` keys only on
    structure (appearance positions, co-occurrence, atom counts), never on
    the spelling of a variable — the canonical plan is structurally
    identical to the plan of the original query.  Result tuples of the
    canonical query are positionally valid for the original: the head is
    renamed in place, so column ``i`` still carries the binding of the
    original ``i``-th head variable.

    Atom *order* is preserved (it is semantically irrelevant for the result
    set but does steer the variable-order heuristic); queries that permute
    their atoms are treated as distinct plans, which is safe, merely less
    sharing.
    """
    mapping = {variable: f"v{i}" for i, variable in enumerate(query.variables)}
    atoms = [
        Atom(atom.relation, tuple(mapping[v] for v in atom.variables))
        for atom in query.atoms
    ]
    head = tuple(mapping[v] for v in query.head_variables)
    return ConjunctiveQuery(CANONICAL_QUERY_NAME, head, atoms)


def canonical_signature(query: ConjunctiveQuery) -> str:
    """Stable text key shared by all α-equivalent forms of ``query``.

    This is the plan-cache / result-cache key used by
    :class:`repro.service.QueryService`.  Computed once per query object
    (queries are immutable values) and interned, so every α-equivalent
    query, cache key and metrics record shares one string.
    """
    try:
        return query._canonical_signature
    except AttributeError:
        pass
    canonical = canonical_form(query)
    body = ";".join(
        f"{atom.relation}({','.join(atom.variables)})" for atom in canonical.atoms
    )
    signature = sys.intern(f"{','.join(canonical.head_variables)}<-{body}")
    query._canonical_signature = signature
    return signature


class QueryCompiler:
    """Compiles conjunctive queries into :class:`~repro.joins.plan.JoinPlan` objects.

    Parameters
    ----------
    enable_caching:
        When ``False`` the compiler never emits cache specs; used to drive
        plain LFTJ and the PJR-cache ablation experiments.
    """

    def __init__(self, enable_caching: bool = True):
        self.enable_caching = enable_caching

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def compile(
        self,
        query: ConjunctiveQuery,
        variable_order: Optional[Sequence[str]] = None,
    ) -> JoinPlan:
        """Compile ``query`` into a plan.

        ``variable_order`` overrides the heuristic order when provided (used
        by tests and by ablation experiments that sweep orders).
        """
        if variable_order is None:
            order = self.choose_variable_order(query)
        else:
            order = tuple(variable_order)
            if set(order) != set(query.variables):
                raise ValueError(
                    f"explicit variable order {order!r} must cover the query "
                    f"variables {query.variables!r}"
                )
        bindings = self.bind_atoms(query, order)
        cache_specs = self.derive_cache_specs(query, order) if self.enable_caching else ()
        return JoinPlan(query, order, bindings, cache_specs)

    # ------------------------------------------------------------------ #
    # Step 1: variable ordering
    # ------------------------------------------------------------------ #
    def choose_variable_order(self, query: ConjunctiveQuery) -> Tuple[str, ...]:
        """Appearance-seeded, connectivity-grown variable order (deterministic).

        The first variable is the first one the query mentions (matching the
        conventional LFTJ choice and the paper's ``x -> y -> z -> w`` orders);
        every subsequent variable is the remaining one most connected to the
        already ordered prefix, with ties broken by atom count and then first
        appearance.
        """
        adjacency = query.variable_cooccurrence()
        atom_count: Dict[str, int] = {
            variable: len(query.atoms_with(variable)) for variable in query.variables
        }
        remaining: List[str] = list(query.variables)

        order: List[str] = [remaining[0]]
        remaining.remove(order[0])

        while remaining:
            def grow_key(variable: str) -> Tuple:
                connectivity = sum(1 for chosen in order if chosen in adjacency[variable])
                return (
                    -connectivity,
                    -atom_count[variable],
                    query.variables.index(variable),
                )

            nxt = min(remaining, key=grow_key)
            order.append(nxt)
            remaining.remove(nxt)
        return tuple(order)

    # ------------------------------------------------------------------ #
    # Step 2: atom bindings
    # ------------------------------------------------------------------ #
    def bind_atoms(
        self, query: ConjunctiveQuery, order: Sequence[str]
    ) -> Tuple[AtomBinding, ...]:
        """Derive per-atom trie keys and variable levels for ``order``."""
        bindings: List[AtomBinding] = []
        for position, atom in enumerate(query.atoms):
            if len(set(atom.variables)) != len(atom.variables):
                raise ValueError(
                    f"atom {atom} repeats a variable; the trie-join engines require "
                    "distinct variables per atom (rewrite the query with an explicit "
                    "equality relation, or use the naive engine)"
                )
            atom_variables = []
            for variable in order:
                if atom.uses(variable) and variable not in atom_variables:
                    atom_variables.append(variable)
            variable_levels = {variable: level for level, variable in enumerate(atom_variables)}
            trie_key = self.trie_key_for(atom, position, order)
            bindings.append(AtomBinding(atom, trie_key, variable_levels))
        return tuple(bindings)

    @staticmethod
    def trie_key_for(atom: Atom, position: int, order: Sequence[str]) -> str:
        """Stable identifier for the trie an atom scans under ``order``.

        Includes the atom position so that repeated atoms over the same
        relation and variables (legal, if redundant) do not collide.
        """
        ordered_variables = [v for v in order if atom.uses(v)]
        return f"{position}:{atom.relation}({','.join(atom.variables)})|{'>'.join(ordered_variables)}"

    # ------------------------------------------------------------------ #
    # Step 3: cache structure
    # ------------------------------------------------------------------ #
    def derive_cache_specs(
        self, query: ConjunctiveQuery, order: Sequence[str]
    ) -> Tuple[CacheSpec, ...]:
        """Find the cacheable variables and their key sets under ``order``.

        For variable ``v`` at depth ``d`` the *dependency set* is the set of
        earlier variables that share an atom with ``v``.  Those are exactly
        the variables whose binding determines the candidate matches of
        ``v`` (each atom's trie is aligned on its earlier variables only).
        ``v`` is cacheable when the dependency set is a proper subset of the
        earlier variables and is non-empty (an empty key would cache the
        whole first-level scan, which the trie itself already provides).
        """
        order = tuple(order)
        specs: List[CacheSpec] = []
        for depth, variable in enumerate(order):
            if depth == 0:
                continue
            earlier = order[:depth]
            dependency: Set[str] = set()
            for atom in query.atoms_with(variable):
                for other in atom.variables:
                    if other != variable and other in earlier:
                        dependency.add(other)
            if not dependency:
                continue
            if dependency == set(earlier):
                continue
            key_variables = tuple(v for v in earlier if v in dependency)
            reuse_variables = tuple(v for v in earlier if v not in dependency)
            specs.append(CacheSpec(variable, key_variables, reuse_variables))
        return tuple(specs)

    # ------------------------------------------------------------------ #
    # Canonicalization hooks (plan-cache support)
    # ------------------------------------------------------------------ #
    def signature(self, query: ConjunctiveQuery) -> str:
        """The plan-cache key of ``query`` (α-equivalent queries collide)."""
        return canonical_signature(query)

    def compile_canonical(
        self, query: ConjunctiveQuery
    ) -> Tuple[str, ConjunctiveQuery, JoinPlan]:
        """Compile the canonical form of ``query``.

        Returns ``(signature, canonical_query, plan)``; the plan is compiled
        for the canonical query so it can be reused verbatim by any later
        α-equivalent submission.
        """
        canonical = canonical_form(query)
        return canonical_signature(query), canonical, self.compile(canonical)

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def compile_and_validate(
        self,
        query: ConjunctiveQuery,
        database: Database,
        variable_order: Optional[Sequence[str]] = None,
    ) -> JoinPlan:
        """Compile ``query`` and check it against ``database`` (arity/name errors)."""
        database.validate_query(query)
        return self.compile(query, variable_order)
