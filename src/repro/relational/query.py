"""Conjunctive (natural-join) queries.

The paper evaluates graph pattern matching queries expressed as full
conjunctive queries over binary edge relations (Table 1), e.g.::

    cycle3(x, y, z) = R(x, y), S(y, z), T(z, x).

A :class:`ConjunctiveQuery` holds the head variables and the body atoms; the
query compiler (``repro.joins.compiler``) turns it into an execution plan
(global variable order + per-atom trie orders + cache structure) consumed by
LFTJ, CTJ and the TrieJax accelerator alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.util.validation import check_not_empty


@dataclass(frozen=True)
class Atom:
    """One body atom: a relation name applied to a tuple of variables.

    ``relation`` names a stored relation in the database catalog; ``variables``
    are the query variables bound to its attributes, in attribute order.
    Repeated variables within one atom (e.g. ``R(x, x)``) are representable
    and handled by the naive oracle, but the trie-join engines require
    distinct variables per atom (their compiler rejects repeats).
    """

    relation: str
    variables: Tuple[str, ...]

    def __init__(self, relation: str, variables: Sequence[str]):
        check_not_empty("variables", variables)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "variables", tuple(variables))

    @property
    def arity(self) -> int:
        return len(self.variables)

    def uses(self, variable: str) -> bool:
        return variable in self.variables

    def positions_of(self, variable: str) -> Tuple[int, ...]:
        """All positions at which ``variable`` occurs in this atom."""
        return tuple(i for i, v in enumerate(self.variables) if v == variable)

    def __str__(self) -> str:
        return f"{self.relation}({', '.join(self.variables)})"


class ConjunctiveQuery:
    """A named conjunctive query ``head(vars) = atom_1, ..., atom_k``.

    Parameters
    ----------
    name:
        Query name (e.g. ``"cycle3"``); used by the experiment registry.
    head_variables:
        Output variables.  For the paper's pattern queries the head contains
        every body variable (full conjunctive queries); projections are
        permitted but the WCOJ engines always enumerate full bindings first.
    atoms:
        Body atoms.

    A query is an immutable value: nothing reassigns ``name``,
    ``head_variables`` or ``atoms`` after construction, which is what lets
    statements be interned (:func:`repro.api.statement.coerce_statement`)
    and :func:`repro.joins.compiler.canonical_signature` memoise its key on
    the object.
    """

    def __init__(
        self,
        name: str,
        head_variables: Sequence[str],
        atoms: Sequence[Atom],
    ):
        check_not_empty("head_variables", head_variables)
        check_not_empty("atoms", atoms)
        body_variables = {v for atom in atoms for v in atom.variables}
        for variable in head_variables:
            if variable not in body_variables:
                raise ValueError(
                    f"head variable {variable!r} does not appear in any body atom"
                )
        self.name = name
        self.head_variables: Tuple[str, ...] = tuple(head_variables)
        self.atoms: Tuple[Atom, ...] = tuple(atoms)

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    @property
    def variables(self) -> Tuple[str, ...]:
        """All body variables, in first-appearance order."""
        seen: List[str] = []
        for atom in self.atoms:
            for variable in atom.variables:
                if variable not in seen:
                    seen.append(variable)
        return tuple(seen)

    @property
    def num_atoms(self) -> int:
        return len(self.atoms)

    @property
    def is_full(self) -> bool:
        """True when the head projects every body variable."""
        return set(self.head_variables) == set(self.variables)

    def atoms_with(self, variable: str) -> Tuple[Atom, ...]:
        """Body atoms that mention ``variable``."""
        return tuple(atom for atom in self.atoms if atom.uses(variable))

    def relation_names(self) -> Tuple[str, ...]:
        """Distinct relation names referenced by the body, in order."""
        seen: List[str] = []
        for atom in self.atoms:
            if atom.relation not in seen:
                seen.append(atom.relation)
        return tuple(seen)

    def variable_cooccurrence(self) -> Dict[str, Set[str]]:
        """For each variable, the set of variables sharing at least one atom.

        This is the query's hypergraph adjacency, used by the compiler to
        choose variable orders that keep connected variables adjacent.
        """
        adjacency: Dict[str, Set[str]] = {v: set() for v in self.variables}
        for atom in self.atoms:
            for v in atom.variables:
                for w in atom.variables:
                    if v != w:
                        adjacency[v].add(w)
        return adjacency

    # ------------------------------------------------------------------ #
    # Presentation
    # ------------------------------------------------------------------ #
    def to_datalog(self) -> str:
        """Render the query in the paper's compact datalog format."""
        head = f"{self.name}({', '.join(self.head_variables)})"
        body = ", ".join(str(atom) for atom in self.atoms)
        return f"{head} = {body}."

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ConjunctiveQuery({self.to_datalog()!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return (
            self.name == other.name
            and self.head_variables == other.head_variables
            and self.atoms == other.atoms
        )

    def __hash__(self) -> int:
        return hash((self.name, self.head_variables, self.atoms))
