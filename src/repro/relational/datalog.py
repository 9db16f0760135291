"""Parser for the paper's compact datalog query syntax.

Table 1 of the paper writes every pattern query in the form::

    cycle3(x,y,z) = R(x,y),S(y,z),T(z,x).

This module parses exactly that grammar (head, ``=``, comma-separated body
atoms, optional trailing period and whitespace) into a
:class:`~repro.relational.query.ConjunctiveQuery`.  The grammar is small on
purpose: it is the interchange format between the experiment registry, the
query compiler and the documentation, not a general datalog engine.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from repro.relational.query import Atom, ConjunctiveQuery


class DatalogSyntaxError(ValueError):
    """Raised when a datalog query string cannot be parsed."""


_IDENTIFIER = r"[A-Za-z_][A-Za-z0-9_]*"
_ATOM_RE = re.compile(rf"\s*({_IDENTIFIER})\s*\(\s*([^()]*?)\s*\)\s*")


def _parse_atom_text(text: str) -> Tuple[str, Tuple[str, ...]]:
    match = _ATOM_RE.fullmatch(text)
    if not match:
        raise DatalogSyntaxError(f"malformed atom: {text!r}")
    name = match.group(1)
    args_text = match.group(2).strip()
    if not args_text:
        raise DatalogSyntaxError(f"atom {name!r} has no arguments")
    variables = tuple(v.strip() for v in args_text.split(","))
    for variable in variables:
        if not re.fullmatch(_IDENTIFIER, variable):
            raise DatalogSyntaxError(
                f"invalid variable name {variable!r} in atom {text!r}"
            )
    return name, variables


def _split_atoms(body: str) -> List[str]:
    """Split the body on commas that are *outside* parentheses."""
    atoms: List[str] = []
    depth = 0
    current: List[str] = []
    for char in body:
        if char == "(":
            depth += 1
            current.append(char)
        elif char == ")":
            depth -= 1
            if depth < 0:
                raise DatalogSyntaxError(f"unbalanced parentheses in body: {body!r}")
            current.append(char)
        elif char == "," and depth == 0:
            atoms.append("".join(current))
            current = []
        else:
            current.append(char)
    if depth != 0:
        raise DatalogSyntaxError(f"unbalanced parentheses in body: {body!r}")
    if current:
        atoms.append("".join(current))
    return [a for a in (atom.strip() for atom in atoms) if a]


def parse_datalog(text: str) -> ConjunctiveQuery:
    """Parse a single datalog rule into a :class:`ConjunctiveQuery`.

    Examples
    --------
    >>> q = parse_datalog("path3(x,y,z) = R(x,y), S(y,z).")
    >>> q.name
    'path3'
    >>> [str(a) for a in q.atoms]
    ['R(x, y)', 'S(y, z)']
    """
    stripped = text.strip()
    if stripped.endswith("."):
        stripped = stripped[:-1]
    if "=" not in stripped:
        raise DatalogSyntaxError(f"missing '=' separator in rule: {text!r}")
    # Split only on the first '=' so relation/variable names may not contain it.
    head_text, body_text = stripped.split("=", 1)
    head_name, head_variables = _parse_atom_text(head_text)
    atom_texts = _split_atoms(body_text)
    if not atom_texts:
        raise DatalogSyntaxError(f"rule has an empty body: {text!r}")
    atoms = []
    for atom_text in atom_texts:
        name, variables = _parse_atom_text(atom_text)
        atoms.append(Atom(name, variables))
    return ConjunctiveQuery(head_name, head_variables, atoms)


def parse_program(text: str) -> List[ConjunctiveQuery]:
    """Parse several period-terminated rules (one per line or separated by '.')."""
    queries = []
    for chunk in text.split("."):
        chunk = chunk.strip()
        if not chunk:
            continue
        queries.append(parse_datalog(chunk + "."))
    return queries
