"""Statement: one query object over the repository's three front-ends.

Historically callers built queries three different ways — direct
:class:`~repro.relational.query.ConjunctiveQuery` construction, the SQL
fragment parser (:mod:`repro.relational.sql`) and the datalog parser
(:mod:`repro.relational.datalog`).  A :class:`Statement` unifies them::

    Statement.pattern("cycle3")                     # Table 1 pattern
    Statement.from_datalog("q(x,y,z) = E(x,y), E(y,z).")
    Statement.from_sql("SELECT * FROM E AS a, E AS b WHERE a.dst = b.src")
    Statement.from_query(my_conjunctive_query)

All four resolve to the same :class:`ConjunctiveQuery` IR via
:meth:`Statement.resolve` and share **canonical-signature identity**: two
statements are equal (and hash together) exactly when their resolved
queries are α-equivalent — same structure and head order, regardless of
variable spellings, query names or which front-end produced them.  SQL
statements need a database to resolve (the parser reads table schemas), so
their identity is the normalised SQL text instead — *always*, not just
before resolution, so hashing and equality are stable over a statement's
lifetime (a resolved and an unresolved copy of the same SQL stay equal).

Statements are immutable values, and :func:`coerce_statement` **interns**
them by text: the same string always yields the same ``Statement`` (from a
bounded, thread-safe memo of :data:`STATEMENT_MEMO_SIZE` texts), so a served
text is parsed once, not once per request.
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from typing import Optional, Sequence, Tuple

from repro.graphs.patterns import pattern_query
from repro.joins.compiler import canonical_signature
from repro.relational.catalog import Database
from repro.relational.datalog import parse_datalog
from repro.relational.query import Atom, ConjunctiveQuery
from repro.relational.sql import parse_sql_join

#: Distinct statement texts :func:`coerce_statement` keeps interned (least
#: recently used beyond it are re-parsed), like ``re``'s pattern cache.
STATEMENT_MEMO_SIZE = 1024


class Statement:
    """A query in one of the supported source forms, resolved lazily.

    Use the classmethod constructors; the raw constructor is internal.
    A statement is an immutable value and may be shared between sessions
    and threads (interned ones are); its only internal state is the memo of
    the last SQL resolution.
    """

    def __init__(self, kind: str, source: object, label: str):
        self.kind = kind
        self._source = source
        self.label = label
        # Last SQL resolution as (weakref to the database, the schemas the
        # parser read, query).  The catalog is held *weakly* — an interned
        # statement must not pin a closed catalog for the life of the
        # process — and compared by identity through the live referent, so
        # a recycled object address can never alias a stale resolution (a
        # dead reference yields None, which is no database).
        self._sql_resolution: Optional[tuple] = None

    # ------------------------------------------------------------------ #
    # Constructors (the unified front door)
    # ------------------------------------------------------------------ #
    @classmethod
    def from_query(cls, query: ConjunctiveQuery) -> "Statement":
        """Wrap an already-built conjunctive query."""
        return cls("query", query, query.name)

    @classmethod
    def from_datalog(cls, text: str) -> "Statement":
        """Parse the paper's compact datalog syntax (Table 1 form)."""
        query = parse_datalog(text)
        return cls("query", query, query.name)

    @classmethod
    def from_sql(cls, sql: str, name: str = "sql_query") -> "Statement":
        """Wrap an equi-join ``SELECT``; resolution needs a database's schemas."""
        return cls("sql", (sql, name), name)

    @classmethod
    def pattern(cls, name: str, edge_relation: str = "E") -> "Statement":
        """One of the paper's named pattern queries over ``edge_relation``."""
        return cls("query", pattern_query(name, edge_relation), name)

    @classmethod
    def raw(
        cls,
        name: str,
        head_variables: Sequence[str],
        atoms: Sequence[Tuple[str, Sequence[str]]],
    ) -> "Statement":
        """Build from (relation, variables) pairs without touching the IR types."""
        query = ConjunctiveQuery(
            name,
            head_variables,
            [Atom(relation, variables) for relation, variables in atoms],
        )
        return cls("query", query, name)

    # ------------------------------------------------------------------ #
    # Resolution
    # ------------------------------------------------------------------ #
    @property
    def needs_database(self) -> bool:
        """True when resolution requires a catalog (SQL statements only)."""
        return self.kind == "sql"

    def resolve(self, database: Optional[Database] = None) -> ConjunctiveQuery:
        """The statement as a :class:`ConjunctiveQuery`.

        SQL statements re-parse when resolved against a different catalog,
        or after one of their tables was redefined (schemas may differ);
        the latest resolution is memoised.
        """
        if self.kind == "query":
            return self._source
        if database is None:
            raise ValueError(
                "SQL statements need a database to resolve table schemas; "
                "pass one (or execute through a Session)"
            )
        memo = self._sql_resolution
        if memo is not None and memo[0]() is database:
            if all(database.relation(table).schema is schema for table, schema in memo[1]):
                return memo[2]
        sql, name = self._source
        query = parse_sql_join(sql, database, query_name=name)
        schemas = tuple(
            (table, database.relation(table).schema) for table in query.relation_names()
        )
        self._sql_resolution = (weakref.ref(database), schemas, query)
        return query

    def signature(self, database: Optional[Database] = None) -> str:
        """The canonical signature of the resolved query (the cache key)."""
        return canonical_signature(self.resolve(database))

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #
    def _identity(self) -> Tuple[str, str]:
        # SQL identity is the normalised text, independent of whether (or
        # against which catalog) the statement has been resolved — equality
        # and hashes must never change over a statement's lifetime.
        if self.needs_database:
            sql, _name = self._source
            return ("sql", " ".join(sql.split()).lower())
        return ("signature", self.signature())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Statement):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())


@lru_cache(maxsize=STATEMENT_MEMO_SIZE)
def _statement_from_text(obj: str) -> Statement:
    """The interned statement of one text (a parse error is not cached)."""
    text = obj.strip()
    if text.lower().startswith("select"):
        return Statement.from_sql(obj)
    if "=" in text:
        return Statement.from_datalog(obj)
    return Statement.pattern(text)


def coerce_statement(obj: object) -> Statement:
    """Accept the duck-typed statement forms :meth:`Session.execute` takes.

    ``Statement`` instances pass through; ``ConjunctiveQuery`` objects are
    wrapped; strings are dispatched on shape — ``SELECT ...`` to the SQL
    front-end, anything containing ``=`` to the datalog parser, and bare
    identifiers to the pattern catalogue — and interned: the same text
    returns the same ``Statement`` object (see the module docstring).
    """
    if isinstance(obj, Statement):
        return obj
    if isinstance(obj, ConjunctiveQuery):
        return Statement.from_query(obj)
    if isinstance(obj, str):
        return _statement_from_text(obj)
    raise TypeError(
        f"cannot interpret {type(obj).__name__} as a statement; pass a Statement, "
        "a ConjunctiveQuery, or a str (SQL, datalog, or a pattern name)"
    )
