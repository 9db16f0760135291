"""Common interfaces shared by every join engine.

All engines — the WCOJ family (LFTJ, CTJ, Generic Join), the traditional
pairwise engine and the naive oracle — expose the same entry point::

    result = engine.run(query, database)

and return a :class:`JoinResult` carrying the output tuples (in head-variable
order), the compiled plan (when the engine uses one) and the
:class:`~repro.joins.stats.JoinStats` counters the system models consume.
Keeping the interface uniform lets the evaluation harness swap engines
freely and lets the correctness tests compare any engine against the oracle.

.. deprecated::
    ``JoinEngine.run`` is no longer the repository's public entry point; it
    is the internal SPI the algorithm implementations fill in.  Callers
    should go through :class:`repro.api.Session` (or
    :func:`repro.api.create_engine`, which wraps these engines behind the
    unified :class:`repro.engines.EngineProtocol` with declared
    capabilities and cost models).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.joins.plan import JoinPlan
from repro.joins.stats import JoinStats
from repro.relational.catalog import Database
from repro.relational.query import ConjunctiveQuery


@dataclass
class JoinResult:
    """Outcome of one join execution.

    Attributes
    ----------
    query:
        The executed query.
    tuples:
        Output tuples, each ordered by the query's head variables.  Engines
        return a list (not a set) but never produce duplicates for the
        set-semantics full conjunctive queries used in the paper.
    stats:
        Algorithm-level counters.
    plan:
        The compiled plan, when the engine is plan-driven (``None`` for the
        naive oracle and the pairwise engine's relational plan is reported
        separately).
    """

    query: ConjunctiveQuery
    tuples: List[Tuple[int, ...]]
    stats: JoinStats = field(default_factory=JoinStats)
    plan: Optional[JoinPlan] = None

    @property
    def cardinality(self) -> int:
        """Number of output tuples."""
        return len(self.tuples)

    def as_set(self) -> set:
        """The output as a set of tuples (for order-insensitive comparison)."""
        return set(self.tuples)


class JoinEngine(abc.ABC):
    """Abstract base class for join engines."""

    #: Human-readable engine name used in reports.
    name: str = "engine"

    @abc.abstractmethod
    def run(self, query: ConjunctiveQuery, database: Database) -> JoinResult:
        """Execute ``query`` against ``database`` and return the result."""

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"
