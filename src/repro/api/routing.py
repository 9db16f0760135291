"""Routing: which engine runs a query that names none.

The paper hands one CTJ-compiled plan to software LFTJ/CTJ or to the
TrieJax hardware (conf_asplos_KalinskyKE20, Section 3.2).  Here ``"auto"``
names a fixed software-engine order, :data:`AUTO_ORDER`: a query runs on the
first engine of the order that the session has and whose
:class:`~repro.joins.base.EngineCapabilities` admit it.  ``triejax`` (a
cycle-level model of other hardware) and ``naive`` (the correctness oracle)
run only when pinned by name.

LFTJ heads the order because it has the smallest worst case over the perf
corpus (grqc and gnu04 × path3, path4, cycle3, cycle4, clique4).  Its worst
cell is about 1.5× the best software engine's wall time (grqc cycle4, where
CTJ's cache pays).  CTJ's worst is about 2.2× (gnu04 cycle4, where the cache
costs) and Generic Join's about 2.6×.  CHANGES.md holds the measured table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.joins.base import EngineProtocol
from repro.relational.query import ConjunctiveQuery
from repro.relational.statistics import has_repeated_atom_variables

#: The engines ``"auto"`` may run, in order of preference.
AUTO_ORDER = ("lftj", "ctj", "generic", "pairwise")

_AUTO_REASON = "first eligible engine of " + " > ".join(AUTO_ORDER)


@dataclass(frozen=True)
class RouteDecision:
    """The engine a query runs on, and why."""

    chosen: str
    reason: str

    def describe(self) -> str:
        """The routing line of ``repro explain``."""
        return f"chosen engine   : {self.chosen} ({self.reason})"


class Router:
    """Resolves ``"auto"`` to the first eligible engine of :data:`AUTO_ORDER`."""

    def choose(
        self, query: ConjunctiveQuery, engines: Mapping[str, EngineProtocol]
    ) -> RouteDecision:
        """Route ``query`` to the first engine of the order that can run it.

        An engine that cannot take repeated variables within an atom
        (``R(x, x)``) is passed over for a query that has them.  Raises
        ``ValueError`` when no engine of the order qualifies.
        """
        repeated = has_repeated_atom_variables(query)
        for name in AUTO_ORDER:
            engine = engines.get(name)
            if engine is not None and (
                not repeated or engine.capabilities.supports_repeated_vars
            ):
                return RouteDecision(name, _AUTO_REASON)
        raise ValueError(
            f"no engine of the auto order {list(AUTO_ORDER)} can run "
            f"{query.name!r} with engines {sorted(engines)}; pin one by name"
        )

    def pinned(
        self, engine_name: str, engines: Mapping[str, EngineProtocol]
    ) -> RouteDecision:
        """A decision for an engine the caller named."""
        if engine_name not in engines:
            raise KeyError(
                f"engine {engine_name!r} not configured; have {sorted(engines)}"
            )
        return RouteDecision(engine_name, "pinned by caller")
