"""repro.api — the repository's single public entry surface.

Everything a caller needs lives behind three objects and one registry:

* :class:`~repro.api.session.Session` — owns a database, an engine table
  and the request pipeline (:mod:`repro.service.pipeline`: plan/result
  caches, one prepare → execute → publish path); ``execute`` / ``explain``
  / ``serve``.
* :class:`~repro.api.statement.Statement` — one query object over the three
  front-ends (patterns, datalog, SQL, raw conjunctive queries) with
  canonical-signature identity.
* :class:`~repro.api.resultset.ResultSet` — the lazy result surface
  (iterator of tuples, ``.to_list()``, ``.stats``, ``.plan``, ``.backend``).
* the engine registry (:mod:`repro.engines`, re-exported here) — the one
  table mapping engine names to :class:`~repro.engines.EngineProtocol` factories,
  shared by the CLI, the service layer, the evaluation harness and the
  benchmarks; and the cost router (:mod:`repro.api.routing`) that picks the
  cheapest engine per query from the statistics estimates.

Quick start::

    from repro.api import Session, Statement
    from repro.service import workload_database

    session = Session(workload_database())
    triangles = session.execute(Statement.pattern("cycle3"))
    print(triangles.backend, len(triangles.to_list()))
    print(session.explain("clique4").describe())
"""

from repro.engines import (
    AcceleratorEngine,
    CostModel,
    ENGINE_FACTORIES,
    EngineCapabilities,
    EngineExecution,
    EngineProtocol,
    SoftwareEngine,
    create_engine,
    engine_names,
    register_engine,
)
from repro.api.routing import CostRouter, EngineEstimate, RouteDecision
from repro.api.resultset import ResultSet
from repro.api.statement import Statement, coerce_statement
from repro.api.session import Explanation, ResultDelta, Session, Subscription
from repro.service.pipeline import RESULT_REPLAY_COST

__all__ = [
    "AcceleratorEngine",
    "CostModel",
    "ENGINE_FACTORIES",
    "EngineCapabilities",
    "EngineExecution",
    "EngineProtocol",
    "SoftwareEngine",
    "create_engine",
    "engine_names",
    "register_engine",
    "CostRouter",
    "EngineEstimate",
    "RouteDecision",
    "ResultSet",
    "Statement",
    "coerce_statement",
    "Explanation",
    "ResultDelta",
    "Subscription",
    "RESULT_REPLAY_COST",
    "Session",
]
