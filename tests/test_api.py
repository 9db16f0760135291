"""Tests for the public API surface (``repro.api``).

Covers the tentpole pieces of the Session/Statement/ResultSet redesign:
the unified engine protocol and single registry, statement identity across
the three front-ends, lazy result sets, cost-based routing driven by
``relational/statistics``, cache accounting (including the plan-blind
regression), and the ISSUE acceptance scenario.
"""

import pytest

from repro.api import (
    ENGINE_FACTORIES,
    EngineProtocol,
    ResultSet,
    Session,
    Statement,
    coerce_statement,
    create_engine,
    engine_names,
    register_engine,
)
from repro.api.routing import CostRouter
from repro.graphs import pattern_query
from repro.joins import NaiveJoin
from repro.relational.query import Atom, ConjunctiveQuery
from repro.relational.statistics import (
    is_cyclic,
    nested_loop_work_estimate,
    pairwise_work_estimate,
    wcoj_work_estimate,
)
from repro.service import QueryService, workload_database


@pytest.fixture(scope="module")
def api_db():
    """The acceptance-scenario catalog: triangle/clique-rich community graph."""
    return workload_database(num_vertices=60, num_edges=300, seed=2020)


def fresh_session(api_db, **kwargs):
    return Session(workload_database(num_vertices=60, num_edges=300, seed=2020), **kwargs)


# --------------------------------------------------------------------------- #
# The single engine registry
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_service_engines_shim_is_gone(self):
        # The deprecated alias module was removed; repro.api.engines is the
        # one registry.
        with pytest.raises(ModuleNotFoundError):
            import repro.service.engines  # noqa: F401

    def test_cli_has_no_private_engine_table(self):
        import repro.cli as cli

        assert not hasattr(cli, "_ENGINES")

    def test_every_builtin_engine_resolves_and_declares_capabilities(self):
        for name in ("naive", "lftj", "ctj", "generic", "pairwise", "triejax"):
            engine = create_engine(name)
            assert isinstance(engine, EngineProtocol)
            assert engine.name == name
            capabilities = engine.capabilities
            assert capabilities.cost_model.work_model in (
                "wcoj",
                "pairwise",
                "nested-loop",
            )

    def test_unknown_engine_rejected(self):
        with pytest.raises(KeyError):
            create_engine("warp-drive")

    def test_registration_is_visible_everywhere(self, api_db):
        class EchoEngine(EngineProtocol):
            name = "echo"

            def execute(self, query, database, plan=None):
                from repro.api.engines import EngineExecution

                return EngineExecution(tuples=[], cost=1.0, plan_used=False)

        register_engine("echo", EchoEngine)
        try:
            assert "echo" in engine_names()
            service = QueryService(api_db, backends=("echo",), seed=1)
            outcome = service.serve(pattern_query("cycle3"))
            assert outcome.record.backend == "echo"
        finally:
            del ENGINE_FACTORIES["echo"]

    def test_double_registration_requires_replace(self):
        with pytest.raises(KeyError):
            register_engine("ctj", ENGINE_FACTORIES["ctj"])


# --------------------------------------------------------------------------- #
# Statement: one front door over the three front-ends
# --------------------------------------------------------------------------- #
class TestStatement:
    def test_pattern_datalog_and_raw_share_identity(self):
        by_pattern = Statement.pattern("cycle3")
        by_datalog = Statement.from_datalog("tri(a,b,c) = E(a,b), E(b,c), E(c,a).")
        by_query = Statement.from_query(pattern_query("cycle3"))
        assert by_pattern == by_datalog == by_query
        assert len({by_pattern, by_datalog, by_query}) == 1
        assert by_pattern.signature() == by_datalog.signature()

    def test_sql_statement_resolves_against_catalog(self, api_db):
        stmt = Statement.from_sql(
            "SELECT * FROM E AS a, E AS b WHERE a.dst = b.src"
        )
        assert stmt.needs_database
        with pytest.raises(ValueError):
            stmt.resolve()
        query = stmt.resolve(api_db)
        # Structurally a 2-edge path: same signature as the path3 pattern.
        assert stmt.signature(api_db) == Statement.pattern("path3").signature()

    def test_different_structure_not_equal(self):
        assert Statement.pattern("cycle3") != Statement.pattern("path3")

    def test_coercion_from_strings(self, api_db):
        assert coerce_statement("cycle3") == Statement.pattern("cycle3")
        assert (
            coerce_statement("q(x,y) = E(x,y).").signature()
            == Statement.from_datalog("q(x,y) = E(x,y).").signature()
        )
        sql = coerce_statement("SELECT * FROM E")
        assert sql.kind == "sql"
        with pytest.raises(TypeError):
            coerce_statement(42)

    def test_raw_builder(self):
        stmt = Statement.raw("tri", ("x", "y", "z"),
                             [("E", ("x", "y")), ("E", ("y", "z")), ("E", ("z", "x"))])
        assert stmt == Statement.pattern("cycle3")

    def test_sql_identity_stable_across_resolution(self, api_db):
        # Resolving must never change equality or hashes: a resolved and an
        # unresolved copy of the same SQL stay interchangeable as dict keys.
        sql = "SELECT * FROM E AS a, E AS b WHERE a.dst = b.src"
        resolved, pristine = Statement.from_sql(sql), Statement.from_sql(sql)
        lookup = {resolved: "entry"}
        resolved.resolve(api_db)
        assert resolved == pristine
        assert lookup[resolved] == "entry"
        assert lookup[pristine] == "entry"

    def test_sql_reresolves_against_a_different_catalog(self, api_db):
        stmt = Statement.from_sql("SELECT * FROM E AS a, E AS b WHERE a.dst = b.src")
        first = stmt.resolve(api_db)
        assert stmt.resolve(api_db) is first  # memoised per catalog
        other = workload_database(num_vertices=20, num_edges=60, seed=9)
        assert stmt.resolve(other) is not first  # schemas may differ: re-parse


# --------------------------------------------------------------------------- #
# Cost-based routing
# --------------------------------------------------------------------------- #
class TestRouting:
    def test_cyclicity_classification(self):
        assert not is_cyclic(pattern_query("path3"))
        assert not is_cyclic(pattern_query("path4"))
        assert not is_cyclic(pattern_query("star3"))
        assert is_cyclic(pattern_query("cycle3"))
        assert is_cyclic(pattern_query("cycle4"))
        assert is_cyclic(pattern_query("clique4"))

    def test_work_estimates_are_positive_and_deterministic(self, api_db):
        query = pattern_query("cycle3")
        for estimator in (wcoj_work_estimate, pairwise_work_estimate,
                          nested_loop_work_estimate):
            first = estimator(query, api_db)
            assert first >= 1.0
            assert estimator(query, api_db) == first

    def test_acceptance_routes_differ_between_path_and_cyclic(self, api_db):
        """ISSUE acceptance: Cycle-3/Clique-4 route differently from Path-2."""
        session = Session(api_db)
        path_route = session.explain("path3").decision.chosen
        cycle_route = session.explain("cycle3").decision.chosen
        clique_route = session.explain("clique4").decision.chosen
        assert path_route == "ctj"          # small/acyclic → software CTJ
        assert cycle_route == "triejax"     # heavy cyclic → accelerator model
        assert clique_route == "triejax"
        assert path_route != cycle_route

    def test_routing_estimates_cover_every_engine(self, api_db):
        session = Session(api_db)
        decision = session.explain("cycle4").decision
        assert {est.engine for est in decision.estimates} == set(session.engine_names())
        chosen = decision.estimate_for(decision.chosen)
        eligible_costs = [e.cost_ns for e in decision.estimates if e.eligible]
        assert chosen.cost_ns == min(eligible_costs)

    def test_repeated_variable_query_routes_to_naive(self, api_db):
        loops = ConjunctiveQuery("loops", ("x",), [Atom("E", ("x", "x"))])
        session = Session(api_db)
        decision = session.explain(Statement.from_query(loops)).decision
        assert decision.chosen == "naive"
        triejax_estimate = decision.estimate_for("triejax")
        assert not triejax_estimate.eligible
        result = session.execute(Statement.from_query(loops))
        oracle = NaiveJoin().run(loops, session.database)
        assert result.to_set() == oracle.as_set()

    def test_no_eligible_engine_raises(self, api_db):
        loops = ConjunctiveQuery("loops", ("x",), [Atom("E", ("x", "x"))])
        session = Session(api_db, engines=("ctj", "triejax"))
        with pytest.raises(ValueError):
            session.execute(loops)

    def test_pinned_route_unknown_engine_raises(self, api_db):
        session = Session(api_db, engines=("ctj",))
        with pytest.raises(KeyError):
            session.execute("cycle3", route="lftj")

    def test_router_is_deterministic(self, api_db):
        router = CostRouter()
        session = Session(api_db)
        first = router.choose(pattern_query("cycle4"), api_db, session.engines)
        second = router.choose(pattern_query("cycle4"), api_db, session.engines)
        assert first == second

    def test_auto_route_memoised_until_catalog_mutates(self, api_db):
        calls = []

        class SpyRouter(CostRouter):
            def choose(self, query, database, engines):
                calls.append(query.name)
                return super().choose(query, database, engines)

        session = fresh_session(api_db, router=SpyRouter())
        session.execute("cycle3")
        session.execute("cycle3")
        session.execute("q(a,b,c) = E(a,b), E(b,c), E(c,a).")  # α-equivalent
        assert len(calls) == 1  # one decision per canonical signature
        session.insert("E", [(8101, 8102)])  # statistics changed
        session.execute("cycle3")
        assert len(calls) == 2


# --------------------------------------------------------------------------- #
# Session execution + ResultSet laziness
# --------------------------------------------------------------------------- #
class TestSessionExecute:
    @pytest.mark.parametrize("name", ["path3", "path4", "cycle3", "cycle4", "clique4"])
    def test_auto_route_matches_naive_oracle(self, api_db, name):
        """ISSUE acceptance: auto-routed results equal the oracle on Table 1."""
        session = Session(api_db)
        result = session.execute(name, route="auto")
        oracle = NaiveJoin().run(pattern_query(name), api_db)
        assert result.to_set() == oracle.as_set()

    def test_resultset_is_lazy_and_memoised(self, api_db):
        calls = []

        class CountingEngine(EngineProtocol):
            name = "counting"

            def execute(self, query, database, plan=None):
                from repro.api.engines import EngineExecution

                calls.append(query.name)
                return EngineExecution(tuples=[(1, 2)], cost=1.0, plan_used=False)

        session = fresh_session(api_db, engines=(CountingEngine(),))
        result = session.execute("path3", route="counting")
        assert isinstance(result, ResultSet)
        assert not result.executed
        assert calls == []  # nothing ran yet
        assert result.to_list() == [(1, 2)]
        assert result.executed
        assert list(result) == [(1, 2)]
        assert len(result) == 1
        assert calls == ["path3"]  # executed exactly once

    def test_repeat_statement_replays_from_result_cache(self, api_db):
        session = fresh_session(api_db)
        first = session.execute("cycle3")
        assert not first.from_cache
        second = session.execute("cycle3")
        assert second.from_cache
        assert second.to_list() == first.to_list()
        assert second.cost < first.cost

    def test_alpha_equivalent_statements_compile_once(self, api_db):
        session = fresh_session(api_db, engines=("ctj",))
        session.execute("q(a,b,c) = E(a,b), E(b,c), E(c,a).").to_list()
        assert session.plan_cache.stats.insertions == 1
        session.insert("E", [(9001, 9002)])  # drop the cached result, keep the plan
        session.execute("tri(p,q,r) = E(p,q), E(q,r), E(r,p).").to_list()
        assert session.plan_cache.stats.insertions == 1
        assert session.plan_cache.stats.hits == 1

    def test_mutation_invalidates_session_results(self, api_db):
        session = fresh_session(api_db)
        before = session.execute("path3").to_set()
        session.insert("E", [(5001, 5002), (5002, 5003)])
        after = session.execute("path3")
        assert not after.from_cache
        assert (5001, 5002, 5003) in after.to_set()
        assert before < after.to_set()

    def test_unknown_relation_rejected(self, api_db):
        session = Session(api_db)
        with pytest.raises(KeyError):
            session.execute(Statement.pattern("cycle3", edge_relation="missing"))

    def test_explain_compiles_but_does_not_execute(self, api_db):
        session = fresh_session(api_db)
        explanation = session.explain("cycle4")
        assert explanation.plan is not None
        assert explanation.decision.chosen in session.engine_names()
        assert explanation.estimated_cost_ns > 0
        text = explanation.describe()
        assert "chosen engine" in text and "cost" in text
        assert session.result_cache.stats.lookups == 0  # nothing executed

    def test_close_detaches_from_shared_catalog(self):
        database = workload_database(num_vertices=40, num_edges=180, seed=5)
        baseline = len(database._invalidation_listeners)
        with Session(database, engines=("ctj",)) as session:
            session.execute("cycle3").to_list()
            # The pipeline's cache listener plus the session's own.
            assert len(database._invalidation_listeners) > baseline
        assert len(database._invalidation_listeners) == baseline
        session.close()  # idempotent

    def test_durable_session_rejects_replication(self, tmp_path):
        # open_store never persists replicas; silently dropping the factor
        # would leave retries with no replica to move to.
        with pytest.raises(ValueError, match="do not persist replicas"):
            Session(storage_dir=str(tmp_path), shards=2, replication_factor=2)

    def test_sql_statement_executes_end_to_end(self, api_db):
        session = fresh_session(api_db)
        result = session.execute("SELECT * FROM E AS a, E AS b WHERE a.dst = b.src")
        oracle = NaiveJoin().run(pattern_query("path3"), session.database)
        assert result.to_set() == oracle.as_set()


# --------------------------------------------------------------------------- #
# Plan-cache accounting for plan-blind engines (satellite regression)
# --------------------------------------------------------------------------- #
class TestPlanBlindAccounting:
    def test_session_naive_path_never_touches_plan_cache(self, api_db):
        session = fresh_session(api_db, engines=("naive",))
        first = session.execute("cycle3", route="naive")
        first.to_list()
        second_db_state = session.execute("cycle3", route="naive")
        second_db_state.to_list()
        assert session.plan_cache.stats.lookups == 0
        assert session.plan_cache.stats.hits == 0
        assert len(session.plan_cache) == 0

    def test_service_naive_path_records_no_plan_hit(self):
        service = QueryService(
            workload_database(num_vertices=40, num_edges=180, seed=5),
            backends=("naive",),
            seed=1,
        )
        query = pattern_query("cycle3")
        service.serve(query)
        service.insert_tuples("E", [(7001, 7002)])  # force a re-execution
        outcome = service.serve(query)
        assert not outcome.record.plan_cache_hit
        assert service.plan_cache.stats.lookups == 0
        assert service.plan_cache.stats.hits == 0

    def test_plan_aware_engine_ignoring_plan_is_not_a_hit(self, api_db):
        from repro.api.engines import EngineExecution

        class AmnesiacEngine(EngineProtocol):
            """Claims plan support but never consumes the plan it is given."""

            name = "amnesiac"

            def __init__(self):
                from repro.api.engines import EngineCapabilities

                self.capabilities = EngineCapabilities(supports_plans=True)

            def execute(self, query, database, plan=None):
                result = NaiveJoin().run(query, database)
                return EngineExecution(
                    tuples=result.tuples, cost=1.0, plan_used=False
                )

        service = QueryService(
            workload_database(num_vertices=40, num_edges=180, seed=5),
            backends=(AmnesiacEngine(),),
            seed=1,
        )
        query = pattern_query("cycle3")
        service.serve(query)
        service.insert_tuples("E", [(7101, 7102)])
        outcome = service.serve(query)
        # The cache *was* consulted (the engine claims plan support), but a
        # backend that reports plan_used=False must not be credited.
        assert service.plan_cache.stats.hits == 1
        assert not outcome.record.plan_cache_hit


# --------------------------------------------------------------------------- #
# Session.serve: delegation to the service layer with shared caches
# --------------------------------------------------------------------------- #
class TestSessionServe:
    def test_serve_spec_returns_outcomes(self, api_db):
        from repro.service import WorkloadSpec

        session = fresh_session(api_db, engines=("ctj", "triejax"), seed=11)
        outcomes = session.serve(WorkloadSpec(num_queries=40, mode="closed"))
        assert len(outcomes) == 40
        report = session.report()
        assert "requests completed   : 40" in report

    def test_execute_and_serve_share_the_result_cache(self, api_db):
        from repro.service import WorkloadRequest

        session = fresh_session(api_db, engines=("ctj",))
        session.execute("cycle3").to_list()  # populate via the direct path
        request = WorkloadRequest(
            query=pattern_query("cycle3"), priority="normal",
            arrival_time=0.0, backend=None,
        )
        outcomes = session.serve([request])
        record = next(iter(outcomes.values())).record
        assert record.result_cache_hit  # served from the session's cache

    def test_cost_routed_service_uses_statistics_routing(self, api_db):
        from repro.service import WorkloadRequest

        session = fresh_session(api_db, engines=("ctj", "triejax"), routing="auto")
        requests = [
            WorkloadRequest(pattern_query(name), "normal", 0.0, None)
            for name in ("path3", "cycle3", "clique4", "path4")
        ]
        outcomes = session.serve(requests)
        backends = {o.record.query_name: o.record.backend for o in outcomes.values()}
        assert backends["path3"] == "ctj"
        assert backends["path4"] == "ctj"
        assert backends["cycle3"] == "triejax"
        assert backends["clique4"] == "triejax"

    def test_rotate_mode_keeps_round_robin(self, api_db):
        from repro.service import WorkloadRequest

        session = fresh_session(api_db, engines=("lftj", "ctj"), routing="rotate")
        requests = [
            WorkloadRequest(pattern_query("cycle3"), "normal", 0.0, None),
            WorkloadRequest(pattern_query("path3"), "normal", 0.0, None),
        ]
        outcomes = session.serve(requests)
        used = sorted(o.record.backend for o in outcomes.values())
        assert used == ["ctj", "lftj"]
