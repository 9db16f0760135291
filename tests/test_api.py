"""Tests for the public API surface (``repro.api``).

Covers the tentpole pieces of the Session/Statement/ResultSet redesign:
the unified engine protocol and single registry, statement identity across
the three front-ends, lazy result sets, ``"auto"`` routing over a fixed
software-engine order, cache accounting (including the plan-blind
regression), and the acceptance scenario.
"""

import itertools

import pytest

from repro.api import (
    ENGINE_FACTORIES,
    EngineCapabilities,
    EngineExecution,
    EngineProtocol,
    ResultSet,
    Session,
    Statement,
    TrieJaxAccelerator,
    coerce_statement,
    create_engine,
    engine_names,
    register_engine,
)
from repro.api.routing import Router
from repro.graphs import pattern_query
from repro.joins import CachedTrieJoin, GenericJoin, LeapfrogTrieJoin, NaiveJoin, PairwiseJoin
from repro.relational.query import Atom, ConjunctiveQuery
from repro.relational.statistics import is_cyclic
from repro.service import QueryService, workload_database

#: The paper's Table 1 patterns.
TABLE1_PATTERNS = ("path3", "path4", "cycle3", "cycle4", "clique4")

#: The order ``"auto"`` walks, best first (measured: CHANGES.md).
SOFTWARE_ORDER = ("lftj", "ctj", "generic", "pairwise")

#: Every non-empty set of built-in engines, as sorted name tuples.
ENGINE_SUBSETS = [
    subset
    for size in range(1, 7)
    for subset in itertools.combinations(
        ("ctj", "generic", "lftj", "naive", "pairwise", "triejax"), size
    )
]


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
        # The deprecated alias module was removed; repro.engines is the one
        # registry.
        with pytest.raises(ModuleNotFoundError):
            import repro.service.engines  # noqa: F401

    def test_api_engines_alias_is_gone(self):
        # The registry's historical import path; repro.api exports the names.
        with pytest.raises(ModuleNotFoundError):
            import repro.api.engines  # noqa: F401

    def test_cli_has_no_private_engine_table(self):
        import repro.cli as cli

        assert not hasattr(cli, "_ENGINES")

    def test_every_builtin_engine_resolves_and_declares_capabilities(self):
        classes = {
            "naive": NaiveJoin,
            "lftj": LeapfrogTrieJoin,
            "ctj": CachedTrieJoin,
            "generic": GenericJoin,
            "pairwise": PairwiseJoin,
            "triejax": TrieJaxAccelerator,
        }
        for name, cls in classes.items():
            engine = create_engine(name)
            # The algorithm (or the accelerator model) is the engine itself.
            assert type(engine) is cls
            assert isinstance(engine, EngineProtocol)
            assert engine.name == name
            assert isinstance(engine.capabilities, EngineCapabilities)
            # The naive oracle and the pairwise engine turn R(x, x) into a
            # selection; the trie joins and the model reject it.
            assert engine.capabilities.supports_repeated_vars == (
                name in ("naive", "pairwise")
            )

    def test_unknown_engine_rejected(self):
        with pytest.raises(KeyError):
            create_engine("warp-drive")

    def test_registration_is_visible_everywhere(self, api_db):
        class EchoEngine(EngineProtocol):
            name = "echo"

            def execute(self, query, database, plan=None):
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
# "auto": a fixed software-engine order
# --------------------------------------------------------------------------- #
class TestRouting:
    def test_cyclicity_classification(self):
        assert not is_cyclic(pattern_query("path3"))
        assert not is_cyclic(pattern_query("path4"))
        assert not is_cyclic(pattern_query("star3"))
        assert is_cyclic(pattern_query("cycle3"))
        assert is_cyclic(pattern_query("cycle4"))
        assert is_cyclic(pattern_query("clique4"))

    @pytest.mark.parametrize("engines", ENGINE_SUBSETS, ids="+".join)
    @pytest.mark.parametrize("name", TABLE1_PATTERNS)
    def test_auto_runs_the_first_configured_engine_of_the_order(self, api_db, name, engines):
        """``triejax`` (other hardware) and ``naive`` (the oracle) run only
        when pinned: with any engine of the order configured, ``"auto"``
        takes the first one; with none, it refuses and asks for a pin."""
        session = Session(api_db, engines=engines)
        try:
            expected = next((e for e in SOFTWARE_ORDER if e in engines), None)
            if expected is None:
                with pytest.raises(ValueError, match="pin one"):
                    session.explain(name)
            else:
                assert session.explain(name).decision.chosen == expected
        finally:
            session.close()

    def test_repeated_variable_query_routes_to_pairwise(self, api_db):
        session = Session(api_db)
        loops = ConjunctiveQuery("loops", ("x",), [Atom("E", ("x", "x"))])
        looped = ConjunctiveQuery(
            "looped", ("x", "y"), [Atom("E", ("x", "x")), Atom("E", ("x", "y"))]
        )
        for query in (loops, looped):
            decision = session.explain(Statement.from_query(query)).decision
            assert decision.chosen == "pairwise"
            result = session.execute(Statement.from_query(query))
            oracle = NaiveJoin().execute(query, session.database)
            assert result.backend == "pairwise"
            assert result.to_set() == set(oracle.tuples)

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
        router = Router()
        session = Session(api_db)
        first = router.choose(pattern_query("cycle4"), session.engines)
        second = router.choose(pattern_query("cycle4"), session.engines)
        assert first == second

    @pytest.mark.parametrize("engine", ["lftj", "ctj", "generic", "pairwise", "naive", "triejax"])
    def test_a_named_route_goes_through_router_pinned(self, api_db, engine):
        session = fresh_session(api_db, engines=(engine,))
        router = session.router
        inner = router.pinned
        calls = []

        def spy(engine_name, engines):
            calls.append(engine_name)
            return inner(engine_name, engines)

        router.pinned = spy  # shadowed on the instance, as perf/spans.py does
        assert session.execute("path3", route=engine).backend == engine
        assert session.explain("path3", route=engine).decision.chosen == engine
        assert calls == [engine, engine]


# --------------------------------------------------------------------------- #
# Session execution + ResultSet laziness
# --------------------------------------------------------------------------- #
class TestSessionExecute:
    @pytest.mark.parametrize("name", TABLE1_PATTERNS)
    def test_auto_route_matches_naive_oracle(self, api_db, name):
        """Auto-routed results equal the oracle on Table 1 (on lftj, not
        the cycle-level model)."""
        session = Session(api_db)
        result = session.execute(name, route="auto")
        oracle = NaiveJoin().execute(pattern_query(name), api_db)
        assert result.to_set() == set(oracle.tuples)
        assert result.backend == "lftj"

    def test_resultset_is_lazy_and_memoised(self, api_db):
        calls = []

        class CountingEngine(EngineProtocol):
            name = "counting"

            def execute(self, query, database, plan=None):
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
        assert explanation.decision.chosen == "lftj"
        text = explanation.describe()
        assert "query shape     : cyclic" in text
        assert "chosen engine   : lftj" in text
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
        oracle = NaiveJoin().execute(pattern_query("path3"), session.database)
        assert result.to_set() == set(oracle.tuples)


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
        class AmnesiacEngine(EngineProtocol):
            """Claims plan support but never consumes the plan it is given."""

            name = "amnesiac"

            def __init__(self):
                self.capabilities = EngineCapabilities(supports_plans=True)

            def execute(self, query, database, plan=None):
                result = NaiveJoin().execute(query, database)
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

    def test_auto_routed_service_follows_the_fixed_order(self, api_db):
        from repro.service import WorkloadRequest

        session = fresh_session(
            api_db, engines=("triejax", "pairwise", "ctj"), routing="auto"
        )
        loops = ConjunctiveQuery("loops", ("x",), [Atom("E", ("x", "x"))])
        requests = [
            WorkloadRequest(query, "normal", 0.0, None)
            for query in [pattern_query(name) for name in TABLE1_PATTERNS] + [loops]
        ]
        outcomes = session.serve(requests)
        backends = {o.record.query_name: o.record.backend for o in outcomes.values()}
        # ctj precedes pairwise in the order; triejax is never routed to.
        assert backends == {**dict.fromkeys(TABLE1_PATTERNS, "ctj"), "loops": "pairwise"}

    def test_auto_routing_beats_rotation_in_virtual_time(self, api_db):
        """Rotation keeps feeding the materialising pairwise engine; the
        fixed order never picks it over CTJ, so the served virtual
        makespan drops."""
        from repro.service import WorkloadSpec, generate_requests

        requests = generate_requests(
            WorkloadSpec(num_queries=80, mode="closed", rename_fraction=0.0), seed=2020
        )

        def makespan(routing):
            session = fresh_session(
                api_db, engines=("ctj", "pairwise"), seed=2020, routing=routing
            )
            session.serve(requests)
            return session.service.metrics.makespan

        assert makespan("auto") < makespan("rotate")

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

    @pytest.mark.parametrize("routing", ["auto", "rotate"])
    def test_engine_added_after_the_service_reaches_it(self, api_db, routing):
        session = fresh_session(api_db, engines=("ctj",), routing=routing)
        service = session.service  # built before the engine arrives
        session.add_engine(create_engine("lftj"))
        assert session.service is service
        assert service.serve(pattern_query("path3"), backend="lftj").record.backend == "lftj"
        served = {
            service.serve(pattern_query(name)).record.backend for name in ("cycle3", "clique4")
        }
        # LFTJ heads the fixed order; rotation takes both.
        assert served == ({"lftj"} if routing == "auto" else {"lftj", "ctj"})
