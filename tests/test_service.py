"""Tests for the query-serving subsystem (``repro.service``)."""

import os
import subprocess
import sys

import pytest

from repro.engines import create_engine as create_backend
from repro.graphs import pattern_query
from repro.joins import NaiveJoin, QueryCompiler
from repro.joins.compiler import canonical_signature
from repro.relational.query import Atom, ConjunctiveQuery
from repro.service import (
    AdmissionController,
    LRUCache,
    QueryService,
    ResultCache,
    WorkloadSpec,
    alpha_rename,
    generate_requests,
    run_workload,
    workload_database,
)


# --------------------------------------------------------------------------- #
# Import order
# --------------------------------------------------------------------------- #
class TestImportOrder:
    @pytest.mark.parametrize(
        "statement",
        [
            "from repro.service import QueryService",
            "import repro.service.metrics",
            # The engine registry sits below both packages: the service
            # layer must load without pulling the API package in.
            "import repro.service.scatter, sys; assert 'repro.api' not in sys.modules",
            "import repro.eval",
            # The paper's tables and figures load without the service layer.
            "import repro.eval.experiments, sys; assert 'repro.service' not in sys.modules",
            "import repro.storage",
        ],
    )
    def test_service_imports_first_in_a_fresh_process(self, statement):
        # Every other test module has imported repro.api by now, so only a
        # fresh interpreter sees these packages as the first repro import.
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        completed = subprocess.run(
            [sys.executable, "-c", statement],
            env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr


# --------------------------------------------------------------------------- #
# Canonicalization hooks (compiler)
# --------------------------------------------------------------------------- #
class TestCanonicalization:
    def test_alpha_equivalent_queries_share_signature(self):
        original = pattern_query("cycle3")
        renamed = alpha_rename(original, 42)
        assert renamed.variables != original.variables
        assert canonical_signature(original) == canonical_signature(renamed)

    def test_query_name_is_erased(self):
        a = ConjunctiveQuery("one", ("x", "y"), [Atom("E", ("x", "y"))])
        b = ConjunctiveQuery("two", ("p", "q"), [Atom("E", ("p", "q"))])
        assert canonical_signature(a) == canonical_signature(b)

    def test_different_structure_different_signature(self):
        assert canonical_signature(pattern_query("cycle3")) != canonical_signature(
            pattern_query("path3")
        )
        projected = ConjunctiveQuery("p", ("x",), [Atom("E", ("x", "y"))])
        full = ConjunctiveQuery("f", ("x", "y"), [Atom("E", ("x", "y"))])
        assert canonical_signature(projected) != canonical_signature(full)

    def test_canonical_plan_matches_direct_plan_structurally(self):
        compiler = QueryCompiler()
        query = pattern_query("path4")
        signature, canonical, plan = compiler.compile_canonical(query)
        assert signature == canonical_signature(query)
        direct = compiler.compile(query)
        # Same variable-order structure: position-wise renamed variables.
        mapping = {v: c for v, c in zip(query.variables, canonical.variables)}
        assert tuple(mapping[v] for v in direct.variable_order) == plan.variable_order

    def test_canonical_results_match_original(self, small_community_db):
        compiler = QueryCompiler()
        engine = create_backend("lftj")
        query = alpha_rename(pattern_query("cycle3"), 9)
        _, canonical, plan = compiler.compile_canonical(query)
        via_canonical = engine.execute(canonical, small_community_db, plan=plan)
        oracle = NaiveJoin().execute(query, small_community_db)
        assert set(via_canonical.tuples) == set(oracle.tuples)


# --------------------------------------------------------------------------- #
# LRU caches
# --------------------------------------------------------------------------- #
class TestLRUCache:
    def test_eviction_order_is_lru(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" becomes LRU
        cache.put("c", 3)
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.stats.evictions == 1

    def test_hit_miss_counters(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.stats.lookups == 2
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_result_cache_invalidates_by_relation(self):
        cache = ResultCache(capacity=8)
        cache.put_result("q1", [(1,)], ["E"])
        cache.put_result("q2", [(2,)], ["F"])
        cache.put_result("q3", [(3,)], ["E", "F"])
        dropped = cache.invalidate_relation("E")
        assert dropped == 2
        assert "q1" not in cache and "q3" not in cache and "q2" in cache
        assert cache.stats.invalidations == 2
        assert cache.invalidate_relation("E") == 0  # dependency index cleaned

    def test_result_cache_eviction_cleans_dependency_index(self):
        cache = ResultCache(capacity=1)
        cache.put_result("q1", [(1,)], ["E"])
        cache.put_result("q2", [(2,)], ["E"])  # evicts q1
        assert cache.stats.evictions == 1
        assert cache.invalidate_relation("E") == 1  # only q2 left to drop


# --------------------------------------------------------------------------- #
# Admission control
# --------------------------------------------------------------------------- #
class TestAdmissionController:
    def test_caps_in_flight_and_queues(self):
        controller = AdmissionController(max_in_flight=2, seed=1)
        assert controller.submit("r1") == "admitted"
        assert controller.submit("r2") == "admitted"
        assert controller.submit("r3") == "queued"
        assert controller.next_request() is None  # no free slot
        controller.release()
        assert controller.next_request() == "r3"

    def test_bounded_queue_rejects(self):
        controller = AdmissionController(max_in_flight=1, max_queue_depth=1, seed=1)
        assert controller.submit("r1") == "admitted"
        assert controller.submit("r2") == "queued"
        assert controller.submit("r3") == "rejected"
        assert controller.stats.rejected == 1

    def test_dispatch_order_reproducible_for_equal_seeds(self):
        def dispatch_order(seed):
            controller = AdmissionController(max_in_flight=1, seed=seed)
            controller.submit("running")
            for index, priority in enumerate(["low", "high", "normal"] * 5):
                controller.submit(f"{priority}-{index}", priority)
            order = []
            for _ in range(15):
                controller.release()
                order.append(controller.next_request())
            return order

        assert dispatch_order(7) == dispatch_order(7)

    def test_lottery_favours_high_priority(self):
        controller = AdmissionController(max_in_flight=1, seed=3)
        controller.submit("running")
        for index in range(20):
            controller.submit(f"high-{index}", "high")
            controller.submit(f"low-{index}", "low")
        first_ten = []
        for _ in range(10):
            controller.release()
            first_ten.append(controller.next_request())
        high_share = sum(1 for name in first_ten if name.startswith("high"))
        assert high_share >= 7

    def test_release_without_admission_raises(self):
        with pytest.raises(RuntimeError):
            AdmissionController(seed=1).release()


# --------------------------------------------------------------------------- #
# QueryService
# --------------------------------------------------------------------------- #
@pytest.fixture
def service_db():
    return workload_database(num_vertices=40, num_edges=180, seed=5)


class TestQueryService:
    def test_results_match_oracle(self, service_db):
        service = QueryService(service_db, backends=("lftj",), seed=1)
        query = pattern_query("cycle3")
        outcome = service.serve(query)
        oracle = NaiveJoin().execute(query, service_db)
        assert set(outcome.tuples) == set(oracle.tuples)

    def test_alpha_equivalent_queries_compile_exactly_once(self, service_db):
        compile_calls = []
        compiler = QueryCompiler()
        original_compile = compiler.compile

        def counting_compile(query, variable_order=None):
            compile_calls.append(query.name)
            return original_compile(query, variable_order)

        compiler.compile = counting_compile
        service = QueryService(
            service_db, backends=("lftj", "ctj"), compiler=compiler, seed=1
        )
        base = pattern_query("cycle3")
        for index in range(6):
            service.submit(alpha_rename(base, index))
        outcomes = service.drain()
        assert len(outcomes) == 6
        assert len(compile_calls) == 1  # one signature, one compilation
        reference = set(next(iter(outcomes.values())).tuples)
        assert all(set(o.tuples) == reference for o in outcomes.values())

    def test_plan_cache_hit_after_result_invalidation(self, service_db):
        service = QueryService(service_db, backends=("ctj",), seed=1)
        query = pattern_query("path3")
        service.serve(query)
        assert service.plan_cache.stats.hits == 0
        service.insert_tuples("E", [(997, 998)])  # drops the cached result
        outcome = service.serve(query)
        assert service.plan_cache.stats.hits == 1  # replan avoided, re-executed
        assert service.result_cache.stats.invalidations >= 1
        assert (997, 998) not in outcome.tuples  # path endpoints, not edges

    def test_result_cache_invalidation_on_catalog_mutation(self, service_db):
        service = QueryService(service_db, backends=("lftj",), seed=1)
        query = pattern_query("path3")
        before = service.serve(query)
        # A fresh 2-path through two brand-new vertices must appear.
        service.insert_tuples("E", [(1001, 1002), (1002, 1003)])
        after = service.serve(query)
        assert not after.record.result_cache_hit
        assert (1001, 1002, 1003) in set(after.tuples)
        assert set(before.tuples) < set(after.tuples)
        oracle = NaiveJoin().execute(query, service_db)
        assert set(after.tuples) == set(oracle.tuples)

    def test_repeat_query_hits_result_cache(self, service_db):
        service = QueryService(service_db, backends=("lftj",), seed=1)
        query = pattern_query("cycle3")
        first = service.serve(query)
        second = service.serve(query)
        assert not first.record.result_cache_hit
        assert second.record.result_cache_hit
        assert second.record.service_time < first.record.service_time
        assert second.tuples == first.tuples

    def test_unknown_backend_rejected_at_submit(self, service_db):
        service = QueryService(service_db, backends=("lftj",), seed=1)
        with pytest.raises(KeyError):
            service.submit(pattern_query("cycle3"), backend="triejax")

    def test_plan_blind_backend_served(self, service_db):
        service = QueryService(service_db, backends=("naive",), seed=1)
        outcome = service.serve(pattern_query("cycle3"))
        assert not outcome.record.plan_cache_hit and not outcome.record.compiled
        assert len(service.plan_cache) == 0
        assert outcome.cardinality > 0

    def test_bounded_queue_rejections_surface(self, service_db):
        service = QueryService(
            service_db,
            backends=("lftj",),
            max_in_flight=1,
            max_queue_depth=2,
            seed=1,
        )
        for _ in range(6):
            service.submit(pattern_query("cycle3"), arrival_time=0.0)
        outcomes = service.drain()
        assert len(service.rejected_requests) == 3  # 1 in flight + 2 queued kept
        assert len(outcomes) == 3
        assert set(service.rejected_requests).isdisjoint(outcomes)


# --------------------------------------------------------------------------- #
# Workload driver + end-to-end acceptance
# --------------------------------------------------------------------------- #
class TestWorkload:
    def test_generation_is_deterministic(self):
        spec = WorkloadSpec(num_queries=50, mode="mixed")
        a = generate_requests(spec, seed=11)
        b = generate_requests(spec, seed=11)
        assert [(r.query.to_datalog(), r.priority, r.arrival_time, r.backend) for r in a] == [
            (r.query.to_datalog(), r.priority, r.arrival_time, r.backend) for r in b
        ]

    def test_open_loop_arrivals_increase(self):
        requests = generate_requests(
            WorkloadSpec(num_queries=20, mode="open", arrival_rate=0.01), seed=3
        )
        arrivals = [r.arrival_time for r in requests]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] > 0.0 and len(set(arrivals)) == len(arrivals)

    def test_closed_loop_is_backlog(self):
        requests = generate_requests(WorkloadSpec(num_queries=10, mode="closed"), seed=3)
        assert all(r.arrival_time == 0.0 for r in requests)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(num_queries=0)
        with pytest.raises(ValueError):
            WorkloadSpec(mode="sideways")
        with pytest.raises(ValueError):
            WorkloadSpec(rename_fraction=1.5)

    def test_mixed_workload_acceptance(self, service_db):
        """The ISSUE acceptance scenario: ≥100 queries over ≥2 backends."""
        service = QueryService(
            service_db, backends=("lftj", "ctj"), max_in_flight=4, seed=11
        )
        spec = WorkloadSpec(num_queries=120, mode="mixed", rename_fraction=0.5)
        outcomes = run_workload(service, generate_requests(spec, seed=7))
        assert len(outcomes) == 120
        assert service.metrics.completed == 120
        backends_used = set(service.metrics.by_backend())
        assert backends_used == {"lftj", "ctj"}
        # Five distinct patterns → exactly five compilations, ever.
        assert service.metrics.total().compiles == len(WorkloadSpec().queries)
        assert service.result_cache.stats.hit_rate > 0.5
        report = service.report()
        assert "result-cache hit rate" in report
        assert "plan cache" in report and "queue wait" in report

    def test_metrics_reproducible_across_runs(self, service_db):
        def run_once():
            database = workload_database(num_vertices=40, num_edges=180, seed=5)
            service = QueryService(
                database, backends=("lftj", "ctj"), max_in_flight=3, seed=11
            )
            spec = WorkloadSpec(num_queries=60, mode="mixed")
            run_workload(service, generate_requests(spec, seed=7))
            return [
                (r.request_id, r.start_time, r.finish_time, r.backend)
                for r in service.metrics.records
            ]

        assert run_once() == run_once()

    def test_triejax_backend_serves_workload(self, service_db):
        service = QueryService(service_db, backends=("triejax",), seed=2)
        spec = WorkloadSpec(num_queries=8, mode="closed", queries=("cycle3", "path3"))
        outcomes = run_workload(service, generate_requests(spec, seed=4))
        assert len(outcomes) == 8
        oracle = NaiveJoin().execute(pattern_query("cycle3"), service_db)
        cycle3_records = [
            o for o in outcomes.values() if o.record.signature.count(";") == 2
        ]
        assert any(set(o.tuples) == set(oracle.tuples) for o in cycle3_records)
