"""Incremental view maintenance (:mod:`repro.service.maintenance`).

Three layers of contract:

* **Counters** — the result cache's ``invalidations`` split into ``drops``
  vs ``patches``: zero/empty edge cases, the derived sum, and the
  patch-or-drop fallback ladder a read walks (no recorded query, solver
  ``None``, solver exception → drop; never a wrong answer).
* **Equivalence** — a Zipf update-heavy workload served by the pipeline's
  maintainer returns byte-identical per-request results to a
  drop-and-recompute control (:func:`recompute_control`), across engines ×
  shard counts × execution backends, while actually patching (not
  silently dropping).
* **Modelled cost** — on the same stream, Σ ``service_time`` (each read
  charged the delta joins its patches ran) is below Σ ``service_time``
  under the control, and the maintainer's charge is exactly the engine
  cost of the delta joins run.
* **Continuous queries** — :meth:`repro.api.Session.subscribe` returns a
  snapshot each poll catches up: patched additions for insert batches,
  full re-execute diffs (including removals) for relation redefinitions.
* **Maintain on read** — an insert only logs its rows: each cached entry
  runs one delta join per read that finds it behind, however many events
  it missed, and none when it is evicted unread; a subscription is one
  more reader and runs one per poll; the log truncates below the oldest
  live entry or subscription; an entry whose backlog outgrew its relation
  drops instead of patching; and the first settle of a published list is
  the sorted set union.

``REPRO_CONCURRENCY_REPEATS`` (CI's ivm job sets it > 1) re-runs the
equivalence matrix so scheduling-dependent races get multiple chances to
surface while the default local run stays fast.
"""

import os

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.joins.delta as delta_module
import repro.relational.catalog as catalog_module
import repro.service.maintenance as maintenance_module
from repro.api import ResultDelta, Session
from repro.engines import create_engine
from repro.graphs import pattern_query
from repro.joins.delta import DELTA_SUFFIX, DeltaCatalog, DeltaResult
from repro.joins.stats import JoinStats
from repro.relational import Database, DeltaBatch, MutationEvent, Relation, Schema
from repro.relational.query import Atom, ConjunctiveQuery
from repro.relational.sharding import shard_database
from repro.relational.trie import TrieIndex
from repro.service import (
    QueryPipeline,
    QueryService,
    ResultCache,
    ResultMaintainer,
    WorkloadSpec,
    generate_requests,
    run_workload,
    workload_database,
)
from repro.service.maintenance import InsertLog
from repro.service.scatter import partial_key
from repro.storage import open_store

#: Seeded repeats of the equivalence matrix (CI sets this higher).
REPEATS = max(1, int(os.environ.get("REPRO_CONCURRENCY_REPEATS", "1")))

SEED = 2020


def insert_event(rows, shard=None):
    return MutationEvent(
        "E", shard=shard, delta=DeltaBatch.from_rows(rows), kind="insert"
    )


def attached_cache(solver, capacity=4):
    """A result cache patched on read from a fresh log through ``solver``."""
    cache = ResultCache(capacity=capacity)
    log = InsertLog()
    cache.attach(log, solver)
    return cache, log


@pytest.fixture
def delta_calls(monkeypatch):
    """The query name of every ``evaluate_delta`` call, in call order.

    Both names are counted: the maintainer calls its module's, the scatter
    executor looks it up in ``repro.joins.delta`` at each call.
    """
    calls = []
    for module in (maintenance_module, delta_module):
        def counted(query, view, engine, planner, _inner=module.evaluate_delta):
            calls.append(query.name)
            return _inner(query, view, engine, planner)

        monkeypatch.setattr(module, "evaluate_delta", counted)
    return calls


# --------------------------------------------------------------------------- #
# Counter contracts: drops vs patches
# --------------------------------------------------------------------------- #
class TestCacheCounters:
    def test_fresh_cache_counters_are_zero(self):
        stats = ResultCache(capacity=4).stats
        assert (stats.drops, stats.patches, stats.invalidations) == (0, 0, 0)
        as_dict = stats.as_dict()
        assert as_dict["drops"] == 0 and as_dict["patches"] == 0

    def test_invalidations_is_the_derived_sum(self):
        cache = ResultCache(capacity=4)
        cache.stats.drops = 3
        cache.stats.patches = 2
        assert cache.stats.invalidations == 5
        assert cache.stats.as_dict()["invalidations"] == 5

    def test_patch_result_on_missing_key_is_a_noop(self):
        cache = ResultCache(capacity=4)
        assert cache.patch_result("absent", [(1, 2)]) is False
        assert cache.stats.patches == 0

    def test_patch_with_empty_delta_counts_but_changes_nothing(self):
        cache = ResultCache(capacity=4)
        cache.put_result("k", [(1, 2)], ["E"], query=pattern_query("cycle3"))
        assert cache.patch_result("k", []) is True
        assert cache.peek("k") == [(1, 2)]
        assert cache.stats.patches == 1 and cache.stats.drops == 0

    def test_patch_merges_by_set_union_sorted(self):
        cache = ResultCache(capacity=4)
        cache.put_result("k", [(3, 4), (1, 2)], ["E"], query=pattern_query("cycle3"))
        assert cache.patch_result("k", [(0, 0), (1, 2)])
        assert cache.peek("k") == [(0, 0), (1, 2), (3, 4)]

    def test_dependent_keys_are_sorted_and_per_relation(self):
        cache = ResultCache(capacity=8)
        cache.put_result("b", [], ["E"])
        cache.put_result("a", [], ["F", "E"])
        cache.put_result("c", [], ["F"])
        assert cache.dependencies_of("a") == ("F", "E")
        assert cache.dependent_keys(insert_event([(1, 2)])) == ("a", "b")
        # A shard's insert touches every entry of its relation.
        assert cache.dependent_keys(insert_event([(1, 2)], shard=0)) == ("a", "b")
        assert cache.dependent_keys(MutationEvent("other", kind="define")) == ()

    def test_a_read_patches_entries_with_queries_and_drops_the_rest(self):
        solved = []

        def solver(key, query, since, now):
            solved.append((key, since, now))
            return DeltaResult(((9, 9),), JoinStats(), 1, cost_ns=5.0)

        cache, log = attached_cache(solver, capacity=8)
        cache.put_result("with", [(1, 2)], ["E"], query=pattern_query("cycle3"))
        cache.put_result("without", [(1, 2)], ["E"])  # no query recorded
        cache.put_result("elsewhere", [(1, 2)], ["F"])
        log.append("E", [(9, 9)])
        assert cache.stats.patches == 0  # an insert only logs
        assert cache.get("with", 7.0) == [(1, 2), (9, 9)]
        assert cache.get("without") is None and "without" not in cache
        assert cache.get("elsewhere") == [(1, 2)]  # no row of F logged
        assert solved == [("with", 0, 7.0)]
        assert cache.stats.patches == 1 and cache.stats.drops == 1
        assert cache.maintenance_ns == 5.0
        assert cache.get("with") == [(1, 2), (9, 9)] and len(solved) == 1

    def test_solver_none_and_solver_exception_fall_back_to_drop(self):
        def boom(key, query, since, now):
            raise RuntimeError("boom")

        for solver, errors in ((lambda key, query, since, now: None, 0), (boom, 1)):
            cache, log = attached_cache(solver)
            cache.put_result("k", [(1, 2)], ["E"], query=pattern_query("cycle3"))
            log.append("E", [(9, 9)])
            assert cache.get("k") is None  # the drop makes the read a miss
            assert "k" not in cache
            assert (cache.stats.drops, cache.stats.misses) == (1, 1)
            # A raising solver degrades to the same drop, but is counted.
            assert cache.stats.solver_errors == errors
            assert cache.stats.as_dict()["solver_errors"] == errors
            summary = cache.stats.invalidation_summary()
            assert ("1 solver errors" in summary) == bool(errors)

    def test_solver_errors_reach_the_service_report_only_when_nonzero(self):
        service = QueryService(workload_database(num_vertices=12, num_edges=30, seed=SEED))
        before = service.serve(pattern_query("cycle3")).tuples
        assert "solver errors" not in service.report()

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        service.result_cache.solver = boom
        service.insert_tuples("E", [(0, 11), (11, 5)])
        assert service.result_cache.stats.solver_errors == 0  # logged only
        # The read's patch fails and degrades to a drop: the same read
        # recomputes, never a wrong answer.
        after = service.serve(pattern_query("cycle3")).tuples
        assert service.result_cache.stats.solver_errors == 1
        assert "1 drops, 0 patches, 1 solver errors" in service.report()
        assert set(before) <= set(after)

    def test_mode_validation(self):
        database = triangle_database()
        pipeline = QueryPipeline(database, maintenance="incremental")
        assert isinstance(pipeline.maintainer, ResultMaintainer)
        for mode in ("recompute", "magic"):
            with pytest.raises(ValueError, match="maintenance"):
                QueryPipeline(database, maintenance=mode)

    @pytest.mark.parametrize("kind", ("mono", "sharded", "durable"))
    def test_every_catalog_is_tracked_by_one_maintainer(self, kind, tmp_path):
        def catalog(name):
            database = triangle_database()
            if kind == "sharded":
                return shard_database(database, 2)
            if kind == "durable":
                store = open_store(str(tmp_path / name))
                store.add_relation(database.relation("E"))
                return store
            return database

        for owner in (Session(catalog("session")), QueryService(catalog("service"))):
            assert isinstance(owner.maintainer, ResultMaintainer)
            assert owner.maintainer is owner.pipeline.maintainer
            query = pattern_query("cycle3")
            cache = owner.pipeline.result_cache
            cache.put_result("k", [(1, 2, 3)], ["E"], query=query)
            owner.database.insert_into("E", [(3, 5)])
            assert owner.maintainer.reports[-1].patchable
            assert cache.peek("k") == [(1, 2, 3)] and cache.stats.patches == 1
            owner.close()
            if kind == "durable":
                owner.database.close()

    def test_patchable_requires_exact_insert(self):
        assert insert_event([(1, 2)]).patchable
        assert insert_event([]).patchable  # every submitted row was a duplicate
        assert insert_event([(3, 4), (1, 2)]).delta.rows == ((1, 2), (3, 4))
        assert not MutationEvent("E", kind="define").patchable


# --------------------------------------------------------------------------- #
# ResultMaintainer over a monolithic catalog
# --------------------------------------------------------------------------- #
def triangle_database():
    database = Database("maint")
    database.add_relation(
        Relation("E", Schema(("src", "dst")), [(1, 2), (2, 3), (3, 1), (4, 1)])
    )
    return database


class TestResultMaintainer:
    def test_patched_entry_matches_recompute(self):
        database = triangle_database()
        cache = ResultCache(capacity=8)
        maintainer = ResultMaintainer(database, cache)
        database.subscribe_invalidation(maintainer.on_mutation)
        query = pattern_query("cycle3")
        baseline = sorted(maintainer.engine.execute(query, database).tuples)
        cache.put_result("sig", baseline, ["E"], query=query)
        database.insert_into("E", [(2, 4), (4, 2), (5, 5)])
        recomputed = sorted(maintainer.engine.execute(query, database).tuples)
        assert cache.peek("sig") == recomputed
        report = maintainer.reports[-1]
        assert report.patchable and report.dropped == 0
        assert cache.stats.patches == 1
        assert maintainer.cost_ns > 0.0 and cache.maintenance_ns == maintainer.cost_ns

    def test_define_event_always_drops(self):
        database = triangle_database()
        cache = ResultCache(capacity=8)
        maintainer = ResultMaintainer(database, cache)
        database.subscribe_invalidation(maintainer.on_mutation)
        cache.put_result("sig", [(1, 2)], ["E"], query=pattern_query("cycle3"))
        database.replace_relation(
            Relation("E", Schema(("src", "dst")), [(7, 8)])
        )
        assert "sig" not in cache
        report = maintainer.reports[-1]
        assert not report.patchable and report.dropped >= 1


# --------------------------------------------------------------------------- #
# Workload equivalence: incremental ≡ recompute across the serving matrix
# --------------------------------------------------------------------------- #
ENGINES = ("lftj", "ctj", "generic")


def recompute_control(pipeline):
    """Rewire ``pipeline`` to drop-and-recompute, the oracle maintenance is
    held against: its maintainer stops tracking the catalog and every
    mutation drops each dependent result and shard partial, so the next
    read recomputes it from the mutated catalog."""
    pipeline.detach()
    pipeline.database.subscribe_invalidation(pipeline.result_cache.invalidate)
    if pipeline.scatter is not None:
        pipeline.database.subscribe_invalidation(pipeline.scatter.partial_cache.invalidate)


def update_heavy_spec(num_queries):
    return WorkloadSpec(
        num_queries=num_queries,
        mode="mixed",
        rename_fraction=0.5,
        update_fraction=0.3,
        update_domain=24,
        zipf_skew=1.1,
    )


def served_results(engine, shards, backend, requests, seed, control=False):
    database = workload_database(num_vertices=24, num_edges=90, seed=seed)
    session = Session(
        database,
        engines=(engine,),
        routing="rotate",
        shards=shards,
        execution_backend=backend,
        concurrency=2 if backend != "virtual" else 1,
        max_in_flight=4,
        seed=seed,
    )
    if control:
        recompute_control(session.pipeline)
    try:
        outcomes = run_workload(session.service, requests)
        results = {rid: sorted(o.tuples) for rid, o in outcomes.items()}
        stats = session.result_cache.stats
        return results, stats.patches, stats.drops
    finally:
        session.close()


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("repeat", range(REPEATS))
    @pytest.mark.parametrize("shards", (1, 2, 4), ids=("mono", "hash2", "hash4"))
    @pytest.mark.parametrize("engine", ENGINES)
    def test_incremental_matches_recompute(self, engine, shards, repeat):
        seed = SEED + repeat
        requests = generate_requests(update_heavy_spec(20), seed=seed)
        oracle, oracle_patches, _ = served_results(
            engine, shards, "virtual", requests, seed, control=True
        )
        patched, patches, drops = served_results(engine, shards, "virtual", requests, seed)
        assert patched == oracle
        assert oracle_patches == 0
        assert patches > 0 and drops == 0

    @pytest.mark.parametrize("repeat", range(REPEATS))
    def test_process_backend_matches_its_recompute_control(self, repeat):
        seed = SEED + repeat
        requests = generate_requests(update_heavy_spec(16), seed=seed)
        oracle, oracle_patches, _ = served_results(
            "lftj", 2, "process", requests, seed, control=True
        )
        patched, patches, _ = served_results("lftj", 2, "process", requests, seed)
        assert patched == oracle
        assert oracle_patches == 0 and patches > 0

    @pytest.mark.parametrize("shards", (1, 2, 4), ids=("mono", "hash2", "hash4"))
    @pytest.mark.parametrize("engine", ("lftj", "ctj", "naive"))
    def test_sync_execute_matches_a_fresh_served_run(self, engine, shards):
        """Sync = served: one statement stream through ``Session.execute``
        and through a fresh ``QueryService.serve`` crosses the same pipeline
        stages, so rows, virtual-time windows, engine counters and every
        cache observable agree."""

        def catalog():
            database = workload_database(num_vertices=24, num_edges=90, seed=SEED)
            return shard_database(database, shards) if shards > 1 else database

        def observe(owner, span):
            execute = span.find("execute")
            partial = owner.pipeline.scatter.partial_cache if shards > 1 else None
            return (
                execute.start_ns,
                execute.end_ns,
                # JoinStats, cost and plan usage, plus the scatter legs.
                execute.attributes,
                [(leg.name, leg.attributes) for leg in execute.children],
                [
                    (cache.stats.as_dict(), cache.keys())
                    for cache in (owner.plan_cache, owner.result_cache, partial)
                    if cache is not None
                ],
            )

        requests = generate_requests(update_heavy_spec(24), seed=SEED)
        session = Session(catalog(), engines=(engine,), trace=True)
        service = QueryService(catalog(), backends=(engine,), tracer=True)
        try:
            for request in requests:
                if request.kind == "update":
                    assert session.insert(request.relation, request.rows) == (
                        service.insert_tuples(request.relation, request.rows)
                    )
                    continue
                result = session.execute(request.query, route=engine)
                outcome = service.serve(request.query)
                assert result.tuples == outcome.tuples
                served_span = [s for s in service.tracer.spans if s.name == "query"][-1]
                assert observe(session, result.trace) == observe(service, served_span)
            assert session.result_cache.stats.hits > 0  # both hit and miss paths ran
        finally:
            session.close()
            service.close()

    def test_fragment_patches_flow_through_the_partial_cache(self):
        # Partials are read only on a result-cache miss: with the result
        # entry discarded, the next read probes both fragments behind the
        # log, and each patches once for both shard events of the insert.
        database = workload_database(num_vertices=24, num_edges=90, seed=SEED)
        session = Session(database, engines=("lftj",), shards=2, seed=SEED)
        try:
            query = pattern_query("cycle3")
            assert session.execute(query).tuples
            session.insert("E", closing_edges(session.database, per_shard=1))
            partial_stats = session.service.scatter.partial_cache.stats
            assert (partial_stats.patches, partial_stats.drops) == (0, 0)
            session.result_cache.discard(session.compiler.signature(query))
            result = session.execute(query)
            assert result.shard_stats.replayed_shards == (0, 1)
            assert (partial_stats.patches, partial_stats.drops) == (2, 0)
            truth = create_engine("lftj").execute(query, session.database.global_database)
            assert sorted(result.tuples) == sorted(set(truth.tuples))
        finally:
            session.close()

    def test_lost_patch_degrades_to_fragment_drop(self):
        # Node 0 goes down at virtual time 1: the warm-up query caches both
        # shard fragments while the cluster is healthy, the insert is only
        # logged, and the read after it (past time 1) finds every replica
        # of shard 0 unreachable — its fragment must *drop* (recompute),
        # never be patched with rows the dead node cannot vouch for; shard
        # 1 still patches, once for both shard events of the batch.
        database = workload_database(num_vertices=24, num_edges=90, seed=SEED)
        session = Session(
            database,
            engines=("lftj",),
            shards=2,
            seed=SEED,
            faults="down:0@1",
            on_shard_loss="partial",
        )
        try:
            query = pattern_query("cycle3")
            assert session.execute(query).tuples
            partial_stats = session.service.scatter.partial_cache.stats
            session.insert("E", [(1, 2), (2, 9), (9, 1)])
            assert (partial_stats.patches, partial_stats.drops) == (0, 0)
            session.result_cache.discard(session.compiler.signature(query))
            result = session.execute(query)
            assert result.shard_stats.missing_shards == (0,)  # recompute lost it
            assert partial_stats.drops == 1  # shard 0's fragment
            assert partial_stats.patches == 1  # shard 1's fragment
        finally:
            session.close()


# --------------------------------------------------------------------------- #
# Modelled cost: patching must be cheaper even with its delta joins charged
# --------------------------------------------------------------------------- #
def modelled_run(shards, requests, control=False):
    """Serve ``requests``; return results, Σ service_time, the maintainer's
    charge, the engine cost of every delta join it ran, and the patch count
    of the result and partial caches."""
    database = workload_database(num_vertices=24, num_edges=90, seed=SEED)
    session = Session(
        database, engines=("lftj", "ctj"), routing="rotate", shards=shards, seed=SEED,
    )
    if control:
        recompute_control(session.pipeline)
    delta_costs = []
    engine = session.maintainer.engine
    execute = engine.execute

    def spy(*args, **kwargs):
        execution = execute(*args, **kwargs)
        delta_costs.append(execution.cost)
        return execution

    engine.execute = spy
    try:
        outcomes = run_workload(session.service, requests)
        caches = [session.result_cache]
        if session.service.scatter is not None:
            caches.append(session.service.scatter.partial_cache)
        return (
            {rid: sorted(o.tuples) for rid, o in outcomes.items()},
            sum(record.service_time for record in session.service.metrics.records),
            session.maintainer.cost_ns,
            sum(delta_costs),
            [cache.stats.patches for cache in caches],
        )
    finally:
        session.close()


class TestModelledCost:
    @pytest.mark.parametrize("shards", (1, 2), ids=("mono", "sharded"))
    def test_incremental_beats_recompute_with_delta_joins_charged(self, shards):
        requests = generate_requests(update_heavy_spec(40), seed=SEED)
        oracle, recompute_ns, _, _, recompute_patches = modelled_run(
            shards, requests, control=True
        )
        patched, service_ns, charged_ns, delta_ns, patches = modelled_run(shards, requests)
        assert patched == oracle
        # Shard partials are read, and so patched, only on a result-cache
        # miss, which this stream never has for a cached signature.
        assert not any(recompute_patches) and patches[0]
        # The maintainer charges exactly the engine cost of its delta joins ...
        assert delta_ns > 0.0 and charged_ns == pytest.approx(delta_ns)
        # ... every read pays its patch in its service time, and patching
        # still costs less than dropping and recomputing.
        assert charged_ns < service_ns < recompute_ns


# --------------------------------------------------------------------------- #
# Continuous queries: Session.subscribe
# --------------------------------------------------------------------------- #
class TestSubscribe:
    def test_snapshot_and_incremental_additions(self):
        database = workload_database(num_vertices=24, num_edges=90, seed=SEED)
        with Session(database) as session:
            engine_truth = lambda: tuple(
                sorted(set(session.execute(pattern_query("cycle3")).tuples))
            )
            subscription = session.subscribe(pattern_query("cycle3"))
            assert subscription.result == engine_truth()
            assert subscription.poll() == ()
            session.insert("E", [(1, 2), (2, 22), (22, 1), (23, 23)])
            deltas = subscription.poll()
            assert len(deltas) == 1
            (delta,) = deltas
            assert isinstance(delta, ResultDelta)
            assert delta.incremental
            assert delta.added and not delta.removed
            assert subscription.result == engine_truth()
            assert subscription.poll() == ()  # drained

    def test_recompute_mode_diffs_by_full_reexecution(self):
        database = workload_database(num_vertices=24, num_edges=90, seed=SEED)
        with Session(database) as session:
            subscription = session.subscribe(pattern_query("cycle3"))
            assert subscription.result  # triangle-rich seed graph
            # A redefinition shrinks the relation: only a full re-execute
            # can observe removals, and the delta must carry them.
            session.database.replace_relation(
                Relation("E", Schema(("src", "dst")), [(1, 2), (2, 3), (3, 1)])
            )
            (delta,) = subscription.poll()
            assert not delta.incremental
            assert delta.removed
            assert subscription.result == ((1, 2, 3),) or subscription.result == tuple(
                sorted(set(session.execute(pattern_query("cycle3")).tuples))
            )

    def test_unrelated_mutations_do_not_wake_subscribers(self):
        database = workload_database(num_vertices=24, num_edges=90, seed=SEED)
        database.add_relation(Relation("other", Schema(("a", "b")), [(1, 1)]))
        with Session(database) as session:
            subscription = session.subscribe(pattern_query("cycle3"))
            session.insert("other", [(2, 2)])
            assert subscription.poll() == ()
            # A no-op insert (all duplicates) leaves the result unchanged:
            # no delta is queued even though the event fires.
            session.insert("E", [tuple(database.relation("E").sorted_rows()[0])])
            assert subscription.poll() == ()

    def test_closing_the_session_closes_its_subscriptions(self):
        database = workload_database(num_vertices=24, num_edges=90, seed=SEED)
        session = Session(database)
        subscription = session.subscribe(pattern_query("cycle3"))
        session.close()
        assert subscription.closed  # the holder can tell its feed is dead

    def test_close_detaches_the_subscription(self):
        database = workload_database(num_vertices=24, num_edges=90, seed=SEED)
        with Session(database) as session:
            with session.subscribe(pattern_query("cycle3")) as subscription:
                pass  # context manager closes on exit
            session.insert("E", [(1, 2), (2, 21), (21, 1)])
            assert subscription.poll() == ()


# --------------------------------------------------------------------------- #
# Once per read: one delta join per entry behind the log or poll, one delta
# catalog per backlog
# --------------------------------------------------------------------------- #
#: The patterns the serve_ivm benchmark keeps cached while it inserts.
IVM_PATTERNS = ("path3", "cycle3", "cycle4", "clique4")


def closing_edges(catalog, per_shard):
    """Absent edges ``(c, a)`` closing a path ``a → b → c`` of ``E``,
    ``per_shard`` of them routed to each shard (so results grow); a
    monolithic catalog is one shard."""
    rows = set(catalog.relation("E").sorted_rows())
    if hasattr(catalog, "partitioner_for"):
        shards, shard_of = catalog.num_shards, catalog.partitioner_for("E").shard_of
    else:
        shards, shard_of = 1, lambda value: 0
    wanted = dict.fromkeys(range(shards), per_shard)
    batch = []
    for a, b in sorted(rows):
        for b2, c in sorted(rows):
            edge = (c, a)
            if b2 == b and c != a and edge not in rows and edge not in batch:
                if wanted[shard_of(c)]:
                    wanted[shard_of(c)] -= 1
                    batch.append(edge)
    assert not any(wanted.values())
    return batch


class TestOncePerRead:
    def test_a_read_runs_one_delta_join_per_entry_behind_the_log(self, delta_calls):
        monolithic = workload_database(num_vertices=24, num_edges=90, seed=SEED)
        catalog = shard_database(monolithic, 2)
        service = QueryService(catalog)
        queries = [pattern_query(pattern) for pattern in IVM_PATTERNS]
        for query in queries:
            assert service.serve(query).error is None
        caches = (service.result_cache, service.scatter.partial_cache)
        before = {
            (index, key): set(cache.peek(key))
            for index, cache in enumerate(caches)
            for key in cache.keys()
        }
        batch = closing_edges(catalog, per_shard=2)
        service.insert_tuples("E", batch)
        service.insert_tuples("E", closing_edges(catalog, per_shard=1))
        assert delta_calls == []  # four shard events, no delta join
        for query in queries:
            service.serve(query)
        # One per result entry; no shard partial was read.
        assert sorted(delta_calls) == sorted(query.name for query in queries)
        assert caches[1].stats.patches == 0
        for query in queries:
            service.serve(query)
        assert len(delta_calls) == len(queries)  # caught up: nothing more

        # Every entry, result and shard partial, equals a recompute once read.
        monolithic.insert_into("E", catalog.relation("E").sorted_rows())
        fresh = QueryService(shard_database(monolithic, 2))
        for query in queries:
            fresh.serve(query)
        grew = 0
        for index, (cache, fresh_cache) in enumerate(
            zip(caches, (fresh.result_cache, fresh.scatter.partial_cache))
        ):
            assert set(cache.keys()) == set(fresh_cache.keys())
            for key in cache.keys():
                assert sorted(cache.peek(key)) == sorted(set(fresh_cache.peek(key)))
                grew += set(cache.peek(key)) != before[(index, key)]
        assert grew  # the batch closed new cycles: the check is not vacuous
        assert (caches[1].stats.patches, caches[1].stats.drops) == (len(caches[1]), 0)
        service.close()
        fresh.close()

    def test_one_delta_catalog_serves_the_reads_of_one_backlog(self, monkeypatch):
        catalog = shard_database(workload_database(num_vertices=24, num_edges=90, seed=SEED), 2)
        service = QueryService(catalog)
        queries = [pattern_query(pattern) for pattern in IVM_PATTERNS]
        for query in queries:
            service.serve(query)
        service.insert_tuples("E", closing_edges(catalog, per_shard=2))
        made = []

        class CountedDeltaCatalog(DeltaCatalog):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(maintenance_module, "DeltaCatalog", CountedDeltaCatalog)
        builds = []

        def build(relation, order):
            builds.append((relation.name, tuple(order)))
            return TrieIndex(relation, order)

        monkeypatch.setattr(catalog_module, "TrieIndex", build)
        for query in queries:
            service.serve(query)
        # Every entry was synced at the same position: the four reads share
        # one delta catalog, so each Δ trie is built once per attribute order.
        assert len(made) == 1
        delta_builds = [b for b in builds if b[0].endswith(DELTA_SUFFIX)]
        assert delta_builds and len(delta_builds) == len(set(delta_builds))
        service.close()

    def test_a_poll_and_a_read_of_one_backlog_share_its_delta_catalog(
        self, monkeypatch
    ):
        database = workload_database(num_vertices=24, num_edges=90, seed=SEED)
        with Session(database, shards=2) as session:
            query = pattern_query("cycle3")
            signature = session.compiler.signature(query)
            subscription = session.subscribe(query)  # the entry is synced here too
            session.insert("E", closing_edges(session.database, per_shard=1))
            made = []

            class CountedDeltaCatalog(DeltaCatalog):
                def __init__(self, *args, **kwargs):
                    made.append(self)
                    super().__init__(*args, **kwargs)

            monkeypatch.setattr(maintenance_module, "DeltaCatalog", CountedDeltaCatalog)
            builds = []

            def build(relation, order):
                builds.append((relation.name, tuple(order)))
                return TrieIndex(relation, order)

            monkeypatch.setattr(catalog_module, "TrieIndex", build)
            assert subscription.poll()  # the batch closed new triangles
            assert session.result_cache.get(signature) is not None
            assert session.result_cache.stats.patches == 1
            assert len(made) == 1
            delta_builds = [b for b in builds if b[0].endswith(DELTA_SUFFIX)]
            assert delta_builds and len(delta_builds) == len(set(delta_builds))
            monkeypatch.undo()
            assert subscription.result == tuple(
                sorted(set(session.execute(query).tuples))
            )


# --------------------------------------------------------------------------- #
# Maintain on read: what an insert defers, and what bounds the log
# --------------------------------------------------------------------------- #
def logged_maintainer(database=None, capacity=8):
    """A monolithic catalog (the triangle one by default) whose result cache
    a maintainer keeps."""
    database = database if database is not None else triangle_database()
    cache = ResultCache(capacity=capacity)
    maintainer = ResultMaintainer(database, cache)
    database.subscribe_invalidation(maintainer.on_mutation)
    return database, cache, maintainer


class TestMaintainOnRead:
    def test_an_entry_evicted_before_it_is_read_runs_none(self, delta_calls):
        database, cache, maintainer = logged_maintainer(capacity=1)
        cache.put_result("a", [(1, 2, 3)], ["E"], query=pattern_query("cycle3"))
        database.insert_into("E", [(3, 4), (4, 2)])
        cache.put_result("b", [], ["E"], query=pattern_query("path3"))  # evicts "a"
        assert "a" not in cache and cache.stats.evictions == 1
        assert cache.get("b") == [] and delta_calls == []
        database.insert_into("E", [(5, 5)])
        assert len(maintainer.log) == 1  # nothing live lacks the first batch

    @pytest.mark.parametrize("events", (1, 3))
    def test_k_insert_events_between_two_reads_run_one_per_entry(self, events, delta_calls):
        database, cache, _ = logged_maintainer(
            workload_database(num_vertices=24, num_edges=90, seed=SEED)
        )
        engine = create_engine("lftj")
        queries = {"c": pattern_query("cycle3"), "p": pattern_query("path3")}
        for key, query in queries.items():
            cache.put_result(key, engine.execute(query, database).tuples, ["E"], query=query)
        before = {key: set(cache.get(key)) for key in queries}
        for batch in closing_edges(database, per_shard=events):
            database.insert_into("E", [batch])
        for key, query in queries.items():
            assert cache.get(key) == sorted(set(engine.execute(query, database).tuples))
        assert sorted(delta_calls) == ["cycle3", "path3"]
        assert cache.stats.patches == 2
        assert set(cache.get("c")) > before["c"]  # the batches closed triangles

    def test_a_write_only_stream_runs_none_and_a_poll_one(self, delta_calls):
        database = workload_database(num_vertices=24, num_edges=90, seed=SEED)
        with Session(database) as session:
            assert session.execute(pattern_query("path3")).tuples  # cached
            subscription = session.subscribe(pattern_query("cycle3"))
            for edge in ((1, 30), (30, 31), (31, 1)):
                session.insert("E", [edge])
            assert delta_calls == []  # a live subscription runs none either
            (delta,) = subscription.poll()
            assert delta.incremental and (1, 30, 31) in delta.added
            assert delta_calls == ["cycle3"]  # one for the whole backlog
            assert session.result_cache.stats.patches == 0
            assert subscription.result == tuple(
                sorted(set(session.execute(pattern_query("cycle3")).tuples))
            )

    def test_a_live_subscription_holds_the_log_and_close_releases_it(self):
        database = triangle_database()
        with Session(database, engines=("lftj",)) as session:
            subscription = session.subscribe(pattern_query("cycle3"))
            session.result_cache.clear()  # the subscription is the one reader
            log = session.maintainer.log
            database.insert_into("E", [(3, 4)])
            database.insert_into("E", [(4, 5)])
            assert len(log) == 2  # what the subscription lacks
            assert subscription.poll() == ()  # no new triangle
            database.insert_into("E", [(5, 6)])
            assert len(log) == 1
            subscription.close()
            assert session.maintainer.subscriptions == []
            database.insert_into("E", [(6, 7)])
            assert len(log) == 0  # nothing live: nothing kept
            assert subscription.poll() == ()
            subscription.close()  # idempotent

    def test_a_subscription_that_never_polls_does_not_pin_the_log(self):
        database = triangle_database()
        with Session(database, engines=("lftj",)) as session:
            query = pattern_query("cycle3")
            subscription = session.subscribe(query)
            session.result_cache.clear()  # the subscription is the one reader
            log = session.maintainer.log
            edges = ((2, 4), (4, 3), (1, 4), (4, 4), (3, 2))
            for logged, edge in enumerate(edges[:4], start=1):
                database.insert_into("E", [edge])
                assert len(log) == logged and not subscription.stale
            # A fifth row against the four ``E`` held at the subscription's
            # position: the backlog outgrew the relation, the log forgets it.
            database.insert_into("E", [edges[4]])
            assert subscription.stale and len(log) == 0
            (delta,) = subscription.poll()
            assert not delta.incremental and delta.added and not delta.removed
            assert subscription.result == tuple(sorted(set(session.execute(query).tuples)))
            session.result_cache.clear()
            database.insert_into("E", [(3, 3)])
            assert len(log) == 1  # polled: it holds the log again

    def test_the_log_truncates_once_the_oldest_entry_catches_up(self):
        database, cache, maintainer = logged_maintainer()
        cache.put_result("c", [(1, 2, 3)], ["E"], query=pattern_query("cycle3"))
        cache.put_result("p", [], ["E"], query=pattern_query("path3"))
        database.insert_into("E", [(3, 4), (4, 5)])
        assert len(maintainer.log) == 2
        cache.get("c")
        database.insert_into("E", [(5, 6)])
        assert len(maintainer.log) == 3  # "p" still lacks the first batch
        cache.get("c")
        cache.get("p")
        database.insert_into("E", [(6, 7)])
        assert len(maintainer.log) == 1  # only what both entries lack
        assert maintainer.log.since(0) == {"E": [(6, 7)]}
        cache.discard("c")
        cache.discard("p")
        database.insert_into("E", [(7, 8)])
        assert len(maintainer.log) == 0  # nothing live: nothing kept

    @pytest.mark.parametrize("shards", (1, 2))
    def test_an_entry_behind_on_one_relation_only_patches_to_a_recompute(self, shards):
        database = Database("rs")
        for name, offset in (("R", 0), ("S", 1)):
            rows = [(i + offset, i + offset + 1) for i in range(10)]
            database.add_relation(Relation(name, Schema(("a", "b")), rows))
        catalog = shard_database(database, shards) if shards > 1 else database
        service = QueryService(catalog, backends=("lftj",))
        query = ConjunctiveQuery(
            "rs", ("x", "y", "z"), [Atom("R", ("x", "y")), Atom("S", ("y", "z"))]
        )
        service.serve(query)
        service.insert_tuples("R", [(20, 5), (30, 40)])
        service.serve(query)  # catches up with R's batch
        service.insert_tuples("S", [(40, 41), (21, 22)])
        # R's batch is still logged, but none of R's is newer than the entry.
        assert len(service.maintainer.log) == 4
        outcome = service.serve(query)
        assert outcome.record.result_cache_hit
        truth = create_engine("lftj").execute(query, getattr(catalog, "global_database", catalog))
        assert sorted(outcome.tuples) == sorted(set(truth.tuples))
        assert (30, 40, 41) in outcome.tuples
        stats = service.result_cache.stats
        assert (stats.patches, stats.drops) == (2, 0)
        service.close()

    def test_the_backlog_rule_drops_the_entry_instead_of_patching_it(self, delta_calls):
        database, cache, maintainer = logged_maintainer()
        cache.put_result("c", [(1, 2, 3)], ["E"], query=pattern_query("cycle3"))
        assert database.relation("E").cardinality == 4
        database.insert_into("E", [(3, 4), (4, 5), (5, 6)])  # 3 new beside 4 old
        assert "c" in cache and maintainer.reports[-1].dropped == 0
        database.insert_into("E", [(6, 7), (7, 8)])  # 5 new beside 4 old
        assert "c" not in cache
        assert maintainer.reports[-1].result_dropped == 1
        assert (cache.stats.drops, cache.stats.patches) == (1, 0)
        assert delta_calls == [] and len(maintainer.log) == 0

    def test_a_non_patchable_event_still_drops_at_once(self, delta_calls):
        database = workload_database(num_vertices=24, num_edges=90, seed=SEED)
        database.add_relation(Relation("F", Schema(("src", "dst")), [(1, 2), (2, 3)]))
        service = QueryService(shard_database(database, 2))
        query = ConjunctiveQuery(
            "ef", ("x", "y", "z"), [Atom("E", ("x", "y")), Atom("F", ("y", "z"))]
        )
        service.serve(query)
        partials = service.scatter.partial_cache
        signature = service.compiler.signature(query)
        service.maintainer.on_mutation(MutationEvent("F", kind="define"))
        report = service.maintainer.reports[-1]
        assert not report.patchable
        assert (report.result_dropped, report.partial_dropped) == (1, 2)
        assert signature not in service.result_cache
        assert not any(partial_key(signature, shard) in partials for shard in (0, 1))
        assert delta_calls == []
        service.close()


rows = st.tuples(st.integers(0, 6), st.integers(0, 6))


@settings(max_examples=200, deadline=None)
@given(
    entry=st.lists(rows, max_size=20),
    patches=st.lists(st.tuples(st.lists(rows, max_size=6), st.booleans()), max_size=6),
)
def test_settled_rows_are_the_sorted_set_union(entry, patches):
    """Whatever the published order and repeats, and whenever reads settle,
    an entry reads as ``sorted(set(entry) | set(delta))``."""
    cache = ResultCache(capacity=2)
    cache.put_result("k", list(entry), ["E"], query=pattern_query("path3"))
    union, merged = set(entry), False
    for delta, read in patches:
        assert cache.patch_result("k", delta)
        union.update(delta)
        merged = merged or bool(delta)
        if read and merged:
            assert cache.get("k") == sorted(union)
    # An entry no non-empty delta reached keeps the publisher's list.
    assert cache.peek("k") == (sorted(union) if merged else entry)


#: ``ends(x, z) = E(x, y), E(y, z)``: one row can come from many paths, so a
#: new path may yield a row the result already holds.
ENDS = ConjunctiveQuery("ends", ("x", "z"), [Atom("E", ("x", "y")), Atom("E", ("y", "z"))])
vertex = st.integers(0, 5)
edges = st.lists(st.tuples(vertex, vertex), max_size=10)
stream = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), edges),
        st.tuples(st.just("repeat"), st.integers(1, 4)),  # rows ``E`` holds
        st.tuples(st.just("define"), st.integers(0, 6)),  # ``E`` shrinks
        st.tuples(st.just("poll"), st.none()),
    ),
    max_size=12,
)


@pytest.mark.parametrize("shards", (1, 2), ids=("mono", "sharded"))
@pytest.mark.parametrize("pattern", ("cycle3", "path3", "ends"))
@settings(max_examples=25, deadline=None)
@given(initial=edges, operations=stream)
def test_a_subscription_polls_to_the_executed_result(shards, pattern, initial, operations):
    """Whatever inserts, all-duplicate batches and shrinking redefinitions
    a subscription sees, a poll leaves ``result`` equal to executing the
    query, and the deltas it returned replay the creation snapshot onto it."""
    query = ENDS if pattern == "ends" else pattern_query(pattern)
    database = Database("live")
    database.add_relation(Relation("E", Schema(("src", "dst")), initial))
    with Session(database, engines=("lftj",), shards=shards) as session:
        subscription = session.subscribe(query)
        replayed = set(subscription.result)

        def poll():
            for delta in subscription.poll():
                assert not replayed.intersection(delta.added)
                assert replayed.issuperset(delta.removed)
                replayed.update(delta.added)
                replayed.difference_update(delta.removed)
            assert subscription.result == tuple(sorted(set(session.execute(query).tuples)))
            assert tuple(sorted(replayed)) == subscription.result

        for kind, argument in operations:
            held = session.database.relation("E").sorted_rows()
            if kind == "insert":
                session.insert("E", argument)
            elif kind == "repeat":
                session.insert("E", held[:argument])
            elif kind == "define":
                session.database.replace_relation(
                    Relation("E", Schema(("src", "dst")), held[:argument])
                )
            else:
                poll()
        poll()
