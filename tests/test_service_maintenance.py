"""Incremental view maintenance (:mod:`repro.service.maintenance`).

Three layers of contract:

* **Counters** — the result cache's ``invalidations`` split into ``drops``
  vs ``patches``: zero/empty edge cases, the derived sum, and the
  patch-or-drop fallback ladder (no recorded query, solver ``None``,
  solver exception → drop; never a wrong answer).
* **Equivalence** — a Zipf update-heavy workload served by the pipeline's
  maintainer returns byte-identical per-request results to a
  drop-and-recompute control (:func:`recompute_control`), across engines ×
  shard counts × execution backends, while actually patching (not
  silently dropping).
* **Modelled cost** — on the same stream, Σ ``service_time`` plus the
  maintainer's delta-join charge is below Σ ``service_time`` under the
  control, and the charge is exactly the engine cost of the delta joins
  run.
* **Continuous queries** — :meth:`repro.api.Session.subscribe` streams
  result deltas: patched additions for insert batches, full re-execute
  diffs (including removals) for relation redefinitions.
* **Once per event** — one mutation event builds each Δ trie at most once
  per attribute order and hands the delta joins at most one view per
  shard plus one of the full catalog, subscribers included.

``REPRO_CONCURRENCY_REPEATS`` (CI's ivm job sets it > 1) re-runs the
equivalence matrix so scheduling-dependent races get multiple chances to
surface while the default local run stays fast.
"""

import os

import pytest

import repro.relational.catalog as catalog_module
import repro.service.maintenance as maintenance_module
from repro.api import ResultDelta, Session
from repro.graphs import pattern_query
from repro.joins.delta import DELTA_SUFFIX, DeltaCatalog
from repro.relational import Database, DeltaBatch, MutationEvent, Relation, Schema
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
from repro.storage import open_store

#: Seeded repeats of the equivalence matrix (CI sets this higher).
REPEATS = max(1, int(os.environ.get("REPRO_CONCURRENCY_REPEATS", "1")))

SEED = 2020


def insert_event(rows, shard=None):
    return MutationEvent(
        "E", shard=shard, delta=DeltaBatch.from_rows(rows), kind="insert"
    )


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

    def test_dependent_keys_are_sorted_and_shard_aware(self):
        cache = ResultCache(capacity=8)
        cache.put_result("b", [], [("E", 1)])
        cache.put_result("a", [], [("E", 0)])
        cache.put_result("c", [], ["E"])
        assert cache.dependent_keys(insert_event([(1, 2)])) == ("a", "b", "c")
        assert cache.dependent_keys(insert_event([(1, 2)], shard=0)) == ("a", "c")
        assert cache.dependent_keys(MutationEvent("other", delta=1)) == ()

    def test_maintain_patches_entries_with_queries_drops_the_rest(self):
        cache = ResultCache(capacity=8)
        cache.put_result("with", [(1, 2)], ["E"], query=pattern_query("cycle3"))
        cache.put_result("without", [(1, 2)], ["E"])  # no query recorded
        patched, dropped = cache.maintain(
            insert_event([(9, 9)]), lambda key, query, event: [(9, 9)]
        )
        assert (patched, dropped) == (1, 1)
        assert cache.peek("with") == [(1, 2), (9, 9)]
        assert "without" not in cache
        assert cache.stats.patches == 1 and cache.stats.drops == 1

    def test_solver_none_and_solver_exception_fall_back_to_drop(self):
        def boom(key, query, event):
            raise RuntimeError("boom")

        for solver, errors in ((lambda key, query, event: None, 0), (boom, 1)):
            cache = ResultCache(capacity=4)
            cache.put_result("k", [(1, 2)], ["E"], query=pattern_query("cycle3"))
            patched, dropped = cache.maintain(insert_event([(9, 9)]), solver)
            assert (patched, dropped) == (0, 1)
            assert "k" not in cache
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

        service.maintainer.delta_for = boom
        service.insert_tuples("E", [(0, 11), (11, 5)])
        assert service.result_cache.stats.solver_errors == 1
        assert "1 drops, 0 patches, 1 solver errors" in service.report()
        # Degraded to a drop: the next read recomputes, never a wrong answer.
        assert set(before) <= set(service.serve(pattern_query("cycle3")).tuples)

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
            owner.pipeline.result_cache.put_result("k", [(1, 2, 3)], ["E"], query=query)
            owner.database.insert_into("E", [(3, 5)])
            assert owner.maintainer.reports[-1].result_patched == 1
            owner.close()
            if kind == "durable":
                owner.database.close()

    def test_patchable_requires_exact_insert(self):
        assert insert_event([(1, 2)]).patchable
        assert not MutationEvent("E", delta=3, kind="insert").patchable  # inexact
        assert not MutationEvent(
            "E", delta=DeltaBatch.from_rows([(1, 2)]), kind="define"
        ).patchable


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
        assert report.patchable and report.result_patched == 1
        assert report.cost_ns > 0.0
        assert maintainer.cost_ns >= report.cost_ns

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
        seed = SEED
        requests = generate_requests(update_heavy_spec(20), seed=seed)
        database = workload_database(num_vertices=24, num_edges=90, seed=seed)
        session = Session(database, engines=("lftj",), shards=2, seed=seed)
        try:
            run_workload(session.service, requests)
            partial_stats = session.service.scatter.partial_cache.stats
            assert partial_stats.patches > 0
            assert partial_stats.drops == 0
        finally:
            session.close()

    def test_lost_patch_degrades_to_fragment_drop(self):
        # Node 0 goes down just after virtual time 1: the warm-up query
        # caches both shard fragments while the cluster is healthy, and the
        # insert then finds every replica of shard 0 unreachable — its
        # fragment must *drop* (recompute on next read), never be patched
        # with rows the dead node cannot vouch for; shard 1 still patches.
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
            assert session.execute(pattern_query("cycle3")).tuples
            partial_stats = session.service.scatter.partial_cache.stats
            assert partial_stats.patches == 0 and partial_stats.drops == 0
            # The batch splits across both shards, so two shard events
            # fire: shard 0's fragment drops at the first (its only node
            # is unreachable); shard 1's fragment patches at both (the
            # rewritten query reads E whole-relation in its non-seed
            # atoms, so every event touches it).
            session.insert("E", [(1, 2), (2, 9), (9, 1)])
            assert partial_stats.drops == 1  # shard 0's fragment
            assert partial_stats.patches == 2  # shard 1's fragment
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
        assert not any(recompute_patches) and all(patches)
        # The maintainer charges exactly the engine cost of its delta joins,
        # result-cache and shard-fragment ones alike ...
        assert delta_ns > 0.0 and charged_ns == pytest.approx(delta_ns)
        # ... and patching still costs less than dropping and recomputing.
        assert service_ns + charged_ns < recompute_ns


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
            assert delta.incremental and delta.relation == "E"
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
# Once per event: one delta catalog, its Δ tries shared by every delta join
# --------------------------------------------------------------------------- #
#: The patterns the serve_ivm benchmark keeps cached while it inserts.
IVM_PATTERNS = ("path3", "cycle3", "cycle4", "clique4")


def closing_edges(catalog, per_shard):
    """Absent edges ``(c, a)`` closing a path ``a → b → c`` of ``E``,
    ``per_shard`` of them routed to each shard (so results grow)."""
    rows = set(catalog.relation("E").sorted_rows())
    shard_of = catalog.partitioner_for("E").shard_of
    wanted = dict.fromkeys(range(catalog.num_shards), per_shard)
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


def watch_one_insert(monkeypatch, maintainer, catalog, insert):
    """Run ``insert()``; per event, the Δ trie builds and the catalogs the
    maintainer's engine was handed (captured while the event was handled)."""
    events, builds, catalogs = [], [], []

    def build(relation, order):
        builds.append((len(events), relation.name, tuple(order)))
        return TrieIndex(relation, order)

    engine = maintainer.engine
    execute = engine.execute

    def spy(query, database, plan=None):
        catalogs.append((len(events), database))
        return execute(query, database, plan=plan)

    monkeypatch.setattr(catalog_module, "TrieIndex", build)
    monkeypatch.setattr(engine, "execute", spy)
    catalog.subscribe_invalidation(events.append)  # after the maintainer
    try:
        insert()
    finally:
        catalog.unsubscribe_invalidation(events.append)
    per_event = []
    for index, _event in enumerate(events):
        delta_builds = [
            (name, order)
            for at, name, order in builds
            if at == index and name.endswith(DELTA_SUFFIX)
        ]
        views = {id(view): view for at, view in catalogs if at == index}
        per_event.append((delta_builds, list(views.values())))
    return events, per_event


class TestOncePerEvent:
    def test_one_delta_catalog_serves_every_entry_of_an_event(self, monkeypatch):
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
        events, per_event = watch_one_insert(
            monkeypatch, service.maintainer, catalog,
            lambda: service.insert_tuples("E", batch),
        )
        assert sorted(event.shard for event in events) == [0, 1]
        for delta_builds, views in per_event:
            # The parent rebuilt a Δ trie per entry (≈ 22 per event).
            assert delta_builds and len(delta_builds) == len(set(delta_builds))
            assert 1 <= len(views) <= 1 + catalog.num_shards
        for cache in caches:  # both events touch every entry; none drops
            assert (cache.stats.patches, cache.stats.drops) == (2 * len(cache), 0)
        monkeypatch.undo()

        # Every patched entry, result and shard partial, equals a recompute.
        monolithic.insert_into("E", batch)
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
        service.close()
        fresh.close()

    def test_subscribers_reuse_the_events_delta_catalog(self, monkeypatch):
        database = workload_database(num_vertices=24, num_edges=90, seed=SEED)
        with Session(database, shards=2) as session:
            query = pattern_query("cycle3")
            session.execute(query)
            subscription = session.subscribe(query)
            made = []

            class CountedDeltaCatalog(DeltaCatalog):
                def __init__(self, *args, **kwargs):
                    made.append(self)
                    super().__init__(*args, **kwargs)

            monkeypatch.setattr(maintenance_module, "DeltaCatalog", CountedDeltaCatalog)
            batch = closing_edges(session.database, per_shard=1)
            events, per_event = watch_one_insert(
                monkeypatch, session.maintainer, session.database,
                lambda: session.insert("E", batch),
            )
            assert len(made) == len(events) == 2  # one delta catalog per event
            for delta_builds, views in per_event:
                assert len(delta_builds) == len(set(delta_builds))
                assert len(views) <= 1 + session.num_shards
            monkeypatch.undo()
            assert subscription.poll()  # the batch closed new triangles
            assert subscription.result == tuple(
                sorted(set(session.execute(query).tuples))
            )
