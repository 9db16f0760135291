"""Scatter-gather execution, shard-aware invalidation, workload realism.

The acceptance scenario of the sharding refactor: a cyclic (triangle) and an
acyclic (path) query return identical results on ``Database`` and
``ShardedDatabase`` for both partitioners and shard counts 1/2/4 across
multiple engines; inserting into one shard invalidates only the result-cache
entries dependent on that (relation, shard) pair; and a mutation landing in
the middle of a running workload leaves untouched shards' partials alive
while queries after it observe the new data.
"""

import pytest

from repro.api import Session, Statement, create_engine
from repro.graphs import community_graph, graph_database, pattern_query
from repro.relational import Database, Relation, Schema, shard_database
from repro.relational.query import Atom, ConjunctiveQuery
from repro.service import (
    QueryService,
    ScatterGatherExecutor,
    WorkloadSpec,
    generate_requests,
    run_workload,
    workload_database,
)
from repro.service.backends import run_inline
from repro.service.caches import LRUCache, ResultCache
from repro.service.scatter import PARTIAL_REPLAY_COST_NS, partial_key

ENGINES = ("lftj", "ctj", "naive")
PARTITIONERS = ("hash", "range")
SHARD_COUNTS = (1, 2, 4)
ACCEPTANCE_QUERIES = ("cycle3", "path3")


@pytest.fixture(scope="module")
def base_db():
    return graph_database(community_graph(60, 300, seed=2020))


@pytest.fixture(scope="module")
def expected_results(base_db):
    engine = create_engine("lftj")
    results = {}
    for name in ACCEPTANCE_QUERIES:
        query = pattern_query(name)
        execution = engine.execute(query, base_db, plan=None)
        results[name] = set(execution.tuples)
    return results


# --------------------------------------------------------------------------- #
# Acceptance: sharded execution is indistinguishable from monolithic
# --------------------------------------------------------------------------- #
class TestScatterGatherEquivalence:
    @pytest.mark.parametrize("engine_name", ENGINES)
    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("query_name", ACCEPTANCE_QUERIES)
    def test_executor_matches_monolithic(
        self, base_db, expected_results, engine_name, partitioner, num_shards, query_name
    ):
        sharded = shard_database(base_db, num_shards, partitioner=partitioner)
        executor = ScatterGatherExecutor(sharded)
        execution = executor.execute(pattern_query(query_name), create_engine(engine_name))
        assert set(execution.tuples) == expected_results[query_name]
        assert execution.scatter is not None
        assert execution.scatter.num_shards == num_shards
        # Partitioned seeds produce disjoint partials: nothing merged away.
        assert execution.scatter.duplicates_removed == 0
        assert execution.cost > 0.0

    @pytest.mark.parametrize("query_name", ACCEPTANCE_QUERIES)
    def test_session_shards_matches_monolithic(self, base_db, expected_results, query_name):
        session = Session(base_db, engines=("lftj", "ctj"), shards=4)
        result = session.execute(Statement.pattern(query_name))
        assert result.to_set() == expected_results[query_name]
        assert result.shard_stats is not None
        assert result.shard_stats.num_shards == 4

    def test_projection_gather_deduplicates_across_fragments(self, base_db):
        # The head drops the seed's partition variable, so two fragments can
        # yield the same projected row: the gather keeps one sorted copy.
        query = ConjunctiveQuery(
            "targets", ("y",), [Atom("E", ("x", "y")), Atom("E", ("y", "z"))]
        )
        sharded = shard_database(base_db, 3)
        execution = ScatterGatherExecutor(sharded).execute(query, create_engine("ctj"))
        reference = create_engine("ctj").execute(query, base_db)
        assert execution.tuples == sorted(set(reference.tuples))
        gathered = sum(task.tuples for task in execution.scatter.tasks)
        assert execution.scatter.duplicates_removed == gathered - len(execution.tuples) > 0

    def test_count_only_aggregation_sums_shard_counts(self, base_db, expected_results):
        from repro.api import TrieJaxAccelerator

        sharded = shard_database(base_db, 2)
        executor = ScatterGatherExecutor(sharded)
        engine = TrieJaxAccelerator(aggregate="count")
        execution = executor.execute(pattern_query("cycle3"), engine)
        assert execution.tuples == []
        assert execution.count == len(expected_results["cycle3"])
        assert not execution.cacheable
        # Per-shard task stats report the counted matches, not zero.
        assert sum(t.tuples for t in execution.scatter.tasks) == execution.count

    def test_count_only_through_sharded_session(self, base_db, expected_results):
        from repro.api import TrieJaxAccelerator

        session = Session(base_db, engines=(TrieJaxAccelerator(aggregate="count"),), shards=2)
        result = session.execute(Statement.pattern("cycle3"), route="triejax")
        assert result.cardinality == len(expected_results["cycle3"])

    def test_enumerating_triejax_through_sharded_session(self, base_db, expected_results):
        # An enumerating model execution carries no count, so the gather
        # merges its rows instead of treating the shards as count-only --
        # on the first call and on the result-cache hit after it.
        session = Session(base_db, engines=("triejax",), shards=2)
        for call in ("first", "cached"):
            result = session.execute(Statement.pattern("cycle3"), route="triejax")
            assert result.to_set() == expected_results["cycle3"], call
            assert result.cardinality == len(expected_results["cycle3"]), call
            assert result.from_cache == (call == "cached")

    def test_scatter_aggregates_engine_stats(self, base_db):
        sharded = shard_database(base_db, 2)
        executor = ScatterGatherExecutor(sharded)
        execution = executor.execute(pattern_query("cycle3"), create_engine("lftj"))
        assert execution.stats is not None
        assert execution.stats.index_element_reads > 0


# --------------------------------------------------------------------------- #
# The engine-work hook: probe -> one run_engine call -> gather
# --------------------------------------------------------------------------- #
def recording_hook(calls, wall=None):
    """An inline ``run_engine`` hook that records each call and reports ``wall``."""

    def hook(engine, query, plan, catalogs):
        calls.append((query, plan, list(catalogs)))
        results = run_inline(engine, query, plan, catalogs)
        return [(execution, wall) for execution, _ in results]

    return hook


class TestScatterEngineHook:
    def test_only_missed_shards_reach_the_hook_in_one_call(self):
        sharded = two_relation_catalog(num_shards=3)
        partial_cache = ResultCache(64)
        sharded.subscribe_invalidation(partial_cache.invalidate)
        executor = ScatterGatherExecutor(sharded, partial_cache)
        query, engine = rs_path_query(), create_engine("lftj")

        calls = []
        first = executor.execute(query, engine, run_engine=recording_hook(calls))
        [(_query, plan, views)] = calls
        assert len(views) == 3 and plan is not None

        calls.clear()
        replay = executor.execute(query, engine, run_engine=recording_hook(calls))
        assert sum(len(views) for _q, _p, views in calls) == 0
        assert [t.from_cache for t in replay.scatter.tasks] == [True, True, True]
        assert all(t.cost_ns == PARTIAL_REPLAY_COST_NS for t in replay.scatter.tasks)
        assert all(t.wall_seconds is None for t in replay.scatter.tasks)
        assert replay.tuples == first.tuples

        partitioner = sharded.partitioner_for("R")
        row = next((v, v + 100) for v in range(1000) if partitioner.shard_of(v) == 0)
        sharded.insert_into("R", [row])
        calls.clear()
        after = executor.execute(query, engine, run_engine=recording_hook(calls))
        [(_query, _plan, views)] = calls
        assert len(views) == 1
        assert [t.from_cache for t in after.scatter.tasks] == [False, True, True]

    @pytest.mark.parametrize("engine_name", ("lftj", "naive"))
    def test_a_small_seed_relation_hands_the_hook_one_view_per_shard(self, engine_name):
        # Two rows over three shards leave at least one fragment empty, yet
        # every shard still gets a task.
        sharded = two_relation_catalog(num_shards=3)
        sharded.add_relation(Relation("dims", Schema(("k", "v")), [(1, 10), (2, 20)]))
        query = ConjunctiveQuery(
            "dims_r", ("k", "v", "w"), [Atom("dims", ("k", "v")), Atom("R", ("k", "w"))]
        )
        engine, calls = create_engine(engine_name), []
        execution = ScatterGatherExecutor(sharded).execute(
            query, engine, run_engine=recording_hook(calls)
        )
        [(ran, plan, views)] = calls
        assert ran == sharded.scatter_spec(query).query
        assert len(views) == 3 and all(view is not sharded for view in views)
        # Plan-blind engines get no plan; plan-driven ones share one.
        assert (plan is None) == (engine_name == "naive")
        assert execution.scatter.num_shards == 3
        # Each dims row meets exactly one R row, so a task yields its fragment.
        fragments = sharded.shard_cardinalities("dims")
        assert [t.tuples for t in execution.scatter.tasks] == list(fragments)
        assert 0 in fragments
        reference = engine.execute(query, sharded.global_database)
        assert execution.tuples == sorted(set(reference.tuples))

    def test_fault_free_task_charges_its_execution_cost_and_hook_wall(self):
        executor = ScatterGatherExecutor(two_relation_catalog(num_shards=2))
        executions = []

        def hook(engine, query, plan, catalogs):
            results = run_inline(engine, query, plan, catalogs)
            executions.extend(execution for execution, _ in results)
            return [(execution, 0.25) for execution, _ in results]

        execution = executor.execute(
            rs_path_query(), create_engine("ctj"), run_engine=hook, now=1234.5678
        )
        tasks = execution.scatter.tasks
        assert [t.cost_ns for t in tasks] == [e.cost for e in executions]
        assert [t.tuples for t in tasks] == [e.cardinality for e in executions]
        assert [t.wall_seconds for t in tasks] == [0.25, 0.25]
        assert all(t.attempts == 1 and not t.lost for t in tasks)
        # The default hook runs inline and records no host timings.
        inline = executor.execute(rs_path_query(), create_engine("ctj"))
        assert [t.wall_seconds for t in inline.scatter.tasks] == [None, None]
        assert [t.cost_ns for t in inline.scatter.tasks] == [t.cost_ns for t in tasks]


# --------------------------------------------------------------------------- #
# Shard-aware partial-result caching and invalidation
# --------------------------------------------------------------------------- #
def two_relation_catalog(num_shards=2):
    """R partitioned + S partitioned, over distinct edge sets."""
    database = Database("two")
    database.add_relation(
        Relation("R", Schema(("a", "b")), [(i, i + 1) for i in range(20)])
    )
    database.add_relation(
        Relation("S", Schema(("a", "b")), [(i + 1, i + 2) for i in range(20)])
    )
    return shard_database(database, num_shards, partitioner="range")


def rs_path_query():
    return ConjunctiveQuery(
        "rs_path", ("x", "y", "z"), [Atom("R", ("x", "y")), Atom("S", ("y", "z"))]
    )


class TestShardAwareInvalidation:
    def test_partials_record_fragment_dependencies(self):
        sharded = two_relation_catalog()
        partial_cache = ResultCache(64)
        sharded.subscribe_invalidation(partial_cache.invalidate)
        executor = ScatterGatherExecutor(sharded, partial_cache)
        query = rs_path_query()
        executor.execute(query, create_engine("ctj"))
        signature = executor.compiler.signature(query)
        deps0 = partial_cache.dependencies_of(partial_key(signature, 0))
        assert ("R", 0) in deps0 and ("S", None) in deps0
        assert ("R", 1) not in deps0

    def test_insert_into_one_shard_drops_only_that_partial(self):
        sharded = two_relation_catalog()
        partial_cache = ResultCache(64)
        sharded.subscribe_invalidation(partial_cache.invalidate)
        executor = ScatterGatherExecutor(sharded, partial_cache)
        query = rs_path_query()
        engine = create_engine("ctj")
        executor.execute(query, engine)
        signature = executor.compiler.signature(query)
        assert partial_key(signature, 0) in partial_cache
        assert partial_key(signature, 1) in partial_cache

        # Route an insert to shard 0 of R only.
        partitioner = sharded.partitioner_for("R")
        row = next(
            (v, v + 100) for v in range(1000) if partitioner.shard_of(v) == 0
        )
        sharded.insert_into("R", [row])
        assert partial_key(signature, 0) not in partial_cache  # dependent: dropped
        assert partial_key(signature, 1) in partial_cache  # untouched shard: kept

        # Re-execution replays shard 1 and recomputes only shard 0.
        execution = executor.execute(query, engine)
        assert execution.scatter.replayed_shards == (1,)
        reference = create_engine("ctj").execute(query, sharded.global_database)
        assert set(execution.tuples) == set(reference.tuples)

    def test_mutating_a_broadcast_relation_drops_every_partial(self):
        sharded = two_relation_catalog()
        partial_cache = ResultCache(64)
        sharded.subscribe_invalidation(partial_cache.invalidate)
        executor = ScatterGatherExecutor(sharded, partial_cache)
        query = rs_path_query()
        executor.execute(query, create_engine("ctj"))
        # S is read whole by every task (non-seed atom): any shard of S
        # invalidates all partials of the query.
        sharded.insert_into("S", [(500, 501)])
        signature = executor.compiler.signature(query)
        assert partial_key(signature, 0) not in partial_cache
        assert partial_key(signature, 1) not in partial_cache

    def test_count_only_reconciles_with_replayed_partials(self):
        from repro.api import TrieJaxAccelerator

        sharded = two_relation_catalog()
        partial_cache = ResultCache(64)
        sharded.subscribe_invalidation(partial_cache.invalidate)
        executor = ScatterGatherExecutor(sharded, partial_cache)
        query = rs_path_query()
        executor.execute(query, create_engine("ctj"))  # caches both partials
        # Drop only shard 0's partial, then count with an aggregating engine:
        # shard 0 computes a count, shard 1 replays cached tuples — the two
        # must reconcile to the full cardinality.
        partitioner = sharded.partitioner_for("R")
        row = next((v, v + 50) for v in range(1000) if partitioner.shard_of(v) == 0)
        sharded.insert_into("R", [row])
        execution = executor.execute(query, TrieJaxAccelerator(aggregate="count"))
        reference = create_engine("ctj").execute(query, sharded.global_database)
        assert execution.cardinality == len(reference.tuples)

    def test_concurrent_duplicates_do_not_replay_unfinished_partials(self):
        sharded = two_relation_catalog()
        service = QueryService(sharded, backends=("ctj",), max_in_flight=2, seed=1)
        query = rs_path_query()
        # Two identical requests arrive together; both dispatch before either
        # completes, so neither may observe the other's unfinished partials.
        service.submit(query, arrival_time=0.0)
        service.submit(query, arrival_time=0.0)
        service.drain()
        assert service.scatter.partial_cache.stats.hits == 0
        # Once the drain completed the partials are published; drop the
        # full-result entry so the next serving reaches the scatter path.
        service.result_cache.clear()
        outcome = service.serve(query)
        assert service.scatter.partial_cache.stats.hits > 0
        reference = create_engine("ctj").execute(query, sharded.global_database)
        assert set(outcome.tuples) == set(reference.tuples)

    def test_result_cache_hit_builds_no_scatter_spec(self, monkeypatch):
        service = QueryService(two_relation_catalog(), backends=("ctj",), seed=1)
        service.serve(rs_path_query())  # the miss caches the full result
        calls = []
        monkeypatch.setattr(service.scatter, "spec_for", calls.append)
        assert service.serve(rs_path_query()).record.result_cache_hit and not calls

    def test_result_cache_keeps_entries_of_unrelated_relations(self):
        sharded = two_relation_catalog()
        cache = ResultCache(16)
        sharded.subscribe_invalidation(cache.invalidate)
        cache.put_result("q_r", [(1,)], [("R", 0)])
        cache.put_result("q_r1", [(2,)], [("R", 1)])
        cache.put_result("q_s", [(3,)], ["S"])
        partitioner = sharded.partitioner_for("R")
        row = next((v, v + 1) for v in range(1000) if partitioner.shard_of(v) == 0)
        dropped_before = cache.stats.invalidations
        sharded.insert_into("R", [row])
        assert "q_r" not in cache  # dependent on (R, 0)
        assert "q_r1" in cache  # pinned to the untouched shard
        assert "q_s" in cache  # different relation entirely
        assert cache.stats.invalidations == dropped_before + 1


# --------------------------------------------------------------------------- #
# Satellite: mutation during a running workload
# --------------------------------------------------------------------------- #
class TestMutationDuringWorkload:
    def test_mid_stream_update_invalidates_and_refreshes(self):
        database = workload_database(num_vertices=40, num_edges=200, seed=11)
        sharded = shard_database(database, 2, partitioner="hash")
        service = QueryService(sharded, backends=("ctj",), seed=11)
        query = pattern_query("cycle3")

        before = service.serve(query)
        assert service.result_cache.stats.invalidations == 0

        # The mutation lands between two servings of the same query.
        new_edges = [(0, 37), (37, 21), (21, 0)]  # closes a fresh triangle
        service.insert_tuples("E", new_edges)
        assert service.result_cache.stats.invalidations >= 1

        after = service.serve(query)
        reference = create_engine("ctj").execute(query, sharded.global_database)
        assert set(after.tuples) == set(reference.tuples)
        assert set(before.tuples) < set(after.tuples)  # new triangle appeared

    def test_update_heavy_workload_stream_stays_correct(self):
        database = workload_database(num_vertices=40, num_edges=200, seed=5)
        sharded = shard_database(database, 2)
        service = QueryService(sharded, backends=("lftj", "ctj"), seed=5)
        spec = WorkloadSpec(
            num_queries=60,
            queries=("cycle3", "path3"),
            mode="closed",
            rename_fraction=0.3,
            update_fraction=0.2,
            update_domain=40,
        )
        requests = generate_requests(spec, seed=5)
        updates = [r for r in requests if r.kind == "update"]
        queries = [r for r in requests if r.kind == "query"]
        assert updates and queries
        outcomes = run_workload(service, requests)
        assert len(outcomes) == len(queries)
        # After the stream, a fresh serving agrees with a direct engine run
        # on the final catalog state (all updates applied).
        final = service.serve(pattern_query("cycle3"))
        reference = create_engine("ctj").execute(
            pattern_query("cycle3"), sharded.global_database
        )
        assert set(final.tuples) == set(reference.tuples)

    def test_untouched_shard_partials_survive_stream_mutations(self):
        sharded = two_relation_catalog()
        service = QueryService(sharded, backends=("ctj",), seed=3)
        query = rs_path_query()
        service.serve(query)
        partial_cache = service.scatter.partial_cache
        signature = service.compiler.signature(query)
        partitioner = sharded.partitioner_for("R")
        row = next((v, v + 77) for v in range(1000) if partitioner.shard_of(v) == 1)
        service.insert_tuples("R", [row])
        assert partial_key(signature, 0) in partial_cache
        assert partial_key(signature, 1) not in partial_cache
        outcome = service.serve(query)
        reference = create_engine("ctj").execute(query, sharded.global_database)
        assert set(outcome.tuples) == set(reference.tuples)


# --------------------------------------------------------------------------- #
# "auto" routing over sharded catalogs
# --------------------------------------------------------------------------- #
class TestShardedRouting:
    @pytest.mark.parametrize("name", ["path3", "path4", "cycle3", "cycle4", "clique4"])
    def test_two_shards_route_like_the_monolithic_session(self, base_db, name):
        monolithic = Session(base_db)
        sharded = Session(base_db, shards=2)
        assert sharded.num_shards == 2
        chosen = monolithic.explain(name).decision.chosen
        assert sharded.explain(name).decision.chosen == chosen == "lftj"
        monolithic.close()
        sharded.close()

    def test_routing_still_picks_an_engine(self, base_db):
        sharded = shard_database(base_db, 2)
        session = Session(sharded, engines=("lftj", "ctj", "naive"))
        assert session.explain("cycle3").decision.chosen == "lftj"


# --------------------------------------------------------------------------- #
# Workload realism: Zipf popularity
# --------------------------------------------------------------------------- #
class TestZipfWorkloads:
    def test_zipf_skews_pattern_popularity(self):
        spec = WorkloadSpec(
            num_queries=400,
            queries=("cycle3", "path3", "path4", "cycle4"),
            mode="closed",
            rename_fraction=0.0,
            zipf_skew=1.5,
        )
        requests = generate_requests(spec, seed=42)
        counts = {}
        for request in requests:
            counts[request.query.name] = counts.get(request.query.name, 0) + 1
        assert counts["cycle3"] > counts["path3"] > counts["cycle4"]
        # Rank 1 should dominate a uniform share by a wide margin.
        assert counts["cycle3"] > 400 / 4 * 1.5

    def test_uniform_draw_unchanged_without_skew(self):
        spec = WorkloadSpec(num_queries=50, mode="closed")
        assert [r.query.name for r in generate_requests(spec, seed=9)] == [
            r.query.name for r in generate_requests(spec, seed=9)
        ]

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(zipf_skew=-1.0)
        with pytest.raises(ValueError):
            WorkloadSpec(update_fraction=1.5)


# --------------------------------------------------------------------------- #
# Satellite: LRU stats accounting (replacements vs insertions, clears)
# --------------------------------------------------------------------------- #
class TestLRUCacheStatsAccounting:
    def test_replacement_is_not_a_fresh_insertion(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.stats.insertions == 1
        assert cache.stats.replacements == 1
        assert cache.get("a") == 2
        # A replacement must never trigger an eviction.
        cache.put("b", 1)
        cache.put("b", 2)
        assert cache.stats.evictions == 0

    def test_clear_counts_clears_not_invalidations(self):
        cache = LRUCache(capacity=8)
        for key in "abc":
            cache.put(key, 0)
        cache.discard("a")
        cache.clear()
        assert cache.stats.invalidations == 1  # the targeted discard only
        assert cache.stats.clears == 2  # the two entries clear() removed
        assert len(cache) == 0
        stats = cache.stats.as_dict()
        assert stats["clears"] == 2 and stats["replacements"] == 0

    def test_result_cache_clear_cleans_dependency_index(self):
        cache = ResultCache(capacity=8)
        cache.put_result("q1", [(1,)], [("E", 0)])
        cache.clear()
        assert cache.stats.clears == 1
        assert cache.invalidate_relation("E") == 0  # index fully cleaned

    def test_put_result_replacement_rebinds_dependencies(self):
        cache = ResultCache(capacity=8)
        cache.put_result("q", [(1,)], [("E", 0)])
        cache.put_result("q", [(2,)], [("F", 1)])
        assert cache.stats.replacements == 1
        assert cache.dependencies_of("q") == (("F", 1),)
        assert cache.invalidate_relation("E") == 0  # stale index entry gone
        assert cache.invalidate_relation("F") == 1
