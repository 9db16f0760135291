"""Tracing through the serving stack: determinism, completeness, accounting.

The acceptance properties of the observability layer:

* a traced seeded workload on the virtual backend exports **byte-identical**
  JSONL run-to-run;
* the process backend produces the **same span tree** (ids, parentage,
  virtual times, attributes) — only wall-clock fields differ;
* every query's root span covers exactly the request's recorded latency,
  and its admission + execute children account for all of it;
* catalog mutations emit process-lane events carrying invalidation counts;
* scatter-gather executions expose per-shard legs, with wall timings only
  where the process backend measured them;
* a degraded and a failed answer export valid spans that summarize as such.
"""

import io
import json

import pytest

from repro.api import Session
from repro.graphs import pattern_query
from repro.obs import (
    PROCESS_TRACE_ID,
    Tracer,
    read_jsonl,
    summarize_trace,
    validate_span_dict,
    write_jsonl,
)
from repro.relational.sharding import shard_database
from repro.service import (
    QueryService,
    ShardUnavailableError,
    WorkloadSpec,
    generate_requests,
    run_workload,
    workload_database,
)


def _database(shards: int = 1):
    database = workload_database(num_vertices=50, num_edges=240, seed=5)
    if shards > 1:
        database = shard_database(database, shards)
    return database


def _traced_workload_jsonl(backend: str, workers=None, shards: int = 1) -> str:
    service = QueryService(
        _database(shards),
        backends=("lftj", "ctj"),
        max_in_flight=4,
        seed=11,
        backend=backend,
        workers=workers,
        tracer=True,
    )
    spec = WorkloadSpec(
        num_queries=40,
        mode="mixed",
        rename_fraction=0.5,
        update_fraction=0.1,
        update_domain=50,
    )
    try:
        run_workload(service, generate_requests(spec, seed=7))
        buffer = io.StringIO()
        write_jsonl(service.tracer, buffer)
        return buffer.getvalue()
    finally:
        service.close()


def _strip_wall(jsonl: str) -> list:
    stripped = []
    for line in jsonl.splitlines():
        span = json.loads(line)
        span.pop("wall_elapsed_s", None)
        stripped.append(span)
    return stripped


class TestDeterminism:
    def test_virtual_trace_is_byte_identical(self):
        first = _traced_workload_jsonl("virtual")
        second = _traced_workload_jsonl("virtual")
        assert first.encode() == second.encode()

    @pytest.mark.parametrize("shards", [1, 2])
    def test_process_same_tree_only_wall_differs(self, shards):
        virtual = _traced_workload_jsonl("virtual", shards=shards)
        pooled = _traced_workload_jsonl("process", workers=2, shards=shards)
        assert _strip_wall(virtual) == _strip_wall(pooled)
        # The process run did measure wall time somewhere...
        assert any("wall_elapsed_s" in json.loads(line) for line in pooled.splitlines())
        # ...and the virtual run nowhere.
        assert all(
            "wall_elapsed_s" not in json.loads(line) for line in virtual.splitlines()
        )

    def test_exported_spans_are_schema_valid(self):
        for line in _traced_workload_jsonl("process", workers=2).splitlines():
            assert validate_span_dict(json.loads(line)) == []


class TestSpanAccounting:
    @pytest.fixture(scope="class")
    def traced_service(self):
        service = QueryService(
            _database(), backends=("lftj", "ctj"), max_in_flight=4, seed=11, tracer=True
        )
        spec = WorkloadSpec(num_queries=30, mode="mixed", rename_fraction=0.5)
        run_workload(service, generate_requests(spec, seed=7))
        yield service
        service.close()

    def test_one_root_span_per_completed_request(self, traced_service):
        roots = [s for s in traced_service.tracer.spans if s.trace_id != PROCESS_TRACE_ID]
        assert len(roots) == len(traced_service.metrics.records)

    def test_root_duration_equals_recorded_latency(self, traced_service):
        records = {r.request_id: r for r in traced_service.metrics.records}
        roots = [s for s in traced_service.tracer.spans if s.trace_id != PROCESS_TRACE_ID]
        assert roots
        for root in roots:
            record = records[root.attributes["request_id"]]
            assert root.duration_ns == pytest.approx(record.latency)
            admission = root.find("admission")
            execute = root.find("execute")
            # Admission wait + execution account for the whole latency.
            assert admission.duration_ns + execute.duration_ns == pytest.approx(
                record.latency
            )
            assert admission.duration_ns == pytest.approx(record.queue_wait)

    def test_execute_span_carries_engine_counters(self, traced_service):
        roots = [s for s in traced_service.tracer.spans if s.trace_id != PROCESS_TRACE_ID]
        executed = [
            r.find("execute")
            for r in roots
            if not r.find("execute").attributes.get("result_cache_hit")
        ]
        assert executed
        for execute in executed:
            assert execute.attributes["cost_ns"] == execute.duration_ns
            assert "stats.lub_searches" in execute.attributes
            assert "cardinality" in execute.attributes

    def test_cache_hits_traced_as_events_or_spans(self, traced_service):
        roots = [s for s in traced_service.tracer.spans if s.trace_id != PROCESS_TRACE_ID]
        hits = [
            root
            for root in roots
            if any(e.name == "result_cache_hit" for s in root.walk() for e in s.events)
        ]
        # The 50% rename workload guarantees repeats → result-cache hits.
        assert hits
        plan_probes = [root.find("plan_cache") for root in roots]
        assert any(p is not None and p.attributes.get("hit") for p in plan_probes)


class TestMutationEvents:
    def test_catalog_mutations_emit_invalidation_counts(self):
        service = QueryService(_database(), backends=("lftj",), seed=3, tracer=True)
        try:
            service.serve(pattern_query("cycle3"))
            service.drain()
            before = len(service.tracer.spans)
            service.insert_tuples("E", [(997, 998), (998, 997)])
            events = service.tracer.spans[before:]
            assert [e.name for e in events] == ["catalog_mutation"]
            event = events[0]
            assert event.trace_id == PROCESS_TRACE_ID
            assert event.attributes["relation"] == "E"
            assert event.attributes["rows_inserted"] == 2
            # The insert is logged; the cached result is patched when read.
            assert event.attributes["invalidated_results"] == 0
            assert event.attributes["patched_results"] == 0
            service.serve(pattern_query("cycle3"))
            assert service.result_cache.stats.patches == 1
        finally:
            service.close()

    def test_mutation_that_empties_the_partial_cache_counts_its_drops(self):
        # An emptied ResultCache is falsy (it defines __len__); the span must
        # still read its counters.  The insert more than doubles the
        # relation, so every cached entry's backlog outgrows what the
        # relation held when it was cached, and both partials drop.
        database = shard_database(
            workload_database(num_vertices=40, num_edges=200, seed=5), 2
        )
        service = QueryService(database, backends=("lftj",), tracer=True)
        try:
            service.serve(pattern_query("cycle3"))
            partial_cache = service.scatter.partial_cache
            assert len(partial_cache) == 2
            size = database.relation("E").cardinality
            service.insert_tuples("E", [(100 + i, 200 + i) for i in range(size + 1)])
            assert len(partial_cache) == 0
            event = service.tracer.spans[-1]
            assert event.name == "catalog_mutation"
            assert partial_cache.stats.drops == 2
            assert event.attributes["invalidated_partials"] == 2
        finally:
            service.close()

    def test_untraced_insert_has_no_tracer_cost(self):
        service = QueryService(_database(), backends=("lftj",), seed=3)
        try:
            service.insert_tuples("E", [(997, 998)])
            assert len(service.tracer) == 0
        finally:
            service.close()


class TestScatterLegs:
    def _sharded_roots(self, backend: str, workers=None):
        service = QueryService(
            _database(shards=2),
            backends=("lftj",),
            seed=3,
            backend=backend,
            workers=workers,
            tracer=True,
        )
        try:
            service.serve(pattern_query("cycle3"))
            service.drain()
            return [
                s for s in service.tracer.spans if s.trace_id != PROCESS_TRACE_ID
            ]
        finally:
            service.close()

    def test_execute_span_has_per_shard_legs(self):
        (root,) = self._sharded_roots("virtual")
        execute = root.find("execute")
        shard_legs = [c for c in execute.children if c.name == "shard"]
        assert len(shard_legs) == execute.attributes["scatter.shards"] == 2
        assert {leg.attributes["shard"] for leg in shard_legs} == {0, 1}
        dispatch = execute.find("scatter_dispatch")
        gather = execute.find("gather")
        assert dispatch is not None and gather is not None
        # Legs start when dispatch ends; gather starts at the critical path.
        for leg in shard_legs:
            assert leg.start_ns == dispatch.end_ns
        assert gather.start_ns == max(leg.end_ns for leg in shard_legs)
        assert gather.end_ns <= execute.end_ns
        # Serial fan-out measures no per-shard wall time.
        assert all(leg.wall_elapsed_s is None for leg in shard_legs)

    def test_process_scatter_legs_carry_wall_time(self):
        (root,) = self._sharded_roots("process", workers=2)
        execute = root.find("execute")
        shard_legs = [c for c in execute.children if c.name == "shard"]
        measured = [leg for leg in shard_legs if leg.wall_elapsed_s is not None]
        assert measured, "concurrent fan-out should measure per-shard wall time"
        assert all(leg.wall_elapsed_s >= 0 for leg in measured)


class TestTracedShardLoss:
    """A ``down:`` fault plan, traced under both shard-loss policies."""

    def _traced(self, tmp_path, on_shard_loss, faults, **options):
        session = Session(
            workload_database(num_vertices=40, num_edges=200, seed=5),
            engines=("lftj",),
            shards=4,
            faults=faults,
            on_shard_loss=on_shard_loss,
            trace=True,
            **options,
        )
        with session:
            try:
                outcome = session.execute(pattern_query("cycle3", "E"))
                outcome.tuples
            except ShardUnavailableError as error:
                outcome = error
            path = str(tmp_path / f"{on_shard_loss}.jsonl")
            write_jsonl(session.tracer, path)
        spans = read_jsonl(path)
        assert all(validate_span_dict(span) == [] for span in spans)
        (execute,) = [span for span in spans if span["name"] == "execute"]
        return outcome, execute, spans, summarize_trace(path)

    def test_a_degraded_answer_exports_its_lost_and_replica_legs(self, tmp_path):
        # Shard 2 and its replica's node are down; shard 3 retries onto its
        # replica on node 1.
        result, execute, spans, summary = self._traced(
            tmp_path, "partial", "down:2; down:3", replication_factor=2
        )
        assert result.degraded and result.missing_shards == (2,)
        assert execute["attributes"]["scatter.degraded"] is True
        assert execute["attributes"]["scatter.missing_shards"] == [2]
        assert execute["attributes"]["scatter.retries"] >= 1
        legs = {
            span["attributes"]["shard"]: span for span in spans if span["name"] == "shard"
        }
        assert legs[2]["attributes"]["lost"] is True
        assert legs[3]["attributes"]["replica"] == 1
        assert [event["name"] for event in legs[3]["events"]] == ["retried"]
        assert "degraded (missing 2)" in summary
        text = result.shard_stats.describe()
        assert "shard 2: 0 tuples" in text and "LOST after 4 attempt(s)" in text
        assert "(computed, 1 retry, replica 1)" in text
        assert text.endswith("DEGRADED: missing shard(s) [2]")

    def test_a_failed_answer_exports_a_failed_execute_span(self, tmp_path):
        error, execute, _, summary = self._traced(tmp_path, "fail", "down:2")
        assert isinstance(error, ShardUnavailableError) and error.shards == (2,)
        attributes = execute["attributes"]
        assert attributes["failed"] is True
        assert attributes["error"] == "shard_unavailable"
        assert attributes["missing_shards"] == [2]
        assert attributes["cost_ns"] == execute["end_ns"] - execute["start_ns"]
        assert "failed" in summary.split("fault tolerance")[1]


class TestSessionTracing:
    def test_session_trace_covers_sync_executions(self, small_community_db):
        session = Session(small_community_db, trace=True)
        session.execute("cycle3").to_list()
        session.execute("cycle3").to_list()  # result-cache hit
        roots = session.tracer.spans
        assert len(roots) == 2
        first, second = roots
        assert first.attributes["source"] == "session"
        execute = first.find("execute")
        assert execute.attributes["cost_ns"] == execute.duration_ns
        # Second run hits the result cache and is traced as such.
        assert any(e.name == "result_cache_hit" for e in second.events)
        assert second.find("execute").attributes["result_cache_hit"]

    def test_session_traces_advance_monotonically(self, small_community_db):
        session = Session(small_community_db, trace=True)
        session.execute("cycle3").to_list()
        session.execute("path3").to_list()
        first, second = session.tracer.spans
        assert second.start_ns >= first.end_ns

    def test_lazy_resultsets_trace_only_on_consumption(self, small_community_db):
        session = Session(small_community_db, trace=True)
        result = session.execute("cycle3")
        assert len(session.tracer) == 0  # nothing forced yet
        result.to_list()
        assert len(session.tracer) == 1

    def test_session_trace_off_by_default(self, small_community_db):
        session = Session(small_community_db)
        result = session.execute("cycle3")
        result.to_list()
        assert not session.tracer.enabled
        assert len(session.tracer) == 0
        assert result.trace is None

    def test_resultset_exposes_trace(self, small_community_db):
        session = Session(small_community_db, trace=True)
        trace = session.execute("cycle3").trace
        assert trace is not None and trace.name == "query"
        assert trace.span_id is not None


class TestTracerInjection:
    def test_shared_tracer_instance_passes_through(self):
        tracer = Tracer()
        service = QueryService(_database(), backends=("lftj",), seed=3, tracer=tracer)
        try:
            assert service.tracer is tracer
            service.serve(pattern_query("cycle3"))
            service.drain()
            assert len(tracer) == 1
        finally:
            service.close()

    def test_tracer_disabled_by_default(self):
        service = QueryService(_database(), backends=("lftj",), seed=3)
        try:
            assert not service.tracer.enabled
            service.serve(pattern_query("cycle3"))
            service.drain()
            assert len(service.tracer) == 0
        finally:
            service.close()
