"""Process-backend tests: pickling, shared-memory segments, equivalence.

Four layers of pinning, mirroring ``tests/test_service_concurrency.py``:

* **pickling** — ``SlotProgram``, ``JoinPlan`` (drops its cached slot
  program, recompiles identically), engines and whole ``WorkRequest``
  objects must round-trip through ``pickle`` unchanged;
* **segment lifecycle** — export/attach/unlink of shared-memory trie
  segments, stale-segment invalidation after a catalog mutation, and the
  idempotent-close/zero-leak contract;
* **worker execution** — ``execute_work_request`` over attached segments
  must produce the bit-identical ``EngineExecution`` (tuples, cost,
  JoinStats) of an inline run, and ``SegmentCatalog`` must reject queries
  whose relations were not shipped;
* **equivalence harness** — the process backend must reproduce the
  virtual-time oracle's result sets, records, cache contents and
  admission decisions over engines × hash/range partitioners ×
  shards {1, 2} with mid-stream updates, survive a worker crash
  mid-drain (inline fallback), and tear down without leaking a segment.

``REPRO_CONCURRENCY_REPEATS`` (CI sets it > 1) re-runs the seeded
equivalence cases, matching the thread-backend suite.
"""

import dataclasses
import os
import pickle

import pytest

from repro.api import Session, create_engine
from repro.graphs import pattern_query
from repro.joins.compiler import QueryCompiler
from repro.joins.plan import SlotProgram
from repro.relational.catalog import Database
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.sharding import shard_database
from repro.service import (
    EXECUTION_BACKEND_NAMES,
    EXECUTION_BACKENDS,
    ProcessPoolBackend,
    QueryService,
    WorkloadSpec,
    create_execution_backend,
    generate_requests,
    run_workload,
    workload_database,
)
from repro.service.shm import (
    ProcessPoolBrokenWarning,
    SegmentCatalog,
    SegmentHandle,
    SharedMemoryRunner,
    TrieSegmentExporter,
    WorkRequest,
    execute_work_request,
    ordered_attributes_for,
)

#: Seeded repeats of the equivalence cases (CI sets this higher).
REPEATS = max(1, int(os.environ.get("REPRO_CONCURRENCY_REPEATS", "1")))


def _compiled(query, database):
    """(canonical query, plan) as the service's dispatch path compiles them."""
    compiler = QueryCompiler(enable_caching=False)
    _signature, canonical, plan = compiler.compile_canonical(query)
    database.validate_query(canonical)
    return canonical, plan


# --------------------------------------------------------------------------- #
# Pickling
# --------------------------------------------------------------------------- #
class TestPickling:
    def test_slot_program_round_trips(self):
        database = workload_database(num_vertices=30, num_edges=120, seed=3)
        _canonical, plan = _compiled(pattern_query("cycle3"), database)
        program = plan.slot_program()
        restored = pickle.loads(pickle.dumps(program))
        assert isinstance(restored, SlotProgram)
        assert restored == program  # frozen dataclass: full field equality

    def test_join_plan_drops_cached_slot_program_and_recompiles(self):
        database = workload_database(num_vertices=30, num_edges=120, seed=3)
        _canonical, plan = _compiled(pattern_query("clique4"), database)
        original_program = plan.slot_program()  # memoise before pickling
        restored = pickle.loads(pickle.dumps(plan))
        # The cached program is not shipped (pure function of the plan) ...
        assert "_slot_program" not in restored.__dict__
        # ... and the receiving process recompiles it identically.
        assert restored.slot_program() == original_program
        assert restored.variable_order == plan.variable_order
        assert restored.describe() == plan.describe()

    def test_software_engines_round_trip_and_execute_identically(self):
        database = workload_database(num_vertices=30, num_edges=120, seed=3)
        canonical, plan = _compiled(pattern_query("cycle3"), database)
        for name in ("lftj", "ctj", "generic"):
            engine = create_engine(name)
            clone = pickle.loads(pickle.dumps(engine))
            ours = engine.execute(canonical, database, plan=plan)
            theirs = clone.execute(canonical, database, plan=plan)
            assert sorted(theirs.tuples) == sorted(ours.tuples)
            assert theirs.cost == ours.cost
            assert theirs.stats == ours.stats

    def test_work_request_round_trips(self):
        database = workload_database(num_vertices=30, num_edges=120, seed=3)
        canonical, plan = _compiled(pattern_query("cycle3"), database)
        engine = create_engine("lftj")
        runner = SharedMemoryRunner(workers=1)
        try:
            request = runner._build_request(
                runner._engine_bytes(engine), canonical, plan, database
            )
            restored = pickle.loads(pickle.dumps(request))
            assert restored.engine_bytes == request.engine_bytes
            assert restored.schemas == request.schemas
            assert restored.segments == request.segments  # frozen handles
            assert restored.query.to_datalog() == request.query.to_datalog()
            assert restored.plan.slot_program() == request.plan.slot_program()
        finally:
            runner.close()


# --------------------------------------------------------------------------- #
# Segment lifecycle
# --------------------------------------------------------------------------- #
class TestSegmentLifecycle:
    def test_export_attach_unlink_cycle(self):
        database = workload_database(num_vertices=30, num_edges=120, seed=3)
        trie = database.trie("E", ("src", "dst"))
        exporter = TrieSegmentExporter()
        try:
            handle = exporter.export(trie)
            assert handle is not None
            assert handle.owner_pid == os.getpid()
            assert exporter.active_segments() == (handle.name,)
            # Same trie exports once; the handle is cached by identity.
            assert exporter.export(trie) is handle
            # An in-process attach decodes the same tuples zero-copy,
            # tolerating the page-rounded block (exact_size=False path).
            from multiprocessing import shared_memory

            block = shared_memory.SharedMemory(name=handle.name)
            try:
                assert block.size >= handle.nbytes  # page rounding is real
            finally:
                block.close()
        finally:
            exporter.close()
        # Closed exporter unlinked the block: attaching now fails.
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=handle.name)

    def test_mutation_invalidates_only_the_touched_relation(self):
        database = workload_database(num_vertices=30, num_edges=120, seed=3)
        other = Relation("F", Schema(("src", "dst")), [(1, 2), (2, 3)])
        database.add_relation(other)
        exporter = TrieSegmentExporter()
        database.subscribe_invalidation(exporter.invalidate)
        try:
            e_handle = exporter.export(database.trie("E", ("src", "dst")))
            f_handle = exporter.export(database.trie("F", ("src", "dst")))
            assert exporter.active_segments() == tuple(
                sorted((e_handle.name, f_handle.name))
            )
            # A real catalog mutation drops E's segment (stale data must
            # never be attachable again) and leaves F's alone.
            database.insert_into("E", [(997, 998)])
            assert exporter.active_segments() == (f_handle.name,)
            from multiprocessing import shared_memory

            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=e_handle.name)
        finally:
            database.unsubscribe_invalidation(exporter.invalidate)
            exporter.close()

    def test_close_is_idempotent_and_export_after_close_raises(self):
        database = workload_database(num_vertices=30, num_edges=120, seed=3)
        exporter = TrieSegmentExporter()
        exporter.export(database.trie("E", ("src", "dst")))
        exporter.close()
        exporter.close()  # second close is a no-op, not an error
        assert exporter.active_segments() == ()
        with pytest.raises(RuntimeError, match="closed"):
            exporter.export(database.trie("E", ("src", "dst")))


# --------------------------------------------------------------------------- #
# Worker-side execution (run in-process: same code path, no pool needed)
# --------------------------------------------------------------------------- #
class TestWorkerExecution:
    @pytest.mark.parametrize("engine_name", ["lftj", "ctj", "generic"])
    @pytest.mark.parametrize("pattern", ["cycle3", "clique4", "path4"])
    def test_execute_work_request_matches_inline(self, engine_name, pattern):
        database = workload_database(num_vertices=30, num_edges=120, seed=3)
        canonical, plan = _compiled(pattern_query(pattern), database)
        engine = create_engine(engine_name)
        runner = SharedMemoryRunner(workers=1)
        try:
            request = runner._build_request(
                runner._engine_bytes(engine), canonical, plan, database
            )
            shipped, wall = execute_work_request(request)
            inline = engine.execute(canonical, database, plan=plan)
            assert sorted(shipped.tuples) == sorted(inline.tuples)
            assert shipped.cost == inline.cost
            assert shipped.stats == inline.stats
            assert shipped.plan_used == inline.plan_used
            assert shipped.plan is None  # stripped; orchestrator re-attaches
            assert wall >= 0.0
        finally:
            runner.close()

    @pytest.mark.parametrize("engine_name", ["lftj", "ctj", "generic"])
    def test_tries_at_the_word_bounds_ship(self, engine_name):
        """Every trie exports: values at both ends of the 64-bit range attach
        zero-copy in the worker and join exactly as inline."""
        lowest, highest = -(2**63), 2**63 - 1
        database = Database("bounds")
        database.add_relation(
            Relation(
                "E",
                Schema(("src", "dst")),
                [(lowest, highest), (highest, 0), (0, lowest), (0, highest)],
            )
        )
        canonical, plan = _compiled(pattern_query("cycle3"), database)
        engine = create_engine(engine_name)
        runner = SharedMemoryRunner(workers=1)
        try:
            request = runner._build_request(
                runner._engine_bytes(engine), canonical, plan, database
            )
            shipped, _wall = execute_work_request(request)
            inline = engine.execute(canonical, database, plan=plan)
            assert len(inline.tuples) == 3
            assert shipped.tuples == inline.tuples
            assert shipped.stats == inline.stats
        finally:
            runner.close()

    def test_segment_catalog_rejects_unshipped_relations(self):
        database = workload_database(num_vertices=30, num_edges=120, seed=3)
        canonical, plan = _compiled(pattern_query("cycle3"), database)
        engine = create_engine("lftj")
        runner = SharedMemoryRunner(workers=1)
        try:
            request = runner._build_request(
                runner._engine_bytes(engine), canonical, plan, database
            )
            catalog = SegmentCatalog(request)
            catalog.validate_query(canonical)  # the shipped query is fine
            stranger = pattern_query("cycle3")
            alien = dataclasses.replace(stranger.atoms[0], relation="Ghost")
            with pytest.raises(KeyError, match="Ghost"):
                catalog.validate_query(
                    type(stranger)(
                        stranger.name,
                        stranger.head_variables,
                        (alien,) + tuple(stranger.atoms[1:]),
                    )
                )
        finally:
            runner.close()

    def test_plan_blind_engines_decline_offload(self):
        runner = SharedMemoryRunner(workers=1)
        try:
            naive = create_engine("naive")  # plan-blind: never shipped
            assert runner._engine_bytes(naive) is None
        finally:
            runner.close()

    def test_exactly_the_plan_kernel_engines_ship(self):
        runner = SharedMemoryRunner(workers=1)
        try:
            names = ("naive", "lftj", "ctj", "generic", "pairwise", "triejax")
            shipped = {
                name for name in names if runner._engine_bytes(create_engine(name)) is not None
            }
            assert shipped == {"lftj", "ctj", "generic"}
        finally:
            runner.close()

    def test_ordered_attributes_require_covering_order(self):
        query = pattern_query("cycle3")
        atom = query.atoms[0]
        assert ordered_attributes_for(atom, ("src", "dst"), ("x", "y", "z")) in (
            ("src", "dst"),
            ("dst", "src"),
        )
        with pytest.raises(ValueError, match="does not cover"):
            ordered_attributes_for(atom, ("src", "dst"), ("x",))


# --------------------------------------------------------------------------- #
# The engine-work hook, on every execution backend
# --------------------------------------------------------------------------- #
class TestRunEngineHook:
    @pytest.mark.parametrize("backend_name", EXECUTION_BACKEND_NAMES)
    def test_run_engine_matches_inline_in_view_order(self, backend_name):
        database = shard_database(
            workload_database(num_vertices=40, num_edges=200, seed=5), 3
        )
        spec = database.scatter_spec(pattern_query("cycle3"))
        plan = QueryCompiler(enable_caching=False).compile(spec.query)
        views = [database.shard_view(shard, spec) for shard in range(3)]
        engine = create_engine("lftj")
        inline = [engine.execute(spec.query, view, plan=plan) for view in views]
        backend = create_execution_backend(backend_name, workers=2)
        try:
            if backend_name == "process":
                backend._runner.bind(database)  # as _start does
            results = backend.run_engine(engine, spec.query, plan, views)
            assert len(results) == len(inline)
            for (execution, wall), expected in zip(results, inline):
                assert execution.tuples == expected.tuples
                assert execution.cost == expected.cost
                assert execution.stats == expected.stats
                assert (wall is None) == (backend_name == "virtual")
            if backend_name != "process":
                return
            # A capability decline runs the threaded hook and is not counted:
            # a plan-blind engine, even when handed a plan.
            naive = create_engine("naive")
            blind = backend.run_engine(naive, spec.query, plan, views)
            assert [e.tuples for e, _ in blind] == [
                naive.execute(spec.query, view).tuples for view in views
            ]
            assert backend.inline_fallbacks == 0
            # A broken pool falls back too, and every such call is counted.
            backend._runner.crash_after = 0
            with pytest.warns(ProcessPoolBrokenWarning):
                crashed = backend.run_engine(engine, spec.query, plan, views)
            assert [e.tuples for e, _ in crashed] == [e.tuples for e in inline]
            assert backend.inline_fallbacks == 3
        finally:
            backend.close()


# --------------------------------------------------------------------------- #
# Process-vs-virtual equivalence harness (mirrors the threads suite)
# --------------------------------------------------------------------------- #
def _build_database(shards: int, seed: int, partitioner: str = "hash"):
    database = workload_database(num_vertices=50, num_edges=240, seed=seed)
    if shards > 1:
        database = shard_database(database, shards, partitioner=partitioner)
    return database


def _snapshot(service: QueryService, outcomes) -> dict:
    snapshot = {
        "tuples": {rid: outcome.tuples for rid, outcome in outcomes.items()},
        "records": [
            dataclasses.replace(record, wall_elapsed=None)
            for record in service.metrics.records
        ],
        "plan_stats": service.plan_cache.stats.as_dict(),
        "plan_keys": service.plan_cache.keys(),
        "result_stats": service.result_cache.stats.as_dict(),
        "result_keys": service.result_cache.keys(),
        "admission": service.admission.stats.as_dict(),
        "rejected": service.rejected_requests,
    }
    if service.scatter is not None and service.scatter.partial_cache is not None:
        snapshot["partial_stats"] = service.scatter.partial_cache.stats.as_dict()
        snapshot["partial_keys"] = service.scatter.partial_cache.keys()
    return snapshot


def _run_workload_snapshot(
    backend: str,
    workers,
    shards: int = 1,
    partitioner: str = "hash",
    seed: int = 11,
    stream_seed: int = 7,
) -> dict:
    service = QueryService(
        _build_database(shards, seed=5, partitioner=partitioner),
        backends=("lftj", "ctj"),
        max_in_flight=4,
        seed=seed,
        backend=backend,
        workers=workers,
    )
    spec = WorkloadSpec(
        num_queries=60,
        mode="mixed",
        rename_fraction=0.5,
        update_fraction=0.1,  # mid-stream updates stress invalidation
        update_domain=50,
    )
    try:
        outcomes = run_workload(service, generate_requests(spec, seed=stream_seed))
        snapshot = _snapshot(service, outcomes)
        snapshot["in_flight_after"] = service.admission.in_flight
        snapshot["wall_spans"] = sum(
            1 for r in service.metrics.records if r.wall_elapsed is not None
        )
        if backend == "process":
            snapshot["segments_live"] = len(
                service.execution_backend.active_segments()
            )
    finally:
        service.close()
    if backend == "process":
        snapshot["segments_after_close"] = len(
            service.execution_backend.active_segments()
        )
    return snapshot


class TestProcessEquivalence:
    """Acceptance: process ≡ virtual over partitioners × shards, zero leaks."""

    @pytest.mark.parametrize("repeat", range(REPEATS))
    @pytest.mark.parametrize(
        ("shards", "partitioner"),
        [(1, "hash"), (2, "hash"), (2, "range")],
    )
    def test_process_matches_virtual(self, shards, partitioner, repeat):
        baseline = _run_workload_snapshot(
            "virtual", None, shards=shards, partitioner=partitioner
        )
        processed = _run_workload_snapshot(
            "process", 2, shards=shards, partitioner=partitioner
        )
        assert processed["in_flight_after"] == 0
        assert processed["wall_spans"] > 0  # the pool actually measured work
        assert processed.pop("segments_after_close") == 0  # zero leaks
        processed.pop("segments_live")
        for transient in ("wall_spans", "in_flight_after"):
            baseline.pop(transient), processed.pop(transient)
        assert processed == baseline

    def test_worker_crash_mid_drain_falls_back_inline(self):
        """Killing every worker must not change observables or leak blocks."""
        baseline = _run_workload_snapshot("virtual", None)
        for transient in ("wall_spans", "in_flight_after"):
            baseline.pop(transient)
        service = QueryService(
            _build_database(1, seed=5),
            backends=("lftj", "ctj"),
            max_in_flight=4,
            seed=11,
            backend="process",
            workers=2,
        )
        spec = WorkloadSpec(
            num_queries=60,
            mode="mixed",
            rename_fraction=0.5,
            update_fraction=0.1,
            update_domain=50,
        )
        requests = generate_requests(spec, seed=7)
        try:
            # First request binds the runner and forks the workers ...
            outcomes = run_workload(service, requests[:10])
            runner = service.execution_backend._runner
            assert runner._pool is not None
            # ... then every worker dies mid-stream.
            for process in list(runner._pool._processes.values()):
                process.kill()
            outcomes.update(run_workload(service, requests[10:]))
            snapshot = _snapshot(service, outcomes)
        finally:
            service.close()
        assert snapshot == baseline  # inline fallback, same observables
        assert service.execution_backend.active_segments() == ()

    def test_session_process_backend_matches_serial(self):
        def serve(execution_backend, concurrency):
            session = Session(
                _build_database(1, seed=5),
                engines=("lftj", "ctj"),
                routing="rotate",
                seed=11,
                execution_backend=execution_backend,
                concurrency=concurrency,
            )
            spec = WorkloadSpec(num_queries=40, mode="closed", rename_fraction=0.5)
            with session:
                outcomes = session.serve(spec, seed=7)
                return (
                    {rid: o.tuples for rid, o in outcomes.items()},
                    session.result_cache.stats.as_dict(),
                    session.service.admission.stats.as_dict(),
                )

        assert serve(None, 1) == serve("process", 2)


# --------------------------------------------------------------------------- #
# Teardown: idempotent close, no leaked segments
# --------------------------------------------------------------------------- #
class TestTeardown:
    def test_query_service_close_is_idempotent(self):
        service = QueryService(
            _build_database(1, seed=5),
            backends=("lftj",),
            backend="process",
            workers=2,
        )
        service.serve(pattern_query("cycle3"))
        service.close()
        service.close()  # second close is a no-op, not an error
        assert service.execution_backend.active_segments() == ()

    def test_session_close_is_idempotent_and_unlinks(self):
        session = Session(
            _build_database(1, seed=5),
            engines=("lftj",),
            routing="rotate",
            execution_backend="process",
            concurrency=2,
        )
        session.serve(WorkloadSpec(num_queries=8, mode="closed"), seed=7)
        backend = session.service.execution_backend
        session.close()
        session.close()
        assert backend.active_segments() == ()

    def test_runner_close_before_bind_is_safe(self):
        runner = SharedMemoryRunner(workers=2)
        runner.close()
        runner.close()
        with pytest.raises(RuntimeError, match="closed"):
            runner.bind(workload_database(num_vertices=20, num_edges=60, seed=1))


# --------------------------------------------------------------------------- #
# Registry and CLI surface
# --------------------------------------------------------------------------- #
class TestRegistryAndCli:
    def test_process_is_registered(self):
        assert "process" in EXECUTION_BACKENDS
        assert "process" in EXECUTION_BACKEND_NAMES
        backend = create_execution_backend("process", workers=2)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.workers == 2
        backend.close()

    def test_default_worker_count(self):
        backend = create_execution_backend("process")
        assert backend.workers == 4
        backend.close()

    def test_cli_backend_choices_come_from_the_registry(self):
        from repro.cli import build_parser

        parser = build_parser()
        workload = parser.parse_args(["workload", "--backend", "process"])
        assert workload.backend == "process"
        run = parser.parse_args(
            ["run", "cycle3", "--backend", "process", "--workers", "2"]
        )
        assert run.backend == "process" and run.workers == 2

    def test_segment_handle_is_hashable_and_frozen(self):
        handle = SegmentHandle(name="repro-seg-1-1", nbytes=64, owner_pid=1)
        assert handle in {handle}
        with pytest.raises(dataclasses.FrozenInstanceError):
            handle.name = "other"

    def test_work_request_requires_registry_shape(self):
        # WorkRequest is a frozen dataclass: identity-stable when shipped.
        database = workload_database(num_vertices=20, num_edges=60, seed=1)
        canonical, plan = _compiled(pattern_query("cycle3"), database)
        request = WorkRequest(
            engine_bytes=b"",
            query=canonical,
            plan=plan,
            schemas={},
            segments={},
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.engine_bytes = b"x"
