"""The query service: a concurrent, cache-reusing front end over the engines.

:class:`QueryService` turns the single-query reproduction into a serving
system.  It owns a :class:`~repro.relational.catalog.Database` catalog and a
set of execution backends (see :mod:`repro.engines`) and serves a
stream of requests through three cooperating layers:

1. the **result cache** answers a repeated query without touching an engine
   and is invalidated (per relation) whenever the catalog mutates;
2. the **plan cache** hands every plan-aware backend the precompiled
   canonical plan, so α-equivalent queries are compiled exactly once;
3. the **admission controller** caps concurrent executions and arbitrates
   the queued remainder across priority classes with a seeded,
   reproducible lottery.

Concurrency is modelled in *virtual time* (modelled nanoseconds, see
:mod:`repro.engines`), the same way the core scheduler models
hardware threads: each execution charges a deterministic backend cost as
its service time, and :meth:`QueryService.drain` advances a virtual clock
through arrival/completion events.  The clock persists across drains, and a
freshly computed result enters the result cache only at its request's
*completion* event, so a concurrent duplicate can never observe a result
that has not finished yet in virtual time.  Identical (workload, seed)
configurations produce bit-identical metrics, queue waits included.

What happens to one request between dispatch and completion — cache
probes, plan compilation, the engine execution, publication — is the
shared :class:`~repro.service.pipeline.QueryPipeline`
(:mod:`repro.service.pipeline`), the same stages
:meth:`repro.api.Session.execute` runs synchronously; this module adds
backend choice, admission, the event loop and metrics around it.

*Where* executions physically run is pluggable
(:mod:`repro.service.backends`): inline on the draining thread (the
deterministic oracle, the default) or overlapped in worker processes —
same virtual-time event order, results and cache contents either way.

**Event-order contract.**  Arrivals are served in ``(arrival_time,
request_id)`` order — equal-time requests always dispatch in submission
order — and the virtual clock never moves backwards: a *back-dated*
submission (explicit ``arrival_time`` before the persisted clock) warns
with :class:`BackdatedArrivalWarning` and drains clamped to the clock.
"""

from __future__ import annotations

import threading
import time
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.engines import create_engine as create_backend
from repro.joins.base import EngineExecution, EngineProtocol
from repro.relational.catalog import Database
from repro.relational.query import ConjunctiveQuery
from repro.service.admission import AdmissionController, check_admission_bounds
from repro.service.backends import (
    Collect,
    ExecutionBackend,
    check_execution_backend,
    create_execution_backend,
)
from repro.service.caches import CacheStats
from repro.service.faults import ShardUnavailableError
from repro.service.metrics import RECORD_WINDOW, QueryRecord, ServiceMetrics
from repro.service.pipeline import CompletedQuery, PreparedQuery, QueryPipeline


class BackdatedArrivalWarning(UserWarning):
    """An explicitly-dated submission lay before the persisted virtual clock.

    :meth:`QueryService.submit` still enqueues the request; it is clamped
    to the clock when it drains (the clock never moves backwards), which
    can reorder it relative to what its literal arrival time suggested.

    Re-exported as :class:`repro.service.BackdatedArrivalWarning` — it is
    part of the public submit surface.  The governing **arrival-order
    contract** is documented on
    :meth:`repro.service.backends.ExecutionBackend.drain`: arrivals are
    processed in ``(arrival_time, request_id)`` order and completions in
    ``(finish_time, dispatch_sequence)`` order, on every execution backend.
    """


@dataclass(slots=True)
class ServiceRequest:
    """One submitted query, waiting to be served."""

    request_id: int
    query: ConjunctiveQuery
    priority: str = "normal"
    arrival_time: float = 0.0
    backend: Optional[str] = None  # None → service round-robin


@dataclass(slots=True)
class QueryOutcome:
    """What :meth:`QueryService.drain` returns per request: tuples + record.

    ``error`` is the typed :class:`ShardUnavailableError` of a request that
    failed on unrecoverable shard loss under ``on_shard_loss="fail"`` (its
    tuples are empty and its record is flagged ``failed``);
    :meth:`QueryService.serve` re-raises it for single-query callers, while
    :meth:`~QueryService.drain` keeps the whole batch's outcomes flowing.
    """

    tuples: List[Tuple[int, ...]]
    record: QueryRecord
    error: Optional[ShardUnavailableError] = None

    @property
    def cardinality(self) -> int:
        return len(self.tuples)


class QueryService:
    """Serves conjunctive-query streams over a shared catalog.

    Parameters
    ----------
    database:
        The catalog queries run against; the service builds its
        :class:`~repro.service.pipeline.QueryPipeline` over it.
    backends:
        Backend names (resolved via the shared registry in
        :mod:`repro.engines`) and/or ready
        :class:`~repro.joins.base.EngineProtocol` instances.  Requests
        that do not pin a backend either rotate round-robin through this
        list (the default) or, when ``router`` is given, go to the engine
        the router picks for each query.
    router:
        A :class:`repro.api.routing.Router` (or compatible) that chooses
        the backend of unpinned requests from a fixed software-engine
        order; ``None`` keeps the round-robin rotation.
    pipeline:
        A ready :class:`~repro.service.pipeline.QueryPipeline` to serve
        through, in place of ``database``: its catalog, compiler, caches,
        tracer, fault and maintenance wiring are used as-is.  This is how
        :class:`repro.api.Session` makes its synchronous path and its
        service reuse each other's plans and results.
    backend / workers:
        The *execution* backend (how admitted requests physically run, see
        :mod:`repro.service.backends`): ``"virtual"`` (deterministic
        inline loop, the default), ``"process"`` (plan-aware engine work
        ships to ``workers`` worker processes over shared-memory trie
        segments, see :mod:`repro.service.shm`), or a ready
        :class:`~repro.service.backends.ExecutionBackend`.  ``backend=None``
        with ``workers > 1`` selects the process backend.  Same results,
        cache contents and admission decisions on every backend; the
        process backend owns host resources that :meth:`close` releases.
    max_in_flight / max_queue_depth / seed:
        Admission-control knobs (see
        :class:`~repro.service.admission.AdmissionController`); ``seed``
        also seeds the pipeline's fault plan.
    **pipeline_options:
        Every other keyword goes to the
        :class:`~repro.service.pipeline.QueryPipeline` built over
        ``database`` — its parameter table is the one place the serving
        options (``faults``, ``on_shard_loss``, ``tracer``, ...) are declared,
        defaulted and validated.  Rejected together with ``pipeline=`` (a
        ready pipeline is already wired).
    """

    def __init__(
        self,
        database: Optional[Database] = None,
        backends: Sequence[Union[str, EngineProtocol]] = ("lftj", "ctj"),
        max_in_flight: int = 4,
        max_queue_depth: Optional[int] = None,
        seed: int = 2020,
        router=None,
        backend: Union[str, ExecutionBackend, None] = None,
        workers: Optional[int] = None,
        pipeline: Optional[QueryPipeline] = None,
        **pipeline_options,
    ):
        if not backends:
            raise ValueError("QueryService needs at least one backend")
        # Everything that can be refused is checked before the pipeline
        # subscribes its maintainer, so a refused service leaves no listener
        # on the catalog.
        check_admission_bounds(max_in_flight, max_queue_depth)
        check_execution_backend(backend)
        engines = [create_backend(e) if isinstance(e, str) else e for e in backends]
        if pipeline is None:
            if database is None:
                raise ValueError("QueryService needs a database (or a pipeline)")
            pipeline = QueryPipeline(database, seed=seed, **pipeline_options)
        elif database is not None or pipeline_options:
            raise ValueError(
                "pipeline= already holds its catalog and wiring; it cannot be "
                f"combined with database= or pipeline options {sorted(pipeline_options)}"
            )
        self.pipeline = pipeline
        self.database = pipeline.database
        self.compiler = pipeline.compiler
        self.plan_cache = pipeline.plan_cache
        self.result_cache = pipeline.result_cache
        self.scatter = pipeline.scatter
        self.maintainer = pipeline.maintainer
        self.tracer = pipeline.tracer
        self.router = router
        self.backends: Dict[str, EngineProtocol] = {}
        self._rotation: List[str] = []
        for engine in engines:
            self.add_backend(engine)
        self.admission: AdmissionController[ServiceRequest] = AdmissionController(
            max_in_flight=max_in_flight, max_queue_depth=max_queue_depth, seed=seed
        )
        self.metrics = ServiceMetrics()
        self.execution_backend = create_execution_backend(backend, workers)
        self._pending: List[ServiceRequest] = []
        self._rejected: Deque[int] = deque(maxlen=RECORD_WINDOW)
        self._next_request_id = 0
        self._next_rotation = 0
        self._last_arrival = 0.0
        self._clock = 0.0
        self._closed = False
        # The one boundary lock: callers may submit from several threads
        # while one thread drains, so the submission state (ids, pending
        # list, last arrival) is handed over under it.  Everything a drain
        # touches stays on the draining thread.
        self._submit_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        query: ConjunctiveQuery,
        priority: str = "normal",
        arrival_time: Optional[float] = None,
        backend: Optional[str] = None,
    ) -> int:
        """Enqueue ``query``; returns its request id (serve with :meth:`drain`).

        ``arrival_time`` is in virtual time; omitted, the request arrives
        together with the latest submission so far (a closed-loop backlog).
        Dating an arrival before the current :attr:`clock` is back-dating:
        the submission warns (:class:`BackdatedArrivalWarning`) and drains
        clamped to the clock.
        """
        if backend is not None and backend not in self.backends:
            raise KeyError(
                f"backend {backend!r} not configured; have {sorted(self.backends)}"
            )
        self.database.validate_query(query)
        if arrival_time is not None and arrival_time < self._clock:
            message = (
                f"arrival_time {arrival_time:.1f} lies before the service "
                f"clock {self._clock:.1f}; the virtual clock never moves "
                f"backwards, so the request would drain at {self._clock:.1f}"
            )
            warnings.warn(message, BackdatedArrivalWarning, stacklevel=2)
        with self._submit_lock:
            if arrival_time is None:
                arrival_time = self._last_arrival
            self._last_arrival = max(self._last_arrival, arrival_time)
            request = ServiceRequest(
                self._next_request_id, query, priority, arrival_time, backend
            )
            self._next_request_id += 1
            self._pending.append(request)
        return request.request_id

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    @property
    def clock(self) -> float:
        """The persisted virtual clock (advances across :meth:`drain` calls)."""
        return self._clock

    def _take_arrivals(self) -> List[ServiceRequest]:
        """Claim the pending requests, apply the arrival-order contract.

        Arrivals before the persisted clock are clamped to it (the
        :class:`BackdatedArrivalWarning` already fired at :meth:`submit`;
        service-dated ones simply mean "arrive now").  The returned list is
        sorted by ``(arrival_time, request_id)``, so equal-time requests
        enter admission in submission order, independent of drain boundaries.
        """
        with self._submit_lock:
            pending, self._pending = self._pending, []
        for request in pending:
            if request.arrival_time < self._clock:
                request.arrival_time = self._clock
        pending.sort(key=lambda r: (r.arrival_time, r.request_id))
        return pending

    def drain(self) -> Dict[int, QueryOutcome]:
        """Serve every pending request to completion; return their outcomes by id.

        Runs the virtual-time event loop
        (:meth:`repro.service.backends.ExecutionBackend.drain`): admitted
        requests execute, charging their deterministic backend cost as
        service time, and completions free slots for the queued remainder.
        The clock carries over from previous drains, and fresh results are
        published to the result cache at their completion event, never
        earlier.  Rejected requests (bounded queue) appear in
        :attr:`rejected_requests`, not in the returned outcomes.  One thread
        drains; others may :meth:`submit` meanwhile.
        """
        arrivals = self._take_arrivals()
        started = time.perf_counter()
        try:
            return self.execution_backend.drain(self, arrivals)
        finally:
            self.metrics.wall_drain_seconds += time.perf_counter() - started
            # Surface the process backend's permanent inline fallback
            # (broken worker pool) in the service report.
            self.metrics.inline_fallbacks = self.execution_backend.inline_fallbacks

    def serve(
        self, query: ConjunctiveQuery, priority: str = "normal", backend: Optional[str] = None
    ) -> QueryOutcome:
        """Submit one query and serve everything pending; returns its outcome.

        Re-raises the typed :class:`ShardUnavailableError` of a request
        that failed on unrecoverable shard loss (``on_shard_loss="fail"``);
        batch callers using :meth:`drain` directly get the error on the
        outcome instead.
        """
        request_id = self.submit(query, priority=priority, backend=backend)
        outcome = self.drain()[request_id]
        if outcome.error is not None:
            raise outcome.error
        return outcome

    def close(self) -> None:
        """Release the execution backend's host resources (worker pools,
        shared-memory segments).  Idempotent — tear-down paths often close
        both the session and the service they share a backend with.
        """
        if not self._closed:
            self._closed = True
            self.execution_backend.close()

    @property
    def rejected_requests(self) -> Tuple[int, ...]:
        """Ids of the latest :data:`~repro.service.metrics.RECORD_WINDOW`
        requests rejected by the bounded admission queue (the lifetime count
        is ``admission.stats.rejected``)."""
        return tuple(self._rejected)

    # ------------------------------------------------------------------ #
    # Catalog mutation
    # ------------------------------------------------------------------ #
    def insert_tuples(self, relation_name: str, rows) -> int:
        """Mutate the catalog through the service.

        The batch is logged: a dependent cached result or shard partial is
        patched by one delta join when a request next reads it, and that
        request's service time pays for it.  Only non-patchable events,
        entries whose backlog outgrew their relation and failed solvers
        drop entries.

        With tracing on, the mutation (and the cache invalidations it
        triggered) is recorded as a process-level event span on the
        :data:`~repro.obs.trace.PROCESS_TRACE_ID` lane, stamped at the
        persisted virtual clock.
        """
        if not self.tracer.enabled:
            return self.database.insert_into(relation_name, rows)
        # The stats objects, not the caches: a ResultCache is falsy
        # (``__len__``) once the mutation empties it.
        results = self.result_cache.stats
        partials = (
            self.scatter.partial_cache.stats if self.scatter is not None else CacheStats()
        )
        before = (results.invalidations, results.patches, partials.invalidations, partials.patches)
        inserted = self.database.insert_into(relation_name, rows)
        self.tracer.emit(
            "catalog_mutation",
            self._clock,
            {
                "relation": relation_name,
                "rows_inserted": inserted,
                "invalidated_results": results.invalidations - before[0],
                "invalidated_partials": partials.invalidations - before[2],
                "patched_results": results.patches - before[1],
                "patched_partials": partials.patches - before[3],
            },
        )
        return inserted

    # ------------------------------------------------------------------ #
    # Execution of one request
    # ------------------------------------------------------------------ #
    def add_backend(self, engine: EngineProtocol) -> None:
        """Serve with ``engine`` too (latest name wins; a new name joins the rotation)."""
        if engine.name not in self.backends:
            self._rotation.append(engine.name)
        self.backends[engine.name] = engine

    def _choose_backend(self, request: ServiceRequest) -> EngineProtocol:
        if request.backend is not None:
            return self.backends[request.backend]
        if self.router is not None:
            decision = self.router.choose(request.query, self.backends)
            return self.backends[decision.chosen]
        name = self._rotation[self._next_rotation % len(self._rotation)]
        self._next_rotation += 1
        return self.backends[name]

    def _dispatch(
        self,
        request: ServiceRequest,
        start_time: float,
        submit_engine: Callable[..., Collect],
    ) -> PreparedQuery:
        """Choose the request's engine and run the pipeline's prepare stage.

        Runs in dispatch order: backend choice may consume rotation/router
        state, and the cache probes of :meth:`QueryPipeline.prepare` must
        happen in the virtual-time oracle's order on every execution
        backend.  ``submit_engine`` is the execution backend's engine-work
        hook.
        """
        pipeline = self.pipeline
        query = request.query
        signature = pipeline.compiler.signature(query)
        backend = self._choose_backend(request)
        trace = None
        if pipeline.tracer.enabled:
            trace = pipeline.begin_trace(
                query,
                signature,
                backend,
                start_time,
                {"request_id": request.request_id, "priority": request.priority},
                {
                    "pinned": request.backend is not None,
                    "routed": request.backend is None and self.router is not None,
                },
                arrival_time=request.arrival_time,
            )
        return pipeline.prepare(query, signature, backend, start_time, trace, submit_engine)

    def _finalize(
        self,
        request: ServiceRequest,
        prepared: PreparedQuery,
        execution: Optional[EngineExecution],
        wall_elapsed: Optional[float] = None,
    ) -> Tuple[QueryOutcome, CompletedQuery]:
        """Finalize an execution: the caller's outcome and the completion to publish."""
        completed = self.pipeline.finalize(prepared, execution, wall_elapsed)
        stats = completed.scatter_stats
        # Positional, in field order: a keyword call costs 3x, per request.
        record = QueryRecord(
            request.request_id,
            request.query.name,
            prepared.signature,
            prepared.engine.name,
            request.priority,
            request.arrival_time,
            prepared.start_time,
            completed.finish_time,
            completed.service_time,
            len(completed.tuples),
            prepared.result_cache_hit,
            completed.plan_cache_hit,
            prepared.compiled,
            wall_elapsed,
            stats.retries if stats is not None else 0,
            execution is not None and execution.degraded,
            prepared.error is not None,
        )
        return QueryOutcome(completed.tuples, record, prepared.error), completed

    def _complete(self, completed: CompletedQuery, record: QueryRecord) -> None:
        """Process one completion event: free the slot, publish, record.

        Called by the execution backend's event loop in virtual-time
        completion order — :meth:`QueryPipeline.publish` is the only place
        freshly computed results (and per-shard partials) become visible,
        preserving virtual-time causality on every backend.
        """
        self.admission.release()
        self.pipeline.publish(completed)
        self.metrics.record(record)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def cache_report_lines(self) -> List[str]:
        plan = self.plan_cache.stats
        result = self.result_cache.stats
        admission = self.admission.stats
        lines = []
        if self.scatter is not None:
            partial_line = self.scatter.invalidation_report()
            if partial_line is not None:
                lines.append(partial_line)
        return lines + [
            (
                f"plan cache           : {plan.hits}/{plan.lookups} hits "
                f"({plan.hit_rate:.1%}), {plan.evictions} evictions"
            ),
            (
                f"result cache         : {result.hits}/{result.lookups} hits "
                f"({result.hit_rate:.1%}), {result.evictions} evictions, "
                f"{result.invalidation_summary()}"
            ),
            (
                f"admission            : {admission.submitted} submitted, "
                f"{admission.queued} queued, {admission.rejected} rejected, "
                f"peak in-flight {admission.peak_in_flight}, "
                f"peak queue {admission.peak_queue_depth}"
            ),
        ]

    def report(self) -> str:
        """Full service report: aggregate metrics plus cache/admission lines."""
        return self.metrics.summary(cache_lines=self.cache_report_lines())

    def exposition(self) -> str:
        """The service's metrics in Prometheus text format (``--metrics``)."""
        caches = [("plan", self.plan_cache.stats), ("result", self.result_cache.stats)]
        if self.scatter is not None and self.scatter.partial_cache is not None:
            caches.append(("shard_partial", self.scatter.partial_cache.stats))
        return self.metrics.exposition(caches, self.admission.stats, self._clock)
