"""Pluggable execution backends: how the service *runs* admitted requests.

The paper's TrieJax accelerator wins by overlapping many concurrent join
probes; the serving layer mirrors that at request granularity.  An
:class:`ExecutionBackend` owns the *mechanics* of executing the requests the
admission controller dispatches, while the service keeps the *policy*
(admission, caches, metrics).  Three backends ship:

* :class:`VirtualTimeBackend` — the deterministic virtual-time event loop.
  Every execution runs inline on the calling thread and charges its
  deterministic backend cost as service time.  The oracle the tests trust.
* :class:`ThreadPoolBackend` — real host concurrency.  The *orchestration*
  stays the exact same virtual-time event loop (arrivals, admission
  decisions, cache lookups and publications all happen on the draining
  thread, in the same deterministic order), but the engine work of every
  in-flight request runs on a :class:`concurrent.futures.ThreadPoolExecutor`
  and overlaps on the host, with per-request wall-clock spans recorded in
  :class:`~repro.service.metrics.QueryRecord.wall_elapsed`.
* :class:`ProcessPoolBackend` — the threaded backend's orchestration with
  the engine work shipped to worker *processes* over shared-memory trie
  segments (:mod:`repro.service.shm`), sidestepping the GIL that keeps
  pure-Python engine loops serialised under threads.

Because the pooled backends only move the *pure* part of an execution
(the engine call over the read-only catalog) off the orchestrator thread,
and resolve every in-flight execution before processing the next
virtual-time completion event, they produce **bit-identical result sets,
cache contents/counters and admission decisions** to the virtual-time
backend for the same seeded workload — only the wall-clock numbers differ.
``tests/test_service_concurrency.py`` and
``tests/test_service_process_backend.py`` pin that equivalence.

Both event orders share one contract: arrivals are processed in
``(arrival_time, request_id)`` order and completions in
``(finish_time, dispatch_sequence)`` order, so ties never depend on host
scheduling.

**Where engine work runs** is one hook, :meth:`ExecutionBackend.run_engine`,
handed to every dispatched request: the pipeline's monolithic work passes
it one catalog, a scatter fan-out (:mod:`repro.service.scatter`) one shard
view per missed shard.  The threaded backend overlaps a fan-out on a
*separate* shard pool — a request worker blocking on shard subtasks
scheduled into its own saturated pool would deadlock.
"""

from __future__ import annotations

import abc
import heapq
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from math import inf
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.service.service import QueryOutcome, QueryService, ServiceRequest


def run_inline(engine, query, plan, catalogs: Sequence[object]) -> List[Tuple]:
    """Run ``engine`` over each catalog on the calling thread, untimed.

    The virtual-time backend's :meth:`~ExecutionBackend.run_engine`, and the
    default wherever no backend is involved (:meth:`repro.api.Session.execute`,
    direct :meth:`~repro.service.scatter.ScatterGatherExecutor.execute`
    callers).  No host timings, so virtual runs stay byte-reproducible.
    """
    return [(engine.execute(query, catalog, plan=plan), None) for catalog in catalogs]


class ExecutionBackend(abc.ABC):
    """How admitted requests execute: the service's pluggable execution loop.

    Subclasses implement :meth:`_start` (begin executing one dispatched
    request), :meth:`_resolve` (block until its deterministic virtual
    finish time is known) and :meth:`run_engine`.  The shared :meth:`drain`
    loop owns the event order, so every subclass inherits the same
    deterministic admission/cache behaviour and only changes *where* the
    engine work runs.
    """

    #: Registry / report name ("virtual", "threads", ...).
    name: str = "backend"

    # ------------------------------------------------------------------ #
    # Subclass surface
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _start(
        self, service: "QueryService", request: "ServiceRequest", start_time: float
    ) -> object:
        """Begin executing ``request`` dispatched at virtual ``start_time``.

        Runs on the orchestrator thread.  The deterministic dispatch phase
        (cache lookups, plan compilation, backend choice) must happen here,
        synchronously, so its order matches the virtual-time oracle; the
        engine work itself may be deferred.  Returns an opaque handle for
        :meth:`_resolve`.
        """

    @abc.abstractmethod
    def _resolve(self, service: "QueryService", handle: object):
        """Block until ``handle``'s execution finished; return its completion.

        Returns the ``(outcome, completed)`` pair produced by
        :meth:`QueryService._finalize`.
        """

    @abc.abstractmethod
    def run_engine(self, engine, query, plan, catalogs: Sequence[object]) -> List[Tuple]:
        """Run ``engine`` over each of ``catalogs``; results in catalog order.

        The one place that decides where engine work runs.  Each result is
        ``(execution, wall_seconds)``: the host span of that call, or
        ``None`` on a backend that records no host timings.  ``plan`` is
        ``None`` for plan-blind engines.  May be called from any thread;
        ``engine.execute`` is looked up at call time (instrumentation may
        shadow it on the instance).
        """

    def close(self) -> None:
        """Release any host resources (worker pools).  Idempotent."""

    @property
    def inline_fallbacks(self) -> int:
        """Engine executions that ran inline after a worker pool broke.

        Zero for every backend without a worker-process pool; the process
        backend reports its runner's counter (see
        :class:`repro.service.shm.SharedMemoryRunner`).
        """
        return 0

    # ------------------------------------------------------------------ #
    # The shared deterministic event loop
    # ------------------------------------------------------------------ #
    def drain(
        self, service: "QueryService", arrivals: Sequence["ServiceRequest"]
    ) -> Dict[int, "QueryOutcome"]:
        """Serve ``arrivals`` (sorted by the arrival contract) to completion.

        Event order contract: arrivals are consumed in ``(arrival_time,
        request_id)`` order; completions in ``(finish_time,
        dispatch_sequence)`` order.

        Started executions are settled *lazily*: the loop keeps processing
        events (and therefore dispatching more executions, which then run
        concurrently on a pooled backend) as long as the next event
        provably precedes every unresolved execution's completion.  Every
        execution charges a **strictly positive** virtual cost (all
        registered engines and the cache-replay constants guarantee this),
        so an unresolved execution dispatched at virtual time ``s``
        finishes strictly after ``s`` — any event at time ``<= s`` is
        safely next.  Once the next candidate event lies beyond that
        horizon, all in-flight executions are resolved before the loop
        continues, so results/partials still publish in exactly the
        virtual-time order.  The practical consequence: dispatches whose
        event order is already decided — e.g. a closed-loop backlog's
        first ``max_in_flight`` admissions — overlap on the pool, while a
        dispatch whose cache visibility depends on an earlier completion
        waits for it, exactly as determinism requires.
        """
        outcomes: Dict[int, "QueryOutcome"] = {}
        # Completion events: (finish_time, dispatch sequence, completed, record).
        completions: list = []
        # Unresolved executions as (handle, virtual start time).  The clock
        # never moves backwards, so starts are appended in non-decreasing
        # order and the earliest unresolved start is always the head.
        started: List[tuple] = []
        admission = service.admission
        sequence = 0
        clock = service._clock
        index, count = 0, len(arrivals)

        while index < count or completions or started:
            next_arrival = arrivals[index].arrival_time if index < count else inf
            next_completion = completions[0][0] if completions else inf
            next_event = next_completion if next_completion <= next_arrival else next_arrival
            if started and next_event > started[0][1]:
                # Unresolved completions lie strictly beyond the earliest
                # unresolved start (positive costs); an event beyond that
                # horizon forces resolution before the order is known.
                for handle, _start_time in started:
                    outcome, completed = self._resolve(service, handle)
                    record = outcome.record
                    outcomes[record.request_id] = outcome
                    sequence += 1
                    heapq.heappush(completions, (record.finish_time, sequence, completed, record))
                started.clear()
            elif next_completion <= next_arrival:
                finish, _seq, completed, record = heapq.heappop(completions)
                if finish > clock:
                    clock = finish
                service._complete(completed, record)
                queued = admission.next_request()
                while queued is not None:
                    started.append((self._start(service, queued, clock), clock))
                    queued = admission.next_request()
            else:
                request = arrivals[index]
                index += 1
                if request.arrival_time > clock:
                    clock = request.arrival_time
                status = admission.submit(request, request.priority)
                if status == "admitted":
                    started.append((self._start(service, request, clock), clock))
                elif status == "rejected":
                    service._rejected.append(request.request_id)
        service._clock = clock
        return outcomes

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"


class VirtualTimeBackend(ExecutionBackend):
    """The deterministic oracle: every execution runs inline at dispatch.

    Requests execute synchronously on the draining thread the moment they
    are dispatched, and virtual time is the only clock (no wall-clock spans
    are recorded).
    """

    name = "virtual"

    run_engine = staticmethod(run_inline)

    def _start(
        self, service: "QueryService", request: "ServiceRequest", start_time: float
    ) -> object:
        prepared = service._dispatch(request, start_time, self.run_engine)
        return service._finalize(request, prepared, prepared.run())

    def _resolve(self, service: "QueryService", handle: object):
        return handle  # already completed at _start


class ThreadPoolBackend(ExecutionBackend):
    """Real concurrency: engine work overlaps on a host worker pool.

    Parameters
    ----------
    workers:
        Worker threads for request-level engine executions.  Effective
        overlap is at most ``min(workers, max_in_flight)``, and only
        executions whose virtual event order is already decided overlap —
        a closed-loop backlog's initial admissions run together, while a
        dispatch whose cache visibility depends on an earlier completion
        waits for it (see :meth:`ExecutionBackend.drain`); determinism is
        the constraint, not the pool size.  A scatter fan-out's shard tasks
        run on a *separate* pool of the same width, so a request worker
        waiting on its shard tasks cannot deadlock.

    Everything observable except wall-clock timings matches
    :class:`VirtualTimeBackend` exactly (see the module docstring).  On
    CPython the GIL serialises pure-Python engine work, so wall-clock gains
    are modest unless engines release the GIL; the point of this backend is
    the architecture (and honest wall-clock numbers).  No benchmark row
    measures it yet (``perf/`` has no pooled workload).
    """

    name = "threads"

    def __init__(self, workers: int = 4):
        check_positive("workers", workers)
        self.workers = workers
        #: The "request" and "shard" pools, by name.
        self._pools: Dict[str, ThreadPoolExecutor] = {}
        # Pools are created lazily; run_engine runs on concurrent request
        # workers, so creation must not race (a losing duplicate
        # executor would leak its threads past close()).
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Pools
    # ------------------------------------------------------------------ #
    def _lazy_pool(self, name: str) -> ThreadPoolExecutor:
        with self._pool_lock:
            pool = self._pools.get(name)
            if pool is None:
                pool = self._pools[name] = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix=f"repro-{name}"
                )
            return pool

    def run_engine(self, engine, query, plan, catalogs: Sequence[object]) -> List[Tuple]:
        """Every call timed; several catalogs overlap on the shard pool."""

        def timed(catalog) -> Tuple:
            wall_start = time.perf_counter()
            execution = engine.execute(query, catalog, plan=plan)
            return execution, time.perf_counter() - wall_start

        if len(catalogs) <= 1:
            return [timed(catalog) for catalog in catalogs]
        return list(self._lazy_pool("shard").map(timed, catalogs))

    def close(self) -> None:
        with self._pool_lock:
            pools, self._pools = list(self._pools.values()), {}
        for pool in pools:
            pool.shutdown(wait=True)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _start(
        self, service: "QueryService", request: "ServiceRequest", start_time: float
    ) -> object:
        prepared = service._dispatch(request, start_time, self.run_engine)
        if prepared.work is None:
            return (request, prepared, None)

        def timed_work():
            wall_start = time.perf_counter()
            execution = prepared.work()
            return execution, time.perf_counter() - wall_start

        future: Future = self._lazy_pool("request").submit(timed_work)
        return (request, prepared, future)

    def _resolve(self, service: "QueryService", handle: object):
        request, prepared, future = handle
        if future is None:
            return service._finalize(request, prepared, None)
        execution, wall_elapsed = future.result()
        return service._finalize(request, prepared, execution, wall_elapsed=wall_elapsed)


class ProcessPoolBackend(ThreadPoolBackend):
    """GIL-free concurrency: engine work runs in worker *processes*.

    The orchestration is byte-for-byte the threaded backend's — the same
    virtual-time event loop, the same request thread pool (a thread still
    hosts each in-flight request so the drain loop can overlap and resolve
    them) — but the work closure of every plan-aware software execution is
    shipped to a ``ProcessPoolExecutor`` via :mod:`repro.service.shm`:
    cached tries are exported once as shared-memory segments in the PR 7
    layout, workers attach their int64 levels zero-copy
    (``memoryview.cast('q')``), and the picklable request carries the
    pickled engine + plan + segment handles.  Pure-Python engine loops then
    genuinely overlap on host cores instead of serialising on the GIL.

    Executions that cannot ship faithfully (plan-blind or unpicklable
    engines, a crashed worker pool) run on the threaded hook instead, so
    every observable stays bit-identical to :class:`VirtualTimeBackend`
    either way; ``tests/test_service_process_backend.py`` pins the
    equivalence and the segment lifecycle (all blocks unlinked by
    :meth:`close`, even after a worker crash mid-drain).
    """

    name = "process"

    def __init__(self, workers: int = 4):
        super().__init__(workers=workers)
        # Imported lazily at class-construction time (not module import) so
        # repro.service stays importable on platforms without POSIX shm.
        from repro.service.shm import SharedMemoryRunner

        self._runner = SharedMemoryRunner(workers=self.workers)

    def _start(
        self, service: "QueryService", request: "ServiceRequest", start_time: float
    ) -> object:
        # Bind on the orchestrator thread, before any request thread exists,
        # so a fork start point is clean; a ``crash:`` fault clause arms the
        # runner's deterministic worker-crash trigger.
        self._runner.bind(service.database)
        injector = service.pipeline.injector
        if injector is not None and injector.crash_after is not None:
            self._runner.crash_after = injector.crash_after
        return super()._start(service, request, start_time)

    def run_engine(self, engine, query, plan, catalogs: Sequence[object]) -> List[Tuple]:
        """Ship what the runner can to worker processes; thread the rest."""
        return self._runner.run(engine, query, plan, catalogs, super().run_engine)

    def active_segments(self):
        """Names of the currently exported shared-memory blocks (sorted)."""
        return self._runner.exporter.active_segments()

    @property
    def inline_fallbacks(self) -> int:
        return self._runner.inline_fallbacks

    def close(self) -> None:
        super().close()
        self._runner.close()


#: Execution-backend registry used by ``QueryService(backend=...)`` and the
#: CLI's ``workload --backend`` flag.
EXECUTION_BACKENDS: Dict[str, Callable[..., ExecutionBackend]] = {
    "virtual": lambda workers=None: VirtualTimeBackend(),
    # workers=None means "the default"; explicit invalid counts (0, -1)
    # must reach the pool backends' validation, not be silently replaced.
    "threads": lambda workers=None: ThreadPoolBackend(
        workers=4 if workers is None else workers
    ),
    "process": lambda workers=None: ProcessPoolBackend(
        workers=4 if workers is None else workers
    ),
}

#: Registered execution-backend names, sorted for stable CLI choice lists.
EXECUTION_BACKEND_NAMES = tuple(sorted(EXECUTION_BACKENDS))


def create_execution_backend(
    backend: Union[str, ExecutionBackend, None],
    workers: Optional[int] = None,
) -> ExecutionBackend:
    """Resolve ``backend`` to a ready :class:`ExecutionBackend`.

    ``None`` picks :class:`ThreadPoolBackend` when ``workers`` asks for more
    than one worker and the deterministic :class:`VirtualTimeBackend`
    otherwise; a string resolves through :data:`EXECUTION_BACKENDS`; a ready
    instance passes through (``workers`` is then ignored).
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend is None:
        backend = "threads" if workers is not None and workers > 1 else "virtual"
    try:
        factory = EXECUTION_BACKENDS[backend]
    except KeyError:
        raise KeyError(
            f"unknown execution backend {backend!r}; "
            f"registered: {', '.join(EXECUTION_BACKEND_NAMES)}"
        ) from None
    return factory(workers=workers)


__all__ = [
    "EXECUTION_BACKENDS",
    "EXECUTION_BACKEND_NAMES",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "ThreadPoolBackend",
    "VirtualTimeBackend",
    "create_execution_backend",
    "run_inline",
]
