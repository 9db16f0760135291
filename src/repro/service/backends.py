"""Pluggable execution backends: how the service *runs* admitted requests.

The paper's TrieJax accelerator wins by overlapping many concurrent join
probes; the serving layer mirrors that at request granularity.  An
:class:`ExecutionBackend` owns the *mechanics* of executing the requests the
admission controller dispatches, while the service keeps the *policy*
(admission, caches, metrics).  Two backends ship:

* :class:`VirtualTimeBackend` — the deterministic virtual-time event loop.
  Every execution runs inline at dispatch and charges its deterministic
  backend cost as service time.  The oracle the tests trust.
* :class:`ProcessPoolBackend` — the same event loop with the engine work
  shipped to worker *processes* over shared-memory trie segments
  (:mod:`repro.service.shm`), where pure-Python engine loops overlap on
  host cores instead of serialising on the GIL.

One thread runs the event loop, touches the caches and builds tries: the
one that calls :meth:`ExecutionBackend.drain`.  The backends differ only in
the engine-work hook, :meth:`ExecutionBackend.submit_engine`, which the
pipeline calls when a request is dispatched and whose *collect* step the
loop calls when the request is resolved.  The pipeline's monolithic work
passes it one catalog, a scatter fan-out (:mod:`repro.service.scatter`) one
shard view per missed shard.  Work the process backend cannot ship runs
inline on the same thread.

Because only the *pure* part of an execution (the engine call over the
read-only catalog) leaves the orchestrator, and every in-flight execution
is collected before the next virtual-time completion event is processed,
both backends produce **bit-identical result sets, cache contents/counters
and admission decisions** for the same seeded workload — only the
wall-clock numbers differ.  ``tests/test_service_process_backend.py`` pins
that equivalence.

Both event orders share one contract: arrivals are processed in
``(arrival_time, request_id)`` order and completions in
``(finish_time, dispatch_sequence)`` order, so ties never depend on host
scheduling.
"""

from __future__ import annotations

import abc
import heapq
from math import inf
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.util.validation import check_positive

if TYPE_CHECKING:
    from repro.service.service import QueryOutcome, QueryService, ServiceRequest

#: What :meth:`ExecutionBackend.submit_engine` returns: the collect step,
#: giving ``(execution, wall_seconds)`` per catalog, in catalog order.
Collect = Callable[[], List[Tuple]]


def submit_inline(engine, query, plan, catalogs: Sequence[object]) -> Collect:
    """Run ``engine`` over each catalog now, untimed; return the collect step.

    The virtual-time backend's :meth:`~ExecutionBackend.submit_engine`, and
    the default wherever no backend is involved
    (:meth:`repro.api.Session.execute`, direct
    :meth:`~repro.service.scatter.ScatterGatherExecutor.execute` callers).
    No host timings, so virtual runs stay byte-reproducible.
    """
    results = [(engine.execute(query, catalog, plan=plan), None) for catalog in catalogs]
    return lambda: results


class ExecutionBackend(abc.ABC):
    """How admitted requests execute: the service's pluggable execution loop.

    Subclasses implement :meth:`submit_engine`.  The shared :meth:`drain`
    loop owns the event order, so every subclass inherits the same
    deterministic admission/cache behaviour and only changes *where* the
    engine work runs.
    """

    #: Registry / report name ("virtual", "process").
    name: str = "backend"

    @abc.abstractmethod
    def submit_engine(self, engine, query, plan, catalogs: Sequence[object]) -> Collect:
        """Start ``engine`` over each of ``catalogs``; return the collect step.

        The one place that decides where engine work runs.  Calling the
        returned step waits for the work and gives ``(execution,
        wall_seconds)`` per catalog, in catalog order: the host span of that
        execution, or ``None`` on a backend that records no host timings.
        ``plan`` is ``None`` for plan-blind engines.  ``engine.execute`` is
        looked up at call time (instrumentation may shadow it on the
        instance).
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

    def drain(
        self, service: "QueryService", arrivals: Sequence["ServiceRequest"]
    ) -> Dict[int, "QueryOutcome"]:
        """Serve ``arrivals`` (sorted by the arrival contract) to completion.

        Event order contract: arrivals are consumed in ``(arrival_time,
        request_id)`` order; completions in ``(finish_time,
        dispatch_sequence)`` order.

        Starting a request dispatches it (:meth:`QueryService._dispatch`:
        cache probes, plan, and the engine work handed to
        :meth:`submit_engine`); resolving it collects that work and
        finalizes it.  Resolution is *lazy*: the loop keeps processing
        events (and therefore submitting more work, which then runs
        concurrently on a process pool) as long as the next event provably
        precedes every unresolved execution's completion.  Every execution
        charges a **strictly positive** virtual cost (all registered
        engines and the cache-replay constants guarantee this), so an
        unresolved execution dispatched at virtual time ``s`` finishes
        strictly after ``s`` — any event at time ``<= s`` is safely next.
        Once the next candidate event lies beyond that horizon, all
        in-flight executions are resolved before the loop continues, so
        results/partials still publish in exactly the virtual-time order.
        The practical consequence: dispatches whose event order is already
        decided — e.g. a closed-loop backlog's first ``max_in_flight``
        admissions — overlap on the pool, while a dispatch whose cache
        visibility depends on an earlier completion waits for it, exactly
        as determinism requires.
        """
        outcomes: Dict[int, "QueryOutcome"] = {}
        # Completion events: (finish_time, dispatch sequence, completed, record).
        completions: list = []
        # Unresolved dispatches as (request, prepared).  The clock never
        # moves backwards, so they are appended in non-decreasing start
        # time and the earliest unresolved start is always the head's.
        started: List[tuple] = []
        admission = service.admission
        submit_engine = self.submit_engine
        sequence = 0
        clock = service._clock
        index, count = 0, len(arrivals)

        while index < count or completions or started:
            next_arrival = arrivals[index].arrival_time if index < count else inf
            next_completion = completions[0][0] if completions else inf
            next_event = next_completion if next_completion <= next_arrival else next_arrival
            if started and next_event > started[0][1].start_time:
                # Unresolved completions lie strictly beyond the earliest
                # unresolved start (positive costs); an event beyond that
                # horizon forces resolution before the order is known.
                for request, prepared in started:
                    outcome, completed = service._finalize(
                        request, prepared, *prepared.collect()
                    )
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
                    started.append((queued, service._dispatch(queued, clock, submit_engine)))
                    queued = admission.next_request()
            else:
                request = arrivals[index]
                index += 1
                if request.arrival_time > clock:
                    clock = request.arrival_time
                status = admission.submit(request, request.priority)
                if status == "admitted":
                    started.append((request, service._dispatch(request, clock, submit_engine)))
                elif status == "rejected":
                    service._rejected.append(request.request_id)
        service._clock = clock
        return outcomes


class VirtualTimeBackend(ExecutionBackend):
    """The deterministic oracle: every execution runs inline at dispatch.

    Virtual time is the only clock (no wall-clock spans are recorded).
    """

    name = "virtual"

    submit_engine = staticmethod(submit_inline)


class ProcessPoolBackend(ExecutionBackend):
    """GIL-free concurrency: engine work runs in worker *processes*.

    The plan-aware software executions of every dispatched request are
    shipped to a ``ProcessPoolExecutor`` via :mod:`repro.service.shm` at
    dispatch, and their futures are collected when the event loop resolves
    the request: cached tries are exported once as shared-memory segments in
    the PR 7 layout, workers attach their int64 levels zero-copy
    (``memoryview.cast('q')``), and the picklable request carries the
    pickled engine + plan + segment handles.  Requests whose event order is
    already decided thus overlap on host cores.

    Executions that cannot ship faithfully (plan-blind or unpicklable
    engines, a crashed worker pool) run inline on the orchestrator thread,
    timed, so every observable except wall-clock timings stays
    bit-identical to :class:`VirtualTimeBackend` either way;
    ``tests/test_service_process_backend.py`` pins the equivalence and the
    segment lifecycle (all blocks unlinked by :meth:`close`, even after a
    worker crash mid-drain).

    Parameters
    ----------
    workers:
        Worker processes.  Effective overlap is at most ``min(workers,
        max_in_flight)``, and only executions whose virtual event order is
        already decided overlap (see :meth:`ExecutionBackend.drain`).
    """

    name = "process"

    def __init__(self, workers: int = 4):
        check_positive("workers", workers)
        self.workers = workers
        # Imported lazily at class-construction time (not module import) so
        # repro.service stays importable on platforms without POSIX shm.
        from repro.service.shm import SharedMemoryRunner

        self._runner = SharedMemoryRunner(workers=workers)

    def drain(
        self, service: "QueryService", arrivals: Sequence["ServiceRequest"]
    ) -> Dict[int, "QueryOutcome"]:
        if arrivals:
            # Bind (and start the workers) before the first submit; a
            # ``crash:`` fault clause arms the runner's deterministic
            # worker-crash trigger.
            self._runner.bind(service.database)
            injector = service.pipeline.injector
            if injector is not None and injector.crash_after is not None:
                self._runner.crash_after = injector.crash_after
        return super().drain(service, arrivals)

    def submit_engine(self, engine, query, plan, catalogs: Sequence[object]) -> Collect:
        """Ship what the runner can to worker processes; run the rest here."""
        return self._runner.submit(engine, query, plan, catalogs)

    def active_segments(self):
        """Names of the currently exported shared-memory blocks (sorted)."""
        return self._runner.exporter.active_segments()

    @property
    def inline_fallbacks(self) -> int:
        return self._runner.inline_fallbacks

    def close(self) -> None:
        self._runner.close()


#: Execution-backend registry used by ``QueryService(backend=...)`` and the
#: CLI's ``workload --backend`` flag.
EXECUTION_BACKENDS: Dict[str, Callable[..., ExecutionBackend]] = {
    "virtual": lambda workers=None: VirtualTimeBackend(),
    # workers=None means "the default"; explicit invalid counts (0, -1)
    # must reach the pool backend's validation, not be silently replaced.
    "process": lambda workers=None: ProcessPoolBackend(
        workers=4 if workers is None else workers
    ),
}

#: Registered execution-backend names, sorted for stable CLI choice lists.
EXECUTION_BACKEND_NAMES = tuple(sorted(EXECUTION_BACKENDS))


def check_execution_backend(backend: Union[str, ExecutionBackend, None]) -> None:
    """Raise the ``KeyError`` :func:`create_execution_backend` would for
    ``backend``; builds nothing."""
    if backend is None or isinstance(backend, ExecutionBackend):
        return
    if backend not in EXECUTION_BACKENDS:
        raise KeyError(
            f"unknown execution backend {backend!r}; "
            f"registered: {', '.join(EXECUTION_BACKEND_NAMES)}"
        )


def create_execution_backend(
    backend: Union[str, ExecutionBackend, None],
    workers: Optional[int] = None,
) -> ExecutionBackend:
    """Resolve ``backend`` to a ready :class:`ExecutionBackend`.

    ``None`` picks :class:`ProcessPoolBackend` when ``workers`` asks for more
    than one worker and the deterministic :class:`VirtualTimeBackend`
    otherwise; a string resolves through :data:`EXECUTION_BACKENDS`; a ready
    instance passes through (``workers`` is then ignored).
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend is None:
        backend = "process" if workers is not None and workers > 1 else "virtual"
    check_execution_backend(backend)
    return EXECUTION_BACKENDS[backend](workers=workers)


__all__ = [
    "EXECUTION_BACKENDS",
    "EXECUTION_BACKEND_NAMES",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "VirtualTimeBackend",
    "create_execution_backend",
    "submit_inline",
]
