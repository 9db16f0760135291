"""Shared-memory trie export and worker-process execution.

This module is the machinery behind
:class:`~repro.service.backends.ProcessPoolBackend`: it ships the *pure*
part of a request — one plan-aware engine execution over read-only tries —
to worker processes without copying the trie data.

The pieces, in data-flow order:

* :class:`TrieSegmentExporter` (orchestrator) — publishes each cached
  :class:`~repro.relational.trie.TrieIndex` as one
  :class:`multiprocessing.shared_memory.SharedMemory` block holding the
  PR 7 segment layout (:func:`repro.storage.segments.encode_trie_segment`),
  keyed ``(relation, permutation, shard)`` exactly like the on-disk store.
  Blocks are generation-named (``repro-seg-{pid}-{n}``) and never reused,
  so a worker can never attach a stale generation under a fresh name.
  Subscribing :meth:`TrieSegmentExporter.invalidate` to the catalog's
  mutation events unlinks every segment of a mutated relation — the next
  drain resolves rebuilt tries and exports fresh blocks.
* :class:`WorkRequest` — the picklable execution request: the pickled
  engine, the (canonical or shard-rewritten) query, its
  :class:`~repro.joins.plan.JoinPlan` (slot program recompiled lazily in
  the worker, see ``JoinPlan.__getstate__``), the worker-visible relation
  schemas and one :class:`SegmentHandle` per trie.
* :class:`SegmentCatalog` (worker) — just enough catalog surface for the
  slot-compiled engines (``validate_query`` + ``trie_for_atom``), resolving
  every trie by attaching its segment ``memoryview.cast('q')`` zero-copy.
* :class:`SharedMemoryRunner` (orchestrator) — what the process backend's
  :meth:`~repro.service.backends.ExecutionBackend.submit_engine` hook calls:
  it owns the exporter and a ``ProcessPoolExecutor``, ships every catalog
  it can (a picklable plan-kernel engine — LFTJ, CTJ or Generic Join;
  every trie exports) and runs the rest inline, on the orchestrator
  thread.

Determinism: the worker runs the exact same pickled engine over the exact
same int64 arrays with the exact same plan, so the returned
:class:`~repro.joins.base.EngineExecution` (tuples, cost, JoinStats) is
bit-identical to an inline execution; all *ordered* state (caches,
admission, virtual clock, trace spans) never leaves the orchestrator.

Lifecycle contract: every exported block is unlinked by
:meth:`TrieSegmentExporter.close` (idempotent, called from
``QueryService.close()`` via the backend) or earlier by mutation
invalidation.  Workers unregister their attachments from the
``resource_tracker`` (the orchestrator owns unlinking — without this,
CPython < 3.13 workers would try to unlink blocks they never created and
warn about leaks, bpo-39959) and hold at most
:data:`ATTACH_CACHE_LIMIT` mappings in an LRU cache.
"""

from __future__ import annotations

import itertools
import os
import pickle
import sys
import time
import warnings
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_all_start_methods, get_context, shared_memory
from multiprocessing import resource_tracker
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.joins.base import EngineExecution, EngineProtocol
from repro.joins.leapfrog import LeapfrogTrieJoin
from repro.joins.plan import JoinPlan
from repro.relational.catalog import MutationEvent, ordered_attributes_for
from repro.relational.query import Atom, ConjunctiveQuery
from repro.relational.trie import TrieIndex
from repro.storage.segments import decode_trie_segment, encode_trie_segment

#: Maximum shared-memory mappings one worker process keeps attached.
ATTACH_CACHE_LIMIT = 64

#: A trie's identity across processes: worker-visible relation name plus the
#: attribute permutation of its levels (the PR 7 segment key, with the shard
#: folded into the fragment's own trie).
SegmentKey = Tuple[str, Tuple[str, ...]]


@dataclass(frozen=True)
class SegmentHandle:
    """One exported trie: the shared-memory block name + declared blob size.

    ``nbytes`` is the encoded segment length, *not* the block size — shared
    memory is page-rounded, so attachers decode with ``exact_size=False``
    and trust the header-declared geometry.  ``owner_pid`` identifies the
    exporting process, which owns unlinking; attachers use it to decide
    whether their resource tracker is the owner's (fork/in-process — leave
    the registration alone) or their own (spawn — unregister, see
    :func:`_attach_segment`).
    """

    name: str
    nbytes: int
    owner_pid: int


@dataclass(frozen=True)
class WorkRequest:
    """A picklable engine execution: everything a worker needs, by value.

    ``engine_bytes`` is the pickled engine itself (not a registry name), so
    worker-side configuration is the orchestrator's, byte for byte.
    ``schemas`` maps every relation name the query mentions (shard aliases
    included) to its attribute tuple; ``segments`` maps each
    :data:`SegmentKey` the plan resolves to its exported block.
    """

    engine_bytes: bytes
    query: ConjunctiveQuery
    plan: JoinPlan
    schemas: Dict[str, Tuple[str, ...]] = field(hash=False)
    segments: Dict[SegmentKey, SegmentHandle] = field(hash=False)


# --------------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------------- #
#: Worker-process attach cache: block name -> (mapping, decoded trie).
#: Bounded LRU; names are generation-unique, so an entry can never go stale —
#: at worst it holds a mapping of an unlinked block until evicted.
_ATTACHED: "OrderedDict[str, Tuple[shared_memory.SharedMemory, TrieIndex]]" = (
    OrderedDict()
)

#: Worker-process engine cache: pickled engine bytes -> live engine.
_ENGINES: Dict[bytes, EngineProtocol] = {}

#: Pid of the pool-owning process, as seen from here.  Set by
#: :meth:`SharedMemoryRunner.bind` before the pool exists, so fork workers
#: inherit the owner's pid (they share its resource tracker) while spawn
#: workers import this module fresh and see ``None`` (they run a private
#: tracker).  :func:`_attach_segment` keys its unregister decision on it.
_POOL_OWNER_PID: Optional[int] = None


def _owns_private_tracker(handle: SegmentHandle) -> bool:
    """Whether this process's resource tracker is *not* the exporter's.

    The exporting process registered the block at create time and
    unregisters it at unlink; any process sharing that tracker (the
    exporter itself, or its fork children) must leave the registration
    alone — a second unregister would race the owner's.  A spawn worker
    runs its own tracker, which only knows about the attach: left
    registered, it would try to unlink (and warn about) blocks it never
    created when the worker exits (bpo-39959).
    """
    if os.getpid() == handle.owner_pid:
        return False  # the exporter itself (or an in-process test attach)
    return _POOL_OWNER_PID != handle.owner_pid  # fork child inherits the pid


def _attach_segment(handle: SegmentHandle) -> TrieIndex:
    entry = _ATTACHED.get(handle.name)
    if entry is not None:
        _ATTACHED.move_to_end(handle.name)
        return entry[1]
    shm = shared_memory.SharedMemory(name=handle.name)
    if _owns_private_tracker(handle):
        try:
            resource_tracker.unregister(
                getattr(shm, "_name", shm.name), "shared_memory"
            )
        except Exception:
            pass
    trie = decode_trie_segment(
        memoryview(shm.buf),
        source=f"shm:{handle.name}",
        zero_copy=True,
        exact_size=False,
    )
    _ATTACHED[handle.name] = (shm, trie)
    while len(_ATTACHED) > ATTACH_CACHE_LIMIT:
        _name, (old_shm, old_trie) = _ATTACHED.popitem(last=False)
        del old_trie
        try:
            old_shm.close()
        except BufferError:
            # A live execution still holds cast views into the mapping; it
            # stays mapped until the worker exits (bounded by the cache).
            pass
    return trie


class SegmentCatalog:
    """Worker-side catalog over attached segments.

    Implements exactly the surface the slot-compiled engines touch —
    :meth:`validate_query` and :meth:`trie_for_atom` (via
    ``resolve_slot_tables``) — against the request's shipped schemas and
    segment handles.  Anything else is a programming error and raises.
    """

    def __init__(self, request: WorkRequest):
        self._schemas = request.schemas
        self._segments = request.segments
        self._tries: Dict[SegmentKey, TrieIndex] = {}

    def validate_query(self, query: ConjunctiveQuery) -> None:
        for atom in query.atoms:
            attributes = self._schemas.get(atom.relation)
            if attributes is None:
                raise KeyError(
                    f"relation {atom.relation!r} was not shipped with the "
                    f"work request (have: {sorted(self._schemas)})"
                )
            if atom.arity != len(attributes):
                raise ValueError(
                    f"atom {atom} has arity {atom.arity}, but relation "
                    f"{atom.relation!r} has arity {len(attributes)}"
                )

    def trie_for_atom(
        self, atom: Atom, variable_order: Sequence[str]
    ) -> TrieIndex:
        attributes = self._schemas[atom.relation]
        key = (atom.relation, ordered_attributes_for(atom, attributes, variable_order))
        trie = self._tries.get(key)
        if trie is None:
            handle = self._segments.get(key)
            if handle is None:
                raise KeyError(
                    f"no segment shipped for trie {key!r} "
                    f"(have: {sorted(self._segments)})"
                )
            trie = _attach_segment(handle)
            self._tries[key] = trie
        return trie


def execute_work_request(request: WorkRequest) -> Tuple[EngineExecution, float]:
    """Run one shipped execution in this worker; returns (execution, wall_s).

    The engine is unpickled once per distinct ``engine_bytes`` and reused
    across requests; the execution's ``plan`` is stripped before the reply
    (the orchestrator re-attaches its own plan object, so downstream
    consumers see the identical instance an inline run would have).
    """
    engine = _ENGINES.get(request.engine_bytes)
    if engine is None:
        engine = pickle.loads(request.engine_bytes)
        _ENGINES[request.engine_bytes] = engine
    catalog = SegmentCatalog(request)
    wall_start = time.perf_counter()
    execution = engine.execute(request.query, catalog, plan=request.plan)
    wall = time.perf_counter() - wall_start
    execution.plan = None
    return execution, wall


# --------------------------------------------------------------------------- #
# Orchestrator side
# --------------------------------------------------------------------------- #
@dataclass
class _ExportEntry:
    """One live exported trie (strong trie ref keeps its id stable)."""

    trie: TrieIndex
    relation: str
    shm: shared_memory.SharedMemory
    handle: SegmentHandle


class TrieSegmentExporter:
    """Publishes tries as shared-memory segments; owns their whole lifetime.

    Entries are keyed by trie object identity: the catalog caches tries per
    (relation, permutation) and discards them on mutation, so identity
    tracks exactly the data generation workers must see.  Mutation events
    (:meth:`invalidate`) unlink every segment of the touched relation —
    conservative across shards, matching the catalog's own trie eviction.
    """

    #: Process-global name generation.  Worker-side attach caches key by
    #: segment *name*, so a name must never refer to two different payloads
    #: within one process tree — even across exporter instances.
    _generation = itertools.count(1)

    def __init__(self):
        self._entries: Dict[int, _ExportEntry] = {}
        self._closed = False

    def export(self, trie: TrieIndex) -> SegmentHandle:
        """The segment handle of ``trie``, exporting on first sight."""
        if self._closed:
            raise RuntimeError("exporter is closed")
        entry = self._entries.get(id(trie))
        if entry is not None:
            return entry.handle
        blob = encode_trie_segment(trie)
        while True:
            name = f"repro-seg-{os.getpid()}-{next(self._generation)}"
            try:
                shm = shared_memory.SharedMemory(
                    name=name, create=True, size=max(len(blob), 1)
                )
                break
            except FileExistsError:  # stale block from a dead process
                continue
        shm.buf[: len(blob)] = blob
        handle = SegmentHandle(name=name, nbytes=len(blob), owner_pid=os.getpid())
        self._entries[id(trie)] = _ExportEntry(trie, trie.relation_name, shm, handle)
        return handle

    def invalidate(self, event: MutationEvent) -> None:
        """Drop every segment of the mutated relation (all shards).

        Fragment tries carry the base relation name, so one event drops the
        global trie and every shard fragment — exactly the tries the
        catalog itself is about to rebuild.
        """
        stale = [
            key
            for key, entry in self._entries.items()
            if entry.relation == event.relation
        ]
        for key in stale:
            self._release(self._entries.pop(key))

    def active_segments(self) -> Tuple[str, ...]:
        """Names of every currently linked shared-memory block (sorted)."""
        return tuple(sorted(entry.handle.name for entry in self._entries.values()))

    def close(self) -> None:
        """Unlink every exported block.  Idempotent."""
        entries, self._entries = list(self._entries.values()), {}
        self._closed = True
        for entry in entries:
            self._release(entry)

    @staticmethod
    def _release(entry: _ExportEntry) -> None:
        try:
            entry.shm.close()
        except BufferError:
            pass
        try:
            entry.shm.unlink()
        except FileNotFoundError:
            pass


def _start_method() -> str:
    """Prefer fork (cheap, inherits the import state); else spawn."""
    methods = get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


def _warm_worker() -> int:
    """Warm-up task used by :meth:`SharedMemoryRunner.bind` to pre-spawn workers.

    Sleeps long enough that the bind-time warm-up submits all overlap, so
    the executor starts a distinct process for each instead of reusing the
    first idle one.
    """
    time.sleep(0.05)
    return os.getpid()


class ProcessPoolBrokenWarning(RuntimeWarning):
    """The worker pool died mid-serve; engine work continues in-process.

    Results are unchanged (the in-process path is bit-identical by
    construction) — only the offload is lost.  Raised at most once per
    :class:`SharedMemoryRunner`; the count of executions that fell back is
    :attr:`SharedMemoryRunner.inline_fallbacks`, mirrored into
    ``ServiceMetrics.inline_fallbacks`` at drain time.
    """


def _caller_stacklevel() -> int:
    """The ``warnings.warn`` stack level, from its caller here, of the first
    frame outside this module: a pool breaks at submit or at collect, at
    different depths, and the warning names the caller's line either way."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename == __file__:
        frame, level = frame.f_back, level + 1
    return level


def _run_here(
    engine: EngineProtocol,
    query: ConjunctiveQuery,
    plan: Optional[JoinPlan],
    catalogs: Sequence[object],
) -> List[Tuple[EngineExecution, float]]:
    """Run ``engine`` over each catalog on this thread, timing each call."""
    results = []
    for catalog in catalogs:
        wall_start = time.perf_counter()
        execution = engine.execute(query, catalog, plan=plan)
        results.append((execution, time.perf_counter() - wall_start))
    return results


class SharedMemoryRunner:
    """The process backend's engine work: ship per catalog, or run it here.

    :meth:`submit` ships each catalog whose execution can run faithfully in
    a worker and runs the rest (an engine other than LFTJ, CTJ and Generic
    Join, an unpicklable one, a broken pool) inline on the orchestrator
    thread — behaviour, not just results, degrades gracefully.

    ``crash_after`` is the deterministic worker-crash trigger of the fault
    harness (see :class:`repro.service.faults.WorkerCrashFault`): after that
    many offloaded work items the pool is declared broken, exercising the
    same fallback path a real worker death takes.  ``inline_fallbacks``
    counts engine executions that ran in-process *because the pool was broken*
    (capability declines — engines that cannot ship — are the normal
    protocol and are not counted).
    """

    def __init__(self, workers: int = 4):
        self.workers = workers
        self.exporter = TrieSegmentExporter()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._database = None
        self._engine_blobs: Dict[int, Tuple[EngineProtocol, Optional[bytes]]] = {}
        self._broken = False
        self._closed = False
        #: Engine executions that fell back in-process after the pool broke.
        self.inline_fallbacks = 0
        #: Declare the pool broken after this many offloaded work items
        #: (``None`` disables the trigger).
        self.crash_after: Optional[int] = None
        self._work_count = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def bind(self, database) -> None:
        """Attach to the served catalog (first drain) and start the workers.

        Subscribes segment invalidation to the catalog's mutation events and
        creates the worker pool.
        """
        if self._closed:
            raise RuntimeError("runner is closed")
        if self._database is database:
            return
        if self._database is not None:
            raise RuntimeError("runner is already bound to a different catalog")
        self._database = database
        database.subscribe_invalidation(self.exporter.invalidate)
        # Stamp the owner pid *before* the pool exists so fork workers
        # inherit it (see _owns_private_tracker).
        global _POOL_OWNER_PID
        _POOL_OWNER_PID = os.getpid()
        # Start the resource tracker before forking: fork workers must
        # inherit a *live* tracker fd, or their first attach would spawn a
        # private tracker whose registrations nobody unregisters (this
        # process owns every unlink) — warning about phantom leaks when
        # the worker exits.
        resource_tracker.ensure_running()
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers, mp_context=get_context(_start_method())
        )
        # Spawn every worker NOW, before the first work item.  The executor
        # otherwise may fork workers lazily on a later submit, while its own
        # queue-feeder and manager threads run, and a fork taken mid-acquire
        # of one of their locks leaves the child's copy locked forever (the
        # worker then never drains its call queue and the drain deadlocks).
        # The warm-up tasks overlap, so each submit finds every existing
        # worker busy and forks the next one.
        warmups = [self._pool.submit(_warm_worker) for _ in range(self.workers)]
        for future in warmups:
            future.result()

    def close(self) -> None:
        """Shut the pool down and unlink every segment.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        pool, self._pool = self._pool, None
        database, self._database = self._database, None
        if pool is not None:
            pool.shutdown(wait=True)
        if database is not None:
            database.unsubscribe_invalidation(self.exporter.invalidate)
        self.exporter.close()

    # ------------------------------------------------------------------ #
    # Offload decisions
    # ------------------------------------------------------------------ #
    def _engine_bytes(self, engine: EngineProtocol) -> Optional[bytes]:
        """Pickled ``engine``, or ``None`` when it cannot be shipped."""
        cached = self._engine_blobs.get(id(engine))
        if cached is not None:
            return cached[1]
        blob: Optional[bytes] = None
        if isinstance(engine, LeapfrogTrieJoin):
            try:
                blob = pickle.dumps(engine)
            except (pickle.PicklingError, TypeError, AttributeError):
                blob = None
        self._engine_blobs[id(engine)] = (engine, blob)
        return blob

    def _build_request(
        self,
        engine_bytes: bytes,
        query: ConjunctiveQuery,
        plan: JoinPlan,
        catalog,
    ) -> WorkRequest:
        """Assemble the picklable request, exporting tries as needed.

        ``catalog`` is whatever the inline execution would have run against
        (the monolithic database, a shard view, a merged global view); its
        ``relation``/``trie_for_atom`` surface resolves aliases exactly as
        the engine would.
        """
        schemas: Dict[str, Tuple[str, ...]] = {}
        for atom in query.atoms:
            if atom.relation not in schemas:
                schemas[atom.relation] = tuple(
                    catalog.relation(atom.relation).schema.attributes
                )
        segments: Dict[SegmentKey, SegmentHandle] = {}
        for binding in plan.atom_bindings:
            atom = binding.atom
            key = (
                atom.relation,
                ordered_attributes_for(
                    atom, schemas[atom.relation], plan.variable_order
                ),
            )
            if key not in segments:
                segments[key] = self.exporter.export(
                    catalog.trie_for_atom(atom, plan.variable_order)
                )
        return WorkRequest(
            engine_bytes=engine_bytes,
            query=query,
            plan=plan,
            schemas=schemas,
            segments=segments,
        )

    def _mark_broken(self, reason: str) -> None:
        """Declare the pool unusable; warn exactly once per runner."""
        if self._broken:
            return
        self._broken = True
        warnings.warn(
            f"process pool broken ({reason}); subsequent engine executions "
            f"run inline on the orchestrator — results are unchanged, only "
            f"the offload is lost",
            ProcessPoolBrokenWarning,
            stacklevel=_caller_stacklevel(),
        )

    def _submit(self, request: WorkRequest):
        if (
            not self._closed
            and not self._broken
            and self.crash_after is not None
            and self._work_count >= self.crash_after
        ):
            self._mark_broken(
                f"simulated worker crash after {self.crash_after} work item(s)"
            )
        if self._closed or self._broken or self._pool is None:
            return None
        self._work_count += 1
        try:
            return self._pool.submit(execute_work_request, request)
        except BrokenProcessPool:  # a worker died since the last collect
            self._mark_broken("a worker process died mid-drain")
            return None
        except RuntimeError:  # pool shut down under us
            return None

    def _collect(self, future, plan: JoinPlan) -> Optional[Tuple[EngineExecution, float]]:
        if future is None:
            return None
        try:
            execution, wall = future.result()
        except BrokenProcessPool:
            # A worker died mid-drain.  Mark the pool unusable (close()
            # still unlinks every segment) and fall back, so the drain
            # completes.
            self._mark_broken("a worker process died mid-drain")
            return None
        execution.plan = plan
        return execution, wall

    # ------------------------------------------------------------------ #
    # The engine-work surface
    # ------------------------------------------------------------------ #
    def submit(
        self,
        engine: EngineProtocol,
        query: ConjunctiveQuery,
        plan: Optional[JoinPlan],
        catalogs: Sequence[object],
    ) -> Callable[[], List[Tuple[EngineExecution, float]]]:
        """Start ``engine`` over each catalog; return the collect step.

        Each catalog (the monolithic database, a shard view) ships as its
        own request — tries shared between catalogs export once — and is
        submitted here; the collect step waits for the futures.  A
        plan-blind or unshippable engine runs every catalog inline, here;
        any catalog the pool could not run is redone inline by the collect
        step, and only those last ones count as :attr:`inline_fallbacks`.
        The collect step gives ``(execution, wall_seconds)`` per catalog, in
        catalog order, bit-identical either way.
        """
        engine_bytes = self._engine_bytes(engine) if plan is not None else None
        if engine_bytes is None:
            results = _run_here(engine, query, plan, catalogs)
            return lambda: results
        futures = [
            self._submit(self._build_request(engine_bytes, query, plan, catalog))
            for catalog in catalogs
        ]

        def collect() -> List[Tuple[EngineExecution, float]]:
            results = [self._collect(future, plan) for future in futures]
            rest = [index for index, result in enumerate(results) if result is None]
            if self._broken:
                self.inline_fallbacks += len(rest)
            redone = _run_here(engine, query, plan, [catalogs[index] for index in rest])
            for index, result in zip(rest, redone):
                results[index] = result
            return results

        return collect


__all__ = [
    "ATTACH_CACHE_LIMIT",
    "ProcessPoolBrokenWarning",
    "SegmentCatalog",
    "SegmentHandle",
    "SharedMemoryRunner",
    "TrieSegmentExporter",
    "WorkRequest",
    "execute_work_request",
    "ordered_attributes_for",
]
