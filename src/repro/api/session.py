"""Session: the repository's single public entry point.

A :class:`Session` owns a :class:`~repro.relational.catalog.Database`, the
plan and result caches, an engine table resolved through the shared
registry (:mod:`repro.engines`), a router (:mod:`repro.api.routing`)
and the request pipeline (:mod:`repro.service.pipeline`) that holds the
caches and executes every statement.  It exposes three verbs::

    session = Session(database)
    session.execute("cycle3")            # -> ResultSet (lazy, cached, routed)
    session.explain("cycle3")            # -> Explanation (route and plan)
    session.serve(WorkloadSpec(...))     # -> concurrent serving via repro.service

``execute`` is the synchronous single-statement path: resolve the statement,
route it (to a fixed software-engine order by default, or to a named
engine), and return a lazy :class:`~repro.api.resultset.ResultSet` that
runs the pipeline's prepare → execute → finalize → publish stages when
first consumed; the result cache answers α-equivalent repeats without
touching an engine, and the plan cache compiles each canonical signature
exactly once.  ``serve``
hands a whole request stream to :class:`repro.service.QueryService` over
the *same* pipeline object (plus this session's engine instances and
router), so results cached by either path are visible to both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.api.resultset import ResultSet
from repro.api.routing import RouteDecision, Router
from repro.api.statement import Statement, coerce_statement
from repro.engines import create_engine, engine_names
from repro.joins.base import EngineProtocol
from repro.joins.plan import JoinPlan
from repro.relational.catalog import Database, MutationEvent
from repro.relational.query import ConjunctiveQuery
from repro.relational.sharding import shard_database
from repro.relational.statistics import is_cyclic
from repro.service.maintenance import ResultMaintainer
from repro.service.pipeline import CompletedQuery, QueryPipeline, check_pipeline_options
from repro.util.validation import check_positive


@dataclass(frozen=True)
class ResultDelta:
    """One change to a subscribed query's result, delivered on mutation.

    ``added``/``removed`` are the rows that entered/left the result
    (sorted).  ``relation``/``shard`` identify the mutation that caused the
    change; ``incremental`` records whether the delta was computed by a
    semi-naive delta join (patch path) or by a full re-execution diff.
    """

    relation: str
    shard: Optional[int]
    added: Tuple[Tuple[int, ...], ...]
    removed: Tuple[Tuple[int, ...], ...]
    incremental: bool = False


class Subscription:
    """A continuous query: a live result set plus a stream of deltas.

    Created by :meth:`Session.subscribe`.  The subscription snapshots the
    statement's current result at creation; every subsequent catalog
    mutation that touches the query's relations updates the snapshot and
    queues a :class:`ResultDelta` (only when the result actually changed).
    Consume with :meth:`poll` (drains queued deltas) and :attr:`result`
    (the maintained result, sorted).  :meth:`close` detaches it.

    Under ``maintenance="incremental"`` patchable insert events update the
    snapshot with a semi-naive delta join; everything else — and every
    event in ``"recompute"`` mode — re-executes the statement and diffs,
    so removed rows (relation redefinitions) are reported correctly in
    both modes.
    """

    def __init__(self, session: "Session", query: ConjunctiveQuery, signature: str):
        self._session = session
        self.query = query
        self.signature = signature
        self._snapshot: set = set(
            tuple(row) for row in session.execute(query).tuples
        )
        self._pending: list = []
        self.closed = False

    @property
    def result(self) -> Tuple[Tuple[int, ...], ...]:
        """The maintained result as of the last observed mutation (sorted)."""
        return tuple(sorted(self._snapshot))

    def poll(self) -> Tuple[ResultDelta, ...]:
        """Drain and return the deltas queued since the last poll."""
        pending, self._pending = self._pending, []
        return tuple(pending)

    def close(self) -> None:
        """Stop maintaining this subscription (idempotent)."""
        self.closed = True
        self._session._subscriptions = [
            s for s in self._session._subscriptions if s is not self
        ]

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


@dataclass
class Explanation:
    """What :meth:`Session.explain` returns: the route and plan for a statement."""

    statement: Statement
    query: ConjunctiveQuery
    signature: str
    decision: RouteDecision
    plan: Optional[JoinPlan]

    def describe(self) -> str:
        lines = [
            f"statement       : {self.query.to_datalog()}",
            f"signature       : {self.signature}",
            f"query shape     : {'cyclic' if is_cyclic(self.query) else 'acyclic'}",
            self.decision.describe(),
        ]
        if self.plan is not None:
            lines.append("plan:")
            lines.append(self.plan.describe())
        else:
            lines.append("plan            : (engine plans internally)")
        return "\n".join(lines)


class Session:
    """Unified facade over the catalog, the caches and the engine registry.

    Parameters
    ----------
    database:
        The catalog statements run against (a fresh empty one by default);
        the session's pipeline tracks its mutation events, whether they
        come through :meth:`insert` or the catalog itself.
    engines:
        Engine names (resolved through the shared registry) and/or ready
        :class:`~repro.joins.base.EngineProtocol` instances.  Defaults to
        every registered engine.
    routing:
        ``"auto"`` (default) runs unpinned work on the first eligible engine
        of :data:`~repro.api.routing.AUTO_ORDER`; ``"rotate"`` serves
        workloads round-robin over the engines instead.
    shards / partitioner:
        ``shards > 1`` re-partitions the database into a
        :class:`~repro.relational.sharding.ShardedDatabase` (``"hash"`` or
        ``"range"`` over each relation's first attribute) and executes
        statements by scatter-gather; a database that is already sharded is
        used as-is.  The session keeps a shard-aware partial-result cache,
        so mutating one shard re-executes only that shard's fragment.
    concurrency / execution_backend:
        How :meth:`serve` physically executes admitted requests: the
        ``workers`` / ``backend`` of the session's
        :class:`~repro.service.QueryService` (documented there).
        ``concurrency=1`` (default) keeps the deterministic virtual-time
        loop.  :meth:`close` releases a pooled backend's host resources.
    max_in_flight / max_queue_depth / seed:
        Admission-control knobs for :meth:`serve`.
    trace:
        The pipeline's ``tracer`` option under the session's spelling
        (``True`` or a ready :class:`repro.obs.Tracer`): :meth:`execute`
        finishes one trace per forced :class:`ResultSet`
        (``ResultSet.trace``) and :meth:`serve` shares the tracer, so one
        export covers both paths.
    storage_dir:
        Open (or initialise) the durable store at this directory and use it
        as the session's catalog — an existing store is *recovered*
        (snapshot + mmap'd trie segments + WAL replay) before the first
        statement runs.  Mutually exclusive with ``database``; combine with
        ``shards``/``partitioner`` to create a durable sharded catalog.
        The session owns the store: :meth:`snapshot` persists, and
        :meth:`close` releases its file handles.
    replication_factor:
        ``replication_factor > 1`` stores that many copies of every
        partitioned fragment on distinct shards so the fault-tolerant
        scatter path can retry on a replica (rejected together with
        ``storage_dir``: durable stores do not persist replicas).
    **pipeline_options:
        Every other keyword goes to the session's
        :class:`~repro.service.pipeline.QueryPipeline` — its parameter table
        is the one place the serving options (``maintenance``, ``faults``,
        ``on_shard_loss``, ``result_cache_capacity``, ...) are declared,
        defaulted and validated.  They hold for both :meth:`execute` and
        :meth:`serve`; ``maintenance`` also selects how :meth:`subscribe`
        subscriptions are advanced.
    """

    def __init__(
        self,
        database: Optional[Database] = None,
        engines: Optional[Sequence[Union[str, EngineProtocol]]] = None,
        max_in_flight: int = 4,
        max_queue_depth: Optional[int] = None,
        seed: int = 2020,
        routing: str = "auto",
        shards: int = 1,
        partitioner: str = "hash",
        concurrency: int = 1,
        execution_backend=None,
        trace=None,
        storage_dir: Optional[str] = None,
        replication_factor: int = 1,
        **pipeline_options,
    ):
        if routing not in ("auto", "rotate"):
            raise ValueError(f"routing must be 'auto' or 'rotate', got {routing!r}")
        check_positive("concurrency", concurrency)
        # The pipeline validates its own options, but it is built after the
        # store below is opened; reject a bad one before creating anything.
        check_pipeline_options(pipeline_options)
        if storage_dir is not None:
            if database is not None:
                raise ValueError(
                    "pass either database= or storage_dir=, not both: a "
                    "durable session owns the catalog it opens"
                )
            if replication_factor > 1:
                raise ValueError(
                    "replication_factor > 1 cannot be combined with "
                    "storage_dir=: durable stores do not persist replicas"
                )
            from repro.storage import open_store

            database = open_store(
                storage_dir,
                name="session",
                num_shards=shards if shards > 1 else None,
                partitioner=partitioner,
            )
        self._owns_database = storage_dir is not None
        if database is None:
            database = Database("session")
        if shards > 1 and not hasattr(database, "scatter_spec"):
            database = shard_database(
                database,
                shards,
                partitioner=partitioner,
                replication_factor=replication_factor,
            )
        self.database = database
        self.router = Router()
        self.routing = routing
        self._service = None
        self.engines: Dict[str, EngineProtocol] = {}
        for entry in engines if engines is not None else engine_names():
            self.add_engine(create_engine(entry) if isinstance(entry, str) else entry)
        if not self.engines:
            raise ValueError("Session needs at least one engine")
        self.max_in_flight = max_in_flight
        self.max_queue_depth = max_queue_depth
        self.seed = seed
        self.concurrency = concurrency
        self.execution_backend = execution_backend
        # Virtual-time cursor of the synchronous execute() path: each forced
        # execution occupies [cursor, cursor + cost] on the trace timeline.
        self._trace_clock = 0.0
        self._closed = False
        self._subscriptions: list = []
        pipeline_options.setdefault("tracer", trace)
        self.pipeline = QueryPipeline(
            database, seed=seed, clock=self._clock_now, **pipeline_options
        )
        self.compiler = self.pipeline.compiler
        self.plan_cache = self.pipeline.plan_cache
        self.result_cache = self.pipeline.result_cache
        self.tracer = self.pipeline.tracer
        # Subscribed after the pipeline's own listeners, so the caches are
        # already maintained for an event when subscriptions are advanced.
        database.subscribe_invalidation(self._on_catalog_mutation)

    def _on_catalog_mutation(self, event: MutationEvent) -> None:
        if self._subscriptions:
            self._notify_subscriptions(event)

    # ------------------------------------------------------------------ #
    # Continuous queries
    # ------------------------------------------------------------------ #
    def subscribe(self, statement: object) -> Subscription:
        """Register ``statement`` as a continuous query; returns its handle.

        The returned :class:`Subscription` carries the statement's current
        result and is kept up to date as the catalog mutates: each mutation
        touching the query's relations updates :attr:`Subscription.result`
        and queues a :class:`ResultDelta` for :meth:`Subscription.poll`.
        Under ``maintenance="incremental"`` the update is a semi-naive
        delta join; otherwise the statement is re-executed and diffed.
        """
        _stmt, query, signature = self._resolve(statement)
        subscription = Subscription(self, query, signature)
        self._subscriptions.append(subscription)
        return subscription

    def _notify_subscriptions(self, event: MutationEvent) -> None:
        """Advance every live subscription past one catalog mutation.

        Runs inside the catalog's notification, *after* the caches were
        maintained for the event — the recompute diff below may therefore
        be answered straight from the (already patched or dropped) result
        cache.  A delta is queued only when the result actually changed.
        """
        maintainer = self.pipeline.maintainer
        # The maintainer patches exactly the patchable events.
        incremental = maintainer is not None and event.patchable
        for subscription in list(self._subscriptions):
            if event.relation not in subscription.query.relation_names():
                continue
            added: Tuple[Tuple[int, ...], ...]
            removed: Tuple[Tuple[int, ...], ...] = ()
            if incremental:
                delta = maintainer.delta_for(subscription.query, event)
                added = tuple(
                    sorted(t for t in delta if t not in subscription._snapshot)
                )
                subscription._snapshot.update(added)
            else:
                current = {tuple(row) for row in self.execute(subscription.query).tuples}
                added = tuple(sorted(current - subscription._snapshot))
                removed = tuple(sorted(subscription._snapshot - current))
                subscription._snapshot = current
            if added or removed:
                subscription._pending.append(
                    ResultDelta(
                        relation=event.relation,
                        shard=event.shard,
                        added=added,
                        removed=removed,
                        incremental=incremental,
                    )
                )

    def _clock_now(self) -> float:
        """The session's best-estimate virtual time, for maintenance checks.

        The sync ``execute()`` path advances ``_trace_clock``; workloads
        served through :attr:`service` advance the service's own clock.
        The maintainer reads whichever is further along.
        """
        clock = self._trace_clock
        if self._service is not None:
            clock = max(clock, self._service.clock)
        return clock

    @property
    def num_shards(self) -> int:
        """Shard count of the session's catalog (1 for a monolithic database)."""
        return getattr(self.database, "num_shards", 1)

    @property
    def maintainer(self) -> Optional[ResultMaintainer]:
        """The incremental maintainer, or ``None`` under ``recompute``.

        Exposes the per-mutation :class:`MaintenanceReport` history and the
        accumulated delta-join cost (``maintainer.cost_ns``, virtual ns) so
        patching can be charged honestly against recomputation.
        """
        return self.pipeline.maintainer

    def close(self) -> None:
        """Detach this session from its catalog (idempotent).

        Unsubscribes the invalidation callbacks (the session's and its
        pipeline's), so short-lived sessions over a long-lived shared
        database do not accumulate dead listeners, and marks every live
        :class:`Subscription` closed.  A closed session can still execute;
        its cached results simply stop tracking catalog mutations.
        """
        if not self._closed:
            self.database.unsubscribe_invalidation(self._on_catalog_mutation)
            self.pipeline.detach()
            for subscription in self._subscriptions:
                subscription.closed = True
            self._subscriptions = []
            if self._service is not None:
                self._service.close()  # shut down execution-backend pools
            if self._owns_database:
                # A durable catalog opened via storage_dir= belongs to this
                # session; release its WAL/SQLite handles.
                self.database.close()
            self._closed = True

    def snapshot(self):
        """Fold the durable store's WAL into a fresh snapshot.

        Only meaningful for sessions opened with ``storage_dir=`` (or handed
        a durable catalog); persists every relation plus the currently
        cached trie indexes as mmap-ready segments and truncates the
        mutation log.  Returns the store's snapshot summary.
        """
        snapshot = getattr(self.database, "snapshot", None)
        if snapshot is None:
            raise RuntimeError(
                "this session's catalog is not durable; open the session "
                "with storage_dir=... to enable snapshots"
            )
        return snapshot()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Engine table
    # ------------------------------------------------------------------ #
    def add_engine(self, engine: EngineProtocol) -> None:
        """Make ``engine`` available to this session and its service (latest name wins)."""
        self.engines[engine.name] = engine
        if self._service is not None:
            self._service.add_backend(engine)

    def engine_names(self) -> Tuple[str, ...]:
        """Engines configured on this session, sorted."""
        return tuple(sorted(self.engines))

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def _route(self, query: ConjunctiveQuery, route: Optional[str]) -> RouteDecision:
        """Route ``query``: ``"auto"`` (or ``None``) through the fixed order,
        any other value pins that engine."""
        if route in (None, "auto"):
            return self.router.choose(query, self.engines)
        return self.router.pinned(route, self.engines)

    # ------------------------------------------------------------------ #
    # Single-statement execution
    # ------------------------------------------------------------------ #
    def _resolve(self, statement: object) -> Tuple[Statement, ConjunctiveQuery, str]:
        """The resolve stage: statement → validated query → canonical signature."""
        stmt = coerce_statement(statement)
        query = stmt.resolve(self.database)
        self.database.validate_query(query)
        return stmt, query, self.pipeline.compiler.signature(query)

    def execute(self, statement: object, route: str = "auto") -> ResultSet:
        """Execute ``statement`` and return a lazy :class:`ResultSet`.

        ``statement`` may be a :class:`Statement`, a ``ConjunctiveQuery``,
        or a string (SQL, datalog, or a pattern name).  ``route="auto"``
        runs the first eligible engine of
        :data:`~repro.api.routing.AUTO_ORDER`; any configured engine name
        pins the choice.  Execution is deferred to the first consumption of
        the ResultSet and memoised; the result cache is consulted/populated
        at that moment.
        """
        _stmt, query, signature = self._resolve(statement)
        decision = self._route(query, route)
        engine = self.engines[decision.chosen]
        pipeline = self.pipeline

        def run() -> CompletedQuery:
            # The sync path has no event loop: each forced execution runs
            # the pipeline's stages back to back in the next window of the
            # session's virtual-time cursor.  The cursor advances whether or
            # not a trace is recorded — the incremental maintainer's fault
            # checks read it (an unreachable fragment cannot be patched *now*).
            start = self._trace_clock
            trace = None
            if pipeline.tracer.enabled:
                trace = pipeline.begin_trace(
                    query,
                    signature,
                    engine,
                    start,
                    {"source": "session"},
                    {"pinned": route not in (None, "auto")},
                )
            prepared = pipeline.prepare(query, signature, engine, start, trace)
            completed = pipeline.finalize(prepared, prepared.run())
            pipeline.publish(completed)
            self._trace_clock = completed.finish_time
            if prepared.error is not None:
                raise prepared.error
            return completed

        return ResultSet(query, signature, engine.name, run, route=decision)

    def explain(self, statement: object, route: str = "auto") -> Explanation:
        """Describe how ``statement`` would run: route and plan.

        Explaining a plan-aware route compiles (and caches) the canonical
        plan but executes nothing.
        """
        stmt, query, signature = self._resolve(statement)
        decision = self._route(query, route)
        plan = None
        if self.engines[decision.chosen].capabilities.supports_plans:
            _canonical, plan, _hit = self.pipeline.plan_for(query, signature)
        return Explanation(stmt, query, signature, decision, plan)

    # ------------------------------------------------------------------ #
    # Concurrent serving (delegates to repro.service)
    # ------------------------------------------------------------------ #
    @property
    def service(self):
        """The session's :class:`~repro.service.QueryService` (lazily built).

        The service runs over this session's pipeline (catalog, compiler,
        caches, tracer, fault and maintenance wiring), engine instances and
        — under ``routing="auto"`` — its router, so the two execution
        paths reuse each other's cached plans and results.
        """
        if self._service is None:
            from repro.service.service import QueryService

            self._service = QueryService(
                pipeline=self.pipeline,
                backends=tuple(self.engines.values()),
                max_in_flight=self.max_in_flight,
                max_queue_depth=self.max_queue_depth,
                seed=self.seed,
                router=self.router if self.routing == "auto" else None,
                backend=self.execution_backend,
                workers=self.concurrency,
            )
        return self._service

    def serve(self, workload, seed: Optional[int] = None):
        """Serve a workload through the service layer; outcomes by request id.

        ``workload`` is either a :class:`~repro.service.WorkloadSpec` (a
        seeded stream is generated from it) or an iterable of
        :class:`~repro.service.WorkloadRequest`.
        """
        from repro.service.workload import WorkloadSpec, generate_requests, run_workload

        if isinstance(workload, WorkloadSpec):
            requests = generate_requests(workload, seed=seed if seed is not None else self.seed)
        else:
            requests = list(workload)
        return run_workload(self.service, requests)

    def report(self) -> str:
        """The service report (serving metrics plus cache/admission lines)."""
        return self.service.report()

    # ------------------------------------------------------------------ #
    # Catalog mutation
    # ------------------------------------------------------------------ #
    def insert(self, relation_name: str, rows) -> int:
        """Insert tuples through the catalog; dependent cached results drop."""
        return self.database.insert_into(relation_name, rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Session(database={self.database.name!r}, "
            f"engines={list(self.engine_names())}, routing={self.routing!r})"
        )
