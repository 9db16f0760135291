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
from repro.relational.catalog import Database
from repro.relational.query import ConjunctiveQuery
from repro.relational.sharding import shard_database
from repro.relational.statistics import is_cyclic
from repro.service.admission import check_admission_bounds
from repro.service.backends import check_execution_backend
from repro.service.maintenance import ResultMaintainer
from repro.service.pipeline import CompletedQuery, QueryPipeline, check_pipeline_options
from repro.util.validation import check_positive


@dataclass(frozen=True)
class ResultDelta:
    """How a subscribed query's result changed between two polls.

    ``added``/``removed`` are the rows that entered/left the result
    (sorted); ``incremental`` records whether the delta was computed by a
    semi-naive delta join (patch path) or by a full re-execution diff.
    """

    added: Tuple[Tuple[int, ...], ...]
    removed: Tuple[Tuple[int, ...], ...]
    incremental: bool = False


class Subscription:
    """A continuous query: a result snapshot that each poll catches up.

    Created by :meth:`Session.subscribe`.  :attr:`result` is the
    statement's result as of the last :meth:`poll` (or the creation).  The
    subscription is one more reader of the maintainer's insert log: it
    records the log ``position`` of its snapshot, which holds back the
    log's truncation like a live cache entry's, and an insert runs no
    delta join for it.  :meth:`close` detaches it.

    A relation redefinition, or a backlog that outgrew its relation, makes
    it ``stale``: the next poll re-executes the statement and diffs, so
    removed rows are reported correctly.
    """

    def __init__(self, session: "Session", query: ConjunctiveQuery, signature: str):
        self._session = session
        self.query = query
        self.signature = signature
        self.relations = frozenset(query.relation_names())
        self._snapshot: set = set(tuple(row) for row in session.execute(query).tuples)
        self.position = session.maintainer.log.position
        self.stale = False
        self.closed = False

    @property
    def result(self) -> Tuple[Tuple[int, ...], ...]:
        """The result as of the last poll (sorted)."""
        return tuple(sorted(self._snapshot))

    def poll(self) -> Tuple[ResultDelta, ...]:
        """Catch :attr:`result` up with the catalog; ``()`` or the one change.

        A live subscription runs one delta join over every row logged
        since its position (charged to ``maintainer.cost_ns``) and keeps
        the rows its snapshot lacks; a stale one re-executes and diffs.  A
        closed one returns ``()``.
        """
        if self.closed:
            return ()
        maintainer = self._session.maintainer
        incremental, removed = not self.stale, ()
        if self.stale:
            current = {tuple(row) for row in self._session.execute(self.query).tuples}
            added = current - self._snapshot
            removed = tuple(sorted(self._snapshot - current))
            self._snapshot = current
        elif any(maintainer.log.backlog(name, self.position) for name in self.relations):
            delta = maintainer.solve(self.signature, self.query, self.position, 0.0)
            added = {row for row in delta.tuples if row not in self._snapshot}
            self._snapshot.update(added)
        else:
            added = ()
        self.position, self.stale = maintainer.log.position, False
        if not (added or removed):
            return ()
        return (ResultDelta(tuple(sorted(added)), removed, incremental),)

    def close(self) -> None:
        """Stop maintaining this subscription and release its log position (idempotent)."""
        self.closed = True
        subscriptions = self._session.maintainer.subscriptions
        if self in subscriptions:
            subscriptions.remove(self)

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
    shards:
        ``shards > 1`` re-partitions the database into a
        :class:`~repro.relational.sharding.ShardedDatabase` (hashed on each
        relation's first attribute) and executes statements by
        scatter-gather; a database that is already sharded is
        used as-is.  The session keeps a partial-result cache whose
        entries a read patches from the inserted rows hashed to their shard.
    concurrency / execution_backend:
        How :meth:`serve` physically executes admitted requests: the
        ``workers`` / ``backend`` of the session's
        :class:`~repro.service.QueryService` (documented there).
        ``concurrency=1`` (default) keeps the deterministic virtual-time
        loop.  :meth:`close` releases the process backend's host resources.
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
        ``shards`` to create a durable sharded catalog.
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
        is the one place the serving options (``faults``,
        ``on_shard_loss``, ``result_cache_capacity``, ...) are declared,
        defaulted and validated.  They hold for both :meth:`execute` and
        :meth:`serve`.  Cached results track catalog mutations through the
        pipeline's one maintainer (:attr:`maintainer`): patched by delta
        joins where an event allows it, dropped where it does not.
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
        if database is not None and not hasattr(database, "subscribe_invalidation"):
            raise TypeError(
                f"database must be a catalog, got {type(database).__name__}; "
                "build one from a graph with repro.graphs.loader.graph_database"
            )
        # The pipeline and the service validate their own options, but they
        # are built after the store below is opened; reject a bad option or
        # engine name before creating anything.
        check_pipeline_options(pipeline_options)
        check_admission_bounds(max_in_flight, max_queue_depth)
        check_execution_backend(execution_backend)
        resolved = [
            create_engine(entry) if isinstance(entry, str) else entry
            for entry in (engines if engines is not None else engine_names())
        ]
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
            )
        self._owns_database = storage_dir is not None
        if database is None:
            database = Database("session")
        if shards > 1 and not hasattr(database, "scatter_spec"):
            database = shard_database(
                database, shards, replication_factor=replication_factor
            )
        self.database = database
        self.router = Router()
        self.routing = routing
        self._service = None
        self.engines: Dict[str, EngineProtocol] = {}
        for engine in resolved:
            self.add_engine(engine)
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
        pipeline_options.setdefault("tracer", trace)
        self.pipeline = QueryPipeline(database, seed=seed, **pipeline_options)
        self.compiler = self.pipeline.compiler
        self.plan_cache = self.pipeline.plan_cache
        self.result_cache = self.pipeline.result_cache
        self.tracer = self.pipeline.tracer

    # ------------------------------------------------------------------ #
    # Continuous queries
    # ------------------------------------------------------------------ #
    def subscribe(self, statement: object) -> Subscription:
        """Register ``statement`` as a continuous query; returns its handle.

        The returned :class:`Subscription` carries the statement's current
        result.  :attr:`Subscription.result` is the result as of the last
        :meth:`Subscription.poll`: each poll catches it up with every
        mutation since and returns the change as one :class:`ResultDelta`
        (one delta join over the inserted rows; a re-execute diff after a
        redefinition).
        """
        _stmt, query, signature = self._resolve(statement)
        subscription = Subscription(self, query, signature)
        self.maintainer.subscriptions.append(subscription)
        return subscription

    @property
    def num_shards(self) -> int:
        """Shard count of the session's catalog (1 for a monolithic database)."""
        return getattr(self.database, "num_shards", 1)

    @property
    def maintainer(self) -> ResultMaintainer:
        """The pipeline's incremental maintainer.

        Exposes the per-mutation :class:`MaintenanceReport` history, the
        accumulated delta-join cost of cache reads and subscription polls
        (``maintainer.cost_ns``, virtual ns) so patching can be charged
        honestly against recomputation, and the live subscriptions.
        """
        return self.pipeline.maintainer

    def close(self) -> None:
        """Detach this session from its catalog (idempotent).

        Unsubscribes the pipeline's invalidation callback, so short-lived
        sessions over a long-lived shared database do not accumulate dead
        listeners, and closes every live :class:`Subscription`.  A closed
        session can still execute; its cached results simply stop tracking
        catalog mutations.
        """
        if not self._closed:
            self.pipeline.detach()
            for subscription in list(self.maintainer.subscriptions):
                subscription.close()
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
            # not a trace is recorded — a partial patched on read checks its
            # faults at it (an unreachable fragment cannot be patched *now*).
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
            completed = pipeline.finalize(prepared, *prepared.collect())
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
        """Insert tuples through the catalog; returns how many were new.

        The batch is logged, not applied to the caches: a dependent cached
        result is patched with every row it lacks by one delta join when
        it is next read (the read pays, in virtual time too), and a live
        :class:`Subscription` catches up when it is next polled.
        """
        return self.database.insert_into(relation_name, rows)
