"""The request pipeline: one prepare → collect → finalize → publish path.

The paper hands *one* CTJ-compiled plan unchanged to every executor
(conf_asplos_KalinskyKE20, Section 3.2); :class:`QueryPipeline` is the one
place a query walks that idea in this repository.  Both front ends traverse
the same four stages over the same caches:

1. :meth:`QueryPipeline.prepare` — result-cache probe, then (on a miss)
   the scatter spec of a sharded catalog or the plan-cache probe/compile
   for a plan-aware engine, and the engine work's submission.  Everything
   whose *order* is observable runs here.  The engine calls go through one
   hook, ``submit_engine``
   (:meth:`repro.service.backends.ExecutionBackend.submit_engine`), so the
   execution backend alone decides where engine work runs.
2. :meth:`PreparedQuery.collect` — waits for the submitted engine work
   (and gathers a scatter-gather fan-out).
3. :meth:`QueryPipeline.finalize` — charge the virtual service time and
   close the trace's ``execute`` span.
4. :meth:`QueryPipeline.publish` — the only point a fresh result, its shard
   partials, circuit-breaker observations and the finished trace become
   visible.

:class:`~repro.service.service.QueryService` adds backend choice, admission,
the virtual-time event loop and metrics around these stages (``publish``
runs at the request's completion event); :meth:`repro.api.Session.execute`
runs them back to back at its virtual-time cursor.  The pipeline starts from
an already-chosen engine — routing policy stays with its owner.

The constructor is also the single wiring site: it builds the plan, result
and shard-partial caches, the scatter-gather executor, the fault injector
and the incremental maintainer, and subscribes the maintainer to the
catalog: an insert is logged and each cached entry is patched by one delta
join when it is next read; an event that cannot be patched drops its
dependent entries at once.  Its keywords are the one declaration of the
serving options: ``Session`` and ``QueryService`` forward whatever they do
not consume themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Tuple, Union

from repro.joins.base import EngineExecution, EngineProtocol
from repro.joins.compiler import QueryCompiler
from repro.joins.plan import JoinPlan
from repro.obs.instrument import annotate_execute_span
from repro.obs.trace import Span, Tracer, coerce_tracer
from repro.relational.catalog import Database
from repro.relational.query import ConjunctiveQuery
from repro.service.backends import submit_inline
from repro.service.caches import PlanCache, ResultCache
from repro.service.faults import (
    FaultInjector,
    FaultPlan,
    ShardUnavailableError,
    check_on_shard_loss,
    coerce_fault_plan,
)
from repro.service.maintenance import ResultMaintainer
from repro.service.scatter import ScatterGatherExecutor, ScatterGatherStats

#: Virtual-time cost charged to a request answered from the result cache.
RESULT_REPLAY_COST = 1.0

#: LRU capacity of the plan cache (one entry per canonical signature).
PLAN_CACHE_CAPACITY = 128


def check_pipeline_options(options: Mapping[str, object]) -> None:
    """Raise the ``ValueError`` :class:`QueryPipeline` would for ``options``.

    Touches nothing: an owner that acquires resources ahead of its pipeline
    (:class:`repro.api.Session` opening a durable store) calls it first.
    """
    if options.get("maintenance", "incremental") != "incremental":
        raise ValueError(
            "maintenance accepts only 'incremental', got "
            f"{options['maintenance']!r}"
        )
    if "on_shard_loss" in options:
        check_on_shard_loss(options["on_shard_loss"])


@dataclass(slots=True)
class PreparedQuery:
    """The deterministic prepare stage of one query, engine work still pending.

    ``work`` collects the submitted engine execution as ``(execution,
    wall_seconds)`` — ``None`` when the result cache already answered
    (``tuples`` is then the cached answer, and ``maintenance_ns`` the
    virtual cost of the patch its read ran).  ``error`` is set by ``work``
    when a scatter fan-out lost a shard on every replica under
    ``on_shard_loss="fail"``: the typed failure travels to
    :meth:`QueryPipeline.finalize` instead of tearing down the caller's loop.
    """

    query: ConjunctiveQuery
    signature: str
    engine: EngineProtocol
    start_time: float
    trace: Optional[Span] = None  # root span of the query's trace, if tracing
    work: Optional[Callable[[], Tuple[Optional[EngineExecution], Optional[float]]]] = None
    tuples: Optional[List[Tuple[int, ...]]] = None
    plan: Optional[JoinPlan] = None
    plan_cache_hit: bool = False
    compiled: bool = False
    partial_entries: List = field(default_factory=list)
    error: Optional[ShardUnavailableError] = None
    maintenance_ns: float = 0.0

    @property
    def result_cache_hit(self) -> bool:
        return self.tuples is not None

    def collect(self) -> Tuple[Optional[EngineExecution], Optional[float]]:
        """``(execution, wall_seconds)`` of the submitted engine work.

        ``(None, None)`` for a cache hit or a lost fan-out; the wall is the
        backend's host span of the engine work (a fan-out's slowest shard),
        ``None`` where nothing was measured.
        """
        return self.work() if self.work is not None else (None, None)


@dataclass(slots=True)
class CompletedQuery:
    """One finished execution, ready to be published.

    ``service_time`` is the virtual time the query occupied from
    ``prepared.start_time``: the engine's deterministic cost, the replay
    constant plus the read's patch cost for a cache hit, or the time
    burned before a shard-loss failure.  ``plan_cache_hit`` is credited
    only when the engine actually consumed the plan it was handed (see
    :attr:`repro.joins.base.EngineExecution.plan_used`).
    """

    prepared: PreparedQuery
    execution: Optional[EngineExecution]
    tuples: List[Tuple[int, ...]]
    service_time: float
    plan_cache_hit: bool
    #: Scatter breakdown for circuit-breaker observation at publish time.
    scatter_stats: Optional[ScatterGatherStats]

    @property
    def finish_time(self) -> float:
        return self.prepared.start_time + self.service_time


def _settled(run: Callable[[], EngineExecution]) -> Callable[[], EngineExecution]:
    """Call ``run`` now; the returned step gives its execution or re-raises."""
    try:
        execution = run()
    except ShardUnavailableError as error:
        lost = error  # ``error`` is unbound when the handler ends

        def fail() -> EngineExecution:
            raise lost

        return fail
    return lambda: execution


class QueryPipeline:
    """The shared caches, executors and stages behind every query.

    Parameters
    ----------
    database:
        The catalog queries run against; a
        :class:`~repro.relational.sharding.ShardedDatabase` gets a
        scatter-gather executor with a shard-partial cache.
    compiler:
        The canonicalising :class:`~repro.joins.compiler.QueryCompiler`
        shared by the plan cache, the scatter executor and the maintainer
        (a caching one by default).
    result_cache_capacity:
        LRU capacity of the result cache and of the shard-partial cache
        (the plan cache holds :data:`PLAN_CACHE_CAPACITY` plans).
    tracer:
        A :class:`repro.obs.Tracer`, or ``True`` for a fresh one, records a
        span tree per query (admission wait, routing, plan probe, engine
        execution with scatter legs) with deterministic ids: traces finish
        in virtual-time completion order on every execution backend.
        ``None`` is the no-op tracer (sites are guarded on ``tracer.enabled``).
    faults / seed:
        A :class:`~repro.service.faults.FaultPlan`, or a spec string like
        ``"slow:0*3;down:1@100-inf"`` parsed under ``seed``
        (:func:`repro.service.faults.parse_fault_spec`).  A non-empty plan
        arms the deterministic injector: the scatter path gains the
        retry-on-replica attempt walk (fixed constants in
        :mod:`repro.service.faults`), and a ``crash:`` clause arms the
        process backend's worker-crash trigger.
    on_shard_loss:
        ``"fail"`` (default): a shard lost on every replica raises a typed
        :class:`~repro.service.faults.ShardUnavailableError`.
        ``"partial"``: the query completes with the surviving fragments'
        union, flagged ``degraded`` and never admitted into the result
        cache as a complete answer.
    maintenance:
        Accepts only ``"incremental"``, the one policy: kept for callers
        that still name it.  The caches track catalog mutations through
        one :class:`~repro.service.maintenance.ResultMaintainer`: it logs
        insert batches, and a read of a cached
        result — or of a shard partial of a sharded catalog — that is
        behind the log patches it with one semi-naive delta join
        (:mod:`repro.joins.delta`), charged to the reading request;
        anything else drops, so a stale answer is never served.
    """

    def __init__(
        self,
        database: Database,
        compiler: Optional[QueryCompiler] = None,
        result_cache_capacity: int = 256,
        tracer: Union[Tracer, bool, None] = None,
        faults: Union[FaultPlan, str, None] = None,
        seed: int = 2020,
        on_shard_loss: str = "fail",
        maintenance: str = "incremental",
    ):
        check_pipeline_options({"maintenance": maintenance, "on_shard_loss": on_shard_loss})
        self.database = database
        self.compiler = compiler or QueryCompiler(enable_caching=True)
        self.plan_cache = PlanCache(PLAN_CACHE_CAPACITY)
        self.result_cache = ResultCache(result_cache_capacity)
        self.tracer = coerce_tracer(tracer)
        self.fault_plan = (
            coerce_fault_plan(faults, seed=seed) if faults is not None else None
        )
        self.injector = (
            FaultInjector(self.fault_plan)
            if self.fault_plan is not None and not self.fault_plan.empty
            else None
        )
        self.scatter: Optional[ScatterGatherExecutor] = None
        if hasattr(database, "scatter_spec"):  # sharded, bare or durable
            # Per-shard partial results, maintained fragment-by-fragment by
            # the catalog's shard-tagged mutation events.
            self.scatter = ScatterGatherExecutor(
                database,
                ResultCache(result_cache_capacity),
                compiler=self.compiler,
                injector=self.injector,
                on_shard_loss=on_shard_loss,
            )
        self.maintainer = ResultMaintainer(
            database,
            self.result_cache,
            scatter=self.scatter,
            compiler=self.compiler,
        )
        database.subscribe_invalidation(self.maintainer.on_mutation)

    def detach(self) -> None:
        """Stop tracking catalog mutations (cached entries go stale)."""
        self.database.unsubscribe_invalidation(self.maintainer.on_mutation)

    # ------------------------------------------------------------------ #
    # Stages
    # ------------------------------------------------------------------ #
    def begin_trace(
        self,
        query: ConjunctiveQuery,
        signature: str,
        engine: EngineProtocol,
        start_time: float,
        origin: Mapping[str, object],
        route: Mapping[str, object],
        arrival_time: Optional[float] = None,
    ) -> Span:
        """Open a query's span skeleton: root, admission wait, route.

        ``origin``/``route`` are the attributes only the caller knows (who
        submitted the query; how its engine was chosen).  ``arrival_time``
        marks a query that waited for admission: its root opens at the
        arrival and an ``admission`` span covers the wait.  No ids yet —
        :meth:`publish` seals the trace, so ids follow publication order.
        """
        opened = start_time if arrival_time is None else arrival_time
        root = self.tracer.begin(
            "query",
            opened,
            {"query": query.name, "signature": signature, "backend": engine.name, **origin},
        )
        if arrival_time is not None:
            root.child(
                "admission", arrival_time, {"queue_wait_ns": start_time - arrival_time}
            ).end(start_time)
        root.child("route", start_time, {"backend": engine.name, **route})
        return root

    def plan_for(
        self, query: ConjunctiveQuery, signature: str
    ) -> Tuple[ConjunctiveQuery, JoinPlan, bool]:
        """The plan-probe stage: ``(canonical query, plan, plan-cache hit)``.

        A miss compiles and caches the canonical plan.  Compilation is
        charged no virtual time, so plan visibility has no causal ordering
        to violate and the cache is populated right here.
        """
        entry = self.plan_cache.get(signature)
        if entry is not None:
            return entry[0], entry[1], True
        _, canonical, plan = self.compiler.compile_canonical(query)
        self.plan_cache.put(signature, (canonical, plan))
        return canonical, plan, False

    def prepare(
        self,
        query: ConjunctiveQuery,
        signature: str,
        engine: EngineProtocol,
        start_time: float,
        trace: Optional[Span] = None,
        submit_engine=submit_inline,
    ) -> PreparedQuery:
        """The deterministic stage of one query dispatched at ``start_time``.

        Probes the result cache; on a miss, submits the scatter fan-out of
        a sharded catalog (the executor owns the rewritten plans and the
        per-shard partial cache, so the plan cache is bypassed) or probes
        the plan cache for a plan-aware engine and submits one catalog.
        The returned ``work`` step collects, and touches no ordered state.

        ``submit_engine`` is the execution backend's engine-work hook
        (inline by default).  An inline hook finishes the fan-out here,
        through :meth:`ScatterGatherExecutor.execute`; a pooled one leaves
        the gather to ``work``.
        """
        prepared = PreparedQuery(query, signature, engine, start_time, trace)
        spent = self.result_cache.maintenance_ns
        cached = self.result_cache.get(signature, start_time)
        if cached is not None:
            prepared.tuples = cached
            prepared.maintenance_ns = self.result_cache.maintenance_ns - spent
            if trace is not None:
                trace.event("result_cache_hit", start_time, signature=signature)
            return prepared
        scatter = self.scatter
        if scatter is not None:
            options = dict(
                spec=scatter.spec_for(query),
                collect_partials=prepared.partial_entries,
                submit_engine=submit_engine,
                now=start_time,
                # Breaker admission is read at dispatch and outcomes feed
                # back in publish, so every backend sees the oracle's gate.
                breaker_gate=scatter.breaker_gate(start_time),
            )
            if submit_engine is submit_inline:
                # Inline work is done at submit, so nothing can overlap:
                # gather now through ``execute``, looked up on the executor
                # at this call (profilers time the served fan-out by
                # shadowing it there).
                gather = _settled(lambda: scatter.execute(query, engine, **options))
            else:
                gather = scatter.submit(query, engine, **options)

            def scatter_work() -> Tuple[Optional[EngineExecution], Optional[float]]:
                try:
                    execution = gather()
                except ShardUnavailableError as error:
                    prepared.error = error
                    return None, None
                return execution, execution.scatter.wall_seconds

            prepared.work = scatter_work
        else:
            # Plan-blind engines (naive, pairwise) plan internally and run the
            # original query; the plan cache is neither consulted nor
            # credited for them.
            target, plan = query, None
            if engine.capabilities.supports_plans:
                target, plan, hit = self.plan_for(query, signature)
                prepared.plan = plan
                prepared.plan_cache_hit = hit
                prepared.compiled = not hit
                if trace is not None:
                    trace.child("plan_cache", start_time, {"hit": hit, "compiled": not hit})
            collect = submit_engine(engine, target, plan, (self.database,))
            prepared.work = lambda: collect()[0]
        return prepared

    def finalize(
        self,
        prepared: PreparedQuery,
        execution: Optional[EngineExecution],
        wall_elapsed: Optional[float] = None,
    ) -> CompletedQuery:
        """Turn a finished execution into its publishable completion."""
        error = prepared.error
        plan_cache_hit = False
        scatter_stats = None
        if execution is not None:
            tuples, service_time = execution.tuples, execution.cost
            plan_cache_hit = prepared.plan_cache_hit and execution.plan_used
            if isinstance(execution.scatter, ScatterGatherStats):
                scatter_stats = execution.scatter
        elif error is not None:
            # Unrecoverable shard loss: charge the virtual time burned
            # before giving up, and keep the breakdown for the breakers.
            tuples, service_time = [], max(error.cost_ns, RESULT_REPLAY_COST)
            scatter_stats = error.scatter
        else:
            tuples = prepared.tuples
            service_time = RESULT_REPLAY_COST + prepared.maintenance_ns
        completed = CompletedQuery(
            prepared, execution, tuples, service_time, plan_cache_hit, scatter_stats
        )
        if prepared.trace is not None:
            execute = prepared.trace.child(
                "execute", prepared.start_time, {"backend": prepared.engine.name}
            )
            execute.end(completed.finish_time)
            if execution is not None:
                annotate_execute_span(execute, execution)
            elif error is not None:
                execute.attributes.update(
                    failed=True,
                    error="shard_unavailable",
                    missing_shards=list(error.shards),
                    cost_ns=completed.service_time,
                )
            else:
                execute.attributes.update(
                    result_cache_hit=True,
                    cost_ns=completed.service_time,
                    cardinality=len(completed.tuples),
                )
            if wall_elapsed is not None:
                execute.wall_elapsed_s = wall_elapsed
            prepared.trace.end(completed.finish_time)
        return completed

    def publish(self, completed: CompletedQuery) -> None:
        """Make one completion visible: result, partials, breakers, trace.

        The served path calls this from its event loop in virtual-time
        completion order, so a concurrent duplicate can never observe a
        result that has not finished yet; breaker state and trace ids
        advance here for the same reason — one mutation point, identical
        on every execution backend.
        """
        prepared, execution = completed.prepared, completed.execution
        if execution is not None and execution.cacheable:
            query = prepared.query
            self.result_cache.put_result(
                prepared.signature, completed.tuples, query.relation_names(), query=query
            )
        if prepared.partial_entries:
            self.scatter.publish_partials(prepared.partial_entries)
        if (
            completed.scatter_stats is not None
            and self.scatter is not None
            and self.scatter.fault_tolerant
        ):
            self.scatter.observe_attempts(completed.scatter_stats, completed.finish_time)
        if prepared.trace is not None:
            self.tracer.finish(prepared.trace)


__all__ = [
    "CompletedQuery",
    "PLAN_CACHE_CAPACITY",
    "PreparedQuery",
    "QueryPipeline",
    "RESULT_REPLAY_COST",
    "check_pipeline_options",
]
