"""The request pipeline: one prepare → execute → finalize → publish path.

The paper hands *one* CTJ-compiled plan unchanged to every executor
(conf_asplos_KalinskyKE20, Section 3.2); :class:`QueryPipeline` is the one
place a query walks that idea in this repository.  Both front ends traverse
the same four stages over the same caches:

1. :meth:`QueryPipeline.prepare` — result-cache probe, then (on a miss)
   the scatter spec of a sharded catalog or the plan-cache probe/compile
   for a plan-aware engine.  Everything whose *order* is observable runs
   here, on the caller's thread.
2. ``prepared.work()`` — the engine execution (or scatter-gather fan-out):
   a pure closure over the read-only catalog that may run on any thread.
   Its engine calls go through one hook, ``run_engine``
   (:meth:`repro.service.backends.ExecutionBackend.run_engine`), so the
   execution backend alone decides where engine work runs.
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
and the incremental maintainer, and subscribes them to the catalog.  Its
keywords are the one declaration of the serving options: ``Session`` and
``QueryService`` forward whatever they do not consume themselves.
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
from repro.service.backends import run_inline
from repro.service.caches import PlanCache, ResultCache
from repro.service.faults import (
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    ShardUnavailableError,
    check_on_shard_loss,
    coerce_fault_plan,
)
from repro.service.maintenance import ResultMaintainer, check_maintenance_mode
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
    if "maintenance" in options:
        check_maintenance_mode(options["maintenance"])
    if "on_shard_loss" in options:
        check_on_shard_loss(options["on_shard_loss"])


@dataclass(slots=True)
class PreparedQuery:
    """The deterministic prepare stage of one query, engine work still pending.

    ``work`` is the engine execution itself — ``None`` when the result cache
    already answered (``tuples`` is then the cached answer).  ``error`` is
    set by ``work`` when a scatter fan-out lost a shard on every replica
    under ``on_shard_loss="fail"``: the typed failure travels to
    :meth:`QueryPipeline.finalize` instead of tearing down the caller's loop.
    """

    query: ConjunctiveQuery
    signature: str
    engine: EngineProtocol
    start_time: float
    trace: Optional[Span] = None  # root span of the query's trace, if tracing
    work: Optional[Callable[[], Optional[EngineExecution]]] = None
    tuples: Optional[List[Tuple[int, ...]]] = None
    plan: Optional[JoinPlan] = None
    plan_cache_hit: bool = False
    compiled: bool = False
    partial_entries: List = field(default_factory=list)
    error: Optional[ShardUnavailableError] = None

    @property
    def result_cache_hit(self) -> bool:
        return self.tuples is not None

    def run(self) -> Optional[EngineExecution]:
        """Run the pending engine work inline (``None`` for a cache hit)."""
        return self.work() if self.work is not None else None


@dataclass(slots=True)
class CompletedQuery:
    """One finished execution, ready to be published.

    ``service_time`` is the virtual time the query occupied from
    ``prepared.start_time``: the engine's deterministic cost, the replay
    constant for a cache hit, or the time burned before a shard-loss
    failure.  ``plan_cache_hit`` is credited only when the engine actually
    consumed the plan it was handed (see
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
        retry/timeout/hedging attempt walk, and a ``crash:`` clause arms
        the process backend's worker-crash trigger.
    on_shard_loss:
        ``"fail"`` (default): a shard lost on every replica raises a typed
        :class:`~repro.service.faults.ShardUnavailableError`.
        ``"partial"``: the query completes with the surviving fragments'
        union, flagged ``degraded`` and never admitted into the result
        cache as a complete answer.
    retry_policy:
        :class:`~repro.service.faults.RetryPolicy` overrides for the
        fault-tolerant scatter path (timeouts, backoff, hedging, breaker).
    maintenance:
        How the caches track catalog mutations.  ``"recompute"`` (default)
        subscribes the caches' ``invalidate``: every dependent entry drops.
        ``"incremental"`` subscribes one
        :class:`~repro.service.maintenance.ResultMaintainer` that patches
        cached results — and the shard-partial cache of a sharded catalog —
        in place with semi-naive delta joins (:mod:`repro.joins.delta`) for
        patchable events (exact insert batches); anything else still
        drops, so a stale answer is never served.
    clock:
        Zero-argument callable giving the owner's current virtual time, read
        by the maintainer's fault-path check.
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
        retry_policy: Optional[RetryPolicy] = None,
        maintenance: str = "recompute",
        clock: Optional[Callable[[], float]] = None,
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
                retry_policy=retry_policy,
                injector=self.injector,
                on_shard_loss=on_shard_loss,
            )
        self.maintainer: Optional[ResultMaintainer] = None
        if maintenance == "incremental":
            self.maintainer = ResultMaintainer(
                database,
                self.result_cache,
                scatter=self.scatter,
                compiler=self.compiler,
                clock=clock,
            )
        for listener in self._mutation_listeners():
            database.subscribe_invalidation(listener)

    def _mutation_listeners(self) -> List[Callable]:
        """What tracks the catalog: the maintainer, or each cache's drop.

        Never both — a partial cache subscribed to plain invalidation would
        drop the fragments the maintainer just patched.
        """
        if self.maintainer is not None:
            return [self.maintainer.on_mutation]
        listeners = [self.result_cache.invalidate]
        if self.scatter is not None:
            listeners.append(self.scatter.partial_cache.invalidate)
        return listeners

    def detach(self) -> None:
        """Stop tracking catalog mutations (cached entries go stale)."""
        for listener in self._mutation_listeners():
            self.database.unsubscribe_invalidation(listener)

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
        run_engine=run_inline,
    ) -> PreparedQuery:
        """The deterministic stage of one query dispatched at ``start_time``.

        Probes the result cache; on a miss, builds the scatter fan-out of a
        sharded catalog (the executor owns the rewritten plans and the
        per-shard partial cache, so the plan cache is bypassed) or probes
        the plan cache for a plan-aware engine.  The returned ``work``
        closure touches no ordered state and may run on any thread.

        ``run_engine`` is the execution backend's engine-work hook
        (inline by default): the closure runs one catalog through it, or
        hands it to the scatter fan-out for the missed shards.
        """
        prepared = PreparedQuery(query, signature, engine, start_time, trace)
        cached = self.result_cache.get(signature)
        if cached is not None:
            prepared.tuples = cached
            if trace is not None:
                trace.event("result_cache_hit", start_time, signature=signature)
            return prepared
        scatter = self.scatter
        spec = scatter.spec_for(query) if scatter is not None else None
        if spec is not None:
            # Breaker admission is read here, on the caller's thread; pooled
            # backends then see the gate the virtual-time oracle computed.
            # Outcomes feed back in publish, never from worker threads.
            breaker_gate = scatter.breaker_gate(start_time)

            def scatter_work() -> Optional[EngineExecution]:
                try:
                    return scatter.execute(
                        query,
                        engine,
                        spec=spec,
                        collect_partials=prepared.partial_entries,
                        run_engine=run_engine,
                        now=start_time,
                        breaker_gate=breaker_gate,
                    )
                except ShardUnavailableError as error:
                    prepared.error = error
                    return None

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
            prepared.work = lambda: run_engine(engine, target, plan, (self.database,))[0][0]
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
            scatter_stats = getattr(error, "scatter", None)
        else:
            tuples, service_time = prepared.tuples, RESULT_REPLAY_COST
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
