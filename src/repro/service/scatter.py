"""Scatter-gather execution: fan one query out over a sharded catalog.

The executor takes any :class:`~repro.joins.base.EngineProtocol` engine and
a :class:`~repro.relational.sharding.ShardedDatabase` and runs the catalog's
:class:`~repro.relational.sharding.ScatterSpec`: the seed atom is rewritten
to the shard alias, each shard's task executes the rewritten query against
its :meth:`~repro.relational.sharding.ShardedDatabase.shard_view` (seed
fragment local, everything else the shared global view), and the gather step merges the
partial results.  Every relation of the catalog is partitioned on its first
attribute, so the seed fragments split the result disjointly: the gather
concatenates the partials in shard order and deduplicates only under a
projection, where two fragments can yield the same projected row.

**Plans.**  The rewritten query is shard-independent, so plan-aware engines
compile it exactly once per canonical signature; the compiled plan is
memoised here (plans depend only on query structure, never on data) and
handed to every shard task.

**Partial-result reuse.**  With a ``partial_cache`` (a
:class:`~repro.service.caches.ResultCache` the pipeline's maintainer
keeps), each shard's partial result is cached under ``(signature, shard)``
with the query's relations as dependencies.  The probe patches a partial
that is behind the insert log (:meth:`maintain`), seeding its delta join
with only the logged rows that hash to its shard; a re-executed query
replays every cached shard and recomputes only the missing fragments.

**Virtual time.**  Shards run concurrently in the service's model: the
execution's cost is the slowest task (critical path) plus a per-task
dispatch charge and a per-tuple merge charge
(:data:`~repro.relational.sharding.SCATTER_DISPATCH_COST_NS`,
:data:`~repro.relational.sharding.SCATTER_MERGE_COST_PER_TUPLE_NS`).

**Host concurrency.**  :meth:`ScatterGatherExecutor.submit` probes the
partial cache and hands the missed shards, as a single call, to the
execution backend's ``submit_engine`` hook (:mod:`repro.service.backends`),
which may ship the shard executions to worker processes; the collect step
it returns gathers.  Probes and gather stay sequential in shard order on the
calling thread, so every observable (tuples, costs, cache counters,
aggregated stats) is identical whatever ran the shards.
:meth:`~ScatterGatherExecutor.execute` is submit-then-collect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import repro.joins.delta as delta_joins
from repro.joins.base import EngineExecution, EngineProtocol
from repro.joins.compiler import QueryCompiler
from repro.joins.plan import JoinPlan
from repro.joins.stats import JoinStats
from repro.relational.query import ConjunctiveQuery
from repro.relational.sharding import (
    SCATTER_DISPATCH_COST_NS,
    SCATTER_MERGE_COST_PER_TUPLE_NS,
    ScatterSpec,
    ShardedDatabase,
)
from repro.service.backends import Collect, submit_inline
from repro.service.caches import ResultCache
from repro.service.faults import (
    FaultInjector,
    NodeBreakers,
    ShardUnavailableError,
    check_on_shard_loss,
    schedule_task,
)

#: Virtual-time cost of replaying one shard's partial result from the cache.
PARTIAL_REPLAY_COST_NS = 1.0

#: One freshly computed shard partial: ``(key, tuples, relation names, query)``.
PartialEntry = Tuple[str, List[Tuple[int, ...]], Tuple[str, ...], ConjunctiveQuery]


@dataclass(frozen=True)
class ShardTaskStats:
    """What one shard contributed to a scatter-gather execution.

    ``wall_seconds`` is the host wall-clock span of the shard's engine
    execution, measured only by the process backend's ``submit_engine``
    hook (``None`` under :func:`~repro.service.backends.submit_inline` and
    for cache replays) — virtual runs stay free of host timings so their
    traces are byte-reproducible.

    The fault-tolerance fields describe the task's deterministic attempt
    walk (see :func:`repro.service.faults.schedule_task`): how many
    attempts it burned, which replica finally served it, and — for a
    ``lost`` task — that no replica could, in which case ``tuples`` is 0
    and ``cost_ns`` is the virtual time burned before giving up.
    """

    shard: int
    tuples: int
    cost_ns: float
    from_cache: bool
    fragment_cardinality: int
    wall_seconds: Optional[float] = None
    attempts: int = 1
    replica: int = 0
    lost: bool = False

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)


@dataclass(frozen=True)
class ScatterGatherStats:
    """Per-shard work breakdown of one scatter-gather execution.

    Surfaced as ``ResultSet.shard_stats`` so callers can see how the fan-out
    balanced: which shards computed, which replayed cached partials, and how
    much the gather step merged away.

    ``missing_shards`` names the shards whose fragments are absent from the
    merged result (``degraded`` is its truthiness); ``attempt_outcomes``
    carries ``(node, ok)`` per attempt for circuit-breaker observation at
    the request's completion event.
    """

    seed_relation: str
    tasks: Tuple[ShardTaskStats, ...]
    merged_tuples: int
    duplicates_removed: int
    merge_cost_ns: float
    missing_shards: Tuple[int, ...] = ()
    attempt_outcomes: Tuple[Tuple[int, bool], ...] = ()

    @property
    def num_shards(self) -> int:
        return len(self.tasks)

    @property
    def replayed_shards(self) -> Tuple[int, ...]:
        """Shards answered from the partial-result cache."""
        return tuple(task.shard for task in self.tasks if task.from_cache)

    @property
    def critical_path_ns(self) -> float:
        return max((task.cost_ns for task in self.tasks), default=0.0)

    @property
    def retries(self) -> int:
        return sum(task.retries for task in self.tasks)

    @property
    def wall_seconds(self) -> Optional[float]:
        """The slowest measured shard's host wall seconds (``None``: none measured)."""
        walls = [task.wall_seconds for task in self.tasks if task.wall_seconds is not None]
        return max(walls) if walls else None

    def describe(self) -> str:
        lines = [
            (
                f"scatter-gather over {self.num_shards} shard(s) of "
                f"{self.seed_relation!r} (partitioned seed)"
            )
        ]
        for task in self.tasks:
            if task.lost:
                source = f"LOST after {task.attempts} attempt(s)"
            elif task.from_cache:
                source = "cache replay"
            else:
                source = "computed"
                if task.retries:
                    source += f", {task.retries} retr{'ies' if task.retries != 1 else 'y'}"
                if task.replica:
                    source += f", replica {task.replica}"
            lines.append(
                f"  shard {task.shard}: {task.tuples} tuples from "
                f"{task.fragment_cardinality} fragment rows, "
                f"~{task.cost_ns:.0f} ns ({source})"
            )
        lines.append(
            f"  gather: {self.merged_tuples} merged, "
            f"{self.duplicates_removed} duplicates removed, "
            f"~{self.merge_cost_ns:.0f} ns"
        )
        if self.missing_shards:
            lines.append(
                f"  DEGRADED: missing shard(s) {list(self.missing_shards)}"
            )
        return "\n".join(lines)


def partial_key(signature: str, shard: int) -> str:
    """Partial-result cache key of one shard's contribution to a signature."""
    return f"{signature}#shard{shard}"


class ScatterGatherExecutor:
    """Runs queries over a :class:`ShardedDatabase` through any engine.

    Parameters
    ----------
    catalog:
        The sharded catalog to fan out over.
    partial_cache:
        Optional result cache for per-shard partials.  The
        *caller* owns its maintenance wiring
        (:class:`repro.service.pipeline.QueryPipeline`'s maintainer attaches
        its insert log to it, with :meth:`maintain` as the patch solver);
        the executor reads and populates it.
    compiler:
        Query compiler used for the rewritten scatter queries (plan-aware
        engines only).
    injector:
        A :class:`~repro.service.faults.FaultInjector`.  Its presence is
        what arms the fault-tolerant attempt walk; ``None`` (the default)
        keeps the exact fault-free execution path.
    on_shard_loss:
        ``"fail"`` raises :class:`~repro.service.faults.ShardUnavailableError`
        when a shard's fragment cannot be computed on any replica;
        ``"partial"`` returns the surviving fragments' union, flagged
        degraded and barred from the result cache.
    """

    def __init__(
        self,
        catalog: ShardedDatabase,
        partial_cache: Optional[ResultCache] = None,
        compiler: Optional[QueryCompiler] = None,
        injector: Optional[FaultInjector] = None,
        on_shard_loss: str = "fail",
    ):
        self.catalog = catalog
        self.partial_cache = partial_cache
        self.compiler = compiler or QueryCompiler(enable_caching=True)
        self.injector = injector
        self.on_shard_loss = check_on_shard_loss(on_shard_loss)
        self.breakers = NodeBreakers()
        # Rewritten plans by canonical signature (the seed is always atom 0):
        # pure query structure, shared by every shard and never invalidated
        # by data.
        self._plan_memo: Dict[str, JoinPlan] = {}
        # Scatter spec by signature, recorded at execute time so the
        # incremental-maintenance path (see maintain) can rebuild a shard's
        # view when patching its cached partial.
        self._spec_memo: Dict[str, ScatterSpec] = {}

    # ------------------------------------------------------------------ #
    # Fault tolerance
    # ------------------------------------------------------------------ #
    @property
    def fault_tolerant(self) -> bool:
        """Whether the attempt-walk path is armed (an injector is present)."""
        return self.injector is not None

    def breaker_gate(self, now: float) -> Optional[Dict[int, bool]]:
        """Per-node breaker admission at virtual ``now`` (None when unarmed).

        Called at *dispatch*, so the gate is the one the virtual-time oracle
        computes, whenever the shard work is collected.
        """
        if not self.fault_tolerant:
            return None
        return self.breakers.gate(range(self.catalog.num_shards), now)

    def observe_attempts(self, stats: ScatterGatherStats, now: float) -> None:
        """Feed an execution's attempt outcomes to the breakers at ``now``.

        Called at the request's *completion* event, in virtual-time order.
        """
        if stats.attempt_outcomes:
            self.breakers.observe(stats.attempt_outcomes, now)

    def spec_for(self, query: ConjunctiveQuery) -> ScatterSpec:
        """The catalog's scatter spec for ``query``."""
        return self.catalog.scatter_spec(query)

    def _plan_for(self, signature: str, spec: ScatterSpec) -> JoinPlan:
        plan = self._plan_memo.get(signature)
        if plan is None:
            plan = self.compiler.compile(spec.query)
            self._plan_memo[signature] = plan
        return plan

    def execute(
        self,
        query: ConjunctiveQuery,
        engine: EngineProtocol,
        spec: Optional[ScatterSpec] = None,
        collect_partials: Optional[List[PartialEntry]] = None,
        submit_engine=submit_inline,
        now: float = 0.0,
        breaker_gate: Optional[Dict[int, bool]] = None,
    ) -> EngineExecution:
        """Scatter ``query`` over the shards through ``engine`` and gather.

        :meth:`submit` then its collect step, for callers that wait.  The
        returned execution carries the merged tuples, the critical-path
        virtual-time cost, aggregated engine counters, and a
        :class:`ScatterGatherStats` breakdown in ``scatter``.
        """
        return self.submit(
            query, engine, spec, collect_partials, submit_engine, now, breaker_gate
        )()

    def submit(
        self,
        query: ConjunctiveQuery,
        engine: EngineProtocol,
        spec: Optional[ScatterSpec] = None,
        collect_partials: Optional[List[PartialEntry]] = None,
        submit_engine=submit_inline,
        now: float = 0.0,
        breaker_gate: Optional[Dict[int, bool]] = None,
    ) -> Callable[[], EngineExecution]:
        """Probe the partial cache and submit the missed shards' engine work.

        Returns the collect step, which gathers the execution :meth:`execute`
        returns.

        With ``collect_partials``, freshly computed per-shard partials are
        appended to that list instead of entering the partial cache
        immediately — the virtual-time service passes it so partials become
        visible at the request's *completion* event, preserving the
        causality the result cache already honours (a concurrent duplicate
        must not replay a result that has not finished yet in virtual time).

        ``submit_engine`` is the execution backend's engine-work hook
        (:meth:`repro.service.backends.ExecutionBackend.submit_engine`;
        inline by default): one call submits every missed shard.

        **Fault tolerance.**  With an armed injector, ``now`` is the
        request's virtual dispatch time and the gather step charges each
        computed shard its attempt walk (:meth:`_gather`); lost shards make
        the collect step raise :class:`ShardUnavailableError`
        (``on_shard_loss="fail"``) or return the surviving union flagged
        degraded and non-cacheable.  ``breaker_gate`` is the per-node
        circuit-breaker admission computed at dispatch
        (:meth:`repro.service.pipeline.QueryPipeline.prepare`); when
        ``None`` and faults are armed, the executor gates and observes its
        own breakers (direct callers with no publish stage).
        """
        if spec is None:
            spec = self.spec_for(query)
        signature = self.compiler.signature(query)
        self._spec_memo[signature] = spec
        plan = self._plan_for(signature, spec) if engine.capabilities.supports_plans else None
        own_gate = self.injector is not None and breaker_gate is None
        if own_gate:
            breaker_gate = self.breakers.gate(range(self.catalog.num_shards), now)

        replayed = self._probe(signature, now)
        missed = [s for s in range(self.catalog.num_shards) if s not in replayed]
        collect = self._submit_shards(engine, spec, plan, missed, submit_engine, now)

        def gather() -> EngineExecution:
            computed = dict(zip(missed, collect()))
            execution = self._gather(
                spec, signature, plan, replayed, computed, collect_partials, now, breaker_gate
            )
            stats = execution.scatter
            if own_gate:
                # No publish stage: the execution is complete here, so
                # observing at `now + cost` is the same deterministic point
                # the service uses (the request's completion event).
                self.observe_attempts(stats, now + execution.cost)
            if execution.degraded and self.on_shard_loss == "fail":
                raise ShardUnavailableError(
                    spec.seed_relation,
                    execution.missing_shards,
                    sum(task.attempts for task in stats.tasks if task.lost),
                    execution.cost,
                    stats,
                )
            return execution

        return gather

    def _probe(
        self, signature: str, now: float
    ) -> Dict[int, Tuple[List[Tuple[int, ...]], float]]:
        """Phase 1 — cached partials by shard, probed in shard order.

        Each replay carries the virtual-time cost of the patch its read ran
        (0 for a partial that was up to date).
        """
        replayed: Dict[int, Tuple[List[Tuple[int, ...]], float]] = {}
        cache = self.partial_cache
        if cache is not None:
            for shard in range(self.catalog.num_shards):
                spent = cache.maintenance_ns
                cached = cache.get(partial_key(signature, shard), now)
                if cached is not None:
                    replayed[shard] = (cached, cache.maintenance_ns - spent)
        return replayed

    def _submit_shards(
        self,
        engine: EngineProtocol,
        spec: ScatterSpec,
        plan: Optional[JoinPlan],
        shards: List[int],
        submit_engine,
        now: float,
    ) -> Collect:
        """Phase 2 — one ``submit_engine`` call over the missed shards' views.

        With faults armed, each task reads the first replica whose node is
        live at dispatch (fragment copies are identical, so the bytes are
        the same as the primary's); whether the task *survives* is decided
        by the attempt walk in :meth:`_gather`.
        """
        injector = self.injector
        views = []
        for shard in shards:
            replica = 0
            if injector is not None:
                nodes = self.catalog.replica_nodes(spec.seed_relation, shard)
                replica = next(
                    (r for r, node in enumerate(nodes) if not injector.is_down(node, now)),
                    0,
                )
            views.append(self.catalog.shard_view(shard, spec, replica=replica))
        return submit_engine(engine, spec.query, plan, views)

    def _gather(
        self,
        spec: ScatterSpec,
        signature: str,
        plan: Optional[JoinPlan],
        replayed: Dict[int, Tuple[List[Tuple[int, ...]], float]],
        computed: Dict[int, Tuple[EngineExecution, Optional[float]]],
        collect_partials: Optional[List[PartialEntry]],
        now: float,
        breaker_gate: Optional[Dict[int, bool]],
    ) -> EngineExecution:
        """Phase 3 — gather in shard order, identical whatever ran phase 2.

        With faults armed, each computed shard's one execution is charged
        its deterministic attempt walk (:func:`repro.service.faults.schedule_task`):
        failed attempts, backoffs and the final success or give-up
        are pure virtual-cost events, so a recoverable fault schedule yields
        byte-identical results/stats/caches to the fault-free run.  A task
        whose walk gives up is *lost*: its execution is discarded wholesale
        — no tuples, no stats, no partial-cache entry.
        """
        tasks: List[ShardTaskStats] = []
        partials: List[List[Tuple[int, ...]]] = []
        survivors: List[Tuple[int, EngineExecution]] = []
        attempt_outcomes: List[Tuple[int, bool]] = []
        for shard in range(self.catalog.num_shards):
            fragment_size = self.catalog.shard_relation(
                spec.seed_relation, shard
            ).cardinality
            if shard in replayed:
                cached, patch_ns = replayed[shard]
                tasks.append(
                    ShardTaskStats(
                        shard, len(cached), PARTIAL_REPLAY_COST_NS + patch_ns, True, fragment_size
                    )
                )
                partials.append(cached)
                continue
            execution, wall = computed[shard]
            cost_ns, walk = execution.cost, {}
            if self.injector is not None:
                schedule = schedule_task(
                    shard,
                    self.catalog.replica_nodes(spec.seed_relation, shard),
                    execution.cost,
                    now,
                    signature,
                    self.injector,
                    breaker_gate,
                )
                attempt_outcomes.extend(schedule.outcomes)
                cost_ns = schedule.cost_ns
                walk = dict(attempts=len(schedule.attempts))
                if not schedule.ok:
                    tasks.append(
                        ShardTaskStats(shard, 0, cost_ns, False, fragment_size, lost=True, **walk)
                    )
                    partials.append([])
                    continue
                walk["replica"] = schedule.replica
            tasks.append(
                ShardTaskStats(
                    shard,
                    execution.cardinality,
                    cost_ns,
                    False,
                    fragment_size,
                    wall_seconds=wall,
                    **walk,
                )
            )
            partials.append(execution.tuples)
            survivors.append((shard, execution))

        entries = [] if collect_partials is None else collect_partials
        if self.partial_cache is not None:
            # The seed alias stands for the seed relation (put_result dedups).
            relations = (spec.seed_relation, *spec.query.relation_names()[1:])
            entries.extend(
                (partial_key(signature, shard), execution.tuples, relations, spec.query)
                for shard, execution in survivors
                if execution.cacheable
            )
        if collect_partials is None:
            self.publish_partials(entries)
        executions = [execution for _shard, execution in survivors]
        return self._merge(spec, plan, tasks, partials, executions, attempt_outcomes)

    def _merge(
        self,
        spec: ScatterSpec,
        plan: Optional[JoinPlan],
        tasks: List[ShardTaskStats],
        partials: List[List[Tuple[int, ...]]],
        executions: List[EngineExecution],
        attempt_outcomes: List[Tuple[int, bool]],
    ) -> EngineExecution:
        """Merge the gathered partials and charge the fan-out's virtual cost."""
        counts = [e.count for e in executions if e.count is not None]
        gathered = sum(len(partial) for partial in partials)
        count: Optional[int] = None
        if counts:
            # Count-only execution (possibly mixed with replayed tuple
            # partials written earlier by an enumerating engine): the result
            # is a pure count — a replayed partial contributes its length,
            # and the disjoint per-shard counts sum.
            merged: List[Tuple[int, ...]] = []
            count = sum(counts) + sum(t.tuples for t in tasks if t.from_cache)
        elif set(spec.query.head_variables) == set(spec.query.variables):
            # Disjoint partials (the seed fragments partition the relation
            # and no projection can alias bindings): concatenation in shard
            # order is the merged result, no dedup pass needed.
            merged = [row for partial in partials for row in partial]
        else:
            merged = sorted(set().union(*partials)) if partials else []
        merge_cost = SCATTER_MERGE_COST_PER_TUPLE_NS * gathered
        cost = (
            SCATTER_DISPATCH_COST_NS * len(tasks)
            + max((task.cost_ns for task in tasks), default=0.0)
            + merge_cost
        )
        # Degradation contract: a lost fragment is missing from the union.
        missing = tuple(task.shard for task in tasks if task.lost)
        aggregated = JoinStats()
        for execution in executions:
            aggregated.add(execution.stats)
        return EngineExecution(
            tuples=merged,
            cost=cost,
            plan_used=any(execution.plan_used for execution in executions),
            stats=aggregated if executions else None,
            plan=plan,
            count=count,
            cacheable=not missing and all(e.cacheable for e in executions),
            scatter=ScatterGatherStats(
                seed_relation=spec.seed_relation,
                tasks=tuple(tasks),
                merged_tuples=len(merged),
                duplicates_removed=0 if counts else gathered - len(merged),
                merge_cost_ns=merge_cost,
                missing_shards=missing,
                attempt_outcomes=tuple(attempt_outcomes),
            ),
            degraded=bool(missing),
            missing_shards=missing,
        )

    def publish_partials(self, entries: List[PartialEntry]) -> None:
        """Publish partials collected via ``collect_partials`` into the cache."""
        if self.partial_cache is None:
            return
        for key, tuples, dependencies, query in entries:
            self.partial_cache.put_result(key, tuples, dependencies, query=query)

    # ------------------------------------------------------------------ #
    # Incremental maintenance of cached partials
    # ------------------------------------------------------------------ #
    def maintain(
        self,
        key: str,
        deltas: Mapping[str, Sequence[Tuple[int, ...]]],
        engine,
        planner,
        now: float = 0.0,
    ) -> Optional["delta_joins.DeltaResult"]:
        """The rows the cached partial ``key`` lacks, given the rows logged since it.

        The partial cache's patch solver, run when a probe at virtual time
        ``now`` reads a partial that is behind the insert log (the
        pipeline's maintainer passes ``deltas``, every relation's rows
        logged since the partial's position).  The fragment's delta join
        runs against its shard's view under one
        :class:`~repro.joins.delta.DeltaCatalog`: the seed alias's Δ is the
        logged rows of the seed relation that hash to the partial's own
        shard, and every non-seed atom sees its relation's whole Δ through
        the global view.  One :func:`~repro.joins.delta.evaluate_delta`
        covers every insert event since the partial was last read; none
        runs when no logged row reaches the fragment.

        Composes with the fault path: with an armed injector, a patch whose
        fragment is unreachable on every replica at ``now`` is *lost*, and
        ``None`` tells the cache to drop the entry instead — a lost patch
        degrades to recompute, never to a wrong answer.  ``key`` comes from
        :func:`partial_key`, and :meth:`submit` records the spec before any
        partial of it is published.
        """
        signature, _, suffix = key.rpartition("#shard")
        spec = self._spec_memo[signature]
        shard = int(suffix)
        if self.injector is not None:
            nodes = self.catalog.replica_nodes(spec.seed_relation, shard)
            if all(self.injector.is_down(node, now) for node in nodes):
                return None  # lost patch → fragment drop
        shard_of = self.catalog.partitioner_for(spec.seed_relation).shard_of
        unseeded = {atom.relation for atom in spec.query.atoms[1:]}
        fragment = {name: rows for name, rows in deltas.items() if name in unseeded}
        seeded = [
            row for row in deltas.get(spec.seed_relation, ()) if shard_of(row[0]) == shard
        ]
        if seeded:
            fragment[spec.alias] = seeded
        if not fragment:
            return delta_joins.DeltaResult(tuples=(), stats=JoinStats(), terms=0)
        view = delta_joins.DeltaCatalog(self.catalog.shard_view(shard, spec), fragment).view
        return delta_joins.evaluate_delta(spec.query, view, engine, planner)

    def invalidation_report(self) -> Optional[str]:
        """One report line for the partial cache, or ``None`` without one."""
        if self.partial_cache is None:
            return None
        stats = self.partial_cache.stats
        return (
            f"shard partial cache  : {stats.hits}/{stats.lookups} hits "
            f"({stats.hit_rate:.1%}), {stats.invalidation_summary()}"
        )


__all__ = [
    "PARTIAL_REPLAY_COST_NS",
    "ScatterGatherExecutor",
    "ScatterGatherStats",
    "ShardTaskStats",
    "ShardUnavailableError",
    "partial_key",
]
