"""The ``repro bench`` suites: five scenario tables over one runner.

**The suite contract.**  A suite (:class:`Suite`) is a name, a default and
a ``--smoke`` scale, a scenario table whose entries are
``(row name, *params)``, and three functions:

``setup(scale, seed, smoke, workdir) -> (ctx, meta)``
    builds the inputs every scenario shares (dataset, request stream,
    populated store) once, and returns the suite's own ``meta`` fields
    (``dataset``, ``edges``, …);
``measure(ctx, *params) -> (row, evidence)``
    runs **one round** of one scenario.  ``row`` is the JSON row — wall
    ``seconds`` plus the scenario's deterministic columns; ``evidence`` is
    whatever the checks need beyond the row (result sets, per-request
    records), or ``None``;
``derive(rows, evidence, ctx) -> (extra row fields, claims)``
    computes cross-scenario columns (speedups, ratios) and the suite's
    claims as ``{check name: held?}``.

:func:`run_suite` owns everything else: seed / scale / ``--smoke``
resolution (it is the only reader of the benchmark-seed environment
variable), the best-of-N loop (each scenario runs ``repeats`` rounds and
the fastest round's row and evidence are kept — the usual noise-floor
estimator on a shared machine), the scratch directory, the shared ``meta``
block (including ``host_cpus`` and ``machine``, so a reader can tell a
baseline came from another host) and the verdicts.  A check is a tri-state
string: ``"pass"``, ``"fail"`` or ``"skipped"``.  Claims about wall-clock
ratios (:attr:`Suite.wall_claims`) are ``"skipped"`` under ``--smoke`` and
on hosts with fewer cores than the claim needs — never ``"pass"`` when
unarmed; every other claim is armed at every scale.  Only ``"fail"`` fails
a run.

The report is ``{"meta", "kernels", "checks"}`` (``kernels`` holds the rows;
the key is the committed ``BENCH_<suite>.json`` format), formatted, written
and compared by :mod:`repro.eval.artifacts`.  ``BENCH_*.json`` wall numbers
are host-specific structural baselines; the believed performance stack is
``perf/``.

This module imports :mod:`repro.api`, :mod:`repro.service` and
:mod:`repro.storage`, so ``repro/eval/__init__.py`` must not import it
(:mod:`repro.service.metrics` imports :mod:`repro.eval.metrics`).

**The suites.**

``kernels``
    The costs every query funnels through: flat trie construction, the
    binary-vs-galloping LUB probe-*count* reference (the engines' own search
    is one C-level ``bisect_left`` per seek in :mod:`repro.joins.leapfrog`),
    and triangle / path enumeration per software engine.
``storage``
    What the durable tier (:mod:`repro.storage`) saves and costs: trie
    rebuild against ``mmap``'d / portable segment loads, full ``open_store``
    recovery with segments adopted against tries rebuilt, a snapshot, and a
    WAL replay — plus the recovery contract (a recovered store computes the
    same rows *and the same JoinStats* as a freshly built database).
``concurrency``
    One seeded closed-loop stream under every execution backend × worker
    count.  Pooled backends must reproduce the virtual oracle's results,
    per-request records (wall fields masked), cache counters and admission
    decisions exactly, and leave zero shared-memory segments behind.  The
    ≥ 2× process-over-threads claim needs ≥ 4 cores; the measured ratio is
    always recorded on ``process_w4``.
``chaos``
    The stream over a 4-shard catalog under deterministic fault plans
    (:mod:`repro.service.faults`): transient retries must be invisible
    outside the latency columns, a replica must cover a permanent outage,
    an uncovered outage must degrade to subsets, and hedging must cap a
    straggler's virtual p99 without changing an answer.
``ivm``
    An update-heavy Zipf stream under ``recompute`` and ``incremental``
    maintenance (:mod:`repro.service.maintenance`), monolithic and 2-shard.
    ``model_ns`` is the backend-charged service time *plus* the maintainer's
    delta-join cost, so patching is charged honestly; the speedup claims
    gate on that modelled cost, not on wall seconds.
"""

from __future__ import annotations

import dataclasses
import os
import platform
import tempfile
import time
from contextlib import closing
from types import SimpleNamespace
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.api import Session
from repro.eval.metrics import percentile
from repro.graphs import graph_database, load_dataset, pattern_query
from repro.joins.ctj import CachedTrieJoin
from repro.joins.generic_join import GenericJoin
from repro.joins.leapfrog import LeapfrogTrieJoin
from repro.relational.catalog import Database
from repro.relational.relation import Relation
from repro.relational.trie import TrieIndex
from repro.service import WorkloadSpec, generate_requests, run_workload, workload_database
from repro.service.faults import RetryPolicy
from repro.storage import TrieSegmentStore, open_store, read_trie_segment
from repro.storage.durable import SEGMENTS_DIRNAME
from repro.util.rng import DeterministicRNG
from repro.util.sorted_ops import gallop, lowest_upper_bound

Rows = Dict[str, Dict]


@dataclasses.dataclass(frozen=True)
class Suite:
    """One declared suite; see the module docstring for the contract."""

    name: str
    default_scale: float
    #: Tiny scale used by ``--smoke`` (CI correctness gate, not timing-sensitive).
    smoke_scale: float
    scenarios: Tuple[Tuple, ...]
    setup: Callable[[float, int, bool, str], Tuple[object, Dict]]
    measure: Callable[..., Tuple[Dict, object]]
    derive: Callable[[Rows, Dict, object], Tuple[Rows, Dict[str, bool]]]
    #: Claims about wall-clock ratios → the fewest host cores that can show
    #: each (1: any host).  All of them are ``"skipped"`` under ``--smoke``.
    wall_claims: Mapping[str, int] = dataclasses.field(default_factory=dict)


def run_suite(
    name: str,
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    repeats: int = 3,
    smoke: bool = False,
) -> Dict:
    """Run suite ``name`` and return its JSON-serialisable report.

    ``scale`` defaults to the suite's default (its smoke scale under
    ``smoke``), ``seed`` to the benchmark-seed environment variable the
    pytest benchmarks share (or 2020); ``smoke`` forces a single repeat.
    """
    suite = SUITES[name]
    if seed is None:
        seed = int(os.environ.get("REPRO_BENCH_SEED", "2020"))
    if scale is None:
        scale = suite.smoke_scale if smoke else suite.default_scale
    repeats = 1 if smoke else max(repeats, 1)
    host_cpus = os.cpu_count() or 1

    with tempfile.TemporaryDirectory(prefix=f"repro-bench-{name}-") as workdir:
        ctx, suite_meta = suite.setup(scale, seed, smoke, workdir)
        rows: Rows = {}
        evidence: Dict[str, object] = {}
        for row_name, *params in suite.scenarios:
            rows[row_name], evidence[row_name] = min(
                (suite.measure(ctx, *params) for _ in range(repeats)),
                key=lambda round_: round_[0]["seconds"],
            )
        extra, claims = suite.derive(rows, evidence, ctx)
    for row_name, fields in extra.items():
        rows[row_name].update(fields)

    checks = {}
    for claim, held in claims.items():
        needs_cpus = suite.wall_claims.get(claim)
        if needs_cpus is not None and (smoke or host_cpus < needs_cpus):
            checks[claim] = "skipped"
        else:
            checks[claim] = "pass" if held else "fail"

    return {
        "meta": {
            "suite": name,
            "scale": scale,
            "seed": seed,
            "repeats": repeats,
            "smoke": smoke,
            "python": platform.python_version(),
            "host_cpus": host_cpus,
            "machine": platform.machine(),
            **suite_meta,
        },
        "kernels": rows,
        "checks": checks,
    }


def _timed(function: Callable[[], object]) -> Tuple[float, object]:
    """Wall seconds of one ``function()`` call, and what it returned."""
    started = time.perf_counter()
    value = function()
    return time.perf_counter() - started, value


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / max(denominator, 1e-12)


def _fresh_edges(ctx, name: str = "E_bench") -> Relation:
    """A new relation over the suite's edge rows.

    Its permutation cache is empty, so a trie built from it pays the sort
    every round instead of reusing the timed relation's cached order.
    """
    return Relation(name, ctx.edges.schema, ctx.edges.sorted_rows())


# --------------------------------------------------------------------------- #
# kernels
# --------------------------------------------------------------------------- #
#: Size of the synthetic sorted array the probe kernels search, and the
#: number of ascending probe targets issued per pass.
PROBE_ARRAY_SIZE = 4096
PROBE_SEQUENCE_LENGTH = 2048

KERNEL_ENGINES = {
    "lftj": LeapfrogTrieJoin,
    "ctj": CachedTrieJoin,
    "generic_join": GenericJoin,
}
KERNEL_QUERIES = ("cycle3", "path3")


def _probe_inputs(seed: int) -> Tuple[List[int], List[int]]:
    """A sorted array plus an ascending probe sequence (leapfrog locality).

    The targets walk the array front to back in small random strides — the
    access pattern of a lagging leapfrog cursor — which is the regime where
    galloping from the cursor beats a full-window binary search.
    """
    rng = DeterministicRNG(seed)
    values: List[int] = []
    current = 0
    for _ in range(PROBE_ARRAY_SIZE):
        current += rng.randint(1, 5)
        values.append(current)
    targets: List[int] = []
    position = 0
    for _ in range(PROBE_SEQUENCE_LENGTH):
        position = min(position + rng.randint(1, 3), len(values) - 1)
        targets.append(values[position] - rng.randint(0, 1))
    return values, targets


def _binary_probe_pass(values: List[int], targets: List[int]) -> int:
    """Full-window binary LUB per target, from the current cursor to the end."""
    cursor = 0
    n = len(values)
    probes = 0
    for target in targets:
        probes += (n - cursor).bit_length()
        cursor = lowest_upper_bound(values, target, cursor, n)
        if cursor >= n:
            break
    return probes


def _gallop_probe_pass(values: List[int], targets: List[int]) -> int:
    """Galloping LUB per target, starting at the current cursor."""
    cursor = 0
    n = len(values)
    probes = 0
    for target in targets:
        cursor, cost = gallop(values, target, cursor, n)
        probes += cost
        if cursor >= n:
            break
    return probes


def _kernels_setup(scale, seed, smoke, workdir):
    database = graph_database(load_dataset("bitcoin", scale=scale))
    values, targets = _probe_inputs(seed)
    ctx = SimpleNamespace(
        database=database,
        edges=database.relation("E"),
        values=values,
        targets=targets,
        engines={name: engine() for name, engine in KERNEL_ENGINES.items()},
    )
    # One untimed run per join row: the database's trie cache and the
    # engines' generated kernels are warm before the first timed round, so
    # a ``--repeats 1`` row is comparable with a best-of-N baseline.
    for engine in ctx.engines.values():
        for query_name in KERNEL_QUERIES:
            engine.run(pattern_query(query_name), database)
    return ctx, {"dataset": "bitcoin", "edges": ctx.edges.cardinality}


def _time_trie_build(ctx) -> Dict:
    seconds, trie = _timed(lambda: TrieIndex(_fresh_edges(ctx)))
    return {
        "seconds": seconds,
        "tuples": trie.num_tuples,
        "memory_words": trie.memory_words(),
    }


def _time_probe_pass(ctx, probe_pass) -> Dict:
    seconds, probes = _timed(lambda: probe_pass(ctx.values, ctx.targets))
    return {"seconds": seconds, "probes": probes}


def _time_join(ctx, engine_name: str, query_name: str) -> Dict:
    query = pattern_query(query_name)
    seconds, result = _timed(lambda: ctx.engines[engine_name].run(query, ctx.database))
    return {
        "seconds": seconds,
        "results": result.cardinality,
        "lub_searches": result.stats.lub_searches,
        "index_element_reads": result.stats.index_element_reads,
    }


def _measure_kernel(ctx, kernel, *params):
    return kernel(ctx, *params), None


def _kernels_derive(rows, evidence, ctx):
    claims = {
        "engines_agree": all(
            len({rows[f"{engine}_{query}"]["results"] for engine in KERNEL_ENGINES}) == 1
            for query in KERNEL_QUERIES
        ),
        "gallop_probes_leq_binary": (
            rows["lub_gallop_probe"]["probes"] <= rows["lub_binary_probe"]["probes"]
        ),
    }
    return {}, claims


# --------------------------------------------------------------------------- #
# storage
# --------------------------------------------------------------------------- #
#: Inserts appended to the mutation log for the replay timing.
WAL_REPLAY_ROWS = 256

#: The wall claim: reloading tries from mmap'd segments beats rebuilding
#: them by at least this factor.  At the smoke scale (242-tuple tries) both
#: sides are a fraction of a millisecond and the ratio is timer noise.
SEGMENT_LOAD_TARGET_SPEEDUP = 5.0


def _warm_store(ctx, directory: str):
    """A new store holding the edge relation with both trie orders cached."""
    db = open_store(directory, name="bench")
    db.add_relation(_fresh_edges(ctx, "E"))
    for order in ctx.orders:
        db.trie("E", order)
    return db


def _storage_setup(scale, seed, smoke, workdir):
    edges = graph_database(load_dataset("bitcoin", scale=scale)).relation("E")
    attributes = tuple(edges.schema.attributes)
    ctx = SimpleNamespace(
        edges=edges,
        orders=[attributes, tuple(reversed(attributes))],
        workdir=workdir,
        # Snapshotted and closed: what the load and cold-start rows recover.
        store_dir=os.path.join(workdir, "store"),
        # The same store plus a log of inserts made after its snapshot.
        wal_dir=os.path.join(workdir, "store-wal"),
    )
    with closing(_warm_store(ctx, ctx.store_dir)) as db:
        db.snapshot()
    segment_store = TrieSegmentStore(os.path.join(ctx.store_dir, SEGMENTS_DIRNAME))
    ctx.segments = segment_store.entries()
    ctx.segment_bytes = segment_store.total_bytes()

    base_vertex = 1 + max(max(row) for row in edges.sorted_rows())
    ctx.new_rows = [
        (base_vertex + i, base_vertex + i + 1) for i in range(WAL_REPLAY_ROWS)
    ]
    with closing(_warm_store(ctx, ctx.wal_dir)) as writer:
        writer.snapshot()
        ctx.inserted = writer.insert_into("E", ctx.new_rows)
        ctx.wal_records = writer.info()["wal_records"]
    return ctx, {"dataset": "bitcoin", "edges": edges.cardinality}


def _time_snapshot(ctx) -> Dict:
    # A new store each round, so every round folds the same unsnapshotted
    # state: the relation's log record plus two warm tries.
    with tempfile.TemporaryDirectory(dir=ctx.workdir) as directory:
        with closing(_warm_store(ctx, directory)) as db:
            seconds, _ = _timed(db.snapshot)
            relations = len(db.relation_names())
    return {"seconds": seconds, "relations": relations, "tries": len(ctx.orders)}


def _time_trie_rebuild(ctx) -> Dict:
    # The cost mmap segments avoid.
    def rebuild() -> List[TrieIndex]:
        fresh = _fresh_edges(ctx)
        return [TrieIndex(fresh, order) for order in ctx.orders]

    seconds, _ = _timed(rebuild)
    return {
        "seconds": seconds,
        "tries": len(ctx.orders),
        "tuples": ctx.edges.cardinality,
    }


def _time_segment_load(ctx, use_mmap: bool) -> Dict:
    seconds, _ = _timed(
        lambda: [read_trie_segment(info.path, use_mmap=use_mmap) for info in ctx.segments]
    )
    row = {"seconds": seconds, "segments": len(ctx.segments)}
    if use_mmap:
        row["bytes"] = ctx.segment_bytes
    return row


def _time_cold_start(ctx, use_segments: bool) -> Dict:
    # Both paths pay the same SQLite fragment load; the difference is how
    # the process becomes query-ready.
    def cold_start() -> None:
        with closing(open_store(ctx.store_dir, name="bench", use_segments=use_segments)) as db:
            for order in ctx.orders:
                db.trie("E", order)

    return {"seconds": _timed(cold_start)[0]}


def _time_wal_replay(ctx) -> Dict:
    seconds, _ = _timed(lambda: open_store(ctx.wal_dir, name="bench").close())
    return {"seconds": seconds, "records": ctx.wal_records, "rows": ctx.inserted}


def _recovered_equivalent(ctx) -> bool:
    """The recovery contract: snapshot + replayed log ≡ a fresh database.

    Recovery must not change what the engines compute — rows, results and
    JoinStats — only how fast the process gets there.
    """
    expected_rows = sorted(set(ctx.edges.sorted_rows()) | set(ctx.new_rows))
    fresh = Database("fresh")
    fresh.add_relation(Relation("E", ctx.edges.schema, expected_rows))
    engine = LeapfrogTrieJoin()
    query = pattern_query("cycle3")
    with closing(open_store(ctx.wal_dir, name="bench")) as recovered:
        got = engine.run(query, recovered)
        want = engine.run(query, fresh)
        return (
            sorted(recovered.relation("E").sorted_rows()) == expected_rows
            and sorted(got.tuples) == sorted(want.tuples)
            and got.stats.lub_searches == want.stats.lub_searches
            and got.stats.index_element_reads == want.stats.index_element_reads
        )


def _storage_derive(rows, evidence, ctx):
    load_speedup = _ratio(
        rows["trie_rebuild"]["seconds"], rows["segment_load_mmap"]["seconds"]
    )
    # The end-to-end ratio: both sides also pay the SQLite fragment load.
    cold_start_speedup = _ratio(
        rows["cold_start_rebuild"]["seconds"], rows["cold_start_mmap"]["seconds"]
    )
    extra = {
        "segment_load_mmap": {"speedup_vs_rebuild": round(load_speedup, 2)},
        "cold_start_mmap": {
            "speedup_vs_cold_start_rebuild": round(cold_start_speedup, 2)
        },
    }
    claims = {
        "segment_load_mmap_geq_5x_vs_trie_rebuild": (
            load_speedup >= SEGMENT_LOAD_TARGET_SPEEDUP
        ),
        "recovered_equivalent": _recovered_equivalent(ctx),
        "wal_replayed_all_rows": ctx.inserted == WAL_REPLAY_ROWS,
    }
    return extra, claims


# --------------------------------------------------------------------------- #
# The serving suites (concurrency, chaos, ivm)
# --------------------------------------------------------------------------- #
#: Engines the service rotates through.
ENGINE_ROTATION = ("lftj", "ctj")

#: Synthetic workload graph, fixed across scales so per-query cost is
#: stable: ``scale`` stretches the stream, not the data.
NUM_VERTICES = 60
NUM_EDGES = 300


def _stream_setup(scale, seed, full_length, floor, num_edges=NUM_EDGES, **spec):
    """The seeded request stream a serving suite replays in every scenario."""
    num_queries = max(floor, int(round(full_length * scale)))
    ctx = SimpleNamespace(
        seed=seed,
        num_edges=num_edges,
        requests=generate_requests(
            WorkloadSpec(num_queries=num_queries, **spec), seed=seed
        ),
    )
    meta = {
        "dataset": "workload-synthetic",
        "edges": num_edges,
        "vertices": NUM_VERTICES,
        "queries": num_queries,
        "engines": list(ENGINE_ROTATION),
    }
    return ctx, meta


def serve_round(ctx, **session_kwargs) -> Dict:
    """One database + session lifecycle serving ``ctx.requests``.

    Returns the wall seconds of the served stream and everything the
    serving suites read afterwards: result sets, per-request records, cache
    and admission counters, the maintainer's modelled cost and the
    shared-memory segment counts before and after ``close()``.
    """
    database = workload_database(
        num_vertices=NUM_VERTICES, num_edges=ctx.num_edges, seed=ctx.seed
    )
    session = Session(
        database,
        engines=ENGINE_ROTATION,
        routing="rotate",
        max_in_flight=4,
        seed=ctx.seed,
        **session_kwargs,
    )
    service = session.service

    def live_segments() -> int:
        probe = getattr(service.execution_backend, "active_segments", None)
        return len(probe()) if probe is not None else 0

    try:
        seconds, outcomes = _timed(lambda: run_workload(service, ctx.requests))
        scatter = service.scatter
        served = {
            "seconds": seconds,
            "results": {rid: sorted(o.tuples) for rid, o in outcomes.items()},
            "records": list(service.metrics.records),
            "result_cache": session.result_cache.stats.as_dict(),
            "plan_cache": session.plan_cache.stats.as_dict(),
            "admission": service.admission.stats.as_dict(),
            "partial_cache": (
                scatter.partial_cache.stats.as_dict() if scatter is not None else {}
            ),
            "maintenance_ns": (
                session.maintainer.cost_ns if session.maintainer is not None else 0.0
            ),
            "segments_live": live_segments(),
        }
    finally:
        session.close()
    served["segments_leaked"] = live_segments()
    return served


# ---- concurrency ---------------------------------------------------------- #
#: The wall claim: process workers=4 qps ≥ this × threads workers=4.  Only
#: a host with ≥ 4 cores can show it; elsewhere process workers add IPC
#: cost without parallelism.
PROCESS_TARGET_SPEEDUP = 2.0


def _concurrency_setup(scale, seed, smoke, workdir):
    # Closed loop + renames + updates: inserts keep invalidating the result
    # cache, so engine work (the part the pools overlap) stays on the
    # measured path drain after drain.
    return _stream_setup(
        scale, seed, full_length=120, floor=12,
        mode="closed", rename_fraction=0.5, update_fraction=0.15,
        update_domain=NUM_VERTICES,
    )


def _concurrency_measure(ctx, backend: str, workers: int):
    served = serve_round(ctx, execution_backend=backend, concurrency=max(workers, 1))
    queries = len(served["results"])
    row = {
        "seconds": served["seconds"],
        "backend": backend,
        "workers": workers,
        "queries": queries,
        "queries_per_sec_wall": round(queries / served["seconds"], 1),
        "segments_live": served["segments_live"],
        "segments_leaked_after_close": served["segments_leaked"],
    }
    return row, served


def _observables(served: Dict) -> Tuple:
    """Everything the backend-equivalence contract covers, wall fields masked."""
    return (
        served["results"],
        [dataclasses.replace(record, wall_elapsed=None) for record in served["records"]],
        served["result_cache"],
        served["plan_cache"],
        served["admission"],
    )


def _concurrency_derive(rows, evidence, ctx):
    ratio = _ratio(
        rows["process_w4"]["queries_per_sec_wall"],
        rows["threads_w4"]["queries_per_sec_wall"],
    )
    oracle = _observables(evidence["virtual"])
    claims = {
        "pooled_backends_equivalent": all(
            _observables(served) == oracle for served in evidence.values()
        ),
        "zero_leaked_segments": all(
            served["segments_leaked"] == 0 for served in evidence.values()
        ),
        "process_w4_geq_2x_threads_w4": ratio >= PROCESS_TARGET_SPEEDUP,
    }
    return {"process_w4": {"qps_vs_threads_w4": round(ratio, 2)}}, claims


# ---- chaos ---------------------------------------------------------------- #
#: Catalog shards every chaos scenario serves over.
CHAOS_SHARDS = 4

#: The flaky window ends well before the stream does, so every in-window
#: failure recovers by retry.
TRANSIENT_WINDOW = "flaky:1@0-220"

#: The outage scenarios lose shard 2 permanently from virtual time 0.
OUTAGE = "down:2"

#: The straggler scenarios slow shard 3 by 8x; hedging fires for tasks whose
#: slowed cost exceeds the threshold.
STRAGGLER = "slow:3*8"
HEDGE_THRESHOLD_NS = 2_000.0


def _chaos_setup(scale, seed, smoke, workdir):
    # Renames keep the result cache honest (α-equivalent repeats) while the
    # mixed arrival discipline spreads arrivals over virtual time, so fault
    # windows cut through the stream instead of hitting only request 0.
    ctx, meta = _stream_setup(
        scale, seed, full_length=100, floor=12, mode="mixed", rename_fraction=0.5
    )
    meta.update(shards=CHAOS_SHARDS, hedge_threshold_ns=HEDGE_THRESHOLD_NS)
    return ctx, meta


def _chaos_measure(ctx, faults: Optional[str], session_kwargs: Dict):
    served = serve_round(ctx, shards=CHAOS_SHARDS, faults=faults, **session_kwargs)
    records = served["records"]
    # The recovery window: first fault-impacted arrival to last impacted
    # completion — how long the service was visibly perturbed.
    impacted = [r for r in records if r.retries or r.timeouts or r.degraded or r.failed]
    recovery_ns = (
        max(r.finish_time for r in impacted) - min(r.arrival_time for r in impacted)
        if impacted
        else 0.0
    )
    row = {
        "seconds": served["seconds"],
        "faults": faults or "",
        "queries": len(served["results"]),
        "p99_latency_ns": round(percentile([r.latency for r in records], 99), 1),
        "recovery_ns": round(recovery_ns, 1),
        "retries": sum(r.retries for r in records),
        "timeouts": sum(r.timeouts for r in records),
        "degraded": sum(1 for r in records if r.degraded),
    }
    return row, served


def _chaos_derive(rows, evidence, ctx):
    oracle = evidence["fault_free"]
    transient = evidence["transient_retry"]
    partial = evidence["outage_partial"]
    claims = {
        # Retries must be invisible outside the latency columns: identical
        # result sets and result-cache counters, request for request.  (The
        # per-request JoinStats equality lives in the fault-equivalence
        # tests, where stats are directly inspectable on the sync path.)
        "transient_equivalent_to_fault_free": (
            transient["results"] == oracle["results"]
            and transient["result_cache"] == oracle["result_cache"]
            and rows["transient_retry"]["degraded"] == 0
            and rows["transient_retry"]["retries"] > 0
        ),
        # With a replica per fragment the permanent outage costs retries,
        # never answers.
        "replica_covers_outage": (
            evidence["outage_replica"]["results"] == oracle["results"]
            and rows["outage_replica"]["degraded"] == 0
        ),
        # Without replicas the same outage degrades: affected answers are
        # flagged and are subsets of the fault-free answer — never
        # fabricated tuples.
        "partial_degrades_without_replica": (
            rows["outage_partial"]["degraded"] > 0
            and all(
                set(partial["results"][r.request_id])
                <= set(oracle["results"][r.request_id])
                for r in partial["records"]
                if r.degraded
            )
        ),
        "hedging_preserves_results": (
            evidence["straggler_hedged"]["results"] == oracle["results"]
        ),
        # Duplicating the slowed dispatch onto the healthy replica must cap
        # the tail strictly below the unhedged control's.
        "hedging_caps_straggler_p99": (
            rows["straggler_hedged"]["p99_latency_ns"]
            < rows["straggler_unhedged"]["p99_latency_ns"]
        ),
    }
    return {}, claims


# ---- ivm ------------------------------------------------------------------ #
#: Denser than the other serving suites on purpose: the recompute cost of a
#: full join grows with the data while a two-row delta join barely notices,
#: and the speedup claims need that gap to be the dominant effect.
IVM_NUM_EDGES = 600

#: A third of the stream inserts edges, the rest draws Zipf-popular patterns
#: with α-renamed repeats — cached results are both popular and constantly
#: dirtied.
IVM_UPDATE_FRACTION = 0.3
IVM_ZIPF_SKEW = 1.1

#: Modelled-cost speedup incremental must clear over recompute.  A smoke
#: stream is too short to amortise each delta join over the reads that
#: follow it, so smoke only requires patching to be strictly cheaper.
REQUIRED_SPEEDUP = 2.0
SMOKE_REQUIRED_SPEEDUP = 1.0


def _ivm_setup(scale, seed, smoke, workdir):
    ctx, meta = _stream_setup(
        scale, seed, full_length=120, floor=16, num_edges=IVM_NUM_EDGES,
        mode="mixed", rename_fraction=0.5, update_fraction=IVM_UPDATE_FRACTION,
        update_batch=2, update_domain=NUM_VERTICES, zipf_skew=IVM_ZIPF_SKEW,
    )
    ctx.required_speedup = SMOKE_REQUIRED_SPEEDUP if smoke else REQUIRED_SPEEDUP
    meta.update(
        update_fraction=IVM_UPDATE_FRACTION,
        zipf_skew=IVM_ZIPF_SKEW,
        required_speedup=ctx.required_speedup,
    )
    return ctx, meta


def _ivm_measure(ctx, maintenance: str, shards: int):
    served = serve_round(ctx, shards=shards, maintenance=maintenance)
    service_ns = sum(r.service_time for r in served["records"])
    row = {
        "seconds": served["seconds"],
        "maintenance": maintenance,
        "shards": shards,
        "queries": len(served["results"]),
        "model_ns": round(service_ns + served["maintenance_ns"], 1),
        "service_ns": round(service_ns, 1),
        "maintenance_ns": round(served["maintenance_ns"], 1),
        "result_cache_hits": served["result_cache"]["hits"],
        "drops": served["result_cache"]["drops"],
        "patches": served["result_cache"]["patches"],
        "partial_drops": served["partial_cache"].get("drops", 0),
        "partial_patches": served["partial_cache"].get("patches", 0),
    }
    return row, served


def _ivm_derive(rows, evidence, ctx):
    speedup = {
        layout: _ratio(
            rows[f"recompute_{layout}"]["model_ns"],
            rows[f"incremental_{layout}"]["model_ns"],
        )
        for layout in ("mono", "sharded")
    }
    extra = {
        f"incremental_{layout}": {"speedup_vs_recompute": round(ratio, 2)}
        for layout, ratio in speedup.items()
    }
    claims = {}
    for layout, ratio in speedup.items():
        # Patching must be invisible in the answers: every request returns
        # the exact tuples its recompute control returns.
        claims[f"incremental_equivalent_{layout}"] = (
            evidence[f"incremental_{layout}"]["results"]
            == evidence[f"recompute_{layout}"]["results"]
        )
        # ...and cheaper on modelled cost, with the delta-join work charged
        # to the incremental side.
        claims[f"incremental_modelled_speedup_{layout}"] = ratio > ctx.required_speedup
    # The incremental runs actually patch (never silently demoted to
    # dropping); the recompute controls never do.
    claims["incremental_patches"] = (
        rows["incremental_mono"]["patches"] > 0
        and rows["incremental_sharded"]["patches"] > 0
        and rows["incremental_sharded"]["partial_patches"] > 0
    )
    claims["recompute_never_patches"] = (
        rows["recompute_mono"]["patches"] == 0
        and rows["recompute_sharded"]["patches"] == 0
        and rows["recompute_sharded"]["partial_patches"] == 0
    )
    return extra, claims


# --------------------------------------------------------------------------- #
# The declarations
# --------------------------------------------------------------------------- #
SUITES: Dict[str, Suite] = {
    suite.name: suite
    for suite in (
        Suite(
            name="kernels",
            # Large enough that the join inner loops dominate interpreter
            # fixed costs, small enough to finish in seconds.
            default_scale=0.05,
            smoke_scale=0.01,
            scenarios=(
                ("trie_build", _time_trie_build),
                ("lub_binary_probe", _time_probe_pass, _binary_probe_pass),
                ("lub_gallop_probe", _time_probe_pass, _gallop_probe_pass),
                *(
                    (f"{engine}_{query}", _time_join, engine, query)
                    for query in KERNEL_QUERIES
                    for engine in KERNEL_ENGINES
                ),
            ),
            setup=_kernels_setup,
            measure=_measure_kernel,
            derive=_kernels_derive,
        ),
        Suite(
            name="storage",
            # Matches the kernel suite so the two baselines describe the
            # same data.
            default_scale=0.05,
            smoke_scale=0.01,
            scenarios=(
                ("snapshot", _time_snapshot),
                ("trie_rebuild", _time_trie_rebuild),
                ("segment_load_mmap", _time_segment_load, True),
                ("segment_load_portable", _time_segment_load, False),
                ("cold_start_mmap", _time_cold_start, True),
                ("cold_start_rebuild", _time_cold_start, False),
                ("wal_replay", _time_wal_replay),
            ),
            setup=_storage_setup,
            measure=_measure_kernel,
            derive=_storage_derive,
            wall_claims={"segment_load_mmap_geq_5x_vs_trie_rebuild": 1},
        ),
        Suite(
            name="concurrency",
            default_scale=1.0,
            smoke_scale=0.25,
            # (row, execution backend, workers); the virtual-time oracle
            # takes no workers.
            scenarios=(
                ("virtual", "virtual", 0),
                ("threads_w1", "threads", 1),
                ("threads_w2", "threads", 2),
                ("threads_w4", "threads", 4),
                ("process_w1", "process", 1),
                ("process_w2", "process", 2),
                ("process_w4", "process", 4),
            ),
            setup=_concurrency_setup,
            measure=_concurrency_measure,
            derive=_concurrency_derive,
            wall_claims={"process_w4_geq_2x_threads_w4": 4},
        ),
        Suite(
            name="chaos",
            default_scale=1.0,
            smoke_scale=0.25,
            # (row, fault plan, session kwargs).  The straggler scenarios
            # replicate fragments (a hedge needs a second replica to
            # duplicate onto); ``straggler_unhedged`` is the hedging claim's
            # control.
            scenarios=(
                ("fault_free", None, {}),
                ("transient_retry", TRANSIENT_WINDOW, {}),
                ("straggler_unhedged", STRAGGLER, {"replication_factor": 2}),
                (
                    "straggler_hedged",
                    STRAGGLER,
                    {
                        "replication_factor": 2,
                        "retry_policy": RetryPolicy(hedge_threshold_ns=HEDGE_THRESHOLD_NS),
                    },
                ),
                ("outage_partial", OUTAGE, {"on_shard_loss": "partial"}),
                (
                    "outage_replica",
                    OUTAGE,
                    {"replication_factor": 2, "on_shard_loss": "partial"},
                ),
            ),
            setup=_chaos_setup,
            measure=_chaos_measure,
            derive=_chaos_derive,
        ),
        Suite(
            name="ivm",
            default_scale=1.0,
            smoke_scale=0.25,
            # (row, maintenance mode, shards): each incremental scenario has
            # its recompute control directly above it.
            scenarios=(
                ("recompute_mono", "recompute", 1),
                ("incremental_mono", "incremental", 1),
                ("recompute_sharded", "recompute", 2),
                ("incremental_sharded", "incremental", 2),
            ),
            setup=_ivm_setup,
            measure=_ivm_measure,
            derive=_ivm_derive,
        ),
    )
}
