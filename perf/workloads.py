"""The benchmark's four workloads.

Each workload is a sequence of *rounds of structurally identical work*; the
round is the timing sample.  A workload object owns its inputs (made from
the seed), drives the program through its public API only, checks every
operation it issues, and — for the traced pass — knows which public methods
to time (:meth:`Workload.instrument`) and how to turn the recorded spans
into its per-layer metrics (:meth:`Workload.layer_metrics`).

``round()`` is the measured path; the traced pass runs the same body with
a recorder, which puts spans around the benchmark's own calls.

Each workload declares the per-layer metrics it must emit
(:attr:`Workload.layers`); a traced run that emits another set fails.
"""

from __future__ import annotations

import itertools
import random
from statistics import median, quantiles
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import ledger
from spans import SpanRecorder

import repro.api  # noqa: F401  (must be imported before repro.service, see README)
import repro.joins.delta
import repro.service.maintenance
from repro.api import Session, coerce_statement, create_engine
from repro.graphs.datasets import dataset_spec, load_dataset
from repro.graphs.graph import Graph
from repro.graphs.loader import graph_database, iter_snap_edges, load_snap_edge_list
from repro.graphs.patterns import pattern_query
from repro.joins.compiler import QueryCompiler
from repro.relational.sharding import shard_database
from repro.service import QueryService, alpha_rename

ENGINES = ledger.ENGINES
SERVE_PATTERNS = ("path3", "cycle3", "cycle4", "clique4")

#: (attempted operations, failed operations, result rows delivered)
RoundResult = Tuple[int, int, int]

#: Per-layer metrics every traced run emits: the worker's own
#: (``driver.round_ms_p99`` is left out — a traced run never has the rounds
#: for one) and :meth:`Workload.setup_metrics`.
COMMON_LAYERS = frozenset({
    "cli.import_ms", "graphs.load_ms", "relational.catalog_ms",
    "relational.trie_build_ms", "relational.tries_built", "relational.trie_words",
    "joins.compile_ms", "joins.plans_compiled", "driver.first_round_ms",
    "driver.round_ms_p50", "driver.round_ms_p90", "driver.ops_per_s",
    "driver.rounds", "driver.cpu_s", "driver.rows_per_round",
    "driver.error_rate", "driver.trace_overhead_pct",
})
ENUM_LAYERS = frozenset({
    "api.resolve_us", "joins.signature_us", "api.route_us",
    "service.plan_probe_us", "service.result_put_us", "joins.lftj_ms",
    "joins.ctj_ms", "api.materialize_ms", "api.residual_ms",
    "joins.lub_searches", "joins.index_element_reads",
    "joins.bindings_enumerated", "joins.output_tuples", "joins.pjr_cache_hits",
    "joins.ns_per_lub_search", "joins.ns_per_output_tuple",
    "joins.outputs_per_binding",
})
SIMULATOR_LAYERS = frozenset({
    "graphs.generate_ms", "core.sim_host_ms", "core.sim_cycles",
    "core.sim_dram_accesses", "core.sim_energy_nj", "core.host_us_per_kcycle",
})


def p25(values: List[float]) -> float:
    """Lower quartile, computed the way the benchmark's driver computes its
    spreads (``statistics.quantiles``)."""
    return quantiles(values, n=4)[0] if len(values) > 1 else values[0]


def _per_round_ms(rec: SpanRecorder, name: str, rounds: range) -> float:
    return median(rec.per_round(name, rounds)) * 1e3


def _per_call_us(rec: SpanRecorder, name: str, rounds: range) -> float:
    durations = rec.durations(name, rounds)
    return median(durations) * 1e6 if durations else 0.0


class Workload:
    """Common set-up, verification and set-up probes of every workload."""

    name = ""
    dataset = ""
    patterns: Tuple[str, ...] = ()
    #: The per-layer metrics a traced run of this workload must emit, and
    #: the only ones it may; every other declared name reads 0 for it.
    layers = COMMON_LAYERS
    #: Warm rounds the traced pass replays (and as many untraced before them).
    traced_rounds = 3
    #: ``peak_rss_mb`` is read after this many measured rounds, so that the
    #: number belongs to a fixed amount of work and not to how many rounds
    #: the time box happened to fit.
    rss_rounds = 4

    def __init__(self, seed: int, limit_edges: Optional[int] = None):
        self.rng = random.Random(seed)
        self.limit_edges = limit_edges
        #: Row count of each statement, learnt in the cold round and checked
        #: in every later one (and against the goldens in :meth:`verify`).
        self.expected: Dict[str, int] = {}
        #: Every failed check outside the per-operation ones, in words.
        self.problems: List[str] = []

    # ------------------------------------------------------------------ #
    # Set-up
    # ------------------------------------------------------------------ #
    def load(self, rec: SpanRecorder):
        """Edge list → graph → single-relation catalog (two spans)."""
        path = ledger.data_path(self.dataset)
        with rec.span("graphs.load"):
            if self.limit_edges is None:
                self.graph = load_snap_edge_list(path)
            else:
                edges = itertools.islice(iter_snap_edges(path), self.limit_edges)
                self.graph = Graph.from_edges(edges, self.dataset)
        with rec.span("relational.catalog"):
            return graph_database(self.graph)

    def setup(self, rec: SpanRecorder) -> None:
        raise NotImplementedError

    def round(self, rec: Optional[SpanRecorder] = None) -> RoundResult:
        """One round; with ``rec``, spans around the benchmark's own calls."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Verification (outside every timed region)
    # ------------------------------------------------------------------ #
    def goldens(self) -> Optional[dict]:
        """The pinned results of this workload's graph (full files only)."""
        if self.limit_edges is not None:
            return None
        return ledger.load_manifest()["goldens"][self.dataset]

    def verify(self) -> None:
        """Full check of the answers, run once after the cold round."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need the whole run (cache behaviour, final state)."""

    def _check_result(self, pattern: str, tuples, golden: Optional[dict]) -> int:
        """Check one full answer against the cold round and the goldens;
        returns its checksum."""
        checksum = ledger.row_checksum(tuples)
        if len(tuples) != self.expected[pattern]:
            self.problems.append(f"{pattern}: row count changed after the cold round")
        if golden is not None:
            pinned = golden["statements"][pattern]
            actual = {"rows": len(tuples), "checksum": checksum}
            if actual != pinned:
                self.problems.append(f"{pattern}: {actual} != golden {pinned}")
        return checksum

    # ------------------------------------------------------------------ #
    # Tracing
    # ------------------------------------------------------------------ #
    def instrument(self, rec: SpanRecorder) -> None:
        """Shadow the layer entry points this workload crosses with spans."""
        raise NotImplementedError

    def uninstrument(self, rec: SpanRecorder) -> None:
        rec.unwrap_all()

    def counters(self) -> Dict[str, int]:
        """Monotone counters of the program; the worker diffs them."""
        return {}

    def layer_metrics(
        self, rec: SpanRecorder, warm: range, delta: Dict[str, int]
    ) -> Dict[str, float]:
        raise NotImplementedError

    def setup_metrics(self, rec: SpanRecorder) -> Dict[str, float]:
        """Layer costs behind ``setup_s``: spans of the real set-up plus
        probes of the lazy work (plan compile, trie build) on fresh objects."""
        metrics = {
            "graphs.load_ms": rec.durations("graphs.load")[0] * 1e3,
            "relational.catalog_ms": rec.durations("relational.catalog")[0] * 1e3,
        }
        compiler = QueryCompiler(enable_caching=True)
        started = perf_counter()
        compiled = [compiler.compile_canonical(pattern_query(p)) for p in self.patterns]
        metrics["joins.compile_ms"] = (perf_counter() - started) * 1e3
        metrics["joins.plans_compiled"] = len(compiled)
        catalog = graph_database(self.graph)
        started = perf_counter()
        for _signature, canonical, plan in compiled:
            for atom in canonical.atoms:
                catalog.trie_for_atom(atom, plan.variable_order)
        metrics["relational.trie_build_ms"] = (perf_counter() - started) * 1e3
        tries = catalog.cached_tries()
        metrics["relational.tries_built"] = len(tries)
        metrics["relational.trie_words"] = sum(trie.memory_words() for trie in tries)
        return metrics


class EnumWorkload(Workload):
    """Warm ``Session`` enumeration: every op a result-cache miss.

    Capacity 1 plus engine-outer/pattern-inner order means consecutive ops
    never share a signature, so each one runs the join kernel and
    materialises its full answer.  The seed picks the pattern order.
    """

    def __init__(self, name, dataset, patterns, seed, limit_edges=None, simulate=False):
        super().__init__(seed, limit_edges)
        self.name, self.dataset, self.patterns = name, dataset, tuple(patterns)
        self.simulate = simulate
        self.layers = COMMON_LAYERS | ENUM_LAYERS | (SIMULATOR_LAYERS if simulate else frozenset())
        order = list(self.patterns)
        self.rng.shuffle(order)
        self.ops = [(engine, pattern) for engine in ENGINES for pattern in order]
        self.kernel_stats: Dict[str, int] = {}

    def setup(self, rec):
        self.database = self.load(rec)
        self.session = Session(
            self.database, engines=list(ENGINES), result_cache_capacity=1
        )

    def round(self, rec=None):
        failed = rows = 0
        totals = dict.fromkeys(
            ("lub_searches", "index_element_reads", "bindings_enumerated",
             "output_tuples", "cache_hits"), 0
        )
        for engine, pattern in self.ops:
            if rec:
                rec.start("api.execute")
            outcome = self.session.execute(pattern, route=engine)
            if rec:
                rec.end(len(outcome))  # len() forces the lazy execution
                rec.start("api.materialize")
            result = outcome.to_list()
            if rec:
                rec.end(len(result))
                stats = outcome.stats.as_dict()
                for key in totals:
                    totals[key] += stats[key]
            if len(result) != self.expected.setdefault(pattern, len(result)):
                failed += 1
            rows += len(result)
        if rec:
            self.kernel_stats = totals
        return len(self.ops), failed, rows

    def verify(self):
        golden = self.goldens()
        checksums: Dict[str, int] = {}
        for engine, pattern in self.ops:
            outcome = self.session.execute(pattern, route=engine)
            checksum = self._check_result(pattern, outcome.tuples, golden)
            if checksums.setdefault(pattern, checksum) != checksum:
                self.problems.append(f"{pattern}: {engine} disagrees with {ENGINES[0]}")
            if golden is not None:
                pinned = golden["join_stats"][f"{pattern}/{engine}"]
                if outcome.stats.as_dict() != pinned:
                    self.problems.append(f"{pattern}/{engine}: JoinStats differ from golden")

    def finish(self):
        hits = self.session.result_cache.stats.hits
        if hits:
            self.problems.append(f"result cache served {hits} hits; every op must miss")

    def instrument(self, rec):
        session = self.session
        rec.wrap(session.compiler, "signature", "joins.signature")
        rec.wrap(session.router, "pinned", "api.route")
        rec.wrap(session.plan_cache, "get", "service.plan_probe")
        rec.wrap(session.result_cache, "put_result", "service.result_put")
        for engine in ENGINES:
            rec.wrap(
                session.engines[engine], "execute", f"joins.{engine}",
                count=lambda execution: len(execution.tuples),
            )

    def layer_metrics(self, rec, warm, delta):
        leaves = (
            "joins.signature", "api.route", "service.plan_probe", "joins.lftj",
            "joins.ctj", "service.result_put", "api.materialize",
        )
        per_round = {name: rec.per_round(name, warm) for name in leaves + ("round",)}
        residual = [
            total - sum(per_round[name][index] for name in leaves)
            for index, total in enumerate(per_round["round"])
        ]
        kernel_s = median(
            [a + b for a, b in zip(per_round["joins.lftj"], per_round["joins.ctj"])]
        )
        stats = self.kernel_stats
        started = perf_counter()
        for _ in range(50):
            for pattern in self.patterns:
                query = coerce_statement(pattern).resolve(self.database)
                self.database.validate_query(query)
        resolve_s = (perf_counter() - started) / (50 * len(self.patterns))
        metrics = {
            "api.resolve_us": resolve_s * 1e6,
            "joins.signature_us": _per_call_us(rec, "joins.signature", warm),
            "api.route_us": _per_call_us(rec, "api.route", warm),
            "service.plan_probe_us": _per_call_us(rec, "service.plan_probe", warm),
            "service.result_put_us": _per_call_us(rec, "service.result_put", warm),
            "joins.lftj_ms": median(per_round["joins.lftj"]) * 1e3,
            "joins.ctj_ms": median(per_round["joins.ctj"]) * 1e3,
            "api.materialize_ms": median(per_round["api.materialize"]) * 1e3,
            "api.residual_ms": median(residual) * 1e3,
            "joins.lub_searches": stats["lub_searches"],
            "joins.index_element_reads": stats["index_element_reads"],
            "joins.bindings_enumerated": stats["bindings_enumerated"],
            "joins.output_tuples": stats["output_tuples"],
            "joins.pjr_cache_hits": stats["cache_hits"],
            "joins.ns_per_lub_search": kernel_s * 1e9 / max(1, stats["lub_searches"]),
            "joins.ns_per_output_tuple": kernel_s * 1e9 / max(1, stats["output_tuples"]),
            "joins.outputs_per_binding": stats["output_tuples"]
            / max(1, stats["bindings_enumerated"]),
        }
        if self.simulate:
            metrics.update(self._simulator_metrics())
        return metrics

    def _simulator_metrics(self) -> Dict[str, float]:
        """Host time and exact simulated counts of one TrieJax model run,
        and the cost of generating (rather than loading) this graph."""
        dataset, pattern = ledger.SIM_RUN
        started = perf_counter()
        execution = create_engine("triejax").execute(
            pattern_query(pattern), self.database
        )
        host_s = perf_counter() - started
        counts = ledger.sim_counts(execution.report)
        if self.limit_edges is None:
            pinned = ledger.load_manifest()["goldens"]["sim"]
            if any(pinned[key] != value for key, value in counts.items()):
                self.problems.append(f"simulated counts {counts} differ from golden")
        # Generate a graph as large as the one in use (1.0 for the full file).
        scale = min(1.0, self.graph.num_edges / dataset_spec(dataset).num_edges)
        started = perf_counter()
        load_dataset(dataset, scale)
        generate_s = perf_counter() - started
        return {
            "graphs.generate_ms": generate_s * 1e3,
            "core.sim_host_ms": host_s * 1e3,
            "core.sim_cycles": counts["cycles"],
            "core.sim_dram_accesses": counts["dram_accesses"],
            "core.sim_energy_nj": counts["energy_nj"],
            "core.host_us_per_kcycle": host_s * 1e6 / (counts["cycles"] / 1e3),
        }


def _sql_text(query, tag: int, columns: Tuple[str, ...]) -> str:
    aliases = [f"e{index}_{tag}" for index in range(len(query.atoms))]
    bound: Dict[str, List[str]] = {}
    for alias, atom in zip(aliases, query.atoms):
        for column, variable in zip(columns, atom.variables):
            bound.setdefault(variable, []).append(f"{alias}.{column}")
    tables = ", ".join(f"{a.relation} AS {alias}" for alias, a in zip(aliases, query.atoms))
    predicates = " AND ".join(
        f"{cols[0]} = {other}" for cols in bound.values() for other in cols[1:]
    )
    return f"SELECT * FROM {tables} WHERE {predicates}"


class ServeHotWorkload(Workload):
    """Served requests that are all result-cache hits: the kernel is idle
    and the front-ends, the signature, the cache probe, admission, the
    event loop and the metrics records do all the work."""

    name = "serve_hot"
    dataset = "grqc"
    patterns = SERVE_PATTERNS
    traced_rounds = 8
    rss_rounds = 300
    layers = COMMON_LAYERS | {
        "api.resolve_us", "joins.signature_us", "service.submit_us",
        "service.result_get_us", "service.drain_us_per_request",
        "service.admitted", "service.queued", "service.rejected",
        "service.result_hit_rate",
    }
    requests_per_round = 256
    batch = 16

    def setup(self, rec):
        self.database = self.load(rec)
        self.service = QueryService(self.database, backends=ENGINES)
        columns = self.database.relation("E").schema.attributes
        tags = self.rng.sample(range(10_000), self.requests_per_round)
        requests = []
        for index, tag in enumerate(tags):
            pattern = self.patterns[index % len(self.patterns)]
            form = (index // len(self.patterns)) % 3
            query = pattern_query(pattern)
            text = (
                pattern,
                alpha_rename(query, tag).to_datalog(),
                _sql_text(query, tag, columns),
            )[form]
            requests.append((text, pattern))
        self.rng.shuffle(requests)
        self.batches = [
            requests[start : start + self.batch]
            for start in range(0, len(requests), self.batch)
        ]
        self.primed = False

    def _prime(self) -> RoundResult:
        """The cold misses, one statement at a time.  Left to the first
        shuffled batch, α-equivalent requests in flight together would each
        compute the answer, and how many do depends on the seed — and with
        it the process's peak memory."""
        self.primed = True
        rows = 0
        for pattern in self.patterns:
            outcome = self.service.serve(pattern_query(pattern))
            self.expected[pattern] = len(outcome.tuples)
            rows += len(outcome.tuples)
        return len(self.patterns), 0, rows

    def _check(self, outcomes, ids, batch) -> Tuple[int, int]:
        failed = rows = 0
        for request_id, (_text, pattern) in zip(ids, batch):
            outcome = outcomes.get(request_id)
            if (
                outcome is None
                or outcome.error is not None
                or outcome.record.degraded
                or len(outcome.tuples) != self.expected[pattern]
            ):
                failed += 1
            else:
                rows += len(outcome.tuples)
        return failed, rows

    def round(self, rec=None):
        service, database = self.service, self.database
        attempted, failed, rows = (0, 0, 0) if self.primed else self._prime()
        for batch in self.batches:
            ids = []
            for text, _pattern in batch:
                if rec:
                    rec.start("api.resolve")
                query = coerce_statement(text).resolve(database)
                if rec:
                    rec.end()
                    rec.start("service.submit")
                ids.append(service.submit(query))
                if rec:
                    rec.end()
            if rec:
                rec.start("service.drain")
            outcomes = service.drain()
            if rec:
                rec.end(len(outcomes))
            batch_failed, batch_rows = self._check(outcomes, ids, batch)
            failed += batch_failed
            rows += batch_rows
        return attempted + self.requests_per_round, failed, rows

    def verify(self):
        golden = self.goldens()
        for pattern in self.patterns:
            outcome = self.service.serve(pattern_query(pattern))
            self._check_result(pattern, outcome.tuples, golden)
        self.warm_counters = self.counters()

    def finish(self):
        now = self.counters()
        lookups = now["result_lookups"] - self.warm_counters["result_lookups"]
        hits = now["result_hits"] - self.warm_counters["result_hits"]
        if hits != lookups:
            self.problems.append(
                f"{lookups - hits} of {lookups} warm requests missed the result cache"
            )
        if self.service.rejected_requests:
            self.problems.append(f"{len(self.service.rejected_requests)} requests rejected")

    def counters(self):
        service = self.service
        admission = service.admission.stats
        return {
            "admitted": admission.admitted_immediately,
            "queued": admission.queued,
            "rejected": admission.rejected,
            "result_lookups": service.result_cache.stats.lookups,
            "result_hits": service.result_cache.stats.hits,
        }

    def instrument(self, rec):
        rec.wrap(self.service.compiler, "signature", "joins.signature")
        rec.wrap(self.service.result_cache, "get", "service.result_get")

    def layer_metrics(self, rec, warm, delta):
        drains = rec.durations("service.drain", warm)
        return {
            "api.resolve_us": _per_call_us(rec, "api.resolve", warm),
            "joins.signature_us": _per_call_us(rec, "joins.signature", warm),
            "service.submit_us": _per_call_us(rec, "service.submit", warm),
            "service.result_get_us": _per_call_us(rec, "service.result_get", warm),
            "service.drain_us_per_request": median(drains) * 1e6 / self.batch,
            "service.admitted": delta["admitted"] / len(warm),
            "service.queued": delta["queued"] / len(warm),
            "service.rejected": delta["rejected"] / len(warm),
            "service.result_hit_rate": delta["result_hits"]
            / max(1, delta["result_lookups"]),
        }


class ServeIvmWorkload(Workload):
    """Writes beside reads on a 2-shard catalog under incremental
    maintenance: each round inserts four new edges (two per shard, drawn
    from the seed) and re-reads the four α-renamed patterns, which the
    maintainer has patched in place."""

    name = "serve_ivm"
    dataset = "grqc"
    patterns = SERVE_PATTERNS
    traced_rounds = 6
    rss_rounds = 12
    layers = COMMON_LAYERS | {
        "relational.shard_ms", "service.insert_ms_p25", "service.read_ms_p25",
        "relational.insert_ms", "joins.delta_ms", "joins.delta_rows",
        "service.patch_ms", "service.maintain_ms", "service.scatter_maintain_ms",
        "service.scatter_execute_ms", "service.gather_rows", "service.patches",
        "service.drops", "service.patch_ratio",
    }
    shards = 2
    edges_per_shard = 2

    def setup(self, rec):
        database = self.load(rec)
        with rec.span("relational.shard"):
            self.database = shard_database(database, self.shards, partitioner="hash")
        self.service = QueryService(
            self.database, backends=ENGINES, maintenance="incremental"
        )
        self.edges = set(self.graph.edges())
        self.vertices = self.graph.vertices()
        self.shard_of = self.database.partitioner_for("E").shard_of
        self.rounds_done = 0
        self.primed = False

    def _new_edges(self) -> List[Tuple[int, int]]:
        """Seeded edges absent from the graph, ``edges_per_shard`` per shard,
        so every round sends one equally sized batch to each shard."""
        wanted = dict.fromkeys(range(self.shards), self.edges_per_shard)
        batch = []
        while any(wanted.values()):
            edge = (self.rng.choice(self.vertices), self.rng.choice(self.vertices))
            shard = self.shard_of(edge[0])
            if edge not in self.edges and wanted[shard]:
                wanted[shard] -= 1
                self.edges.add(edge)
                batch.append(edge)
        return batch

    def _read(self, queries) -> Tuple[int, int]:
        service = self.service
        ids = [service.submit(query) for query in queries]
        outcomes = service.drain()
        failed = rows = 0
        for request_id, pattern in zip(ids, self.patterns):
            outcome = outcomes.get(request_id)
            # Inserts only ever grow these answers.
            if (
                outcome is None
                or outcome.error is not None
                or outcome.record.degraded
                or len(outcome.tuples) < self.expected.get(pattern, 0)
            ):
                failed += 1
            else:
                self.expected[pattern] = len(outcome.tuples)
                rows += len(outcome.tuples)
        return failed, rows

    def _prime(self) -> RoundResult:
        """The cold reads: four misses through the scatter-gather executor."""
        self.primed = True
        failed, rows = self._read([pattern_query(p) for p in self.patterns])
        self.cold_rows = dict(self.expected)
        return len(self.patterns), failed, rows

    def round(self, rec=None):
        attempted, failed, rows = (0, 0, 0) if self.primed else self._prime()
        self.rounds_done += 1
        batch = self._new_edges()
        queries = [
            alpha_rename(pattern_query(p), self.rounds_done) for p in self.patterns
        ]
        if rec:
            rec.start("service.insert")
        inserted = self.service.insert_tuples("E", batch)
        if rec:
            rec.end(inserted)
            rec.start("service.read")
        read_failed, read_rows = self._read(queries)
        if rec:
            rec.end(read_rows)
        failed += read_failed + (inserted != len(batch))
        return attempted + 1 + len(queries), failed, rows + read_rows

    def verify(self):
        """Sharded cold reads return the monolithic goldens' row counts; the
        full rows are checked by :meth:`finish` on the final catalog."""
        golden = self.goldens()
        for pattern in self.patterns if golden is not None else ():
            pinned = golden["statements"][pattern]["rows"]
            if self.cold_rows[pattern] != pinned:
                self.problems.append(
                    f"{pattern}: sharded cold read returned "
                    f"{self.cold_rows[pattern]} rows, golden {pinned}"
                )

    def finish(self):
        """Every patched cached result equals a recompute on the final catalog."""
        fresh = Session(
            graph_database(Graph.from_edges(self.edges, self.dataset)), engines=["lftj"]
        )
        for pattern in self.patterns:
            query = pattern_query(pattern)
            cached = self.service.result_cache.peek(self.service.compiler.signature(query))
            if cached is None:
                self.problems.append(f"{pattern}: cached result was dropped, not patched")
            elif sorted(cached) != sorted(fresh.execute(query).tuples):
                self.problems.append(f"{pattern}: patched result differs from a recompute")

    def counters(self):
        caches = (self.service.result_cache, self.service.scatter.partial_cache)
        return {
            "patches": sum(cache.stats.patches for cache in caches),
            "drops": sum(cache.stats.drops for cache in caches),
        }

    def instrument(self, rec):
        service = self.service
        rec.wrap(service.database, "insert_into", "relational.insert")
        # Every semi-naive delta join of the batch: the maintainer calls the
        # name its module imported (result cache), the scatter executor looks
        # it up in ``repro.joins.delta`` at each call (shard fragments).
        for module in (repro.service.maintenance, repro.joins.delta):
            rec.wrap(
                module, "evaluate_delta", "joins.delta",
                count=lambda result: len(result.tuples),
            )
        rec.wrap(service.result_cache, "patch_result", "service.patch")
        rec.wrap(service.scatter.partial_cache, "patch_result", "service.patch")
        rec.wrap(service.scatter, "maintain", "service.scatter_maintain")
        rec.wrap(
            service.scatter, "execute", "service.scatter_execute",
            count=lambda execution: len(execution.tuples),
        )
        # The catalog holds the maintainer's bound method; swap the timed one in.
        self.database.unsubscribe_invalidation(service.maintainer.on_mutation)
        rec.wrap(service.maintainer, "on_mutation", "service.maintain")
        self.database.subscribe_invalidation(service.maintainer.on_mutation)

    def uninstrument(self, rec):
        self.database.unsubscribe_invalidation(self.service.maintainer.on_mutation)
        rec.unwrap_all()
        self.database.subscribe_invalidation(self.service.maintainer.on_mutation)

    def layer_metrics(self, rec, warm, delta):
        inserts = rec.per_round("relational.insert", warm)
        maintains = rec.per_round("service.maintain", warm)
        cold = range(0, 1)
        patched, dropped = delta["patches"], delta["drops"]
        return {
            "relational.shard_ms": rec.durations("relational.shard")[0] * 1e3,
            "service.insert_ms_p25": p25(rec.durations("service.insert", warm)) * 1e3,
            "service.read_ms_p25": p25(rec.durations("service.read", warm)) * 1e3,
            # Self time of insert_into: routing and storing the rows, without
            # the maintenance its mutation events trigger.
            "relational.insert_ms": median(
                [total - inner for total, inner in zip(inserts, maintains)]
            ) * 1e3,
            "joins.delta_ms": _per_round_ms(rec, "joins.delta", warm),
            "joins.delta_rows": rec.counts("joins.delta", warm) / len(warm),
            "service.patch_ms": _per_round_ms(rec, "service.patch", warm),
            "service.maintain_ms": median(maintains) * 1e3,
            "service.scatter_maintain_ms": _per_round_ms(rec, "service.scatter_maintain", warm),
            "service.scatter_execute_ms": sum(rec.per_round("service.scatter_execute", cold)) * 1e3,
            "service.gather_rows": rec.counts("service.scatter_execute", cold),
            "service.patches": patched / len(warm),
            "service.drops": dropped / len(warm),
            "service.patch_ratio": patched / max(1, patched + dropped),
        }


WORKLOADS = {
    "enum_emit": lambda seed, limit_edges=None: EnumWorkload(
        "enum_emit", "grqc", ledger.DATASET_PATTERNS["grqc"], seed, limit_edges,
        simulate=True,
    ),
    "enum_seek": lambda seed, limit_edges=None: EnumWorkload(
        "enum_seek", "gnu04", ledger.DATASET_PATTERNS["gnu04"], seed, limit_edges
    ),
    "serve_hot": ServeHotWorkload,
    "serve_ivm": ServeIvmWorkload,
}
