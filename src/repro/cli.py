"""Command-line interface for the TrieJax reproduction.

The CLI exposes the library's main entry points without writing any Python::

    python -m repro datasets                      # list the Table 2 datasets
    python -m repro queries                       # list the pattern queries
    python -m repro run cycle3 --dataset wiki --scale 0.02
    python -m repro run clique4 --dataset grqc --scale 0.02 --count-only
    python -m repro run path4 --edge-list my_graph.txt --engine ctj
    python -m repro run cycle3 --dataset grqc --engine auto
    python -m repro explain clique4 --dataset grqc --scale 0.01
    python -m repro experiment figure14 --scale 0.01
    python -m repro compare cycle4 --dataset bitcoin --scale 0.01
    python -m repro workload --dataset grqc --num-queries 200 --backends lftj ctj
    python -m repro workload --dataset grqc --route auto --backends ctj pairwise
    python -m repro workload --dataset grqc --backend process --workers 4
    python -m repro run cycle3 --dataset grqc --backend process --workers 2
    python -m repro workload --dataset grqc --trace out.jsonl --metrics out.prom
    python -m repro run cycle3 --dataset grqc --trace out.json --trace-format chrome
    python -m repro trace validate out.jsonl
    python -m repro trace summarize out.jsonl --limit 10
    python -m repro workload --dataset grqc --update-fraction 0.3
    python -m repro store init var/store --dataset grqc --scale 0.01
    python -m repro store info var/store
    python -m repro run cycle3 --storage-dir var/store
    python -m repro store recover var/store --verify
    python -m repro version

``run`` executes one pattern query on any engine in the shared registry
(:mod:`repro.engines`; ``auto`` runs the first engine of a fixed
software-engine order, ``lftj`` > ``ctj`` > ``generic`` > ``pairwise``,
that can take the query); ``explain`` prints the query shape, the chosen
engine and the compiled plan without executing; ``experiment`` regenerates
one of the paper's tables/figures; ``compare`` pits TrieJax against the
four baseline systems on a single workload; ``workload`` serves a seeded
stream of mixed queries through the :mod:`repro.service` subsystem —
rotating round-robin or on the fixed software-engine order (``--route
auto``), on the deterministic virtual-time loop or a process pool over
shared-memory trie segments (``--backend process --workers N``, same
results with wall-clock numbers in the report; ``run`` accepts the same
flags and serves the single query through the service layer) — and prints
the service report (latencies, queue waits, cache hit rates); ``workload
--update-fraction F`` mixes inserts into the stream, and cached results
are patched with delta joins rather than dropped;
``store init|snapshot|recover|info`` manages a durable store directory
(:mod:`repro.storage`) and ``run``/``workload``
accept ``--storage-dir`` to execute against one — recovering it on open and
snapshotting it afterwards; ``run`` and ``workload`` accept ``--trace out`` (JSONL or
``--trace-format chrome`` for Perfetto) plus ``workload --metrics out.prom``
for the Prometheus-style exposition
(:meth:`repro.service.QueryService.exposition`), and ``trace validate|summarize`` checks
and analyses exported traces (see :mod:`repro.obs`).  Wall-clock
benchmarking is not a subcommand: it is ``perf/run.py`` (``BENCHMARK.json``).

All engine names resolve through the single registry in
:mod:`repro.engines`; the CLI keeps no private engine table.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

import repro
from repro.api import Session, Statement, TrieJaxAccelerator, create_engine, engine_names
from repro.baselines import default_baselines
from repro.core import TrieJaxConfig
from repro.eval import EXPERIMENT_REGISTRY, ExperimentContext, format_table
from repro.graphs import (
    DATASET_NAMES,
    EXTRA_PATTERN_NAMES,
    graph_database,
    load_dataset,
    load_snap_edge_list,
    pattern_query,
    table1_rows,
    table2_rows,
)
from repro.service import EXECUTION_BACKEND_NAMES, WorkloadSpec, generate_requests


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for the tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TrieJax reproduction: WCOJ graph pattern matching and its accelerator model.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {repro.__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("datasets", help="list the Table 2 datasets")
    subparsers.add_parser("queries", help="list the available pattern queries")
    subparsers.add_parser("version", help="print the package version")

    run_parser = subparsers.add_parser("run", help="run one pattern query")
    run_parser.add_argument("query", help="pattern name (e.g. cycle3, clique4, diamond)")
    _add_dataset_arguments(run_parser)
    run_parser.add_argument(
        "--engine",
        default="triejax",
        choices=["auto"] + list(engine_names()),
        help="execution engine from the shared registry, or 'auto' for the "
        "first eligible engine of the fixed software-engine order "
        "lftj > ctj > generic > pairwise (default: the TrieJax accelerator model)",
    )
    run_parser.add_argument("--threads", type=int, default=32, help="hardware threads (triejax)")
    _add_sharding_arguments(run_parser)
    _add_execution_arguments(run_parser)
    run_parser.add_argument(
        "--count-only", action="store_true", help="aggregate mode: count matches, do not enumerate"
    )
    _add_fault_arguments(run_parser)
    run_parser.add_argument(
        "--show-results", type=int, default=0, metavar="N", help="print the first N result tuples"
    )
    _add_session_arguments(run_parser)

    explain_parser = subparsers.add_parser(
        "explain", help="print the query shape, chosen engine and plan of a query"
    )
    explain_parser.add_argument(
        "query", help="pattern name (e.g. cycle3) or a datalog rule"
    )
    _add_dataset_arguments(explain_parser)
    explain_parser.add_argument(
        "--engines",
        nargs="+",
        default=None,
        choices=list(engine_names()),
        help="candidate engines (default: every registered engine)",
    )
    explain_parser.add_argument(
        "--route",
        default="auto",
        help="'auto' (the fixed software-engine order lftj > ctj > generic > "
        "pairwise) or one engine name to pin",
    )
    _add_sharding_arguments(explain_parser)

    experiment_parser = subparsers.add_parser(
        "experiment", help="regenerate one of the paper's tables/figures"
    )
    experiment_parser.add_argument("name", choices=sorted(EXPERIMENT_REGISTRY))
    experiment_parser.add_argument("--scale", type=float, default=0.01)
    experiment_parser.add_argument(
        "--datasets", nargs="+", default=None, help="subset of datasets to sweep"
    )
    experiment_parser.add_argument(
        "--queries", nargs="+", default=None, help="subset of queries to sweep"
    )

    compare_parser = subparsers.add_parser(
        "compare", help="compare TrieJax against the four baselines on one workload"
    )
    compare_parser.add_argument("query")
    compare_parser.add_argument("--dataset", default="bitcoin")
    compare_parser.add_argument("--scale", type=float, default=0.01)

    workload_parser = subparsers.add_parser(
        "workload", help="serve a seeded query stream through the service subsystem"
    )
    _add_dataset_arguments(workload_parser)
    workload_parser.add_argument(
        "--num-queries", type=int, default=100, help="stream length"
    )
    workload_parser.add_argument(
        "--queries", nargs="+", default=None, help="subset of pattern queries to draw from"
    )
    workload_parser.add_argument(
        "--backends",
        nargs="+",
        default=["lftj", "ctj"],
        choices=list(engine_names()),
        help="execution backends available to the service",
    )
    workload_parser.add_argument(
        "--route",
        default="rotate",
        choices=["rotate", "auto"],
        help="backend selection: round-robin rotation, or 'auto' for the first "
        "eligible backend of the fixed software-engine order",
    )
    _add_execution_arguments(workload_parser)
    workload_parser.add_argument(
        "--mode",
        default="mixed",
        choices=["closed", "open", "mixed"],
        help="arrival discipline of the stream",
    )
    workload_parser.add_argument(
        "--arrival-rate", type=float, default=0.001, help="open-loop arrivals per virtual time unit"
    )
    workload_parser.add_argument(
        "--max-in-flight", type=int, default=4, help="admission-control concurrency cap"
    )
    workload_parser.add_argument(
        "--max-queue-depth", type=int, default=None, help="bound the admission queue (reject beyond)"
    )
    workload_parser.add_argument(
        "--seed", type=int, default=2020, help="workload/admission RNG seed"
    )
    _add_sharding_arguments(workload_parser)
    workload_parser.add_argument(
        "--zipf", type=float, default=None, metavar="SKEW",
        help="draw query patterns with Zipf(SKEW) popularity instead of uniformly",
    )
    workload_parser.add_argument(
        "--update-fraction", type=float, default=0.0, metavar="F",
        help="fraction of the stream that inserts edges (stresses cache maintenance)",
    )
    workload_parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write Prometheus-style text exposition of the service metrics to PATH",
    )
    _add_session_arguments(workload_parser)
    _add_fault_arguments(workload_parser)

    store_parser = subparsers.add_parser(
        "store", help="manage a durable store directory (repro.storage)"
    )
    store_sub = store_parser.add_subparsers(dest="store_command", required=True)
    store_init = store_sub.add_parser(
        "init", help="initialise a store from a dataset and snapshot it"
    )
    store_init.add_argument("dir", help="store directory to create")
    _add_dataset_arguments(store_init)
    # None (not 1) = monolithic: ``open_store`` tells "unsharded" from "1 shard".
    _add_sharding_arguments(store_init, default_shards=None)
    store_init.add_argument(
        "--no-warm", action="store_true",
        help="skip pre-building trie indexes (warm tries become mmap'd "
        "segments in the snapshot, making the next open instant)",
    )
    store_snapshot = store_sub.add_parser(
        "snapshot", help="fold the store's WAL into a fresh snapshot"
    )
    store_snapshot.add_argument("dir", help="store directory")
    store_recover = store_sub.add_parser(
        "recover",
        help="recover the store (snapshot + segments + WAL replay) and "
        "compact it into a fresh snapshot",
    )
    store_recover.add_argument("dir", help="store directory")
    store_recover.add_argument(
        "--verify", action="store_true",
        help="also checksum every trie segment payload and re-check its "
        "structural invariants before compacting",
    )
    store_info_parser = store_sub.add_parser(
        "info", help="print the store's snapshot/WAL/segment summary"
    )
    store_info_parser.add_argument("dir", help="store directory")

    trace_parser = subparsers.add_parser(
        "trace", help="validate or analyse an exported JSONL span trace"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)
    validate_parser = trace_sub.add_parser(
        "validate", help="check every line of a JSONL trace against the span schema"
    )
    validate_parser.add_argument("file", help="JSONL trace file (from --trace)")
    summarize_parser = trace_sub.add_parser(
        "summarize",
        help="per-phase latency breakdown and per-query critical paths of a trace",
    )
    summarize_parser.add_argument("file", help="JSONL trace file (from --trace)")
    summarize_parser.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="show only the N slowest queries' critical paths",
    )

    return parser


# --------------------------------------------------------------------------- #
# Sub-command implementations
# --------------------------------------------------------------------------- #
def _cmd_datasets() -> int:
    rows = [
        (snap, short, nodes, edges, category)
        for snap, short, nodes, edges, category in table2_rows()
    ]
    print(format_table(("dataset", "short name", "#nodes", "#edges", "category"), rows))
    return 0


def _cmd_queries() -> int:
    rows = [(name, datalog) for name, datalog in table1_rows()]
    rows.extend(
        (name, pattern_query(name).to_datalog()) for name in EXTRA_PATTERN_NAMES
    )
    print(format_table(("query", "definition"), rows))
    return 0


def _load_database(args) -> object:
    if args.edge_list:
        graph = load_snap_edge_list(args.edge_list)
    else:
        if args.dataset not in DATASET_NAMES:
            raise SystemExit(
                f"unknown dataset {args.dataset!r}; choose from {', '.join(DATASET_NAMES)}"
            )
        graph = load_dataset(args.dataset, scale=args.scale)
    print(f"graph: {graph.name} ({graph.num_vertices} vertices, {graph.num_edges} edges)")
    return graph_database(graph)


def _session_engines(args) -> list:
    """Instantiate every registry engine, honouring the run flags.

    The accelerator instance carries the CLI's thread count, dataset label
    and (for ``--count-only``) the on-chip aggregation mode; every other
    engine comes straight from the shared registry.
    """
    engines = []
    for name in engine_names():
        if name == "triejax":
            engines.append(
                TrieJaxAccelerator(
                    TrieJaxConfig(num_threads=args.threads),
                    aggregate="count" if args.count_only else None,
                    dataset_name=args.dataset if not args.edge_list else None,
                )
            )
        else:
            engines.append(create_engine(name))
    return engines


def _populate_durable_catalog(catalog, args) -> None:
    """Load the dataset into a freshly initialised durable catalog."""
    source = _load_database(args)  # discarded afterwards, so relations move over as-is
    for name in source.relation_names():
        catalog.add_relation(source.relation(name))


def _add_dataset_arguments(parser) -> None:
    """The graph a command loads (``run``, ``explain``, ``workload``, ``store init``)."""
    parser.add_argument("--dataset", default="bitcoin", help="Table 2 dataset name")
    parser.add_argument("--scale", type=float, default=0.01, help="dataset scale (0-1]")
    parser.add_argument(
        "--edge-list", default=None, help="load a SNAP edge-list file instead of a dataset"
    )


def _add_sharding_arguments(parser, default_shards: Optional[int] = 1) -> None:
    """How the catalog is partitioned (same four commands)."""
    parser.add_argument(
        "--shards", type=int, default=default_shards, metavar="N",
        help="partition the catalog across N shards; statements then run "
        "by scatter-gather (default: monolithic)",
    )


def _add_execution_arguments(parser) -> None:
    """Where admitted work physically runs (``run``, ``workload``)."""
    parser.add_argument(
        "--backend",
        default="virtual",
        choices=list(EXECUTION_BACKEND_NAMES),
        help="execution backend from the shared registry "
        "(repro.service.backends): the deterministic virtual-time loop "
        "(``run`` executes synchronously) or a process pool over "
        "shared-memory trie segments — same results and cache "
        "behaviour, wall-clock numbers printed",
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="worker processes of the process backend",
    )


def _add_fault_arguments(parser) -> None:
    """The fault-tolerance flags shared by ``run`` and ``workload``."""
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="arm the deterministic fault injector (repro.service.faults) "
        "with a semicolon-separated spec: slow:NODE*FACTOR[@START-END], "
        "flaky:NODE@START-END[:PROB], down:NODE[@START[-END]], crash:AFTER "
        "— e.g. 'slow:0*3;down:1@5000-inf'.  Times are virtual ns; the "
        "same spec and seed reproduce the same faults on every backend",
    )
    parser.add_argument(
        "--on-shard-loss", default="fail", choices=["fail", "partial"],
        help="when a shard stays unavailable after every retry: raise a "
        "typed error (fail), or return a flagged partial answer over the "
        "surviving shards (partial)",
    )
    parser.add_argument(
        "--replication-factor", type=int, default=1, metavar="R",
        help="store R copies of every partitioned shard fragment on "
        "distinct shards, so retries can move to a replica (requires "
        "--shards >= R)",
    )


def _add_session_arguments(parser) -> None:
    """The flags ``_open_session`` / ``_finish_session`` consume (``run``, ``workload``)."""
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a span trace of every executed query and write it to PATH",
    )
    parser.add_argument(
        "--trace-format", default="jsonl", choices=["jsonl", "chrome"],
        help="trace file format: JSONL span lines, or Chrome trace-event "
        "JSON loadable in chrome://tracing / Perfetto",
    )
    parser.add_argument(
        "--storage-dir", default=None, metavar="DIR",
        help="execute against the durable store at DIR: an existing store is "
        "recovered (mmap cold start + WAL replay) and the dataset flags are "
        "ignored; a missing one is initialised from the dataset.  The store "
        "is snapshotted before exit",
    )


def _fault_session_kwargs(args) -> dict:
    """Session kwargs for the ``_add_fault_arguments`` flags."""
    return {
        "faults": args.faults or None,
        "on_shard_loss": args.on_shard_loss,
        "replication_factor": args.replication_factor,
    }


def _open_session(args, **session_kwargs) -> Session:
    """The session a ``run`` / ``workload`` command executes against.

    Without ``--storage-dir`` it holds the loaded dataset in memory.  With
    it the session owns the durable store at that path — recovered when one
    exists, otherwise initialised from the dataset — and the ``store:`` line
    says which.  Prints the shard layout of a sharded session.
    """
    storage_dir = args.storage_dir
    if not storage_dir:
        session = Session(_load_database(args), **session_kwargs)
    else:
        from repro.storage import store_exists

        recovered = store_exists(storage_dir)
        session = Session(storage_dir=storage_dir, **session_kwargs)
        if recovered:
            info = session.database.info()
            print(
                f"store: recovered {storage_dir} "
                f"(snapshot {info['snapshot_seq']}, {info['tuples']} tuples, "
                f"{info['segments']} segment(s), "
                f"{info['wal_records']} WAL record(s) pending)"
            )
        else:
            _populate_durable_catalog(session.database, args)
            print(f"store: initialised {storage_dir}")
    if session.num_shards > 1:
        print(session.database.describe())
    return session


def _finish_session(session, args) -> int:
    """The shared epilogue: write ``--trace`` / ``--metrics``, snapshot a
    ``--storage-dir`` store, close the session (joins worker pools, unlinks
    shared-memory segments)."""
    if args.trace:
        from repro.obs import write_trace

        count = write_trace(session.tracer, args.trace, args.trace_format)
        print(f"wrote {count} {args.trace_format} trace record(s) to {args.trace}")
    if getattr(args, "metrics", None):
        with open(args.metrics, "w", encoding="utf-8") as handle:
            handle.write(session.service.exposition())
        print(f"wrote metrics exposition to {args.metrics}")
    if args.storage_dir:
        summary = session.snapshot()
        print(
            f"store: snapshot {summary['snapshot_seq']} "
            f"({summary['relations']} relation(s), "
            f"{summary['segments']} trie segment(s))"
        )
    session.close()
    return 0


def _cmd_run(args) -> int:
    statement = Statement.pattern(args.query)
    session = _open_session(
        args,
        engines=_session_engines(args),
        shards=args.shards,
        trace=bool(args.trace),
        execution_backend=args.backend,
        concurrency=args.workers if args.backend != "virtual" else 1,
        **_fault_session_kwargs(args),
    )
    if args.backend != "virtual":
        return _run_on_service(session, statement, args)
    result = session.execute(statement, route=args.engine)
    print(f"query: {result.query.to_datalog()}")
    print(f"matches: {result.cardinality}")
    if args.engine == "auto":
        print(f"routed to: {result.backend}")
    if result.shard_stats is not None:
        print(result.shard_stats.describe())
    if result.report is not None:
        print(result.report.summary())
    elif result.stats is not None:
        stats = result.stats
        print(
            f"  intermediate results: {stats.intermediate_results}\n"
            f"  index element reads : {stats.index_element_reads}\n"
            f"  cache hits/lookups  : {stats.cache_hits}/{stats.cache_lookups}"
        )

    if args.show_results > 0:
        for row in result.to_list()[: args.show_results]:
            print("  " + ", ".join(str(v) for v in row))
    return _finish_session(session, args)


def _run_on_service(session, statement, args) -> int:
    """Serve a single ``run`` query through the session's service layer.

    The process backend (``--backend process``) lives behind
    :class:`repro.service.QueryService`, so the query goes through
    submit/drain — the engine work actually runs on the configured worker
    pool, while results and cache behaviour match the synchronous path.
    """
    query = statement.resolve(session.database)
    service = session.service
    request_id = service.submit(
        query, backend=None if args.engine == "auto" else args.engine
    )
    started = time.perf_counter()
    outcome = service.drain()[request_id]
    elapsed = time.perf_counter() - started
    record = outcome.record
    print(f"query: {query.to_datalog()}")
    print(f"matches: {outcome.cardinality}")
    print(
        f"served on: {record.backend} via the {args.backend} backend "
        f"({args.workers} worker(s), {elapsed * 1e3:.1f} ms wall)"
    )
    if args.show_results > 0:
        for row in sorted(outcome.tuples)[: args.show_results]:
            print("  " + ", ".join(str(v) for v in row))
    return _finish_session(session, args)


def _cmd_explain(args) -> int:
    database = _load_database(args)
    session = Session(database, engines=args.engines, shards=args.shards)
    statement = (
        Statement.from_datalog(args.query)
        if "(" in args.query
        else Statement.pattern(args.query)
    )
    explanation = session.explain(statement, route=args.route)
    print(explanation.describe())
    return 0


def _cmd_experiment(args) -> int:
    kwargs = {}
    if args.datasets:
        kwargs["datasets"] = tuple(args.datasets)
    if args.queries:
        kwargs["queries"] = tuple(args.queries)
    context = ExperimentContext(scale=args.scale, **kwargs)
    result = EXPERIMENT_REGISTRY[args.name](context)
    print(result.to_text())
    return 0


def _cmd_compare(args) -> int:
    context = ExperimentContext(
        scale=args.scale, datasets=(args.dataset,), queries=(args.query,)
    )
    triejax = context.run_triejax(args.query, args.dataset)
    rows = [
        (
            "triejax",
            triejax.report.runtime_ns / 1e3,
            triejax.report.total_energy_nj / 1e3,
            triejax.report.dram.accesses,
            triejax.cardinality,
        )
    ]
    for system in default_baselines():
        estimate = context.run_baseline(system.name, args.query, args.dataset)
        rows.append(
            (
                system.name,
                estimate.runtime_ns / 1e3,
                estimate.energy_nj / 1e3,
                estimate.dram_accesses,
                estimate.output_tuples,
            )
        )
    print(
        format_table(
            ("system", "runtime (us)", "energy (uJ)", "DRAM accesses", "results"),
            rows,
            title=f"{args.query} on {args.dataset} (scale {args.scale})",
        )
    )
    return 0


def _cmd_workload(args) -> int:
    session = _open_session(
        args,
        engines=tuple(args.backends),
        max_in_flight=args.max_in_flight,
        max_queue_depth=args.max_queue_depth,
        seed=args.seed,
        routing=args.route if args.route == "auto" else "rotate",
        shards=args.shards,
        execution_backend=args.backend,
        concurrency=args.workers if args.backend != "virtual" else 1,
        trace=bool(args.trace),
        **_fault_session_kwargs(args),
    )
    spec_kwargs = {
        "num_queries": args.num_queries,
        "mode": args.mode,
        "arrival_rate": args.arrival_rate,
        "zipf_skew": args.zipf,
        "update_fraction": args.update_fraction,
    }
    if args.update_fraction > 0.0:
        # Generated update edges should land inside the loaded graph's
        # vertex-id range so they join (and shard) like real edges.
        domain = session.database.relation("E").active_domain()
        spec_kwargs["update_domain"] = (max(domain) + 1) if domain else 60
    if args.queries:
        spec_kwargs["queries"] = tuple(args.queries)
    requests = generate_requests(WorkloadSpec(**spec_kwargs), seed=args.seed)
    started = time.perf_counter()
    outcomes = session.serve(requests)
    elapsed = time.perf_counter() - started
    print(f"served {len(outcomes)} requests in {elapsed:.3f}s wall "
          f"({len(outcomes) / elapsed:.1f} queries/sec)")
    rejected = session.service.admission.stats.rejected
    if rejected:
        print(f"rejected {rejected} requests (bounded queue)")
    print(session.report())
    return _finish_session(session, args)


def _warm_store_tries(store) -> int:
    """Build the standard trie orders so the snapshot persists them as segments.

    Schema order plus the reversed order for binary relations — the
    permutations the pattern queries' engines actually request — on the
    global view and (for a sharded store) every shard fragment.
    """
    count = 0
    for database in (store, *getattr(store, "shard_databases", ())):
        for name in database.relation_names():
            attributes = database.relation(name).schema.attributes
            orders = [attributes]
            if len(attributes) == 2:
                orders.append((attributes[1], attributes[0]))
            for order in orders:
                database.trie(name, order)
                count += 1
    return count


def _cmd_store(args) -> int:
    import os

    from repro.storage import (
        StorageError,
        open_store,
        read_trie_segment,
        store_exists,
        store_info,
    )
    from repro.storage.durable import SEGMENTS_DIRNAME
    from repro.storage.segments import TrieSegmentStore

    if args.store_command == "init":
        if store_exists(args.dir):
            print(f"store already exists at {args.dir}; use 'store snapshot' "
                  "or 'store recover'", file=sys.stderr)
            return 1
        store = open_store(args.dir, num_shards=args.shards)
        _populate_durable_catalog(store, args)
        warmed = 0 if args.no_warm else _warm_store_tries(store)
        summary = store.snapshot()
        store.close()
        print(
            f"initialised {args.dir}: snapshot {summary['snapshot_seq']}, "
            f"{summary['relations']} relation(s), {warmed} warm trie(s) -> "
            f"{summary['segments']} segment(s)"
        )
        return 0

    if not store_exists(args.dir):
        print(f"no durable store at {args.dir}", file=sys.stderr)
        return 1

    if args.store_command == "info":
        for key, value in sorted(store_info(args.dir).items()):
            print(f"  {key:16}: {value}")
        return 0

    if args.store_command == "snapshot":
        with open_store(args.dir) as store:
            pending = store_info(args.dir)["wal_records"]
            summary = store.snapshot()
        print(
            f"snapshot {summary['snapshot_seq']}: folded {pending} WAL "
            f"record(s), {summary['relations']} relation(s), "
            f"{summary['segments']} segment(s)"
        )
        return 0

    # recover: replay the WAL over the snapshot, optionally deep-verify the
    # segments, then compact everything into a fresh snapshot.
    before = store_info(args.dir)
    try:
        store = open_store(args.dir)
    except StorageError as error:
        print(f"recovery failed: {error}", file=sys.stderr)
        return 1
    if args.verify:
        segment_store = TrieSegmentStore(os.path.join(args.dir, SEGMENTS_DIRNAME))
        verified = 0
        try:
            for entry in segment_store.entries():
                read_trie_segment(entry.path, use_mmap=False, validate=True)
                verified += 1
        except StorageError as error:
            print(f"segment verification failed: {error}", file=sys.stderr)
            store.close()
            return 1
        print(f"verified {verified} segment(s): checksums + invariants OK")
    summary = store.snapshot()
    store.close()
    print(
        f"recovered {args.dir}: replayed {before['wal_records']} WAL "
        f"record(s) over snapshot {before['snapshot_seq']}, compacted to "
        f"snapshot {summary['snapshot_seq']} "
        f"({summary['relations']} relation(s), {summary['segments']} segment(s))"
    )
    return 0


def _cmd_trace(args) -> int:
    from repro.obs import SCHEMA_VERSION, read_jsonl, summarize_trace, validate_jsonl

    if args.trace_command == "validate":
        errors = validate_jsonl(args.file)
        if errors:
            for error in errors[:50]:
                print(error, file=sys.stderr)
            if len(errors) > 50:
                print(f"... and {len(errors) - 50} more", file=sys.stderr)
            print(
                f"FAIL: {len(errors)} schema problem(s) in {args.file}", file=sys.stderr
            )
            return 1
        spans = read_jsonl(args.file)
        print(f"OK: {len(spans)} span(s) valid against schema {SCHEMA_VERSION}")
        return 0
    print(summarize_trace(args.file, limit=args.limit))
    return 0


def _cmd_version() -> int:
    print(f"repro {repro.__version__}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.command == "datasets":
        return _cmd_datasets()
    if args.command == "queries":
        return _cmd_queries()
    if args.command == "version":
        return _cmd_version()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "workload":
        return _cmd_workload(args)
    if args.command == "store":
        return _cmd_store(args)
    return _cmd_trace(args)  # the parser admits no other command
