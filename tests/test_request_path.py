"""The request hot path: same behaviour, bounded state, shared values.

Three seeded ``run_workload`` scenarios are pinned byte for byte against
goldens captured on the commit *before* the hot path was reworked
(interned statements, memoised signatures, slotted request values, the O(1)
event loop and the bounded :class:`~repro.service.metrics.ServiceMetrics`),
so the rework provably changed the cost of a request and nothing else.  To
re-capture (only when a PR changes served behaviour on purpose)::

    PYTHONPATH=src python tests/test_request_path.py tests/data/request_path_goldens.json

The rest pins the new invariants: one ``Statement`` per text, one signature
string per α-class, bounded memos, a flat resident set, running totals
that equal a recount over every record ever served, and one declaration of
the serving options (``QueryPipeline``'s, forwarded by both front ends).
"""

import dataclasses
import gc
import inspect
import json
import pickle
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session, Statement, coerce_statement
from repro.api import statement as statement_module
from repro.graphs import graph_database, pattern_query
from repro.graphs.graph import Graph
from repro.joins.compiler import QueryCompiler, canonical_signature
from repro.relational import Database, Relation, Schema
from repro.relational.datalog import DatalogSyntaxError
from repro.relational.query import Atom, ConjunctiveQuery
from repro.relational.sharding import shard_database
from repro.relational.sql import SQLSyntaxError
from repro.service import (
    QueryService,
    WorkloadSpec,
    alpha_rename,
    generate_requests,
    run_workload,
    workload_database,
)
from repro.service.maintenance import ResultMaintainer
from repro.service.metrics import RECORD_WINDOW
from repro.service.pipeline import QueryPipeline

GOLDENS = Path(__file__).parent / "data" / "request_path_goldens.json"


# --------------------------------------------------------------------------- #
# Equivalence across the commit: three seeded scenarios against goldens
# --------------------------------------------------------------------------- #
def _scenario(name: str, backend: str = "virtual"):
    """``(service, request stream)`` of one pinned scenario."""
    database = workload_database(num_vertices=50, num_edges=240, seed=5)
    workers = 3 if backend == "process" else None
    if name == "monolithic_rotate":
        service = QueryService(
            database, backends=("lftj", "ctj"), seed=11, backend=backend, workers=workers
        )
        spec = WorkloadSpec(num_queries=80, mode="mixed", rename_fraction=0.5)
    elif name == "sharded_incremental":
        service = QueryService(
            shard_database(database, 2),
            backends=("lftj", "ctj"),
            seed=11,
            maintenance="incremental",
            backend=backend,
            workers=workers,
        )
        spec = WorkloadSpec(
            num_queries=80, mode="mixed", update_fraction=0.15, update_domain=50
        )
    else:  # "bounded_admission": queueing, the lottery and rejection all fire
        service = QueryService(
            database,
            backends=("lftj", "ctj"),
            result_cache_capacity=2,
            max_in_flight=2,
            max_queue_depth=3,
            seed=11,
            backend=backend,
            workers=workers,
        )
        spec = WorkloadSpec(
            num_queries=80, mode="open", arrival_rate=0.0002, backends=("lftj", "ctj")
        )
    return service, generate_requests(spec, seed=7)


SCENARIOS = ("monolithic_rotate", "sharded_incremental", "bounded_admission")
#: Report lines that carry host wall-clock time (absent from the goldens).
WALL_LINES = ("host drain time", "host execution")


def capture(name: str, backend: str = "virtual") -> dict:
    """Everything observable about one scenario run, wall clock excluded."""
    service, requests = _scenario(name, backend)
    try:
        run_workload(service, requests)
        return {
            # One JSON string per record: a golden line per request.
            "records": [
                json.dumps(dataclasses.astuple(dataclasses.replace(r, wall_elapsed=None)))
                for r in service.metrics.records
            ],
            "admission": service.admission.stats.as_dict(),
            "plan_cache": service.plan_cache.stats.as_dict(),
            "result_cache": service.result_cache.stats.as_dict(),
            "rejected": list(service.rejected_requests),
            "report": [
                line
                for line in service.report().splitlines()
                if not line.startswith(WALL_LINES)
            ],
        }
    finally:
        service.close()


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS.read_text())


@pytest.mark.parametrize("name", SCENARIOS)
def test_virtual_run_reproduces_the_parent_commit(name, goldens):
    assert capture(name) == goldens[name]


@pytest.mark.parametrize("name", SCENARIOS)
def test_process_agrees_with_virtual(name, goldens):
    assert capture(name, "process") == goldens[name]


def test_scenarios_exercise_what_they_claim(goldens):
    bounded = goldens["bounded_admission"]
    assert bounded["rejected"] and bounded["admission"]["queued"] > 0
    priorities = {json.loads(record)[4] for record in bounded["records"]}
    assert priorities == {"high", "normal", "low"}
    assert goldens["sharded_incremental"]["result_cache"]["patches"] > 0


# --------------------------------------------------------------------------- #
# Interned statements
# --------------------------------------------------------------------------- #
SQL_PATH = "SELECT * FROM E AS a, E AS b WHERE a.dst = b.src"


def _edge_database(attributes=("src", "dst"), edges=((1, 2), (2, 3), (3, 1))):
    database = Database("edges")
    database.add_relation(Relation("E", Schema(attributes), edges))
    return database


class TestInternedStatements:
    def test_same_text_is_the_same_statement(self):
        for text in ("cycle3", "tri(a,b,c) = E(a,b), E(b,c), E(c,a).", SQL_PATH):
            assert coerce_statement(text) is coerce_statement(text)
        assert coerce_statement("cycle3") is not coerce_statement(" cycle3")

    def test_three_spellings_share_one_signature_object(self):
        database = workload_database(num_vertices=20, num_edges=60, seed=3)
        spellings = (
            "path3",
            alpha_rename(pattern_query("path3"), 7).to_datalog(),
            SQL_PATH,
        )
        signatures = [
            canonical_signature(coerce_statement(text).resolve(database))
            for text in spellings
        ]
        assert signatures[0] is signatures[1] is signatures[2]
        # ... and the memo sits behind the compiler hook perf/ wraps.
        query = coerce_statement("path3").resolve(database)
        assert QueryCompiler().signature(query) is signatures[0]

    def test_memo_is_bounded(self):
        bound = statement_module.STATEMENT_MEMO_SIZE
        for index in range(5 * bound):
            coerce_statement(f"q{index}(x, y) = E(x, y).")
        info = statement_module._statement_from_text.cache_info()
        assert info.maxsize == bound and info.currsize <= bound

    def test_parse_errors_are_not_cached(self):
        database = _edge_database()
        failures = []
        for _attempt in range(2):
            with pytest.raises(DatalogSyntaxError) as datalog_error:
                coerce_statement("q(x, y) = E(x, y")
            with pytest.raises(SQLSyntaxError) as sql_error:
                coerce_statement("SELECT * FROM E AS a WHERE a.dst == a.src").resolve(
                    database
                )
            with pytest.raises(KeyError) as table_error:
                coerce_statement("SELECT * FROM Nope AS a").resolve(database)
            failures.append(
                [
                    (type(error.value), str(error.value))
                    for error in (datalog_error, sql_error, table_error)
                ]
            )
        assert failures[0] == failures[1]

    def test_interned_sql_holds_its_catalog_weakly(self):
        statement = coerce_statement(SQL_PATH)
        first = _edge_database()
        on_first = statement.resolve(first)
        assert statement.resolve(first) is on_first  # memoised per catalog
        collected = weakref.ref(first)
        del first
        gc.collect()
        assert collected() is None, "an interned statement pinned a dropped catalog"
        # A different catalog whose E stores (dst, src): the query is B's.
        second = _edge_database(attributes=("dst", "src"))
        on_second = statement.resolve(second)
        assert on_second == Statement.from_sql(SQL_PATH).resolve(second)
        assert canonical_signature(on_second) != canonical_signature(on_first)

    def test_interned_sql_follows_a_redefined_table(self):
        database = _edge_database()
        before = coerce_statement(SQL_PATH).resolve(database)
        database.replace_relation(Relation("E", Schema(("dst", "src")), [(1, 2)]))
        after = coerce_statement(SQL_PATH).resolve(database)
        assert after == Statement.from_sql(SQL_PATH).resolve(database)
        assert canonical_signature(after) != canonical_signature(before)

    def test_submit_validates_against_the_live_catalog(self):
        database = _edge_database()
        service = QueryService(database)
        over_f = ConjunctiveQuery("f", ("x", "y"), [Atom("F", ("x", "y"))])
        with pytest.raises(KeyError, match="'F' not found"):
            service.submit(over_f)
        database.add_relation(Relation("F", Schema(("a", "b")), [(1, 2)]))
        assert service.serve(over_f).tuples == [(1, 2)]
        with pytest.raises(ValueError, match="has arity 3"):
            service.submit(ConjunctiveQuery("f", ("x",), [Atom("F", ("x", "y", "z"))]))


# --------------------------------------------------------------------------- #
# Memoised canonical signature
# --------------------------------------------------------------------------- #
def _fresh_signature(query: ConjunctiveQuery) -> str:
    """Memo-free transcription of the canonical signature's definition."""
    names = {}
    for atom in query.atoms:
        for variable in atom.variables:
            names.setdefault(variable, f"v{len(names)}")
    body = ";".join(
        f"{atom.relation}({','.join(names[v] for v in atom.variables)})"
        for atom in query.atoms
    )
    return f"{','.join(names[v] for v in query.head_variables)}<-{body}"


@st.composite
def random_queries(draw):
    variables = st.sampled_from(["x", "y", "z", "w", "u"])
    atoms = draw(
        st.lists(
            st.builds(
                Atom,
                st.sampled_from(["E", "F", "G"]),
                st.lists(variables, min_size=1, max_size=3),
            ),
            min_size=1,
            max_size=4,
        )
    )
    body = sorted({v for atom in atoms for v in atom.variables})
    head = draw(st.lists(st.sampled_from(body), min_size=1, max_size=4, unique=True))
    return ConjunctiveQuery(draw(st.sampled_from(["q", "r"])), head, atoms)


@given(random_queries(), st.integers(0, 99))
@settings(max_examples=60, deadline=None)
def test_memoised_signature_equals_a_fresh_transcription(query, tag):
    expected = _fresh_signature(query)
    assert canonical_signature(query) == expected
    assert canonical_signature(query) is canonical_signature(query)  # memoised
    renamed = alpha_rename(query, tag)
    assert canonical_signature(renamed) is canonical_signature(query)
    # The process backend ships queries: warm and cold copies keep the key.
    assert canonical_signature(pickle.loads(pickle.dumps(query))) == expected
    cold = ConjunctiveQuery(query.name, query.head_variables, query.atoms)
    assert canonical_signature(pickle.loads(pickle.dumps(cold))) == expected


# --------------------------------------------------------------------------- #
# Bounded ServiceMetrics
# --------------------------------------------------------------------------- #
def _serve_hits(service, count, batch=64):
    """Serve ``count`` cached requests in mixed classes; returns their records."""
    texts = ("path3", "cycle3", alpha_rename(pattern_query("path3"), 3).to_datalog())
    priorities = ("high", "normal", "low")
    records = []
    for start in range(0, count, batch):
        for index in range(start, min(start + batch, count)):
            query = coerce_statement(texts[index % 3]).resolve(service.database)
            service.submit(query, priority=priorities[index % 5 % 3])
        records.extend(outcome.record for outcome in service.drain().values())
    return records


@pytest.fixture
def hot_service():
    service = QueryService(workload_database(num_vertices=30, num_edges=90, seed=4))
    yield service
    service.close()


def test_window_is_bounded_and_totals_are_lifetime(hot_service):
    metrics = hot_service.metrics
    shadow = _serve_hits(hot_service, RECORD_WINDOW + 500)
    assert len(metrics.records) == RECORD_WINDOW
    assert list(metrics.records) == shadow[-RECORD_WINDOW:]
    assert metrics.records[0] is shadow[500] and metrics.records[-1] is shadow[-1]

    lookups = [r for r in shadow if not r.result_cache_hit]
    assert metrics.completed == len(shadow)
    assert metrics.makespan == max(r.finish_time for r in shadow) - min(
        r.arrival_time for r in shadow
    )
    assert metrics.result_cache_hit_rate() == (len(shadow) - len(lookups)) / len(shadow)
    assert metrics.plan_cache_hit_rate() == sum(
        r.plan_cache_hit for r in lookups
    ) / len(lookups)
    total = metrics.total()
    assert total.compiles == sum(r.compiled for r in shadow) > 0
    assert total.retries == total.degraded == total.failed == 0
    assert total.measured == 0
    for backend in ("lftj", "ctj"):
        group = [r for r in shadow if r.backend == backend]
        total = metrics.total(backend=backend)
        assert (total.requests, total.result_hits, total.plan_hits, total.compiles) == (
            len(group),
            sum(r.result_cache_hit for r in group),
            sum(r.plan_cache_hit for r in group),
            sum(r.compiled for r in group),
        )
    for priority in ("high", "normal", "low"):
        assert metrics.total(priority=priority).requests == sum(
            r.priority == priority for r in shadow
        )

    report = hot_service.report()
    assert f"requests completed   : {len(shadow)}" in report
    assert f"last {RECORD_WINDOW} of {len(shadow)} requests" in report
    requests_total = [
        int(line.rsplit(" ", 1)[1])
        for line in hot_service.exposition().splitlines()
        if line.startswith("repro_requests_total{")
    ]
    assert len(requests_total) == 6 and sum(requests_total) == metrics.completed


def test_report_is_unlabelled_within_the_window(hot_service):
    _serve_hits(hot_service, 200)
    assert "last " not in hot_service.report()
    assert hot_service.metrics.latency_summary()["count"] == 200


def test_served_hits_leave_the_resident_set_flat(hot_service):
    _serve_hits(hot_service, 10_000)  # fills the window and every memo
    tracemalloc.start()
    try:
        # Tracing sees only what is allocated after start(): turn the window
        # over once so that what the next hits displace is traced too.
        _serve_hits(hot_service, RECORD_WINDOW)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        _serve_hits(hot_service, RECORD_WINDOW)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert hot_service.metrics.completed == 10_000 + 2 * RECORD_WINDOW
    assert len(hot_service.metrics.records) == RECORD_WINDOW
    assert grown < 256 * 1024, f"{RECORD_WINDOW} more hits grew memory by {grown} bytes"


def test_maintenance_reports_are_a_window():
    graph = Graph.from_edges([(1, 2), (2, 3), (3, 1)], "tri")
    service = QueryService(graph_database(graph), maintenance="incremental")
    maintainer = service.maintainer
    assert isinstance(maintainer, ResultMaintainer)
    assert maintainer.reports.maxlen == RECORD_WINDOW
    service.serve(pattern_query("cycle3"))
    service.insert_tuples("E", [(3, 4)])
    service.insert_tuples("E", [(4, 1)])
    assert len(maintainer.reports) == 2 and maintainer.reports[-1].patchable
    service.close()


def test_session_resolves_through_the_interned_statement():
    session = Session(workload_database(num_vertices=20, num_edges=60, seed=3))
    first = session.explain(SQL_PATH)
    second = session.explain(SQL_PATH)
    assert first.statement is second.statement is coerce_statement(SQL_PATH)
    assert first.query is second.query and first.signature is second.signature
    session.close()


# --------------------------------------------------------------------------- #
# The serving options are declared once, on QueryPipeline
# --------------------------------------------------------------------------- #
#: ``QueryPipeline``'s keywords a front end may forward (``clock`` is the
#: front end's own wiring, ``database`` its first argument).
PIPELINE_OPTIONS = {
    name: parameter.default
    for name, parameter in inspect.signature(QueryPipeline.__init__).parameters.items()
    if name not in ("self", "database", "clock")
}


@pytest.mark.parametrize("front_end", [Session, QueryService])
@pytest.mark.parametrize("option", sorted(PIPELINE_OPTIONS))
def test_front_ends_accept_every_pipeline_option(front_end, option):
    owner = front_end(_edge_database(), **{option: PIPELINE_OPTIONS[option]})
    assert isinstance(owner.pipeline, QueryPipeline)
    owner.close()


def test_front_ends_reject_what_the_pipeline_does_not_declare():
    assert "plan_cache_capacity" not in PIPELINE_OPTIONS
    with pytest.raises(TypeError, match="plan_cache_capacity"):
        Session(_edge_database(), plan_cache_capacity=1)
    with pytest.raises(TypeError, match="bogus"):
        QueryService(_edge_database(), bogus=1)


@pytest.mark.parametrize("front_end", [Session, QueryService, QueryPipeline])
def test_the_retry_walk_takes_no_policy_keyword(front_end):
    # The attempt walk runs on service.faults' constants; no front end
    # accepts a policy object any more.
    assert "retry_policy" not in PIPELINE_OPTIONS
    with pytest.raises(TypeError, match="retry_policy"):
        front_end(_edge_database(), retry_policy=None)


#: A ``Session`` keyword → (a bad value, the error it raises, what the
#: message names, ``QueryService``'s keyword for it).
BAD_OPTIONS = {
    "maintenance": ("bogus", ValueError, "maintenance", "maintenance"),
    "on_shard_loss": ("bogus", ValueError, "on_shard_loss", "on_shard_loss"),
    "max_in_flight": (0, ValueError, "max_in_flight", "max_in_flight"),
    "max_queue_depth": (0, ValueError, "max_queue_depth", "max_queue_depth"),
    "execution_backend": ("bogus", KeyError, "execution backend", "backend"),
    "engines": (("bogus",), KeyError, "unknown engine", "backends"),
}


@pytest.mark.parametrize("option", list(BAD_OPTIONS))
def test_a_bad_option_is_rejected_before_the_store_is_created(option, tmp_path):
    value, error, named, service_option = BAD_OPTIONS[option]
    with pytest.raises(error, match=named):
        Session(storage_dir=str(tmp_path / "s"), **{option: value})
    assert not (tmp_path / "s").exists()
    # Refused before anything subscribes to the caller's catalog.
    database = _edge_database()
    with pytest.raises(error, match=named):
        Session(database, **{option: value})
    with pytest.raises(error, match=named):
        QueryService(database, **{service_option: value})
    assert not database._invalidation_listeners


def test_a_ready_pipeline_takes_no_catalog_and_no_options():
    database = _edge_database()
    pipeline = QueryPipeline(database)
    assert QueryService(pipeline=pipeline, seed=7).pipeline is pipeline
    with pytest.raises(ValueError, match="pipeline="):
        QueryService(pipeline=pipeline, database=database)
    with pytest.raises(ValueError, match="maintenance"):
        QueryService(pipeline=pipeline, maintenance="incremental")
    with pytest.raises(ValueError, match="database"):
        QueryService()


if __name__ == "__main__":
    Path(sys.argv[1]).write_text(
        json.dumps({name: capture(name) for name in SCENARIOS}, indent=1) + "\n"
    )
