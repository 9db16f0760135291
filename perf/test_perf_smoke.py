"""Smoke test of the benchmark itself: in-process, on the first 2,000 edges
of each committed graph, a few rounds per pass.

Checks the contract between ``BENCHMARK.json`` and what the workers emit
(every workload produces exactly the per-layer names it declares, every
name of ``BENCHMARK.json`` belongs to some workload, nothing undeclared is
produced), the declared limits, that no operation fails, and that recorded
spans form well-shaped trees.
"""

import json
import os
import re

import pytest

import compare
import run
import worker
from spans import SpanRecorder

BENCHMARK = compare.load_benchmark()
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
LIMIT_EDGES = 2000
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _record(workload, trace):
    events = []
    worker.run(
        workload, seed=7, seconds=0.0, trace=trace, emit=events.append,
        limit_edges=LIMIT_EDGES,
    )
    assert [event["event"] for event in events] == ["ready", "result"]
    record = run.assemble(
        BENCHMARK, workload, 7, 0.0, trace, events[-1], setup_samples=[1.0], problems=[]
    )
    return events[-1]["values"], record


@pytest.fixture(scope="module")
def passes():
    return {(w, trace): _record(w, trace) for w in WORKLOADS for trace in (False, True)}


def test_benchmark_file_is_within_the_declared_limits():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in BENCHMARK[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])
    assert all(0 <= m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_every_declared_metric_is_emitted_and_nothing_else(passes):
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    produced_layers = set()
    for (workload, trace), (values, record) in passes.items():
        declared = per_layer if trace else end_to_end
        assert set(record["metrics"]) == declared
        if trace:
            # A traced pass emits exactly the names its workload declares.
            assert set(values) == set(record["layers"]), workload
            assert not record["diagnostics"]
            produced_layers |= set(values)
        else:
            assert end_to_end - {"setup_s"} <= set(values)
            assert set(record["diagnostics"]) <= per_layer
            assert all(record["metrics"][name]["value"] > 0 for name in end_to_end)
    # A p99 needs 1000 rounds: only long untraced runs print one.
    assert per_layer - produced_layers == {"driver.round_ms_p99"}
    assert produced_layers <= per_layer


def test_a_lost_per_layer_metric_fails_the_run(passes):
    values, record = passes[("serve_ivm", True)]
    event = {
        "values": {k: v for k, v in values.items() if k != "joins.delta_ms"},
        "layers": record["layers"], "problems": [], "attempted": 1, "failed": 0,
    }
    lossy = run.assemble(BENCHMARK, "serve_ivm", 7, 0.0, True, event, [1.0], problems=[])
    assert lossy["problems"] == ["metric joins.delta_ms was not produced"]
    assert not lossy["correct"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (False, True))
def test_no_operation_fails(passes, workload, trace):
    _values, record = passes[(workload, trace)]
    assert record["problems"] == []
    assert record["failed"] == 0 and record["attempted"] >= 1
    assert record["correct"]
    diagnostics = {**record["diagnostics"], **{k: v["value"] for k, v in record["metrics"].items()}}
    assert diagnostics["driver.error_rate"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_are_well_formed(passes, workload):
    rec = SpanRecorder()
    keys = ("name", "start", "end", "parent", "round", "count")
    path = os.path.join(worker.OUT_DIR, f"trace-{workload}.jsonl")
    with open(path, "r", encoding="utf-8") as handle:
        rec.spans = [[json.loads(line)[key] for key in keys] for line in handle]
    rounds = {span[4] for span in rec.spans}
    warm_rounds = max(rounds)
    assert warm_rounds >= 3
    assert rounds == set(range(-1, warm_rounds + 1))  # set-up, cold round, warm rounds
    roots = [span for span in rec.spans if span[3] < 0 and span[4] >= 0]
    assert [span[0] for span in roots] == ["round"] * (1 + warm_rounds)
    assert rec.problems() == []
    assert min(rec.self_times()) >= 0
