"""The Prometheus exposition of the query service (``--metrics``).

:meth:`ServiceMetrics.exposition` renders counters from the running totals
and histograms over the record window.  Every histogram series must be
cumulative: its ``_bucket`` counts never decrease as ``le`` grows, and
``le="+Inf"`` equals ``_count``.  The rejected-request ids are a window
too, while the admission counters stay lifetime totals.
"""

import re
from collections import defaultdict

from repro import cli
from repro.graphs import pattern_query
from repro.service import QueryService, workload_database
from repro.service.admission import AdmissionStats
from repro.service.metrics import RECORD_WINDOW, QueryRecord, ServiceMetrics

#: The observability job's workload (.github/workflows/ci.yml).
CI_WORKLOAD = [
    "workload", "--dataset", "grqc", "--scale", "0.005", "--num-queries", "50",
    "--seed", "7", "--update-fraction", "0.1",
]
SAMPLE = re.compile(r"^(?P<name>[a-z_]+)(?:\{(?P<labels>[^}]*)\})? (?P<value>\S+)$")


def _samples(text):
    """``(name, labels, value)`` per sample line, labels as ``(key, value)`` pairs."""
    samples = []
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        match = SAMPLE.match(line)
        assert match, f"malformed sample line {line!r}"
        labels = tuple(
            tuple(part.split("=", 1)) for part in (match["labels"] or "").split(",") if part
        )
        samples.append((match["name"], labels, match["value"]))
    return samples


def _le(value):
    return float("inf") if value == '"+Inf"' else float(value.strip('"'))


def assert_histograms_cumulative(text):
    """Every ``_bucket`` series is non-decreasing in ``le``, ends at ``_count``;
    returns the number of series checked."""
    buckets = defaultdict(list)
    counts = {}
    for name, labels, value in _samples(text):
        if name.endswith("_bucket"):
            (le,) = [v for k, v in labels if k == "le"]
            series = (name[: -len("_bucket")], tuple(p for p in labels if p[0] != "le"))
            buckets[series].append((_le(le), int(value)))
        elif name.endswith("_count"):
            counts[(name[: -len("_count")], labels)] = int(value)
    for series, points in buckets.items():
        bounds = [bound for bound, _count in points]
        assert bounds == sorted(bounds) and bounds[-1] == float("inf"), series
        values = [count for _bound, count in points]
        assert values == sorted(values), f"{series} buckets decrease: {values}"
        assert values[-1] == counts[series], f"{series}: +Inf {values[-1]} != _count"
    return len(buckets)


def test_ci_workload_exposition_is_cumulative_and_sorted(tmp_path, capsys):
    path = tmp_path / "metrics.prom"
    assert cli.main([*CI_WORKLOAD, "--metrics", str(path)]) == 0
    capsys.readouterr()
    text = path.read_text()
    # Latency by two backends plus queue wait by three priorities.
    assert assert_histograms_cumulative(text) == 5
    # Label sets render sorted within every sample name.
    by_name = defaultdict(list)
    for name, labels, _value in _samples(text):
        key = tuple(value for label, value in labels if label != "le")
        if not by_name[name] or by_name[name][-1] != key:
            by_name[name].append(key)
    for name, keys in by_name.items():
        assert keys == sorted(keys), name


def _record(request_id, latency, wall_elapsed=None):
    return QueryRecord(
        request_id, "q", "sig", "lftj", "normal", 0.0, 0.0, latency, latency, 1,
        False, False, False, wall_elapsed,
    )


def test_two_latencies_render_the_hand_computed_buckets():
    metrics = ServiceMetrics()
    metrics.record(_record(0, 50.0, wall_elapsed=0.005))
    metrics.record(_record(1, 5000.0))
    text = metrics.exposition((), AdmissionStats(), 5000.0)
    latency = 'repro_query_latency_virtual_ns_bucket{backend="lftj",le="%s"} %d'
    wall = 'repro_execution_wall_seconds_bucket{le="%s"} %d'
    lines = text.splitlines()
    start = lines.index(latency % ("10", 0))
    assert lines[start : start + 12] == [
        latency % ("10", 0),
        latency % ("100", 1),
        latency % ("1000", 1),
        latency % ("10000", 2),
        latency % ("100000", 2),
        latency % ("1000000", 2),
        latency % ("10000000", 2),
        latency % ("100000000", 2),
        latency % ("1000000000", 2),
        latency % ("+Inf", 2),
        'repro_query_latency_virtual_ns_sum{backend="lftj"} 5050',
        'repro_query_latency_virtual_ns_count{backend="lftj"} 2',
    ]
    start = lines.index(wall % ("0.001", 0))
    assert lines[start : start + 8] == [
        wall % ("0.001", 0),
        wall % ("0.01", 1),
        wall % ("0.1", 1),
        wall % ("1", 1),
        wall % ("10", 1),
        wall % ("+Inf", 1),
        "repro_execution_wall_seconds_sum 0.005",
        "repro_execution_wall_seconds_count 1",
    ]
    assert "repro_virtual_clock_ns 5000" in lines
    assert assert_histograms_cumulative(text) == 3


def test_rejections_keep_a_window_and_a_lifetime_count():
    service = QueryService(
        workload_database(num_vertices=20, num_edges=60, seed=3),
        backends=("lftj",),
        max_in_flight=1,
        max_queue_depth=1,
    )
    try:
        query = pattern_query("cycle3")
        submitted = RECORD_WINDOW + 10
        for _ in range(submitted):
            service.submit(query, arrival_time=0.0)
        assert len(service.drain()) == 2  # one in flight, one queued
        rejected = submitted - 2
        assert service.admission.stats.rejected == rejected
        assert len(service.rejected_requests) == RECORD_WINDOW
        assert service.rejected_requests[-1] == submitted - 1
        assert f'repro_admission_requests_total{{outcome="rejected"}} {rejected}' in (
            service.exposition().splitlines()
        )
    finally:
        service.close()


def test_cli_prints_the_lifetime_rejection_count(tmp_path, capsys):
    path = tmp_path / "metrics.prom"
    submitted = RECORD_WINDOW + 10
    argv = [
        "workload", "--dataset", "grqc", "--scale", "0.005", "--mode", "closed",
        "--num-queries", str(submitted), "--backends", "lftj", "--seed", "7",
        "--max-in-flight", "1", "--max-queue-depth", "1", "--metrics", str(path),
    ]
    assert cli.main(argv) == 0
    rejected = submitted - 2
    assert f"rejected {rejected} requests (bounded queue)" in capsys.readouterr().out
    lines = path.read_text().splitlines()
    assert f'repro_admission_requests_total{{outcome="rejected"}} {rejected}' in lines
