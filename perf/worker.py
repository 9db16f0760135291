"""One benchmark worker: set one workload up, run its rounds, report.

Run as a subprocess by ``run.py`` (so that set-up is timed from process
start, in a fresh interpreter, with ``PYTHONHASHSEED=0``), and callable
in-process by the smoke test.  Events go to ``emit`` as dicts: ``ready``
once the first (cold) round is complete, then ``result``.

Nothing inside a timed region spawns a process, touches disk or uses a
pool: the execution backend is the default ``virtual`` one, so there is
exactly one busy thread.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from statistics import median, quantiles
from typing import Callable, Dict, List, Optional

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
#: Fewest measured rounds, however short the time box.
MIN_ROUNDS = 3
#: A p99 is reported only with at least ten samples beyond it.
P99_MIN_ROUNDS = 1000


class Tally:
    """What a batch of measured rounds did and how long each took."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.attempted = self.failed = self.rows = 0
        self.cpu_s = 0.0
        self.rss_kb: Optional[int] = None

    def add(self, result, seconds: Optional[float] = None) -> None:
        attempted, failed, rows = result
        self.attempted += attempted
        self.failed += failed
        self.rows += rows
        if seconds is not None:
            self.times.append(seconds)

    def statistics(self) -> Dict[str, float]:
        times = self.times
        deciles = quantiles(times, n=10) if len(times) > 1 else [times[0]] * 9
        values = {
            "driver.round_ms_p50": median(times) * 1e3,
            "driver.round_ms_p90": deciles[8] * 1e3,
            "driver.ops_per_s": self.attempted / sum(times),
            "driver.rounds": len(times),
            "driver.cpu_s": self.cpu_s,
            "driver.rows_per_round": self.rows / len(times),
        }
        if len(times) >= P99_MIN_ROUNDS:
            values["driver.round_ms_p99"] = quantiles(times, n=100)[98] * 1e3
        return values


def _measure(workload, keep_going: Callable[[int], bool]) -> Tally:
    """Untraced rounds, each one timing sample, while ``keep_going(done)``."""
    tally = Tally()
    gc.collect()
    cpu_started = time.process_time()
    while keep_going(len(tally.times)):
        started = time.perf_counter()
        result = workload.round()
        tally.add(result, time.perf_counter() - started)
        if len(tally.times) == workload.rss_rounds:
            tally.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tally.cpu_s = time.process_time() - cpu_started
    if tally.rss_kb is None:
        tally.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return tally


def _measure_traced(workload, rec, warm: range) -> Tally:
    """Traced rounds, one root span each; the span is the timing sample."""
    tally = Tally()
    gc.collect()
    cpu_started = time.process_time()
    for rec.round in warm:
        with rec.span("round"):
            tally.add(workload.round(rec))
    tally.cpu_s = time.process_time() - cpu_started
    tally.times = rec.durations("round", warm)
    return tally


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    emit: Callable[[dict], None],
    limit_edges: Optional[int] = None,
    setup_only: bool = False,
) -> None:
    started = time.perf_counter()
    import repro.api  # noqa: F401  (first: repro.service alone fails to import)
    import repro.service  # noqa: F401

    import_s = time.perf_counter() - started
    from spans import SpanRecorder
    from workloads import WORKLOADS, p25

    workload = WORKLOADS[workload_name](seed, limit_edges=limit_edges)
    rec = SpanRecorder()
    workload.setup(rec)
    if trace:
        workload.instrument(rec)
    rec.round = 0
    cold = Tally()
    with rec.span("round"):
        cold.add(workload.round(rec if trace else None))
    emit({"event": "ready"})
    if setup_only:
        return
    if trace:
        workload.uninstrument(rec)
    workload.verify()

    values: Dict[str, float] = {}
    unmeasured = [cold]
    if trace:
        # A fixed number of warm rounds, untraced and then traced, so that
        # what the spans themselves cost is known.
        rounds = workload.traced_rounds
        untraced = _measure(workload, lambda done: done < rounds)
        workload.instrument(rec)
        before = workload.counters()
        warm = range(1, rounds + 1)
        tally = _measure_traced(workload, rec, warm)
        after = workload.counters()
        workload.uninstrument(rec)
        unmeasured.append(untraced)
        values["driver.trace_overhead_pct"] = (
            p25(tally.times) / p25(untraced.times) - 1.0
        ) * 100.0
        values["cli.import_ms"] = import_s * 1e3
        values.update(workload.setup_metrics(rec))
        delta = {key: after[key] - before[key] for key in after}
        values.update(workload.layer_metrics(rec, warm, delta))
    else:
        deadline = time.perf_counter() + seconds
        tally = _measure(
            workload, lambda done: done < MIN_ROUNDS or time.perf_counter() < deadline
        )
        values["round_ms_p25"] = p25(tally.times) * 1e3
        values["peak_rss_mb"] = tally.rss_kb / 1024.0
    workload.finish()

    attempted = tally.attempted + sum(other.attempted for other in unmeasured)
    failed = tally.failed + sum(other.failed for other in unmeasured)
    values.update(tally.statistics())
    values["driver.error_rate"] = failed / attempted
    values["driver.first_round_ms"] = rec.durations("round", range(0, 1))[0] * 1e3
    if trace:
        workload.problems.extend(rec.problems())
        os.makedirs(OUT_DIR, exist_ok=True)
        rec.write_jsonl(os.path.join(OUT_DIR, f"trace-{workload_name}.jsonl"))
    emit(
        {
            "event": "result",
            "attempted": attempted,
            "failed": failed,
            "problems": workload.problems,
            "layers": sorted(workload.layers),
            "values": values,
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    def emit(event: dict) -> None:
        sys.stdout.write(json.dumps(event) + "\n")
        sys.stdout.flush()

    run(
        args.workload, args.seed, args.seconds, bool(args.trace), emit,
        setup_only=args.setup_only,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
