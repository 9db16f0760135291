"""Perf guard: a disabled tracer must not tax the join hot path.

The observability layer's contract (see ``src/repro/obs/trace.py``) is
*zero overhead when off*: every instrumentation site in the serving stack
is guarded by ``if tracer.enabled`` and the engine inner loops are never
instrumented at all, so running with the :data:`~repro.obs.NULL_TRACER`
must cost nothing measurable on the kernel hot path.

This module pins that contract with a paired timing comparison on LFTJ
cycle3 over ``bitcoin`` at scale 0.01: the bare engine run against the same
run behind the exact guard pattern the serving layer uses.  It times
:data:`PAIRS` back-to-back (bare, guarded) pass pairs, alternating which of
the two runs first, and compares the median of the per-pair ratios: the two
passes of a pair run tens of milliseconds apart, so host-speed drift cancels
within a pair, and the median ignores the pairs a scheduling hiccup lands
in.  (A min-of-N over two nearly identical passes compares two noisy
extremes and misses its budget on a drifting host.)  The assertion allows
2% slack (:data:`MAX_OVERHEAD_RATIO`), two orders of magnitude above the
true cost of an attribute check but tight enough to catch anyone
accidentally instrumenting the inner loops.

Run directly (``python benchmarks/bench_obs_overhead.py``) or via pytest.
"""

import statistics
import time

from repro.graphs import graph_database, load_dataset, pattern_query
from repro.joins import LeapfrogTrieJoin
from repro.obs import NULL_TRACER

#: Allowed slowdown of the guarded run over the bare run (median pair ratio).
MAX_OVERHEAD_RATIO = 1.02

#: Engine runs per timing sample — sized so one sample is tens of ms,
#: large relative to timer granularity and scheduling noise.
ITERATIONS = 20

#: Alternating (bare, guarded) timing pairs; the median pair ratio is compared.
PAIRS = 101


def _bare_pass(engine, query, database):
    for _ in range(ITERATIONS):
        engine.execute(query, database)


def _guarded_pass(engine, query, database, tracer=NULL_TRACER):
    # The exact shape of the serving layer's instrumentation sites: one
    # truthiness check on tracer.enabled per query, nothing in the loop.
    for _ in range(ITERATIONS):
        if tracer.enabled:  # pragma: no cover - NULL_TRACER is always off
            raise AssertionError("NULL_TRACER must report enabled=False")
        engine.execute(query, database)


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def measure_overhead(scale=0.01):
    """Return ``(bare_s, guarded_s, ratio)`` for the cycle3 hot path.

    ``bare_s`` and ``guarded_s`` are the median pass times, ``ratio`` the
    median of the per-pair ``guarded / bare`` ratios.  Odd pairs run the
    guarded pass first, so neither variant always runs second.
    """
    database = graph_database(load_dataset("bitcoin", scale=scale))
    query = pattern_query("cycle3")
    engine = LeapfrogTrieJoin()
    # Warm-up: build tries/plan caches outside the timed region.
    engine.execute(query, database)
    bare, guarded, ratios = [], [], []
    for pair in range(PAIRS):
        if pair % 2:
            guarded.append(_timed(_guarded_pass, engine, query, database))
            bare.append(_timed(_bare_pass, engine, query, database))
        else:
            bare.append(_timed(_bare_pass, engine, query, database))
            guarded.append(_timed(_guarded_pass, engine, query, database))
        ratios.append(guarded[-1] / bare[-1])
    return statistics.median(bare), statistics.median(guarded), statistics.median(ratios)


def test_noop_tracer_overhead_cycle3():
    """Disabled-tracer guard adds <2% to the cycle3 kernel (median pair ratio)."""
    bare, guarded, ratio = measure_overhead()
    assert ratio < MAX_OVERHEAD_RATIO, (
        f"no-op tracer guard cost {ratio:.4f}x on cycle3 "
        f"(bare {bare * 1e3:.2f} ms, guarded {guarded * 1e3:.2f} ms); "
        f"the zero-overhead-when-off contract allows < {MAX_OVERHEAD_RATIO}x"
    )


if __name__ == "__main__":
    bare_s, guarded_s, overhead = measure_overhead()
    print(f"bare    : {bare_s * 1e3:8.3f} ms (median of {PAIRS} passes x {ITERATIONS} runs)")
    print(f"guarded : {guarded_s * 1e3:8.3f} ms")
    print(f"ratio   : {overhead:.4f}x (budget {MAX_OVERHEAD_RATIO}x)")
    raise SystemExit(0 if overhead < MAX_OVERHEAD_RATIO else 1)
