"""Perf guard: a disabled tracer must not tax the join hot path.

The observability layer's contract (see ``src/repro/obs/trace.py``) is
*zero overhead when off*: every instrumentation site in the serving stack
is guarded by ``if tracer.enabled`` and the engine inner loops are never
instrumented at all, so running with the :data:`~repro.obs.NULL_TRACER`
must cost nothing measurable on the kernel hot path.

This module pins that contract with a min-of-N timing comparison on the
``repro bench kernels`` cycle3 workload: the bare engine run against the same
run behind the exact guard pattern the serving layer uses.  Min-of-N
de-noises scheduler jitter; the assertion allows 2% slack
(:data:`MAX_OVERHEAD_RATIO`), two orders of magnitude above the true cost
of an attribute check but tight enough to catch anyone accidentally
instrumenting the inner loops.

Run directly (``python benchmarks/bench_obs_overhead.py``) or via pytest.
"""

import time

from repro.graphs import graph_database, load_dataset, pattern_query
from repro.joins import LeapfrogTrieJoin
from repro.obs import NULL_TRACER

#: Allowed slowdown of the guarded run over the bare run (min-of-N).
MAX_OVERHEAD_RATIO = 1.02

#: Engine runs per timing sample — sized so one sample is tens of ms,
#: large relative to timer granularity and scheduling noise.
ITERATIONS = 20

#: Timing samples per variant; only the minimum of each is compared.
REPEATS = 7


def _bare_pass(engine, query, database):
    for _ in range(ITERATIONS):
        engine.run(query, database)


def _guarded_pass(engine, query, database, tracer=NULL_TRACER):
    # The exact shape of the serving layer's instrumentation sites: one
    # truthiness check on tracer.enabled per query, nothing in the loop.
    for _ in range(ITERATIONS):
        if tracer.enabled:  # pragma: no cover - NULL_TRACER is always off
            raise AssertionError("NULL_TRACER must report enabled=False")
        engine.run(query, database)


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def measure_overhead(scale=0.01):
    """Return ``(bare_s, guarded_s, ratio)`` for the cycle3 hot path.

    Samples of the two variants are interleaved (bare, guarded, bare, ...)
    so slow drift — thermal throttling, background load ramping up — hits
    both variants equally instead of biasing whichever ran second.
    """
    database = graph_database(load_dataset("bitcoin", scale=scale))
    query = pattern_query("cycle3")
    engine = LeapfrogTrieJoin()
    # Warm-up: build tries/plan caches outside the timed region.
    engine.run(query, database)
    bare = guarded = float("inf")
    for _ in range(REPEATS):
        bare = min(bare, _timed(_bare_pass, engine, query, database))
        guarded = min(guarded, _timed(_guarded_pass, engine, query, database))
    return bare, guarded, guarded / bare


def test_noop_tracer_overhead_cycle3():
    """Disabled-tracer guard adds <2% to the cycle3 kernel (min-of-N)."""
    bare, guarded, ratio = measure_overhead()
    assert ratio < MAX_OVERHEAD_RATIO, (
        f"no-op tracer guard cost {ratio:.4f}x on cycle3 "
        f"(bare {bare * 1e3:.2f} ms, guarded {guarded * 1e3:.2f} ms); "
        f"the zero-overhead-when-off contract allows < {MAX_OVERHEAD_RATIO}x"
    )


if __name__ == "__main__":
    bare_s, guarded_s, overhead = measure_overhead()
    print(f"bare    : {bare_s * 1e3:8.3f} ms (min of {REPEATS} x {ITERATIONS} runs)")
    print(f"guarded : {guarded_s * 1e3:8.3f} ms")
    print(f"ratio   : {overhead:.4f}x (budget {MAX_OVERHEAD_RATIO}x)")
    raise SystemExit(0 if overhead < MAX_OVERHEAD_RATIO else 1)
