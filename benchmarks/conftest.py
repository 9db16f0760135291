"""Shared configuration for the benchmark harness.

Every figure/table of the paper has one benchmark module in this directory.
The heavyweight sweeps (Figures 13, 15, 16, 17 all iterate the same
query x dataset grid) share a single session-scoped
:class:`~repro.eval.harness.ExperimentContext`, so each TrieJax simulation and
each baseline estimate is executed once per session and reused across
benchmarks.

Environment knobs:

``REPRO_BENCH_SCALE``
    Fraction of the Table 2 dataset sizes to generate (default ``0.01``).
    Larger scales sharpen the intermediate-result gaps (they grow with
    dataset size) at the cost of longer simulations.  The Table 2 dataset
    stand-ins are seeded per-dataset by ``repro.graphs.datasets``, so every
    benchmark input is reproducible run-to-run.
"""

import os

import pytest

from repro.core import TrieJaxConfig
from repro.eval import ExperimentContext

#: Dataset scale used by the benchmark harness (see module docstring).
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.01"))


@pytest.fixture(scope="session")
def eval_context() -> ExperimentContext:
    """The shared full-grid evaluation context (all queries, all datasets)."""
    return ExperimentContext(scale=BENCH_SCALE, triejax_config=TrieJaxConfig())


@pytest.fixture(scope="session")
def small_context() -> ExperimentContext:
    """A reduced context for sweeps that re-simulate many configurations."""
    return ExperimentContext(
        scale=min(BENCH_SCALE, 0.008),
        datasets=("bitcoin", "grqc"),
        queries=("path3", "cycle3", "cycle4"),
        triejax_config=TrieJaxConfig(),
    )


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments are full sweeps (seconds to minutes), so the default
    benchmark calibration (many rounds) would be prohibitive; a single timed
    round still records the runtime alongside the experiment's outputs.
    """

    def runner(function, *args, **kwargs):
        return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
