"""Hot-path kernel microbenchmarks.

Unlike the figure benchmarks (which regenerate the paper's experiments), this
suite times the library's computational building blocks in isolation — the
costs every query funnels through regardless of the serving/routing/sharding
layers above:

* **trie build** — flat EmptyHeaded-layout construction from a relation
  (single sort + one linear pass);
* **probe kernels** — full-window binary LUB versus galloping LUB over a
  leapfrog-like ascending probe sequence, with actual probe counts.  This
  pass is the probe-*count* reference (how many elements each scheme
  compares); it is no longer the engines' search, which is one C-level
  ``bisect_left`` per seek inside the generated depth kernel of
  :mod:`repro.joins.leapfrog`;
* **join kernels** — triangle (``cycle3``) and path (``path3``) enumeration
  per software engine, with cross-engine result-cardinality checks.

The suite is deterministic (every stochastic input derives from one seed,
``REPRO_BENCH_SEED`` by default), runs without pytest (see
``repro bench kernels``), and emits a JSON report whose committed form,
``BENCH_kernels.json``, is the repository's performance baseline: future PRs
rerun the suite and regress against it.

Timing uses best-of-N wall clock (min over ``repeats``), which is the usual
microbenchmark estimator for the noise floor of a shared machine.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Callable, Dict, List, Optional

from repro.graphs import graph_database, load_dataset, pattern_query
from repro.joins.ctj import CachedTrieJoin
from repro.joins.generic_join import GenericJoin
from repro.joins.leapfrog import LeapfrogTrieJoin
from repro.relational.relation import Relation
from repro.relational.trie import TrieIndex
from repro.util.rng import DeterministicRNG
from repro.util.sorted_ops import gallop, lowest_upper_bound

#: Dataset the kernel suite runs on (a seeded Table 2 stand-in).
KERNEL_DATASET = "bitcoin"

#: Default dataset scale: large enough that the join inner loops dominate
#: interpreter fixed costs, small enough to finish in seconds.
DEFAULT_KERNEL_SCALE = 0.05

#: Tiny scale used by ``--smoke`` (CI correctness gate, not timing-sensitive).
SMOKE_KERNEL_SCALE = 0.01

#: Engines timed on each pattern query.
KERNEL_ENGINES = ("lftj", "ctj", "generic_join")

#: Pattern queries enumerated per engine.
KERNEL_QUERIES = ("cycle3", "path3")

#: Size of the synthetic sorted array the probe kernels search.
PROBE_ARRAY_SIZE = 4096

#: Number of ascending probe targets issued per probe-kernel timing.
PROBE_SEQUENCE_LENGTH = 2048


def _best_of(function: Callable[[], object], repeats: int) -> float:
    """Best-of-N wall-clock seconds of ``function()``."""
    best = float("inf")
    for _ in range(max(repeats, 1)):
        started = time.perf_counter()
        function()
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
    return best


def _probe_inputs(seed: int) -> tuple:
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


def run_kernel_benchmarks(
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    repeats: int = 3,
    smoke: bool = False,
) -> Dict:
    """Run the kernel suite and return the JSON-serialisable report.

    Parameters
    ----------
    scale:
        Dataset scale; defaults to :data:`DEFAULT_KERNEL_SCALE`
        (:data:`SMOKE_KERNEL_SCALE` when ``smoke``).
    seed:
        RNG seed for the synthetic probe inputs; defaults to the
        ``REPRO_BENCH_SEED`` environment variable (or 2020).
    repeats:
        Best-of-N timing repeats (forced to 1 in smoke mode).
    smoke:
        Correctness-gate mode for CI: tiny scale, single repeat.  Timings are
        still reported but are not meaningful; the cross-engine checks are.
    """
    if seed is None:
        seed = int(os.environ.get("REPRO_BENCH_SEED", "2020"))
    if smoke:
        scale = SMOKE_KERNEL_SCALE if scale is None else scale
        repeats = 1
    elif scale is None:
        scale = DEFAULT_KERNEL_SCALE

    database = graph_database(load_dataset(KERNEL_DATASET, scale=scale))
    edge_relation = database.relation("E")
    kernels: Dict[str, Dict] = {}

    # Trie construction: rebuild from a fresh relation each round so the
    # permutation cache of the timed relation never short-circuits the sort.
    def build_trie() -> TrieIndex:
        fresh = Relation("E_bench", edge_relation.schema, edge_relation.sorted_rows())
        return TrieIndex(fresh)

    trie = build_trie()
    kernels["trie_build"] = {
        "seconds": _best_of(build_trie, repeats),
        "tuples": trie.num_tuples,
        "memory_words": trie.memory_words(),
    }

    values, targets = _probe_inputs(seed)
    binary_probes = _binary_probe_pass(values, targets)
    gallop_probes = _gallop_probe_pass(values, targets)
    kernels["lub_binary_probe"] = {
        "seconds": _best_of(lambda: _binary_probe_pass(values, targets), repeats),
        "probes": binary_probes,
    }
    kernels["lub_gallop_probe"] = {
        "seconds": _best_of(lambda: _gallop_probe_pass(values, targets), repeats),
        "probes": gallop_probes,
    }

    engines = {
        "lftj": LeapfrogTrieJoin(),
        "ctj": CachedTrieJoin(),
        "generic_join": GenericJoin(),
    }
    cardinalities: Dict[str, Dict[str, int]] = {}
    for query_name in KERNEL_QUERIES:
        query = pattern_query(query_name)
        cardinalities[query_name] = {}
        for engine_name in KERNEL_ENGINES:
            engine = engines[engine_name]
            result = engine.run(query, database)
            cardinalities[query_name][engine_name] = result.cardinality
            kernels[f"{engine_name}_{query_name}"] = {
                "seconds": _best_of(lambda e=engine, q=query: e.run(q, database), repeats),
                "results": result.cardinality,
                "lub_searches": result.stats.lub_searches,
                "index_element_reads": result.stats.index_element_reads,
            }

    checks = {
        "engines_agree": all(
            len(set(per_engine.values())) == 1 for per_engine in cardinalities.values()
        ),
        "gallop_probes_leq_binary": gallop_probes <= binary_probes,
        "cardinalities": cardinalities,
    }

    return {
        "meta": {
            "suite": "kernels",
            "dataset": KERNEL_DATASET,
            "scale": scale,
            "seed": seed,
            "repeats": repeats,
            "smoke": smoke,
            "edges": edge_relation.cardinality,
            "python": platform.python_version(),
        },
        "kernels": kernels,
        "checks": checks,
    }


def format_kernel_report(report: Dict) -> str:
    """Human-readable rendering of :func:`run_kernel_benchmarks` output."""
    meta = report["meta"]
    lines = [
        f"{meta.get('suite', 'kernels')} microbenchmarks — {meta['dataset']} scale {meta['scale']} "
        f"({meta['edges']} edges, seed {meta['seed']}, best of {meta['repeats']})"
    ]
    for name, payload in report["kernels"].items():
        detail = ", ".join(
            f"{key}={value}" for key, value in payload.items() if key != "seconds"
        )
        lines.append(f"  {name:<24s} {payload['seconds'] * 1e3:9.3f} ms  ({detail})")
    checks = report["checks"]
    rendered = " ".join(f"{name}={value}" for name, value in sorted(checks.items()))
    lines.append(f"  checks: {rendered}")
    return "\n".join(lines)


def write_kernel_report(report: Dict, path: str) -> None:
    """Write the report as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
