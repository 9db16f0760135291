"""The benchmark's corpus ledger: committed inputs, their hashes, goldens.

``data/MANIFEST.json`` pins, for each committed edge list, its SHA-256 and
node/edge counts and where it came from, and the golden results of every
statement the workloads run on it: row count, an order-independent row
checksum, the ``JoinStats`` counters per (statement, engine), and the
simulator's exact counts.  ``python perf/run.py --repin`` rebuilds it from
the committed edge files.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterable, List, Sequence

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
MANIFEST_PATH = os.path.join(DATA_DIR, "MANIFEST.json")

ENGINES = ("lftj", "ctj")
#: Statements each committed graph is queried with (union over workloads).
DATASET_PATTERNS = {
    "grqc": ("cycle3", "path3", "clique4", "cycle4"),
    "gnu04": ("cycle3", "clique4"),
}
#: The one simulated run: the TrieJax model on (dataset, pattern).
SIM_RUN = ("grqc", "cycle3")
#: Where the committed files came from (facts about the files, not code
#: that runs): ``load_dataset(name, 1.0)`` at the commit that added them.
PROVENANCE = {
    "grqc": {"generator": "preferential_attachment_graph(skew=1.3)", "generator_seed": 452024},
    "gnu04": {"generator": "uniform_random_graph", "generator_seed": 452022},
}

_MASK = (1 << 64) - 1


def data_path(dataset: str) -> str:
    return os.path.join(DATA_DIR, f"{dataset}.txt")


def file_sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def row_checksum(rows: Iterable[Sequence[int]]) -> int:
    """Order-independent 64-bit checksum of a set of integer rows.

    Plain arithmetic (no ``hash()``), so the pinned values do not depend on
    the interpreter's tuple hash.
    """
    total = 0
    for row in rows:
        value = len(row)
        for item in row:
            value = (value * 1000003 + item + 1) & _MASK
        total += value
    return total & _MASK


def load_manifest() -> dict:
    with open(MANIFEST_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def verify_files(manifest: dict) -> List[str]:
    """Mismatches between the committed edge files and the manifest."""
    problems = []
    for dataset, entry in sorted(manifest["files"].items()):
        actual = file_sha256(data_path(dataset))
        if actual != entry["sha256"]:
            problems.append(
                f"{dataset}.txt sha256 {actual} != manifest {entry['sha256']}"
            )
    return problems


def sim_counts(report) -> Dict[str, float]:
    """The exact simulated-hardware counts of a TrieJax ``RunReport``."""
    return {
        "cycles": report.total_cycles,
        "dram_accesses": report.dram_accesses,
        "energy_nj": report.total_energy_nj,
    }


def compute_manifest() -> dict:
    """Recompute the whole manifest from the committed edge files."""
    import repro.api  # noqa: F401  (must precede repro.service, see README)
    from repro.api import Session, create_engine
    from repro.graphs.loader import graph_database, load_snap_edge_list
    from repro.graphs.patterns import pattern_query

    files: Dict[str, dict] = {}
    goldens: Dict[str, dict] = {}
    databases = {}
    for dataset, patterns in DATASET_PATTERNS.items():
        graph = load_snap_edge_list(data_path(dataset))
        files[dataset] = {
            "file": f"{dataset}.txt",
            "sha256": file_sha256(data_path(dataset)),
            "nodes": graph.num_vertices,
            "edges": graph.num_edges,
            **PROVENANCE[dataset],
        }
        database = databases[dataset] = graph_database(graph)
        session = Session(database, engines=list(ENGINES), result_cache_capacity=1)
        statements: Dict[str, dict] = {}
        stats: Dict[str, dict] = {}
        for engine in ENGINES:
            for pattern in patterns:
                result = session.execute(pattern, route=engine)
                summary = {
                    "rows": len(result.tuples),
                    "checksum": row_checksum(result.tuples),
                }
                if statements.setdefault(pattern, summary) != summary:
                    raise SystemExit(
                        f"{dataset}/{pattern}: {engine} disagrees with {ENGINES[0]}"
                    )
                stats[f"{pattern}/{engine}"] = result.stats.as_dict()
        goldens[dataset] = {"statements": statements, "join_stats": stats}
    dataset, pattern = SIM_RUN
    execution = create_engine("triejax").execute(
        pattern_query(pattern), databases[dataset]
    )
    goldens["sim"] = {
        "dataset": dataset,
        "pattern": pattern,
        "rows": len(execution.tuples),
        **sim_counts(execution.report),
    }
    return {"files": files, "goldens": goldens}


def repin(force: bool) -> int:
    """Rewrite the manifest; refuse to change a pinned golden without ``force``."""
    fresh = compute_manifest()
    if os.path.exists(MANIFEST_PATH) and not force:
        pinned = load_manifest()
        if pinned.get("goldens") not in (None, fresh["goldens"]):
            print(
                "repin: recomputed goldens differ from the pinned ones; the "
                "answers or the counters changed.  Re-run with --force to "
                "overwrite."
            )
            return 1
    with open(MANIFEST_PATH, "w", encoding="utf-8") as handle:
        json.dump(fresh, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"repin: wrote {MANIFEST_PATH}")
    return 0
