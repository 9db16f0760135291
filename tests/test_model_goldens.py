"""The TrieJax model replays its committed run goldens exactly.

``tests/data/model_goldens.json`` holds, over the five Table 1 patterns on
grqc at scale 0.005 and a grid of twelve model configurations (one, four and
32 hardware threads, every multithreading scheme, the PJR cache on and off,
count-only aggregation, and a tiny PJR cache that overflows, rejects and
evicts), per case: a checksum of the output rows in order, ``count``,
``cost``, ``RunReport.as_dict()`` and the scheduler counters ``as_dict()``
leaves out (operations per component and per tag, spawns, tasks, memory
latency totals and every hardware thread's ``ThreadStats``).  Any shift in
the model's operation stream — one probe, one address, one spawn — moves at
least one of these numbers.

To re-capture after an intended model change::

    PYTHONPATH=src:tests python -c "import test_model_goldens as t; t.write_goldens()"

``capture(dataset, scale)`` runs the same grid on any other dataset (the
gnu04 grid at scale 0.01 is the slower cross-check).
"""

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.core import TrieJaxAccelerator, TrieJaxConfig
from repro.graphs import PATTERN_NAMES, graph_database, load_dataset, pattern_query

GOLDENS = Path(__file__).parent / "data" / "model_goldens.json"
DATASET, SCALE = "grqc", 0.005


def grid_configs():
    """``label -> (config, aggregate)`` for every model configuration of the grid."""
    base = TrieJaxConfig()
    configs = {}
    for label, threaded in (
        ("t1", base.with_threads(1)),
        ("t4-hybrid", base.with_threads(4, mt_scheme="hybrid")),
        ("t32-static", base.with_threads(32, mt_scheme="static")),
        ("t32-dynamic", base.with_threads(32, mt_scheme="dynamic")),
        ("t32-hybrid", base.with_threads(32, mt_scheme="hybrid")),
    ):
        configs[f"{label}/pjr"] = (threaded, None)
        configs[f"{label}/no-pjr"] = (threaded.without_pjr_cache(), None)
    configs["count"] = (base, "count")
    configs["tiny-pjr"] = (
        dataclasses.replace(base, pjr_size_bytes=256, pjr_entry_capacity_values=4),
        None,
    )
    return configs


def record(execution):
    scheduler = execution.report.scheduler
    return {
        "checksum": hashlib.sha256(repr(list(execution.tuples)).encode()).hexdigest(),
        "count": execution.count,
        "cost": execution.cost,
        "report": execution.report.as_dict(),
        "scheduler": {
            "operations_executed": scheduler.operations_executed,
            "operations_by_tag": dict(scheduler.operations_by_tag),
            "component_operations": dict(scheduler.component_operations),
            "spawn_requests": scheduler.spawn_requests,
            "spawns_granted": scheduler.spawns_granted,
            "tasks_executed": scheduler.tasks_executed,
            "memory_read_latency_cycles": scheduler.memory_read_latency_cycles,
            "memory_write_latency_cycles": scheduler.memory_write_latency_cycles,
            "thread_stats": {
                str(slot): dataclasses.asdict(stats)
                for slot, stats in scheduler.thread_stats.items()
            },
        },
    }


def capture(dataset=DATASET, scale=SCALE):
    database = graph_database(load_dataset(dataset, scale=scale))
    cases = {}
    for label, (config, aggregate) in grid_configs().items():
        engine = TrieJaxAccelerator(config, aggregate=aggregate)
        for pattern in PATTERN_NAMES:
            cases[f"{label}/{pattern}"] = record(engine.execute(pattern_query(pattern), database))
    return {"dataset": dataset, "scale": scale, "cases": cases}


def render(grid):
    return json.dumps(grid, indent=1, sort_keys=True)


def write_goldens():
    GOLDENS.write_text(render(capture()))


def test_model_grid_matches_the_goldens_exactly():
    grid = capture()
    rendered = render(grid)
    golden = json.loads(GOLDENS.read_text())["cases"]
    replayed = json.loads(rendered)["cases"]
    assert sorted(replayed) == sorted(golden)
    for label, expected in golden.items():
        assert replayed[label] == expected, label
    assert rendered == GOLDENS.read_text()
