"""Every engine's ``execute`` replays the committed execution goldens.

``tests/data/engine_execution_goldens.json`` holds, for each registry engine
plus the count-only TrieJax model and the sort-merge pairwise engine (Q100's
engine), over the five Table 1 patterns on grqc at scale 0.005: a checksum
of the output rows in order, ``cost``, ``plan_used``, ``cacheable``,
``count``, the ``JoinStats`` counters and, for the model, the full run
report.  Each case hands the engine the default-compiled CTJ plan; the
``/own-plan`` cases let the plan-kernel engines compile their own.  The
goldens were captured before the join algorithms and the TrieJax model
implemented the engine interface themselves (through wrapping adapter
classes), so any drift in rows, costs or counters fails here.

To re-capture after an intended behaviour change::

    PYTHONPATH=src:tests python -c "import test_engine_goldens as t; t.write_goldens()"
"""

import hashlib
import json
from pathlib import Path

from repro.core import TrieJaxAccelerator
from repro.engines import create_engine
from repro.graphs import PATTERN_NAMES, graph_database, load_dataset, pattern_query
from repro.joins import PairwiseJoin, QueryCompiler

GOLDENS = Path(__file__).parent / "data" / "engine_execution_goldens.json"
DATASET, SCALE = "grqc", 0.005
REGISTRY_ENGINES = ("naive", "lftj", "ctj", "generic", "pairwise", "triejax")
OWN_PLAN_ENGINES = ("lftj", "ctj", "generic")


def grid_engines():
    """The engines of the grid, by golden label."""
    engines = {name: create_engine(name) for name in REGISTRY_ENGINES}
    engines["triejax/count"] = TrieJaxAccelerator(aggregate="count")
    engines["pairwise/sort_merge"] = PairwiseJoin("sort_merge")
    return engines


def record(execution):
    entry = {
        "rows": len(execution.tuples),
        "checksum": hashlib.sha256(repr(list(execution.tuples)).encode()).hexdigest(),
        "cost": execution.cost,
        "plan_used": execution.plan_used,
        "cacheable": execution.cacheable,
        "count": execution.count,
        "stats": execution.stats.as_dict() if execution.stats is not None else None,
    }
    if execution.report is not None:
        entry["report"] = execution.report.as_dict()
    return entry


def capture():
    database = graph_database(load_dataset(DATASET, scale=SCALE))
    cases = {}
    for label, engine in grid_engines().items():
        for pattern in PATTERN_NAMES:
            query = pattern_query(pattern)
            plan = QueryCompiler().compile(query)
            cases[f"{label}/{pattern}"] = record(engine.execute(query, database, plan=plan))
            if label in OWN_PLAN_ENGINES:
                cases[f"{label}/{pattern}/own-plan"] = record(engine.execute(query, database))
    return {"dataset": DATASET, "scale": SCALE, "cases": cases}


def write_goldens():
    GOLDENS.write_text(json.dumps(capture(), indent=1, sort_keys=True))


def test_grid_matches_the_goldens_exactly():
    # Through JSON, so floats and tuples compare as the committed file holds them.
    replayed = json.loads(json.dumps(capture()))["cases"]
    golden = json.loads(GOLDENS.read_text())["cases"]
    assert sorted(replayed) == sorted(golden)
    for label, expected in golden.items():
        assert replayed[label] == expected, label
