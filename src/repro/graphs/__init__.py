"""Graph substrate: graphs, workload datasets and pattern queries.

This package supplies the workloads of the paper's evaluation:

* :class:`~repro.graphs.graph.Graph` — directed graphs and their conversion
  to adjacency-list edge relations.
* :mod:`~repro.graphs.patterns` — the five Table 1 pattern queries.
* :mod:`~repro.graphs.datasets` — the six Table 2 datasets (synthetic
  stand-ins generated at a configurable scale).
* :mod:`~repro.graphs.generators` — the underlying deterministic generators.
* :mod:`~repro.graphs.loader` — SNAP edge-list I/O for users with real data.
"""

from repro.graphs.graph import Graph
from repro.graphs.generators import (
    uniform_random_graph,
    preferential_attachment_graph,
    community_graph,
)
from repro.graphs.datasets import (
    DatasetSpec,
    DATASET_SPECS,
    DATASET_NAMES,
    dataset_spec,
    load_dataset,
    table2_rows,
)
from repro.graphs.patterns import (
    PATTERN_NAMES,
    EXTRA_PATTERN_NAMES,
    pattern_query,
    table1_rows,
)
from repro.graphs.loader import (
    EdgeListFormatError,
    iter_snap_edges,
    load_snap_edge_list,
    write_snap_edge_list,
    graph_database,
)

__all__ = [
    "Graph",
    "uniform_random_graph",
    "preferential_attachment_graph",
    "community_graph",
    "DatasetSpec",
    "DATASET_SPECS",
    "DATASET_NAMES",
    "dataset_spec",
    "load_dataset",
    "table2_rows",
    "PATTERN_NAMES",
    "EXTRA_PATTERN_NAMES",
    "pattern_query",
    "table1_rows",
    "EdgeListFormatError",
    "iter_snap_edges",
    "load_snap_edge_list",
    "write_snap_edge_list",
    "graph_database",
]
