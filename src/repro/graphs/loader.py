"""SNAP edge-list I/O.

The Stanford SNAP collection distributes graphs as whitespace-separated edge
lists with ``#`` comment lines.  This loader reads that format (and writes it
back), so users who *do* have the original ``ca-GrQc.txt`` etc. on disk can
run every experiment on the real data instead of the synthetic stand-ins:

>>> graph = load_snap_edge_list("/data/ca-GrQc.txt")   # doctest: +SKIP
>>> database = graph_database(graph)                    # doctest: +SKIP
"""

from __future__ import annotations

import os
from typing import Iterator, Tuple

from repro.graphs.graph import Graph
from repro.relational.catalog import Database


class EdgeListFormatError(ValueError):
    """Raised when an edge-list line cannot be parsed."""


def iter_snap_edges(path: str) -> Iterator[Tuple[int, int]]:
    """Yield ``(source, target)`` pairs from a SNAP-format edge list file."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"edge list file not found: {path}")
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#") or stripped.startswith("%"):
                continue
            parts = stripped.split()
            if len(parts) < 2:
                raise EdgeListFormatError(
                    f"{path}:{line_number}: expected at least two columns, got {stripped!r}"
                )
            try:
                source, target = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise EdgeListFormatError(
                    f"{path}:{line_number}: non-integer vertex id in {stripped!r}"
                ) from exc
            yield source, target


def load_snap_edge_list(path: str, name: str | None = None) -> Graph:
    """Load a SNAP edge-list file into a :class:`~repro.graphs.graph.Graph`."""
    graph_name = name or os.path.splitext(os.path.basename(path))[0]
    graph = Graph(graph_name)
    graph.add_edges(iter_snap_edges(path))
    return graph


def write_snap_edge_list(graph: Graph, path: str, header: bool = True) -> int:
    """Write ``graph`` in SNAP edge-list format; return the number of edges written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            handle.write(f"# Directed graph: {graph.name}\n")
            handle.write(f"# Nodes: {graph.num_vertices} Edges: {graph.num_edges}\n")
            handle.write("# FromNodeId\tToNodeId\n")
        for source, target in graph.edges():
            handle.write(f"{source}\t{target}\n")
            count += 1
    return count


def graph_database(
    graph: Graph,
    edge_relation: str = "E",
    database_name: str | None = None,
) -> Database:
    """Wrap a graph in a single-relation :class:`~repro.relational.catalog.Database`.

    Every engine and the accelerator run against a database; for graph
    pattern matching that database holds just the edge relation.
    """
    database = Database(database_name or graph.name)
    database.add_relation(graph.to_relation(edge_relation))
    return database
