"""Directed graphs and their relational representation.

The paper represents a graph as an adjacency-list relation: one binary tuple
per directed edge (Section 2.1).  :class:`Graph` is a small dedicated graph
type used by the dataset generators, the loaders and the Graphicionado
baseline model (which is vertex-programming based and therefore wants
adjacency lists rather than tries); :meth:`Graph.to_relation` converts it to
the edge relation every join engine consumes.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from repro.relational.relation import Relation
from repro.relational.schema import Schema


class Graph:
    """A simple directed graph over integer vertex ids.

    Self-loops are allowed (some SNAP graphs contain them); parallel edges are
    collapsed, matching the set semantics of the edge relation.
    """

    def __init__(self, name: str = "graph"):
        self.name = name
        self._out: Dict[int, Set[int]] = {}
        self._in: Dict[int, Set[int]] = {}
        self._num_edges = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_vertex(self, vertex: int) -> None:
        """Ensure ``vertex`` exists (possibly with no incident edges)."""
        self._out.setdefault(int(vertex), set())
        self._in.setdefault(int(vertex), set())

    def add_edge(self, source: int, target: int) -> bool:
        """Add the directed edge ``source -> target``; return True if new."""
        source, target = int(source), int(target)
        self.add_vertex(source)
        self.add_vertex(target)
        if target in self._out[source]:
            return False
        self._out[source].add(target)
        self._in[target].add(source)
        self._num_edges += 1
        return True

    def add_edges(self, edges: Iterable[Tuple[int, int]]) -> int:
        """Add many edges; return the number actually inserted."""
        added = 0
        for source, target in edges:
            if self.add_edge(source, target):
                added += 1
        return added

    @classmethod
    def from_edges(cls, edges: Iterable[Tuple[int, int]], name: str = "graph") -> "Graph":
        graph = cls(name)
        graph.add_edges(edges)
        return graph

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        return len(self._out)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def vertices(self) -> List[int]:
        """Sorted vertex ids."""
        return sorted(self._out)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """All edges in sorted order."""
        for source in sorted(self._out):
            for target in sorted(self._out[source]):
                yield (source, target)

    def has_edge(self, source: int, target: int) -> bool:
        return source in self._out and target in self._out[source]

    def successors(self, vertex: int) -> List[int]:
        """Sorted out-neighbours of ``vertex``."""
        return sorted(self._out.get(vertex, ()))

    def predecessors(self, vertex: int) -> List[int]:
        """Sorted in-neighbours of ``vertex``."""
        return sorted(self._in.get(vertex, ()))

    def out_degree(self, vertex: int) -> int:
        return len(self._out.get(vertex, ()))

    def in_degree(self, vertex: int) -> int:
        return len(self._in.get(vertex, ()))

    def degree_statistics(self) -> Dict[str, float]:
        """Summary statistics used to validate synthetic datasets.

        Returns max/mean out-degree and the fraction of edges owned by the
        top 10% highest-degree vertices (a cheap skew measure).
        """
        if not self._out:
            return {"max_out_degree": 0.0, "mean_out_degree": 0.0, "top10_edge_share": 0.0}
        degrees = sorted((len(targets) for targets in self._out.values()), reverse=True)
        top_count = max(1, len(degrees) // 10)
        top_edges = sum(degrees[:top_count])
        total_edges = sum(degrees)
        return {
            "max_out_degree": float(degrees[0]),
            "mean_out_degree": total_edges / len(degrees),
            "top10_edge_share": (top_edges / total_edges) if total_edges else 0.0,
        }

    # ------------------------------------------------------------------ #
    # Conversion
    # ------------------------------------------------------------------ #
    def to_relation(
        self, name: str = "E", source_attr: str = "src", target_attr: str = "dst"
    ) -> Relation:
        """The adjacency-list relation representation (one row per edge)."""
        relation = Relation(name, Schema((source_attr, target_attr)))
        relation.insert_many(self.edges())
        return relation

    def undirected_closure(self) -> "Graph":
        """Return a graph with every edge mirrored.

        The paper's pattern queries are evaluated over directed edge
        relations; callers that want undirected semantics (e.g. the worked
        examples) symmetrise first with this helper.
        """
        closure = Graph(f"{self.name}_sym")
        for source, target in self.edges():
            closure.add_edge(source, target)
            closure.add_edge(target, source)
        return closure

    def subgraph(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph on ``vertices`` (used to scale datasets down)."""
        keep = set(int(v) for v in vertices)
        sub = Graph(f"{self.name}_sub")
        for vertex in keep:
            if vertex in self._out:
                sub.add_vertex(vertex)
        for source, target in self.edges():
            if source in keep and target in keep:
                sub.add_edge(source, target)
        return sub
