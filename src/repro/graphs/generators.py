"""Deterministic synthetic graph generators.

The paper evaluates on six SNAP datasets (Table 2).  SNAP downloads are not
available in this offline reproduction, so each dataset is replaced by a
synthetic graph that matches its node count, edge count and category-level
degree skew (see DESIGN.md, substitution table).  Three generator families
cover the categories that appear in Table 2:

``preferential_attachment_graph``
    Power-law out-degree graphs for the social / collaboration / bitcoin
    categories (facebook, wiki, grqc, bitcoin), where a small set of hub
    vertices owns a large share of the edges.

``uniform_random_graph``
    Erdős–Rényi-style graphs for the peer-to-peer categories (gnu04, gnu31),
    whose degree distributions are comparatively flat.

``community_graph``
    A planted-partition generator (dense intra-community, sparse
    inter-community) used by the examples to emulate social communities and
    by tests that need graphs with many triangles/cliques.

All generators take an explicit seed and are fully deterministic.
"""

from __future__ import annotations

from typing import List

from repro.graphs.graph import Graph
from repro.util.rng import DeterministicRNG
from repro.util.validation import check_non_negative, check_positive


def _target_edge_budget(num_nodes: int, num_edges: int) -> None:
    check_positive("num_nodes", num_nodes)
    check_non_negative("num_edges", num_edges)
    max_edges = num_nodes * num_nodes
    if num_edges > max_edges:
        raise ValueError(
            f"cannot place {num_edges} distinct directed edges in a graph with "
            f"{num_nodes} nodes (maximum {max_edges})"
        )


def uniform_random_graph(num_nodes: int, num_edges: int, seed: int, name: str = "uniform") -> Graph:
    """Directed Erdős–Rényi-style graph with exactly ``num_edges`` distinct edges."""
    _target_edge_budget(num_nodes, num_edges)
    rng = DeterministicRNG(seed)
    graph = Graph(name)
    for vertex in range(num_nodes):
        graph.add_vertex(vertex)
    attempts = 0
    max_attempts = 50 * max(num_edges, 1) + 1000
    while graph.num_edges < num_edges and attempts < max_attempts:
        source = rng.randint(0, num_nodes - 1)
        target = rng.randint(0, num_nodes - 1)
        graph.add_edge(source, target)
        attempts += 1
    _fill_remaining(graph, num_nodes, num_edges)
    return graph


def preferential_attachment_graph(
    num_nodes: int,
    num_edges: int,
    seed: int,
    skew: float = 1.1,
    name: str = "powerlaw",
) -> Graph:
    """Power-law graph: edge endpoints drawn with Zipf-like vertex popularity.

    ``skew`` controls the heaviness of the tail; values slightly above 1 give
    the strong hubs typical of social graphs.  Edge sources are drawn closer
    to uniform than targets so that out-degrees are moderately skewed and
    in-degrees heavily skewed, which is the shape of follower-style graphs.
    """
    _target_edge_budget(num_nodes, num_edges)
    check_positive("skew", skew)
    rng = DeterministicRNG(seed)
    graph = Graph(name)
    for vertex in range(num_nodes):
        graph.add_vertex(vertex)

    # Pre-compute a popularity permutation so that hub ids are scattered over
    # the id space rather than clustered at 0, which better matches real data
    # and avoids artificially good trie locality.
    popularity = list(range(num_nodes))
    rng.shuffle(popularity)

    attempts = 0
    max_attempts = 80 * max(num_edges, 1) + 1000
    while graph.num_edges < num_edges and attempts < max_attempts:
        source_rank = rng.zipf_value(num_nodes, skew * 2.0) - 1
        target_rank = rng.zipf_value(num_nodes, skew) - 1
        source = popularity[source_rank % num_nodes]
        target = popularity[target_rank % num_nodes]
        graph.add_edge(source, target)
        attempts += 1
    _fill_remaining(graph, num_nodes, num_edges)
    return graph


def community_graph(
    num_nodes: int,
    num_edges: int,
    seed: int,
    num_communities: int = 8,
    intra_probability: float = 0.8,
    name: str = "community",
) -> Graph:
    """Planted-partition graph: most edges stay within a community.

    Communities produce an abundance of short cycles and small cliques, which
    makes this generator the workload of choice for the clique4/cycle4
    examples and for tests that need non-trivial pattern counts.
    """
    _target_edge_budget(num_nodes, num_edges)
    check_positive("num_communities", num_communities)
    if not (0.0 <= intra_probability <= 1.0):
        raise ValueError("intra_probability must be in [0, 1]")
    rng = DeterministicRNG(seed)
    graph = Graph(name)
    for vertex in range(num_nodes):
        graph.add_vertex(vertex)
    community_of = [rng.randint(0, num_communities - 1) for _ in range(num_nodes)]
    members: List[List[int]] = [[] for _ in range(num_communities)]
    for vertex, community in enumerate(community_of):
        members[community].append(vertex)

    attempts = 0
    max_attempts = 80 * max(num_edges, 1) + 1000
    while graph.num_edges < num_edges and attempts < max_attempts:
        source = rng.randint(0, num_nodes - 1)
        same_community = rng.random() < intra_probability
        candidates = members[community_of[source]] if same_community else None
        if candidates and len(candidates) > 1:
            target = rng.choice(candidates)
        else:
            target = rng.randint(0, num_nodes - 1)
        graph.add_edge(source, target)
        attempts += 1
    _fill_remaining(graph, num_nodes, num_edges)
    return graph


def _fill_remaining(graph: Graph, num_nodes: int, num_edges: int) -> None:
    """Deterministically top up a graph that random sampling left short.

    Random sampling with rejection can stall near saturation; this fallback
    sweeps the adjacency matrix in a fixed order so generators always deliver
    exactly the requested edge count.
    """
    if graph.num_edges >= num_edges:
        return
    for source in range(num_nodes):
        for offset in range(1, num_nodes + 1):
            target = (source + offset) % num_nodes
            if graph.num_edges >= num_edges:
                return
            graph.add_edge(source, target)
    # Saturated every possible edge (including self loops) and still short --
    # only possible if the caller asked for more edges than fit, which the
    # budget check rejects up front.
