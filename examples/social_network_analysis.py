"""Social-network analysis: find tightly-knit groups with pattern queries.

The paper motivates graph pattern matching with social-network analysis
(Section 1).  This example builds a synthetic follower graph with planted
communities and uses the library end to end:

* ``cycle3`` (mutual-follow triangles) and ``clique4`` (4-person cliques)
  locate tightly-knit groups;
* ``path4`` finds influence chains (A follows B follows C follows D);
* the worst-case-optimal engines are compared against the traditional
  pairwise approach to show the intermediate-result explosion the paper's
  Appendix A quantifies;
* the TrieJax accelerator model reports how the same workload behaves in
  hardware.

Run with::

    python examples/social_network_analysis.py
"""

from collections import Counter

from repro.core import TrieJaxAccelerator
from repro.eval import format_table
from repro.graphs import community_graph, graph_database, pattern_query
from repro.joins import CachedTrieJoin, PairwiseJoin


def busiest_members(tuples, top: int = 5):
    """Vertices that appear in the most pattern embeddings."""
    counter = Counter()
    for row in tuples:
        counter.update(set(row))
    return counter.most_common(top)


def main() -> None:
    # A follower graph with strong communities: 200 users, 800 follow edges.
    graph = community_graph(200, 800, seed=2020, num_communities=10)
    database = graph_database(graph)
    print(f"social graph: {graph.num_vertices} users, {graph.num_edges} follow edges")

    ctj = CachedTrieJoin()
    pairwise = PairwiseJoin("hash")
    accelerator = TrieJaxAccelerator(dataset_name="social")

    rows = []
    for name, description in [
        ("cycle3", "mutual-follow triangles"),
        ("clique4", "4-person cliques"),
        ("path4", "influence chains of length 3"),
    ]:
        query = pattern_query(name)
        wcoj_result = ctj.execute(query, database)
        pairwise_result = pairwise.execute(query, database)
        accelerated = accelerator.execute(query, database)
        assert set(accelerated.tuples) == set(wcoj_result.tuples)
        rows.append(
            (
                name,
                description,
                wcoj_result.cardinality,
                wcoj_result.stats.intermediate_results,
                pairwise_result.stats.intermediate_results,
                accelerated.report.total_cycles,
                f"{accelerated.report.runtime_ns / 1e3:.1f}",
            )
        )

    print()
    print(
        format_table(
            (
                "query",
                "meaning",
                "matches",
                "CTJ intermediates",
                "pairwise intermediates",
                "TrieJax cycles",
                "TrieJax us",
            ),
            rows,
            title="Pattern matching on the social graph",
        )
    )

    # Who sits in the most triangles?  (A cheap centrality-like signal.)
    triangles = ctj.execute(pattern_query("cycle3"), database)
    print("\nusers appearing in the most mutual-follow triangles:")
    for user, count in busiest_members(triangles.tuples):
        print(f"  user {user:4d}: {count} triangles")

    # Show what the accelerator's cache did for the chain query.
    chain = accelerator.execute(pattern_query("path4"), database)
    pjr = chain.report.pjr
    print(
        f"\npath4 on TrieJax: PJR cache served {pjr.hits}/{pjr.lookups} lookups "
        f"({pjr.hit_rate:.0%}), replaying {pjr.values_replayed} cached partial joins"
    )


if __name__ == "__main__":
    main()
