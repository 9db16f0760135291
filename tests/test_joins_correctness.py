"""Cross-engine correctness: every join engine must agree with the naive oracle.

This is the repository's central invariant (DESIGN.md, "Exactness checks
everywhere"): LFTJ, CTJ, Generic Join and the pairwise engines are all exact
algorithms for conjunctive queries, so on any database they must produce the
same set of answers as nested-loop evaluation.
"""

import pytest
from helpers import (
    deterministic_path,
    deterministic_star,
    edges_database,
    multi_relation_pattern_query,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    PATTERN_NAMES,
    graph_database,
    pattern_query,
)
from repro.joins import (
    CachedTrieJoin,
    GenericJoin,
    LeapfrogTrieJoin,
    NaiveJoin,
    PairwiseJoin,
)
from repro.relational import Atom, ConjunctiveQuery, Database, Relation, Schema

ALL_ENGINES = [
    LeapfrogTrieJoin(),
    CachedTrieJoin(),
    GenericJoin(),
    PairwiseJoin("hash"),
    PairwiseJoin("sort_merge"),
]


def assert_engines_agree(query, database):
    reference = set(NaiveJoin().execute(query, database).tuples)
    for engine in ALL_ENGINES:
        result = engine.execute(query, database)
        assert set(result.tuples) == reference, f"{engine.name} disagrees on {query.name}"
        assert len(result.tuples) == len(set(result.tuples)), f"{engine.name} duplicated"
        assert result.stats.output_tuples == result.cardinality
    return reference


class TestPatternQueriesOnFixtures:
    @pytest.mark.parametrize("query_name", PATTERN_NAMES)
    def test_community_graph(self, small_community_db, query_name):
        assert_engines_agree(pattern_query(query_name), small_community_db)

    @pytest.mark.parametrize("query_name", PATTERN_NAMES)
    def test_powerlaw_graph(self, small_powerlaw_db, query_name):
        assert_engines_agree(pattern_query(query_name), small_powerlaw_db)

    @pytest.mark.parametrize("query_name", ["path3", "cycle3", "clique4"])
    def test_uniform_graph(self, small_uniform_db, query_name):
        assert_engines_agree(pattern_query(query_name), small_uniform_db)


class TestKnownCounts:
    def test_triangles_in_complete_graph(self, tiny_clique_db):
        """K6 has 6*5*4 = 120 directed triangle embeddings."""
        reference = assert_engines_agree(pattern_query("cycle3"), tiny_clique_db)
        assert len(reference) == 120

    def test_clique4_in_complete_graph(self, tiny_clique_db):
        """K6 has 6*5*4*3 = 360 ordered 4-vertex subsets, each a directed 4-clique."""
        reference = assert_engines_agree(pattern_query("clique4"), tiny_clique_db)
        assert len(reference) == 360

    def test_cycle_graph_has_no_triangles(self, tiny_cycle_db):
        reference = assert_engines_agree(pattern_query("cycle3"), tiny_cycle_db)
        assert reference == set()

    def test_cycle4_on_directed_cycle(self):
        """A directed 4-cycle contains exactly 4 rotations of the cycle4 pattern."""
        database = graph_database(deterministic_path(1))  # placeholder replaced below
        database = edges_database([(0, 1), (1, 2), (2, 3), (3, 0)])
        reference = assert_engines_agree(pattern_query("cycle4"), database)
        assert len(reference) == 4

    def test_path3_on_directed_path(self):
        """Path graph 0->1->...->5 has exactly 4 paths of length 2."""
        database = graph_database(deterministic_path(6))
        reference = assert_engines_agree(pattern_query("path3"), database)
        assert len(reference) == 4

    def test_path4_count_on_star(self):
        """A star has no length-3 paths (centre has no incoming edges)."""
        database = graph_database(deterministic_star(5))
        reference = assert_engines_agree(pattern_query("path4"), database)
        assert reference == set()

    def test_path3_includes_back_and_forth_walks(self):
        """path3 is a walk query: 0->1->0 counts when both edges exist."""
        database = edges_database([(0, 1), (1, 0)])
        reference = assert_engines_agree(pattern_query("path3"), database)
        assert (0, 1, 0) in reference and (1, 0, 1) in reference


class TestMultiRelationQueries:
    def test_paper_figure2_path4_example(self):
        """The Figure 2 example: R, S, T are distinct relations; (1,2,...) paths."""
        database = Database("figure2")
        database.add_relation(
            Relation("R", Schema(("x", "y")), [(1, 1), (2, 2), (2, 3), (4, 4), (5, 5)])
        )
        database.add_relation(
            Relation("S", Schema(("y", "z")), [(1, 1), (1, 2), (1, 3), (2, 5), (2, 7)])
        )
        database.add_relation(
            Relation("T", Schema(("z", "w")), [(2, 5), (3, 4), (6, 9), (4, 7), (6, 7)])
        )
        query = multi_relation_pattern_query("path4")
        reference = assert_engines_agree(query, database)
        # The green-marked result from Figure 2: x=1, y=1, z=2, w=5.
        assert (1, 1, 2, 5) in reference

    def test_distinct_relation_cycle(self):
        database = Database("tri")
        database.add_relation(Relation("R", Schema(("a", "b")), [(0, 1), (1, 2)]))
        database.add_relation(Relation("S", Schema(("b", "c")), [(1, 2), (2, 0)]))
        database.add_relation(Relation("T", Schema(("c", "a")), [(2, 0), (0, 1)]))
        query = multi_relation_pattern_query("cycle3")
        reference = assert_engines_agree(query, database)
        assert (0, 1, 2) in reference

    def test_projection_query(self):
        """Non-full queries (head projects a subset) still agree across engines."""
        database = edges_database([(0, 1), (1, 2), (2, 3), (1, 3)])
        query = ConjunctiveQuery(
            "reachable_in_two", ("x", "z"), [Atom("E", ("x", "y")), Atom("E", ("y", "z"))]
        )
        assert_engines_agree(query, database)


class TestEdgeCases:
    def test_empty_relation_produces_empty_result(self):
        database = Database("empty")
        database.add_relation(Relation("E", Schema(("src", "dst"))))
        for query_name in ("path3", "cycle3"):
            reference = assert_engines_agree(pattern_query(query_name), database)
            assert reference == set()

    def test_single_edge(self):
        database = edges_database([(1, 2)])
        assert assert_engines_agree(pattern_query("path3"), database) == set()
        assert assert_engines_agree(pattern_query("cycle3"), database) == set()

    def test_self_loop_triangle(self):
        """A self loop (v, v) satisfies cycle3 as (v, v, v)."""
        database = edges_database([(5, 5)])
        reference = assert_engines_agree(pattern_query("cycle3"), database)
        assert reference == {(5, 5, 5)}


@st.composite
def random_edge_databases(draw):
    """Random small directed graphs (possibly with self loops)."""
    num_vertices = draw(st.integers(2, 9))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_vertices - 1), st.integers(0, num_vertices - 1)
            ),
            max_size=45,
        )
    )
    return edges_database(edges)


class TestPropertyBasedAgreement:
    @given(random_edge_databases(), st.sampled_from(sorted(PATTERN_NAMES)))
    @settings(max_examples=40, deadline=None)
    def test_wcoj_engines_match_oracle(self, database, query_name):
        query = pattern_query(query_name)
        reference = set(NaiveJoin().execute(query, database).tuples)
        for engine in (LeapfrogTrieJoin(), CachedTrieJoin(), GenericJoin()):
            assert set(engine.execute(query, database).tuples) == reference

    @given(random_edge_databases(), st.sampled_from(["path3", "cycle3", "cycle4"]))
    @settings(max_examples=25, deadline=None)
    def test_pairwise_engines_match_oracle(self, database, query_name):
        query = pattern_query(query_name)
        reference = set(NaiveJoin().execute(query, database).tuples)
        for engine in (PairwiseJoin("hash"), PairwiseJoin("sort_merge")):
            assert set(engine.execute(query, database).tuples) == reference

    @given(random_edge_databases())
    @settings(max_examples=25, deadline=None)
    def test_agm_bound_on_triangles(self, database):
        """Worst-case optimality sanity check: |triangles| <= |E|^(3/2)."""
        query = pattern_query("cycle3")
        edge_count = database.relation("E").cardinality
        result = CachedTrieJoin().execute(query, database)
        assert result.cardinality <= max(1.0, edge_count ** 1.5) + 1e-9
