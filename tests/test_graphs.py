"""Tests for the graph substrate: graphs, generators, datasets, patterns and I/O."""

import dataclasses
import os

import pytest
from helpers import (
    deterministic_bipartite,
    deterministic_clique,
    deterministic_cycle,
    deterministic_path,
    deterministic_star,
    multi_relation_pattern_query,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    DATASET_NAMES,
    DATASET_SPECS,
    Graph,
    PATTERN_NAMES,
    community_graph,
    dataset_spec,
    graph_database,
    load_dataset,
    load_snap_edge_list,
    pattern_query,
    preferential_attachment_graph,
    table1_rows,
    table2_rows,
    uniform_random_graph,
    write_snap_edge_list,
)
from repro.graphs.loader import EdgeListFormatError, iter_snap_edges


class TestGraph:
    def test_add_edges_and_degrees(self):
        graph = Graph("g")
        assert graph.add_edge(1, 2)
        assert not graph.add_edge(1, 2)
        graph.add_edge(1, 3)
        graph.add_edge(2, 3)
        assert graph.num_vertices == 3
        assert graph.num_edges == 3
        assert graph.successors(1) == [2, 3]
        assert graph.predecessors(3) == [1, 2]
        assert graph.out_degree(1) == 2
        assert graph.in_degree(2) == 1
        assert graph.has_edge(1, 2) and not graph.has_edge(2, 1)

    def test_vertices_and_edges_sorted(self):
        graph = Graph.from_edges([(5, 1), (2, 3), (2, 1)])
        assert graph.vertices() == [1, 2, 3, 5]
        assert list(graph.edges()) == [(2, 1), (2, 3), (5, 1)]

    def test_to_relation(self):
        graph = Graph.from_edges([(0, 1), (1, 2)])
        relation = graph.to_relation("E")
        assert relation.schema.attributes == ("src", "dst")
        assert relation.cardinality == 2

    def test_undirected_closure_doubles_edges(self):
        graph = Graph.from_edges([(0, 1), (1, 2)])
        closure = graph.undirected_closure()
        assert closure.num_edges == 4
        assert closure.has_edge(1, 0)

    def test_subgraph(self):
        graph = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        sub = graph.subgraph([0, 1, 2])
        assert sub.num_edges == 2
        assert not sub.has_edge(2, 3)

    def test_degree_statistics(self):
        graph = deterministic_star(9)
        stats = graph.degree_statistics()
        assert stats["max_out_degree"] == 9
        assert stats["top10_edge_share"] == 1.0
        empty_stats = Graph("empty").degree_statistics()
        assert empty_stats["mean_out_degree"] == 0.0


class TestGenerators:
    @pytest.mark.parametrize("probability", [-0.1, 1.5])
    def test_community_graph_rejects_an_intra_probability_outside_0_1(self, probability):
        with pytest.raises(ValueError, match=r"intra_probability must be in \[0, 1\]"):
            community_graph(20, 40, seed=1, intra_probability=probability)

    def test_uniform_graph_exact_counts(self):
        graph = uniform_random_graph(50, 300, seed=3)
        assert graph.num_vertices == 50
        assert graph.num_edges == 300

    def test_powerlaw_graph_exact_counts_and_skew(self):
        flat = uniform_random_graph(200, 800, seed=5)
        skewed = preferential_attachment_graph(200, 800, seed=5, skew=1.2)
        assert skewed.num_edges == 800
        assert (
            skewed.degree_statistics()["top10_edge_share"]
            > flat.degree_statistics()["top10_edge_share"]
        )

    def test_community_graph_counts(self):
        graph = community_graph(60, 250, seed=9)
        assert graph.num_vertices == 60
        assert graph.num_edges == 250

    def test_generators_deterministic(self):
        a = preferential_attachment_graph(80, 300, seed=17)
        b = preferential_attachment_graph(80, 300, seed=17)
        assert list(a.edges()) == list(b.edges())
        c = preferential_attachment_graph(80, 300, seed=18)
        assert list(a.edges()) != list(c.edges())

    def test_edge_budget_validation(self):
        with pytest.raises(ValueError):
            uniform_random_graph(3, 100, seed=1)
        with pytest.raises(ValueError):
            uniform_random_graph(0, 0, seed=1)

    def test_deterministic_topologies(self):
        assert deterministic_clique(5).num_edges == 20
        assert deterministic_cycle(6).num_edges == 6
        assert deterministic_path(6).num_edges == 5
        assert deterministic_star(4).num_edges == 4
        assert deterministic_bipartite(2, 3).num_edges == 6

    @given(st.integers(5, 40), st.integers(0, 120), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_uniform_generator_property(self, nodes, edges, seed):
        edges = min(edges, nodes * (nodes - 1))
        graph = uniform_random_graph(nodes, edges, seed=seed)
        assert graph.num_edges == edges
        assert graph.num_vertices == nodes


class TestDatasets:
    def test_a_spec_with_an_unknown_generator_is_refused(self, monkeypatch):
        import repro.graphs.datasets as datasets

        broken = dataclasses.replace(dataset_spec("grqc"), generator="lattice")
        monkeypatch.setattr(datasets, "dataset_spec", lambda name: broken)
        with pytest.raises(ValueError, match="dataset 'grqc' has unknown generator 'lattice'"):
            load_dataset("grqc", scale=0.01)

    def test_registry_matches_table2(self):
        assert set(DATASET_NAMES) == set(DATASET_SPECS)
        rows = table2_rows()
        assert len(rows) == 6
        # Table rows are ordered by edge count.
        edge_counts = [row[3] for row in rows]
        assert edge_counts == sorted(edge_counts)
        wiki = dataset_spec("wiki")
        assert wiki.num_nodes == 7_115
        assert wiki.num_edges == 103_689
        assert wiki.category == "Social"

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            dataset_spec("not-a-dataset")

    def test_scaled_counts(self):
        spec = dataset_spec("gnu31")
        nodes, edges = spec.scaled_counts(0.01)
        assert nodes == round(62_586 * 0.01)
        assert edges == round(147_892 * 0.01)
        with pytest.raises(ValueError):
            spec.scaled_counts(2.0)

    def test_load_dataset_scaled(self):
        graph = load_dataset("grqc", scale=0.02)
        spec = dataset_spec("grqc")
        expected_nodes, expected_edges = spec.scaled_counts(0.02)
        assert graph.num_vertices == expected_nodes
        assert graph.num_edges == expected_edges

    def test_load_dataset_deterministic(self):
        a = load_dataset("bitcoin", scale=0.02)
        b = load_dataset("bitcoin", scale=0.02)
        assert list(a.edges()) == list(b.edges())

    def test_p2p_flatter_than_social(self):
        social = load_dataset("wiki", scale=0.05)
        p2p = load_dataset("gnu04", scale=0.05)
        assert (
            social.degree_statistics()["top10_edge_share"]
            > p2p.degree_statistics()["top10_edge_share"]
        )


class TestPatterns:
    def test_all_five_patterns_exist(self):
        assert PATTERN_NAMES == ("path3", "path4", "cycle3", "cycle4", "clique4")
        assert len(table1_rows()) == 5

    @pytest.mark.parametrize(
        "name,arity,atoms",
        [
            ("path3", 3, 2),
            ("path4", 4, 3),
            ("cycle3", 3, 3),
            ("cycle4", 4, 4),
            ("clique4", 4, 6),
        ],
    )
    def test_pattern_shapes(self, name, arity, atoms):
        query = pattern_query(name)
        assert len(query.head_variables) == arity
        assert query.num_atoms == atoms

    def test_unknown_pattern(self):
        with pytest.raises(KeyError):
            pattern_query("pentagon")

    def test_multi_relation_form_uses_distinct_symbols(self):
        query = multi_relation_pattern_query("clique4")
        assert [a.relation for a in query.atoms] == ["R", "S", "T", "U", "V", "W"]
        assert [a.variables for a in query.atoms] == [
            a.variables for a in pattern_query("clique4").atoms
        ]

    def test_single_relation_form_uses_one_relation(self):
        query = pattern_query("clique4", edge_relation="G")
        assert set(a.relation for a in query.atoms) == {"G"}


class TestLoader:
    def test_round_trip_through_snap_format(self, tmp_path):
        graph = community_graph(20, 60, seed=2)
        path = os.path.join(tmp_path, "graph.txt")
        written = write_snap_edge_list(graph, path)
        assert written == 60
        loaded = load_snap_edge_list(path)
        assert list(loaded.edges()) == list(graph.edges())

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = os.path.join(tmp_path, "edges.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("# comment\n\n% other comment\n1\t2\n2 3\n")
        assert list(iter_snap_edges(path)) == [(1, 2), (2, 3)]

    def test_malformed_lines_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "bad.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("1\n")
        with pytest.raises(EdgeListFormatError):
            list(iter_snap_edges(path))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("a b\n")
        with pytest.raises(EdgeListFormatError):
            list(iter_snap_edges(path))

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_snap_edge_list("/nonexistent/file.txt")

    def test_graph_database_wrappers(self):
        database = graph_database(Graph.from_edges([(0, 1), (1, 2)]), "G")
        assert "G" in database
        graph = community_graph(10, 20, seed=1)
        database2 = graph_database(graph)
        assert database2.relation("E").cardinality == 20
