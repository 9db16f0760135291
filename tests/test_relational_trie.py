"""Tests for the trie index and its flat memory layout."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import MemoryLayout, Relation, Schema, TrieIndex
from repro.util.sorted_ops import is_strictly_sorted


def paper_example_relation():
    """R(x, y) from Figure 6 of the paper."""
    return Relation("R", Schema(("x", "y")), [(1, 1), (1, 2), (2, 2), (4, 5), (5, 4)])


class TestTrieConstruction:
    def test_paper_figure6_layout(self):
        """The trie of Figure 6: Rx = [1,2,4,5]-ish levels with child ranges."""
        relation = Relation("R", Schema(("x", "y")), [(1, 1), (1, 2), (2, 2), (4, 4), (5, 5)])
        trie = TrieIndex(relation)
        assert trie.num_levels == 2
        assert list(trie.level_values(0)) == [1, 2, 4, 5]
        assert list(trie.level_values(1)) == [1, 2, 2, 4, 5]
        assert trie.children_range(0, 0) == (0, 2)   # children of x=1
        assert trie.children_range(0, 1) == (2, 3)   # children of x=2
        assert trie.children_range(0, 2) == (3, 4)
        assert trie.children_range(0, 3) == (4, 5)

    def test_root_level_strictly_sorted(self):
        trie = TrieIndex(paper_example_relation())
        assert is_strictly_sorted(trie.level_values(0))

    def test_empty_relation(self):
        trie = TrieIndex(Relation("R", Schema(("x", "y"))))
        assert trie.num_tuples == 0
        assert trie.root_range() == (0, 0)
        assert list(trie.paths()) == []

    def test_attribute_order_permutation_required(self):
        relation = paper_example_relation()
        with pytest.raises(ValueError):
            TrieIndex(relation, ("x", "z"))

    def test_reordered_trie_swaps_levels(self):
        relation = paper_example_relation()
        trie = TrieIndex(relation, ("y", "x"))
        assert trie.attribute_at(0) == "y"
        assert trie.level_of("x") == 1
        assert set(trie.paths()) == {(y, x) for (x, y) in relation.sorted_rows()}

    def test_children_range_bounds_checked(self):
        trie = TrieIndex(paper_example_relation())
        with pytest.raises(IndexError):
            trie.children_range(0, 99)
        with pytest.raises(ValueError):
            trie.children_range(1, 0)  # leaf level has no children

    def test_value_at_and_level_size(self):
        trie = TrieIndex(paper_example_relation())
        assert trie.level_size(0) == 4
        assert trie.value_at(0, 0) == 1

    def test_level_of_unknown_attribute(self):
        trie = TrieIndex(paper_example_relation())
        with pytest.raises(KeyError):
            trie.level_of("nope")

    def test_memory_words_counts_values_and_offsets(self):
        trie = TrieIndex(paper_example_relation())
        expected = trie.level_size(0) + trie.level_size(1) + (trie.level_size(0) + 1)
        assert trie.memory_words() == expected

    def test_three_attribute_trie_round_trip(self):
        rows = [(1, 2, 3), (1, 2, 4), (1, 5, 6), (2, 2, 3), (7, 8, 9)]
        relation = Relation("T", Schema(("a", "b", "c")), rows)
        trie = TrieIndex(relation)
        assert trie.num_levels == 3
        assert sorted(trie.paths()) == sorted(rows)
        rebuilt = trie.to_relation()
        assert set(rebuilt.sorted_rows()) == set(rows)

    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)),
            max_size=60,
        )
    )
    @settings(max_examples=50)
    def test_paths_round_trip_property(self, rows):
        relation = Relation("T", Schema(("a", "b", "c")), rows)
        trie = TrieIndex(relation)
        assert sorted(trie.paths()) == sorted(set(rows))
        assert trie.num_tuples == len(set(rows))

    @given(
        st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)), max_size=60),
        st.permutations(["x", "y"]),
    )
    @settings(max_examples=50)
    def test_sibling_groups_sorted_property(self, rows, order):
        relation = Relation("R", Schema(("x", "y")), rows)
        trie = TrieIndex(relation, order)
        # Every child group is strictly sorted.
        for level in range(trie.num_levels - 1):
            for index in range(trie.level_size(level)):
                start, end = trie.children_range(level, index)
                group = list(trie.level_values(level + 1))[start:end]
                assert is_strictly_sorted(group)


    def test_adopting_flat_arrays_checks_the_level_counts(self):
        with pytest.raises(ValueError, match="expected 2 value levels, got 1"):
            TrieIndex.from_flat("R", ("x", "y"), [[1]], [], 1)
        with pytest.raises(ValueError, match="expected 1 offset levels, got 0"):
            TrieIndex.from_flat("R", ("x", "y"), [[1], [2]], [], 1)

    @pytest.mark.parametrize(
        "values, offsets, problem",
        [
            ([[1, 2], [5, 6]], [[0, 2]], "offsets length mismatch at level 0"),
            ([[1, 2], [5, 6]], [[0, 1, 1]], "child offsets do not cover level 1"),
            ([[2, 1], [5, 6]], [[0, 1, 2]], "root level not strictly sorted"),
        ],
    )
    def test_validated_adoption_rejects_broken_arrays(self, values, offsets, problem):
        TrieIndex.from_flat("R", ("x", "y"), values, offsets, 2)  # unchecked
        with pytest.raises(AssertionError, match=problem):
            TrieIndex.from_flat("R", ("x", "y"), values, offsets, 2, validate=True)

    def test_extending_under_existing_prefixes_keeps_upper_offsets(self):
        # A row under an existing two-value prefix grows no level-1 node, so
        # the level-0 offsets carry over unshifted.
        relation = Relation("R", Schema(("x", "y", "z")), [(1, 2, 3), (4, 5, 6)])
        trie = TrieIndex(relation)
        relation.insert_many([(1, 2, 4)])
        extended = trie.extended(relation, [(1, 2, 4)])
        fresh = TrieIndex(relation)
        for level in range(3):
            assert list(extended.level_values(level)) == list(fresh.level_values(level))
        for level in range(2):
            assert list(extended.child_offsets(level)) == list(fresh.child_offsets(level))


class TestMemoryLayout:
    def test_regions_are_disjoint_and_aligned(self):
        trie = TrieIndex(paper_example_relation())
        layout = MemoryLayout()
        regions = layout.add_trie("R", trie)
        assert len(regions) == 3  # two value levels + one offsets array
        spans = sorted((r.base_address, r.base_address + r.size_in_bytes) for r in regions)
        for (start_a, end_a), (start_b, _end_b) in zip(spans, spans[1:]):
            assert end_a <= start_b
        for region in regions:
            assert region.base_address % 64 == 0

    def test_address_of_elements(self):
        trie = TrieIndex(paper_example_relation())
        layout = MemoryLayout()
        layout.add_trie("R", trie)
        region = layout.values_region("R", 0)
        assert region.address_of(1) == region.base_address + 4
        with pytest.raises(IndexError):
            region.address_of(region.num_elements + 5)

    def test_duplicate_namespace_rejected(self):
        trie = TrieIndex(paper_example_relation())
        layout = MemoryLayout()
        layout.add_trie("R", trie)
        with pytest.raises(KeyError):
            layout.add_trie("R", trie)

    def test_result_region_is_distinct(self):
        trie = TrieIndex(paper_example_relation())
        layout = MemoryLayout()
        layout.add_trie("R", trie)
        result_region = layout.result_region()
        assert result_region is layout.result_region()  # cached
        assert result_region.base_address >= layout.values_region("R", 0).base_address

    def test_total_index_bytes_excludes_results(self):
        trie = TrieIndex(paper_example_relation())
        layout = MemoryLayout()
        layout.add_trie("R", trie)
        before = layout.total_index_bytes
        layout.result_region()
        assert layout.total_index_bytes == before

    def test_unknown_region_raises(self):
        layout = MemoryLayout()
        with pytest.raises(KeyError):
            layout.region("nope")

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            MemoryLayout(element_size=0)
        with pytest.raises(ValueError):
            MemoryLayout(alignment=48)
