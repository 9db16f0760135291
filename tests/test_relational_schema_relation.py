"""Tests for repro.relational.schema and repro.relational.relation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.relational import Relation, Schema
from repro.relational.relation import WORDS

WORD_MIN, WORD_MAX = WORDS[0], WORDS[-1]


class TestSchema:
    def test_attributes_preserved_in_order(self):
        schema = Schema(("src", "dst"))
        assert schema.attributes == ("src", "dst")
        assert schema.arity == 2
        assert len(schema) == 2

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            Schema(())
        with pytest.raises(ValueError):
            Schema(("a", "a"))

    def test_index_of_and_contains(self):
        schema = Schema(("a", "b", "c"))
        assert schema.index_of("b") == 1
        assert "c" in schema
        assert "z" not in schema
        with pytest.raises(KeyError):
            schema.index_of("z")

    def test_shared_with(self):
        left = Schema(("x", "y"))
        right = Schema(("y", "z"))
        assert left.shared_with(right) == ("y",)
        assert right.shared_with(left) == ("y",)

    def test_project(self):
        schema = Schema(("a", "b", "c"))
        assert schema.project(("c", "a")).attributes == ("c", "a")
        with pytest.raises(KeyError):
            schema.project(("d",))

    def test_rename(self):
        schema = Schema(("a", "b"))
        renamed = schema.rename({"a": "x"})
        assert renamed.attributes == ("x", "b")

    def test_iteration(self):
        assert list(Schema(("p", "q"))) == ["p", "q"]


class TestRelation:
    def test_insert_and_cardinality(self):
        relation = Relation("R", Schema(("x", "y")))
        assert relation.insert((1, 2))
        assert not relation.insert((1, 2))  # duplicate
        assert relation.insert((2, 3))
        assert relation.cardinality == 2
        assert len(relation) == 2
        assert (1, 2) in relation

    def test_insert_wrong_arity_raises(self):
        relation = Relation("R", Schema(("x", "y")))
        with pytest.raises(ValueError, match="arity"):
            relation.insert((1, 2, 3))

    def test_values_at_the_word_bounds_are_stored(self):
        rows = [(WORD_MIN, WORD_MAX), (0, WORD_MIN), (2.0**62, -1)]
        relation = Relation("R", Schema(("x", "y")), rows)
        assert relation.sorted_rows() == [(WORD_MIN, WORD_MAX), (0, WORD_MIN), (2**62, -1)]
        assert relation.insert_batch([(WORD_MAX, WORD_MAX)]) == ((WORD_MAX, WORD_MAX),)

    @pytest.mark.parametrize("value", [WORD_MAX + 1, WORD_MIN - 1], ids=["above", "below"])
    @pytest.mark.parametrize("entry", ["constructor", "insert", "insert_batch"])
    def test_values_outside_a_word_are_rejected_before_any_change(self, entry, value):
        """Every way in names the relation and the value; a batch fails whole."""
        relation = Relation("R", Schema(("x", "y")), [(1, 2)])
        insert = {
            "constructor": lambda row: Relation("R", Schema(("x", "y")), [(3, 4), row]),
            "insert": relation.insert,
            "insert_batch": lambda row: relation.insert_batch([(3, 4), row]),
        }[entry]
        with pytest.raises(ValueError, match=f"value {value} .*relation 'R'"):
            insert((5, value))
        assert relation.sorted_rows() == [(1, 2)]

    def test_insert_many_returns_new_count(self):
        relation = Relation("R", Schema(("x", "y")))
        added = relation.insert_many([(1, 1), (1, 1), (2, 2)])
        assert added == 2

    def test_sorted_rows_are_sorted_and_cached(self):
        relation = Relation("R", Schema(("x", "y")), [(3, 1), (1, 2), (2, 9)])
        assert relation.sorted_rows() == [(1, 2), (2, 9), (3, 1)]
        relation.insert((0, 0))
        assert relation.sorted_rows()[0] == (0, 0)

    def test_column_and_active_domain(self):
        relation = Relation("R", Schema(("x", "y")), [(1, 5), (2, 5), (2, 7)])
        assert relation.column("x") == [1, 2]
        assert relation.column("y") == [5, 7]
        assert relation.active_domain() == [1, 2, 5, 7]

    def test_project_and_select(self):
        relation = Relation("R", Schema(("x", "y")), [(1, 5), (2, 5), (2, 7)])
        projected = relation.project(("y",))
        assert set(projected.sorted_rows()) == {(5,), (7,)}
        selected = relation.select_equal("x", 2)
        assert set(selected.sorted_rows()) == {(2, 5), (2, 7)}

    def test_rename_relation(self):
        relation = Relation("R", Schema(("x", "y")), [(1, 2)])
        renamed = relation.rename("S", {"x": "a"})
        assert renamed.name == "S"
        assert renamed.schema.attributes == ("a", "y")
        assert renamed.sorted_rows() == [(1, 2)]

    def test_reorder(self):
        relation = Relation("R", Schema(("x", "y")), [(1, 2), (3, 4)])
        reordered = relation.reorder(("y", "x"))
        assert reordered.schema.attributes == ("y", "x")
        assert set(reordered.sorted_rows()) == {(2, 1), (4, 3)}
        with pytest.raises(ValueError):
            relation.reorder(("x", "z"))

    def test_size_in_bytes(self):
        relation = Relation("R", Schema(("x", "y")), [(1, 2), (3, 4)])
        assert relation.size_in_bytes() == 2 * 2 * 4

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=60))
    def test_set_semantics(self, pairs):
        relation = Relation("R", Schema(("x", "y")), pairs)
        assert relation.cardinality == len(set(pairs))
        assert relation.sorted_rows() == sorted(set(pairs))
