"""Tests for repro.util.sorted_ops — the reference binary-search primitives."""

from array import array

import pytest
from helpers import lowest_upper_bound
from hypothesis import given
from hypothesis import strategies as st

from repro.util.sorted_ops import is_strictly_sorted


def backings(values):
    """``values`` as a plain list and in every backing a trie level comes in:
    an ``array('q')`` and the ``memoryview`` a segment is adopted as."""
    words = array("q", values)
    return [list(values), words, memoryview(words.tobytes()).cast("q")]


class TestIsStrictlySorted:
    def test_empty_and_singleton_are_sorted(self):
        for values in backings([]) + backings([5]):
            assert is_strictly_sorted(values)

    def test_increasing_sequence(self):
        for values in backings([1, 2, 3, 10]):
            assert is_strictly_sorted(values)

    def test_duplicates_are_not_strictly_sorted(self):
        for values in backings([1, 2, 2, 3]):
            assert not is_strictly_sorted(values)

    def test_decreasing_sequence(self):
        for values in backings([3, 1]):
            assert not is_strictly_sorted(values)


class TestLowestUpperBound:
    def test_finds_exact_value(self):
        assert lowest_upper_bound([1, 3, 5, 7], 5) == 2

    def test_finds_next_larger_value(self):
        assert lowest_upper_bound([1, 3, 5, 7], 4) == 2

    def test_target_below_all(self):
        assert lowest_upper_bound([10, 20], 1) == 0

    def test_target_above_all_returns_hi(self):
        assert lowest_upper_bound([1, 2, 3], 99) == 3

    def test_respects_window(self):
        values = [1, 5, 9, 13]
        assert lowest_upper_bound(values, 0, lo=2, hi=4) == 2
        assert lowest_upper_bound(values, 14, lo=1, hi=3) == 3

    def test_empty_window(self):
        assert lowest_upper_bound([1, 2, 3], 2, lo=1, hi=1) == 1

    def test_invalid_window_raises(self):
        with pytest.raises(ValueError):
            lowest_upper_bound([1, 2], 1, lo=2, hi=1)
        with pytest.raises(ValueError):
            lowest_upper_bound([1, 2], 1, lo=0, hi=5)

    @given(st.lists(st.integers(0, 1000), max_size=60), st.integers(-5, 1005))
    def test_matches_linear_scan(self, values, target):
        values = sorted(values)
        expected = next(
            (i for i, v in enumerate(values) if v >= target), len(values)
        )
        assert lowest_upper_bound(values, target) == expected
