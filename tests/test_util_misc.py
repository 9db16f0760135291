"""Tests for repro.util.validation and repro.util.rng."""

import pytest

from repro.util.rng import DeterministicRNG
from repro.util.validation import (
    check_in_range,
    check_non_negative,
    check_not_empty,
    check_positive,
    check_type,
    check_unique,
)


class TestValidation:
    def test_check_positive_accepts_positive(self):
        check_positive("x", 1)
        check_positive("x", 0.5)

    def test_check_positive_rejects_zero_and_negative(self):
        with pytest.raises(ValueError, match="x must be positive"):
            check_positive("x", 0)
        with pytest.raises(ValueError):
            check_positive("x", -3)

    def test_check_non_negative(self):
        check_non_negative("n", 0)
        with pytest.raises(ValueError, match="must be non-negative"):
            check_non_negative("n", -1)

    def test_check_in_range(self):
        check_in_range("r", 0.5, 0.0, 1.0)
        check_in_range("r", 0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="must be in"):
            check_in_range("r", 1.5, 0.0, 1.0)

    def test_check_type(self):
        check_type("s", "hello", str)
        check_type("v", 3, (int, float))
        with pytest.raises(TypeError, match="must be of type str"):
            check_type("s", 3, str)
        with pytest.raises(TypeError, match="must be of type int or float, got str"):
            check_type("v", "3", (int, float))

    def test_check_not_empty(self):
        check_not_empty("items", [1])
        with pytest.raises(ValueError, match="must not be empty"):
            check_not_empty("items", [])

    def test_check_unique(self):
        check_unique("names", ["a", "b"])
        with pytest.raises(ValueError, match="duplicate"):
            check_unique("names", ["a", "a"])


class TestDeterministicRNG:
    def test_weighted_choice_rejects_no_candidates_and_no_weight(self):
        rng = DeterministicRNG(1)
        with pytest.raises(ValueError, match="at least one candidate"):
            rng.weighted_choice({})
        with pytest.raises(ValueError, match="sum to a positive value, got 0.0"):
            rng.weighted_choice({"a": 0.0, "b": 0.0})

    def test_weighted_choice_falls_back_to_the_last_key_on_round_off(self):
        # The largest draw below 1 leaves the ticket at exactly 0.0 after the
        # last weight, not below it.
        rng = DeterministicRNG(1)
        rng.random = lambda: 1 - 2**-53
        assert rng.weighted_choice({"a": 0.1, "b": 0.2, "c": 0.7}) == "c"

    def test_requires_integer_seed(self):
        with pytest.raises(TypeError):
            DeterministicRNG("seed")  # type: ignore[arg-type]

    def test_same_seed_same_stream(self):
        a = DeterministicRNG(42)
        b = DeterministicRNG(42)
        assert [a.randint(0, 100) for _ in range(20)] == [
            b.randint(0, 100) for _ in range(20)
        ]

    def test_different_seeds_diverge(self):
        a = DeterministicRNG(1)
        b = DeterministicRNG(2)
        assert [a.randint(0, 10_000) for _ in range(10)] != [
            b.randint(0, 10_000) for _ in range(10)
        ]

    def test_fork_is_deterministic_and_independent(self):
        parent = DeterministicRNG(7)
        child_a = parent.fork(1)
        child_b = DeterministicRNG(7).fork(1)
        other = parent.fork(2)
        seq_a = [child_a.randint(0, 1000) for _ in range(5)]
        seq_b = [child_b.randint(0, 1000) for _ in range(5)]
        seq_other = [other.randint(0, 1000) for _ in range(5)]
        assert seq_a == seq_b
        assert seq_a != seq_other

    def test_seed_property(self):
        assert DeterministicRNG(99).seed == 99

    def test_sample_and_choice_draw_from_population(self):
        rng = DeterministicRNG(3)
        population = list(range(50))
        sample = rng.sample(population, 10)
        assert len(sample) == 10
        assert len(set(sample)) == 10
        assert all(item in population for item in sample)
        assert rng.choice(population) in population

    def test_shuffle_is_permutation(self):
        rng = DeterministicRNG(5)
        items = list(range(30))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items

    def test_zipf_value_in_range(self):
        rng = DeterministicRNG(11)
        for _ in range(200):
            value = rng.zipf_value(100, 1.2)
            assert 1 <= value <= 100

    def test_zipf_value_rejects_bad_n(self):
        with pytest.raises(ValueError):
            DeterministicRNG(1).zipf_value(0, 1.0)

    def test_zipf_zero_skew_is_uniformish(self):
        rng = DeterministicRNG(13)
        values = [rng.zipf_value(10, 0.0) for _ in range(100)]
        assert min(values) >= 1 and max(values) <= 10
        assert len(set(values)) > 3

    def test_random_in_unit_interval(self):
        rng = DeterministicRNG(17)
        for _ in range(100):
            assert 0.0 <= rng.random() < 1.0

    def test_paretovariate_and_expovariate_positive(self):
        rng = DeterministicRNG(23)
        assert rng.paretovariate(1.5) > 0
        assert rng.expovariate(2.0) > 0
