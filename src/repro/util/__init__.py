"""Shared low-level utilities for the TrieJax reproduction.

The modules in this package deliberately contain only small, dependency-free
helpers that are used by several subsystems:

``sorted_ops``
    Reference lowest-upper-bound / galloping-search primitives on sorted
    integer arrays: the software analogue of the accelerator's LUB unit, and
    the oracle the join engines' C-level searches are tested against.

``validation``
    Argument-checking helpers that raise consistent, descriptive exceptions.

``rng``
    Deterministic random-number helpers so that every dataset generator and
    scheduler in the repository is reproducible from an explicit seed.
"""

from repro.util.sorted_ops import (
    lowest_upper_bound,
    gallop,
    is_strictly_sorted,
)
from repro.util.validation import (
    check_positive,
    check_non_negative,
    check_in_range,
    check_type,
    check_not_empty,
)
from repro.util.rng import DeterministicRNG

__all__ = [
    "lowest_upper_bound",
    "gallop",
    "is_strictly_sorted",
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_type",
    "check_not_empty",
    "DeterministicRNG",
]
