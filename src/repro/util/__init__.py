"""Shared low-level utilities for the TrieJax reproduction.

The modules in this package deliberately contain only small, dependency-free
helpers that are used by several subsystems:

``sorted_ops``
    The sortedness check and sorted splice of the trie and write paths.

``validation``
    Argument-checking helpers that raise consistent, descriptive exceptions.

``rng``
    Deterministic random-number helpers so that every dataset generator and
    scheduler in the repository is reproducible from an explicit seed.
"""

from repro.util.sorted_ops import (
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
    "is_strictly_sorted",
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_type",
    "check_not_empty",
    "DeterministicRNG",
]
