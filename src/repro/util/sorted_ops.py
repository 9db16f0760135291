"""Primitives on sorted integer sequences.

The LeapFrog TrieJoin family of algorithms (and the TrieJax LUB hardware unit
that implements their inner loop) is built entirely out of *lowest upper
bound* searches on sorted arrays: given a sorted array ``arr`` and a value
``v``, find the smallest element of ``arr`` that is ``>= v``.  This module
holds the reference forms of that primitive: the plain binary search and the
galloping (exponential) search that also reports its probe count.  The join
engines' inner loops search with the C-level ``bisect.bisect_left`` (same
landing index); these functions are what the tests compare against.
:func:`splice_sorted` is the write path's
one merge primitive (cached results, relation row caches).

All functions operate on any indexable sequence of comparable values
(Python lists, tuples, ``array.array`` and NumPy arrays all work) and accept
an optional ``lo``/``hi`` window so callers can search a sub-range without
slicing (slicing would copy, which both the software engines and the
accelerator model avoid).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice
from operator import lt
from typing import List, Sequence, Tuple, TypeVar

T = TypeVar("T")


def is_strictly_sorted(values: Sequence[int]) -> bool:
    """Return ``True`` when ``values`` is strictly increasing.

    Trie sibling arrays are required to be strictly sorted (duplicates are
    collapsed at build time), so this is the invariant checked throughout the
    test suite — and on every trie built or extended, so the pairwise
    compare runs at C level.
    """
    return all(map(lt, values, islice(values, 1, None)))


def splice_sorted(base: Sequence[T], fresh: Sequence[T]) -> List[T]:
    """A new sorted list holding ``base`` plus the ``fresh`` rows it lacks.

    Both inputs are strictly sorted.  Each fresh row costs one C-level
    ``bisect_left`` (O(log n) comparisons) and the output is assembled from
    slices of ``base`` — O(|fresh|·log n) comparisons plus memcpy, against
    the O(n) comparisons of any merge or re-sort.  ``base`` is never
    mutated: readers holding it keep their snapshot (copy-on-write).
    """
    merged: List[T] = []
    size = len(base)
    start = 0
    for row in fresh:
        position = bisect_left(base, row, start)
        if position < size and base[position] == row:
            continue
        merged += base[start:position]
        merged.append(row)
        start = position
    merged += base[start:]
    return merged


def lowest_upper_bound(
    values: Sequence[int],
    target: int,
    lo: int = 0,
    hi: int | None = None,
) -> int:
    """Return the index of the first element ``>= target`` in ``values[lo:hi]``.

    This is the core operation of the LUB hardware unit (Section 3.6 of the
    paper): a binary search that returns the *lowest upper bound* position.
    If every element in the window is smaller than ``target``, the returned
    index equals ``hi`` (i.e. one past the window), signalling "not found".

    Parameters
    ----------
    values:
        Sorted (non-decreasing) sequence to search.
    target:
        Value to look up.
    lo, hi:
        Half-open window ``[lo, hi)`` to restrict the search to.  ``hi``
        defaults to ``len(values)``.
    """
    if hi is None:
        hi = len(values)
    if lo < 0 or hi > len(values) or lo > hi:
        raise ValueError(
            f"invalid search window [{lo}, {hi}) for array of length {len(values)}"
        )
    while lo < hi:
        mid = (lo + hi) // 2
        if values[mid] < target:
            lo = mid + 1
        else:
            hi = mid
    return lo


def gallop(
    values: Sequence[int],
    target: int,
    lo: int = 0,
    hi: int | None = None,
) -> Tuple[int, int]:
    """Lowest upper bound via galloping, returning ``(position, probes)``.

    Identical result to :func:`lowest_upper_bound`, but it starts probing
    right at ``lo`` (where a leapfrog cursor already sits, so the answer is
    usually nearby) and reports how many elements it actually compared.  It
    is kept as a reference form for tests, not run by any engine: tests pin
    it against :func:`lowest_upper_bound` and use it as the landing-position
    oracle for the plan kernel of :mod:`repro.joins.leapfrog`.  No window
    validation is performed — callers pass cursor positions that are valid
    by construction.
    """
    if hi is None:
        hi = len(values)
    if lo >= hi:
        return lo, 0
    if values[lo] >= target:
        return lo, 1
    # Exponential phase: bracket the answer in (prev, probe].
    probes = 1
    step = 1
    prev = lo
    probe = lo + 1
    while probe < hi:
        probes += 1
        if values[probe] >= target:
            break
        prev = probe
        step *= 2
        probe = lo + step
    else:
        probe = hi
    # Binary phase inside the bracket.
    b_lo, b_hi = prev + 1, min(probe, hi)
    while b_lo < b_hi:
        mid = (b_lo + b_hi) // 2
        probes += 1
        if values[mid] < target:
            b_lo = mid + 1
        else:
            b_hi = mid
    return b_lo, probes
