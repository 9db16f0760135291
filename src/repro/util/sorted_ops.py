"""Primitives on sorted sequences.

:func:`is_strictly_sorted` is the trie sibling-array invariant, checked on
every trie built or extended; :func:`splice_sorted` is the result cache's
merge primitive (a patch into an entry's pending run, the run into the
entry).  The
join engines' *lowest upper bound* searches (the LeapFrog TrieJoin inner
loop, and the TrieJax LUB unit's) are C-level ``bisect.bisect_left`` calls
inside the generated plan kernel of :mod:`repro.joins.leapfrog`.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice
from operator import lt
from typing import List, Sequence, TypeVar

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
