"""Trie indexes over relations.

CTJ, LFTJ and the TrieJax accelerator all operate on *tries*: one level per
attribute, siblings sorted, every root-to-leaf path a tuple of the relation
(Section 2.2.1 of the paper).  This module builds tries in the flat physical
layout that TrieJax borrows from EmptyHeaded (Figure 6):

* ``values[level]`` — one sequence per level holding the node values.
  Level 0 stores the distinct values of the first attribute; level ``i``
  stores, for every node of level ``i-1`` in order, that node's (sorted)
  children concatenated together.
* ``child_ranges[level]`` — for every node in ``values[level]`` the half-open
  index range of its children within ``values[level + 1]``.  Physically this
  is stored as an array of ``len(values[level]) + 1`` offsets (like a CSR
  row-pointer array); the helper :meth:`TrieIndex.children_range` hides that
  detail.

The flat layout is what the accelerator's Midwife unit reads ("extract the
child range of node ``i``") and what the LUB unit binary-searches, so the
same object serves both the software engines and the hardware model.

A built value level is a ``list`` that references the relation rows' own
int objects.  The ints already exist once, in the relation, so a level
costs one pointer per node.  Reading it — every ``bisect_left`` probe,
every cursor load, every emitted row — hands out that object instead of
boxing a fresh int from a machine word, so an emitted row shares its ints
with the relation.  The CSR offsets are positions the trie computes itself,
so they stay ``array('q')``: one 64-bit word each.  Every value is still a
word: a relation holds only values in the signed 64-bit range
(``Relation.normalize_row`` rejects the rest), a segment or shared-memory
payload packs each level into words (:func:`repro.storage.words.pack_words`),
and a level adopted from one is a zero-copy ``memoryview`` of those words.
Construction performs a single sort (reusing the relation's cached sorted
order, see :meth:`~repro.relational.relation.Relation.sorted_rows_in`)
followed by one linear pass that emits every level's values and offsets
together.

Inserts never rebuild: :meth:`TrieIndex.extended` adds a batch of rows in
one pass — O(|Δ|·arity) binary searches, then each touched level assembled
once from slices of the old one — into a new trie, so readers of the old
one keep their snapshot.

Beside the flat layout, the host keeps one map per trie that the
accelerator's layout has no room for: :meth:`TrieIndex.root_positions`,
each root value's index, so the plan kernel lands a root-level seek whose
target is present with one dict probe instead of a bisection.  It is built
on first use, never persisted, and carried over by :meth:`extended` while
the root level is unchanged.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import repeat
from operator import add, itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.relational.relation import Relation, Row
from repro.util.sorted_ops import is_strictly_sorted


class TrieIndex:
    """A flat (EmptyHeaded-layout) trie over a relation.

    Parameters
    ----------
    relation:
        Source relation.
    attribute_order:
        Order in which the relation's attributes become trie levels.  Must be
        a permutation of the relation's schema.  Defaults to the schema
        order.
    """

    def __init__(self, relation: Relation, attribute_order: Sequence[str] | None = None):
        if attribute_order is None:
            attribute_order = relation.schema.attributes
        if set(attribute_order) != set(relation.schema.attributes):
            raise ValueError(
                f"attribute_order {tuple(attribute_order)!r} must be a permutation of "
                f"{relation.schema.attributes!r}"
            )
        self.relation_name = relation.name
        self.attribute_order: Tuple[str, ...] = tuple(attribute_order)
        self._root_positions: Optional[Dict[int, int]] = None
        self._build(relation)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _build(self, relation: Relation) -> None:
        rows = relation.sorted_rows_in(self.attribute_order)
        arity = len(self.attribute_order)
        self._num_tuples = len(rows)
        self._values, self._offsets = self._build_flat(rows, arity)
        self._check_invariants()

    @staticmethod
    def _build_flat(rows: Sequence[Tuple[int, ...]], arity: int):
        """One linear pass over the sorted distinct rows.

        Rows are strictly sorted, so a node boundary at ``level`` occurs
        exactly where a row first differs from its predecessor at or above
        that level; when a node is created its children's start offset is the
        current length of the next level's value array (all children of
        earlier siblings are already appended, and its own children follow
        immediately).  This emits values and CSR offsets together — no
        re-sort, no per-group distinct-count rescan.
        """
        values: List[list] = [[] for _ in range(arity)]
        offsets = [array("q") for _ in range(max(arity - 1, 0))]

        if not rows:
            for level_offsets in offsets:
                level_offsets.append(0)
            return values, offsets

        last_level = arity - 1
        prev: Tuple[int, ...] | None = None
        for row in rows:
            if prev is None:
                level = 0
            else:
                level = 0
                while row[level] == prev[level]:
                    level += 1
            while level < arity:
                if level < last_level:
                    offsets[level].append(len(values[level + 1]))
                values[level].append(row[level])
                level += 1
            prev = row
        for level in range(last_level):
            offsets[level].append(len(values[level + 1]))
        return values, offsets

    @classmethod
    def from_flat(
        cls,
        relation_name: str,
        attribute_order: Sequence[str],
        values: Sequence[Sequence[int]],
        offsets: Sequence[Sequence[int]],
        num_tuples: int,
        validate: bool = False,
    ) -> "TrieIndex":
        """Adopt already-built flat arrays without touching any rows.

        This is the durable-storage cold-start path: the persisted segment
        holds exactly ``values``/``offsets``, so adoption is O(1) per level
        (the sequences are zero-copy ``memoryview`` word slices over an
        ``mmap``, or ``array('q')`` copies of them).  :meth:`extended` adopts
        its own levels here too: value lists, which cost a pointer per
        element and share their ints with the relation, and ``array('q')``
        offsets.  ``validate`` runs the full structural invariant check —
        O(n), so it is opt-in.
        """
        if len(values) != len(attribute_order):
            raise ValueError(
                f"expected {len(attribute_order)} value levels, got {len(values)}"
            )
        if len(offsets) != max(len(attribute_order) - 1, 0):
            raise ValueError(
                f"expected {max(len(attribute_order) - 1, 0)} offset levels, "
                f"got {len(offsets)}"
            )
        trie = cls.__new__(cls)
        trie.relation_name = relation_name
        trie.attribute_order = tuple(attribute_order)
        trie._values = list(values)
        trie._offsets = list(offsets)
        trie._num_tuples = num_tuples
        trie._root_positions = None
        if validate:
            trie._check_invariants()
        return trie

    def extended(self, relation: Relation, rows: Iterable[Row]) -> "TrieIndex":
        """A new trie over this trie's tuples plus ``rows``, built in one batched pass.

        ``rows`` are tuples in ``relation``'s schema order that this trie
        does not hold (a :class:`~repro.relational.catalog.DeltaBatch`).  No
        old level is mutated; an untouched level keeps its object.  A
        touched value level comes back as a ``list`` (a pointer per element:
        old nodes keep their int objects, new ones reference the relation's
        rows), a touched offsets level as an ``array('q')``, whether the old
        level was a list, an ``array('q')`` or a ``memoryview``.
        """
        indexes = [relation.schema.index_of(a) for a in self.attribute_order]
        if indexes != sorted(indexes):  # arity >= 2, so itemgetter returns tuples
            rows = map(itemgetter(*indexes), rows)
        inserts, grown = self._descend(sorted(rows))
        values = [_spliced(old, new) for old, new in zip(self._values, inserts)]
        offsets = [_shifted(old, parents) for old, parents in zip(self._offsets, grown)]
        trie = TrieIndex.from_flat(
            self.relation_name, self.attribute_order, values, offsets,
            self._num_tuples + len(inserts[-1]),
        )
        trie._check_invariants()
        if not inserts[0]:
            trie._root_positions = self._root_positions
        return trie

    def _descend(self, rows: Sequence[Row]):
        """Where the sorted fresh ``rows`` add nodes, per level in merged order.

        ``inserts[level]``: each new node's ``(position, value)``, placed
        before old node ``position``.  ``grown[level]``: one ``[position,
        is_new, children]`` per parent that gained children.  A row reuses
        the previous row's path above their first differing value, then
        bisects inside its parent's child range; below a new node, all are new.
        """
        values, offsets = self._values, self._offsets
        last = len(values) - 1
        inserts: List[list] = [[] for _ in values]
        grown: List[list] = [[] for _ in offsets]
        path = [0] * len(values)  # the previous row's node at each level
        fresh = [True] * len(values)  # ... and whether that node is new
        previous: Sequence = (None,)
        for row in rows:
            level = 0
            while row[level] == previous[level]:
                level += 1
            previous = row
            if level and fresh[level - 1]:
                grown[level - 1][-1][2] += 1
                position = offsets[level - 1][path[level - 1]]
            else:
                hi = offsets[level - 1][path[level - 1] + 1] if level else len(values[0])
                lo = path[level] + (not fresh[level])
                while True:
                    level_values, value = values[level], row[level]
                    position = bisect_left(level_values, value, lo, hi)
                    if position == hi or level_values[position] != value:
                        break
                    path[level], fresh[level] = position, False
                    lo, hi = offsets[level][position], offsets[level][position + 1]
                    level += 1
                if level:
                    parents, parent = grown[level - 1], path[level - 1]
                    if parents and parents[-1][0] == parent and not parents[-1][1]:
                        parents[-1][2] += 1
                    else:
                        parents.append([parent, False, 1])
            while True:
                inserts[level].append((position, row[level]))
                path[level], fresh[level] = position, True
                if level == last:
                    break
                grown[level].append([position, True, 1])
                position = offsets[level][position]
                level += 1
        return inserts, grown

    def _check_invariants(self) -> None:
        for level in range(self.num_levels - 1):
            if len(self._offsets[level]) != len(self._values[level]) + 1:
                raise AssertionError(
                    f"trie {self.relation_name}: offsets length mismatch at level {level}"
                )
            if self._offsets[level][-1] != len(self._values[level + 1]):
                raise AssertionError(
                    f"trie {self.relation_name}: child offsets do not cover level {level + 1}"
                )
        if self.num_levels:
            if not is_strictly_sorted(self._values[0]):
                raise AssertionError(
                    f"trie {self.relation_name}: root level not strictly sorted"
                )

    # ------------------------------------------------------------------ #
    # Structure queries (used by joins and the accelerator)
    # ------------------------------------------------------------------ #
    @property
    def num_levels(self) -> int:
        """Number of trie levels (the relation's arity)."""
        return len(self._values)

    @property
    def num_tuples(self) -> int:
        """Number of root-to-leaf paths (i.e. tuples in the relation)."""
        return self._num_tuples

    def attribute_at(self, level: int) -> str:
        """Attribute stored at ``level``."""
        return self.attribute_order[level]

    def level_of(self, attribute: str) -> int:
        """Level at which ``attribute`` is stored."""
        try:
            return self.attribute_order.index(attribute)
        except ValueError:
            raise KeyError(
                f"attribute {attribute!r} not in trie over {self.attribute_order}"
            ) from None

    def level_values(self, level: int) -> Sequence[int]:
        """The flat value array of ``level``."""
        return self._values[level]

    def root_positions(self) -> Dict[int, int]:
        """Map each root value to its index in :meth:`level_values` ``(0)``.

        Host-only: the plan kernel probes it before bisecting a root-level
        seek (:mod:`repro.joins.leapfrog`); the accelerator model never reads
        it and :meth:`memory_words` does not count it.  Built on first use
        with one C-level pass and kept for this trie's lifetime — the root
        level never changes under it — and shared with the trie
        :meth:`extended` returns when the batch adds no root value.  Never
        persisted.
        """
        positions = self._root_positions
        if positions is None:
            level = self._values[0]
            positions = self._root_positions = dict(zip(level, range(len(level))))
        return positions

    def level_size(self, level: int) -> int:
        """Number of nodes stored at ``level``."""
        return len(self._values[level])

    def root_range(self) -> Tuple[int, int]:
        """Index range of the root level's nodes (always the whole array)."""
        return (0, len(self._values[0])) if self._values else (0, 0)

    def children_range(self, level: int, index: int) -> Tuple[int, int]:
        """Half-open index range (into level ``level+1``) of node ``index``'s children.

        This is exactly the operation performed by the Midwife unit: two reads
        from the child-ranges array.
        """
        if level >= self.num_levels - 1:
            raise ValueError(
                f"level {level} has no child level in a {self.num_levels}-level trie"
            )
        offsets = self._offsets[level]
        if not (0 <= index < len(offsets) - 1):
            raise IndexError(
                f"node index {index} out of range for level {level} "
                f"(size {len(offsets) - 1})"
            )
        return offsets[index], offsets[index + 1]

    def value_at(self, level: int, index: int) -> int:
        """Value of node ``index`` at ``level``."""
        return self._values[level][index]

    def child_offsets(self, level: int) -> Sequence[int]:
        """The raw CSR offsets array of ``level`` (length ``level_size + 1``)."""
        return self._offsets[level]

    # ------------------------------------------------------------------ #
    # Enumeration helpers (used by tests and the naive engine)
    # ------------------------------------------------------------------ #
    def paths(self) -> Iterator[Tuple[int, ...]]:
        """Yield every root-to-leaf path as a tuple (i.e. every stored row).

        Kept as a reference form for tests (and :meth:`to_relation`): no
        engine walks tries this way.
        """
        if not self._values or not self._values[0]:
            return
        yield from self._paths_from(0, self.root_range(), ())

    def _paths_from(
        self, level: int, index_range: Tuple[int, int], prefix: Tuple[int, ...]
    ) -> Iterator[Tuple[int, ...]]:
        start, end = index_range
        for index in range(start, end):
            value = self._values[level][index]
            if level == self.num_levels - 1:
                yield prefix + (value,)
            else:
                yield from self._paths_from(
                    level + 1, self.children_range(level, index), prefix + (value,)
                )

    def to_relation(self) -> Relation:
        """Rebuild a relation from the trie (round-trip used in tests)."""
        from repro.relational.schema import Schema

        relation = Relation(self.relation_name, Schema(self.attribute_order))
        relation.insert_many(self.paths())
        return relation

    def memory_words(self) -> int:
        """Total number of machine words the flat layout occupies.

        Values and CSR offsets each count as one word; this is what the
        memory models use to size the index footprint (the accelerator's
        layout).  It is not this process's footprint: an in-memory value
        level is a list, one pointer per element to an int the relation
        already owns.
        """
        return sum(len(v) for v in self._values) + sum(len(o) for o in self._offsets)


def _owned(level: Sequence[int]) -> array:
    """``level`` as an ``array('q')`` (a ``memoryview`` level is copied)."""
    if isinstance(level, array):
        return level
    owned = array("q")
    owned.frombytes(level.cast("B"))
    return owned


def _spliced(level: Sequence[int], inserts):
    """``level`` as a new list, each ``(position, value)`` placed before old
    node ``position``."""
    if not inserts:
        return level
    out: list = []
    start = 0
    for position, value in inserts:
        out += level[start:position]
        out.append(value)
        start = position
    out += level[start:]
    return out


def _shifted(offsets: Sequence[int], parents):
    """CSR ``offsets`` after each ``[position, is_new, children]`` parent gained
    children: old offsets shift by a count that steps after each such parent."""
    if not parents:
        return offsets
    source = _owned(offsets)
    out, start, shift = source[:0], 0, 0
    for position, is_new, children in parents:
        stop = position if is_new else position + 1
        out.extend(map(add, source[start:stop], repeat(shift)) if shift else source[start:stop])
        if is_new:
            out.append(source[position] + shift)
        start, shift = stop, shift + children
    out.extend(map(add, source[start:], repeat(shift)))
    return out
