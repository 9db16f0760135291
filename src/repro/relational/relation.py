"""In-memory relations (tables) of integer tuples.

A :class:`Relation` is the storage-level object everything else is built on:
the graph edge list is a binary relation, query atoms bind relations to
variables, tries are built from relations, and the pairwise-join engines
materialise intermediate relations.

Tuples are stored as plain Python tuples of ints, and every value is a
signed 64-bit word: :meth:`Relation.normalize_row` is the one place rows
enter, and it rejects anything else, so tries, segments and snapshots store
one fixed-width format.  The class keeps the tuple set deduplicated and
offers sorted iteration so that trie construction and sort-merge joins do
not need to re-sort on every use; :meth:`Relation.sorted_rows_in`
extends the cache to *permuted* orders, so building several tries over the
same relation (one per attribute order a query needs) sorts each permutation
at most once between mutations.  Every mutation drops those caches: a
catalog extends its cached tries in place of re-reading them, so only a
trie first built in a new order, or a snapshot, sorts again.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.relational.schema import Schema
from repro.util.validation import check_type


Row = Tuple[int, ...]

#: The values a relation stores: one signed 64-bit machine word each.
WORDS = range(-(2**63), 2**63)


class Relation:
    """A named set of fixed-arity integer tuples.

    Parameters
    ----------
    name:
        Relation name (used by queries and the catalog).
    schema:
        The relation's :class:`~repro.relational.schema.Schema`.
    rows:
        Initial tuples; duplicates are dropped (relations are sets, matching
        the paper's natural-join semantics).
    """

    def __init__(self, name: str, schema: Schema, rows: Iterable[Sequence[int]] = ()):
        check_type("name", name, str)
        check_type("schema", schema, Schema)
        self.name = name
        self.schema = schema
        self._rows: set = set()
        self._sorted_cache: List[Row] | None = None
        self._permuted_cache: Dict[Tuple[int, ...], List[Row]] = {}
        for row in rows:
            self.insert(row)

    @classmethod
    def from_sorted_rows(
        cls, name: str, schema: Schema, sorted_rows: Sequence[Row]
    ) -> "Relation":
        """Adopt rows that are already sorted, deduplicated int tuples.

        The durable-storage restore path loads fragments in exactly that
        form, so this skips per-row normalisation and pre-seeds the
        sorted-rows cache — the first schema-order trie build after a cold
        start pays no re-sort (until the first insert drops the cache, see
        :meth:`insert_batch`).  Callers must guarantee the invariants; they
        are not checked here.
        """
        relation = cls(name, schema)
        rows = list(sorted_rows)
        relation._rows = set(rows)
        relation._sorted_cache = rows
        return relation

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def normalize_row(self, row: Sequence[int]) -> Row:
        """``row`` as a stored tuple: the relation's arity, every value an ``int``
        in :data:`WORDS`; raises ``ValueError`` otherwise.

        Every catalog runs its rows through this before changing any state
        (a durable one before logging them), so a rejected batch leaves no
        trace.
        """
        if len(row) != self.schema.arity:
            raise ValueError(
                f"row {tuple(row)!r} has arity {len(row)}, "
                f"expected {self.schema.arity} for relation {self.name!r}"
            )
        normalized = tuple(map(int, row))
        for value in normalized:
            if value not in WORDS:  # O(1): range membership of an int
                raise ValueError(
                    f"value {value} in row {normalized!r} is outside the signed 64-bit "
                    f"range stored by relation {self.name!r}"
                )
        return normalized

    def insert(self, row: Sequence[int]) -> bool:
        """Insert ``row``; return ``True`` if it was not already present."""
        normalized = self.normalize_row(row)
        if normalized in self._rows:
            return False
        self._rows.add(normalized)
        self._sorted_cache = None
        self._permuted_cache.clear()
        return True

    def insert_many(self, rows: Iterable[Sequence[int]]) -> int:
        """Insert many rows; return the number of new tuples added."""
        added = 0
        for row in rows:
            if self.insert(row):
                added += 1
        return added

    def insert_batch(self, rows: Iterable[Sequence[int]]) -> Tuple[Row, ...]:
        """Insert a batch and return the genuinely-new rows, sorted.

        Like per-row :meth:`insert`, a batch that adds rows drops the
        sorted-rows caches.  The catalog extends its cached tries from the
        returned rows (:meth:`TrieIndex.extended
        <repro.relational.trie.TrieIndex.extended>`) without reading them,
        so a re-sort is paid only by a rare reader — a trie first built in
        a new order, or a snapshot (``dump_state``) — and no permuted copy
        of the rows is kept alive between them.  A list handed out earlier
        is never mutated.  The returned rows are normalised, deduplicated
        against both the stored set and the batch itself, and
        lexicographically ascending — exactly the canonical form
        :class:`repro.relational.catalog.DeltaBatch` carries.
        """
        fresh: set = set()
        for row in rows:
            normalized = self.normalize_row(row)
            if normalized not in self._rows:
                fresh.add(normalized)
        if not fresh:
            return ()
        added = sorted(fresh)
        self._rows.update(added)
        self._sorted_cache = None
        self._permuted_cache.clear()
        return tuple(added)

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    @property
    def cardinality(self) -> int:
        """Number of (distinct) tuples stored."""
        return len(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, row: Sequence[int]) -> bool:
        return tuple(row) in self._rows

    def __iter__(self) -> Iterator[Row]:
        return iter(self.sorted_rows())

    def sorted_rows(self) -> List[Row]:
        """All tuples in lexicographic order (cached between mutations)."""
        if self._sorted_cache is None:
            self._sorted_cache = sorted(self._rows)
        return self._sorted_cache

    def sorted_rows_in(self, attributes: Sequence[str]) -> List[Row]:
        """Tuples permuted to ``attributes`` order, lexicographically sorted.

        ``attributes`` must be a permutation of the schema.  The schema order
        delegates to :meth:`sorted_rows`; every other permutation is sorted
        once and cached until the next mutation (any insert, batched or not,
        drops the cache), so repeated trie builds over the same relation
        (one per attribute order a query's atoms need) never re-sort between
        mutations.
        """
        indexes = tuple(self.schema.index_of(a) for a in attributes)
        if indexes == tuple(range(self.schema.arity)):
            return self.sorted_rows()
        cached = self._permuted_cache.get(indexes)
        if cached is None:
            cached = sorted(tuple(row[i] for i in indexes) for row in self._rows)
            self._permuted_cache[indexes] = cached
        return cached

    def column(self, attribute: str) -> List[int]:
        """Sorted distinct values of ``attribute``."""
        idx = self.schema.index_of(attribute)
        return sorted({row[idx] for row in self._rows})

    def active_domain(self) -> List[int]:
        """Sorted distinct values appearing anywhere in the relation."""
        values = set()
        for row in self._rows:
            values.update(row)
        return sorted(values)

    def size_in_bytes(self, bytes_per_value: int = 4) -> int:
        """Approximate storage footprint used by the memory models."""
        return self.cardinality * self.schema.arity * bytes_per_value

    # ------------------------------------------------------------------ #
    # Relational operations used by the engines and tests
    # ------------------------------------------------------------------ #
    def rename(self, name: str, mapping: Dict[str, str]) -> "Relation":
        """Return a copy with a new name and renamed attributes."""
        renamed = Relation(name, self.schema.rename(mapping))
        renamed._rows = set(self._rows)
        return renamed

    def project(self, attributes: Sequence[str]) -> "Relation":
        """Return the projection onto ``attributes`` (duplicates removed)."""
        indexes = [self.schema.index_of(a) for a in attributes]
        projected = Relation(f"{self.name}_proj", self.schema.project(attributes))
        projected.insert_many(tuple(row[i] for i in indexes) for row in self._rows)
        return projected

    def select_equal(self, attribute: str, value: int) -> "Relation":
        """Return the selection ``attribute == value``."""
        idx = self.schema.index_of(attribute)
        selected = Relation(f"{self.name}_sel", self.schema)
        selected.insert_many(row for row in self._rows if row[idx] == value)
        return selected

    def reorder(self, attributes: Sequence[str]) -> "Relation":
        """Return a copy whose columns follow ``attributes`` order.

        The attribute set must be exactly the schema's attribute set; this is
        used when building a trie whose level order differs from storage
        order (the CTJ compiler chooses the global variable order, and each
        relation's trie must present its attributes in that order).
        """
        if set(attributes) != set(self.schema.attributes):
            raise ValueError(
                f"reorder attributes {tuple(attributes)!r} must be a permutation of "
                f"{self.schema.attributes!r}"
            )
        indexes = [self.schema.index_of(a) for a in attributes]
        reordered = Relation(self.name, Schema(attributes))
        reordered.insert_many(tuple(row[i] for i in indexes) for row in self._rows)
        return reordered

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Relation(name={self.name!r}, schema={self.schema.attributes}, "
            f"cardinality={self.cardinality})"
        )
