"""Database catalog: the set of named relations a query runs against.

The catalog is the object handed to every join engine and to the accelerator:
it resolves the relation names mentioned by query atoms to stored
:class:`~repro.relational.relation.Relation` objects and builds (and caches)
the trie indexes each engine needs.

For graph workloads the catalog typically contains a single edge relation
that every atom of the pattern query binds under a different variable
ordering; :meth:`Database.trie_for_atom` therefore keys its cache on the
(relation, attribute-order) pair rather than just the relation name.

The catalog is also the **single mutation point** of the serving layer:
:meth:`Database.insert_into` routes tuple insertions through the catalog so
that cached trie indexes are extended (never rebuilt) and every subscriber
registered via :meth:`Database.subscribe_invalidation` (e.g. the
:class:`repro.service.QueryService` result cache) learns which relation
changed.  Subscribers receive a structured :class:`MutationEvent` — which
relation, which shard (``None`` for a monolithic catalog), and the exact
:class:`DeltaBatch` of rows added — so cache layers can invalidate per
(relation, shard) fragment, or patch maintained results in place with the
delta rows, instead of dropping everything that mentions the relation.

The read/write surface every engine and service component relies on is
captured by the :class:`Catalog` protocol; :class:`Database` is its
canonical single-node implementation and
:class:`repro.relational.sharding.ShardedDatabase` the partitioned one
(built from :class:`Database` units: a global view plus one per shard).
Durability is a layer over either — ``DurableCatalog → {Database |
ShardedDatabase} → Database units`` — driven through three hooks both
expose: ``check_define`` (validate before anything is logged),
``dump_state`` and ``load_state`` (what a snapshot holds, and the rebuild
from it).  This package knows nothing about files and never imports
:mod:`repro.storage`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.relational.query import Atom, ConjunctiveQuery
from repro.relational.relation import Relation, Row
from repro.relational.schema import Schema
from repro.relational.trie import TrieIndex


@dataclass(frozen=True, eq=False)
class DeltaBatch:
    """The exact rows one catalog mutation added, in canonical form.

    Every catalog (monolithic or sharded, bare or behind the durable layer)
    emits the same canonical batch for the same mutation: ``rows`` are the
    genuinely-new tuples (normalised ints, deduplicated against both the
    stored relation and the submitted batch) in ascending lexicographic
    order, and ``count`` is their number.  Maintenance layers join these
    rows against the existing tries to patch cached results in place
    (semi-naive delta evaluation) instead of dropping them.

    A batch may also be *inexact*: ``count`` rows changed but the rows
    themselves are unknown (a relation (re)definition, or an event built
    from a bare integer delta by :class:`MutationEvent`).  Inexact batches
    cannot be patched — consumers must fall back to drop-and-recompute;
    :attr:`exact` distinguishes the two.

    For compatibility with the historical ``delta``-as-int contract the
    batch compares equal to integers (``batch == 2`` means two rows
    changed) and participates in ``sum(...)`` via integer addition.
    """

    rows: Tuple[Row, ...] = ()
    count: int = 0

    @classmethod
    def from_rows(cls, rows: Iterable[Row]) -> "DeltaBatch":
        """Canonical batch over already-new, already-normalised rows."""
        canonical = tuple(sorted(rows))
        return cls(rows=canonical, count=len(canonical))

    @property
    def exact(self) -> bool:
        """True when ``rows`` accounts for every changed tuple."""
        return len(self.rows) == self.count

    def __len__(self) -> int:
        return len(self.rows)

    def __int__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return self.count > 0

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __add__(self, other):
        if isinstance(other, int):
            return self.count + other
        if isinstance(other, DeltaBatch):
            return self.count + other.count
        return NotImplemented

    __radd__ = __add__

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.count == other
        if isinstance(other, DeltaBatch):
            return self.rows == other.rows and self.count == other.count
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rows, self.count))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        shown = "exact" if self.exact else "inexact"
        return f"DeltaBatch(count={self.count}, {shown})"


@dataclass(frozen=True)
class MutationEvent:
    """One catalog mutation, as delivered to invalidation subscribers.

    Attributes
    ----------
    relation:
        Name of the stored relation that changed.
    shard:
        Shard the change landed in, or ``None`` when the catalog is
        monolithic / the change touches the relation as a whole (a
        (re)definition).  Cache layers treat ``None`` as "every shard".
    delta:
        The :class:`DeltaBatch` of the mutation — the rows actually added
        plus their count.  A bare integer is accepted for compatibility
        and coerced to an inexact batch (count only, no rows).  A count of
        ``0`` means the catalog mutated conservatively (e.g. every
        submitted row was a duplicate) — subscribers still invalidate,
        matching the conservative contract of :meth:`Database.insert_into`.
    kind:
        ``"insert"`` for row insertions, ``"define"`` for relation
        (re)definitions.
    """

    relation: str
    shard: Optional[int] = None
    delta: Union[DeltaBatch, int] = field(default=0)
    kind: str = "insert"

    def __post_init__(self) -> None:
        if not isinstance(self.delta, DeltaBatch):
            object.__setattr__(self, "delta", DeltaBatch(count=int(self.delta)))

    @property
    def patchable(self) -> bool:
        """True when the event carries exact rows a maintainer can patch with.

        Relation (re)definitions and inexact batches force the historical
        drop-and-recompute path; exact insert batches (including empty
        ones — every submitted row was a duplicate) can be patched.
        """
        return self.kind == "insert" and self.delta.exact


#: Signature of an invalidation subscriber.
MutationListener = Callable[[MutationEvent], None]


@dataclass(frozen=True)
class RelationState:
    """One relation as :meth:`Database.dump_state` emits and ``load_state`` reads it.

    ``fragments`` maps ``None`` to the whole relation's sorted rows and, for
    a ``"partitioned"`` relation, each shard index to that shard's sorted
    rows; ``partitioner`` is the fitted partitioner's ``to_spec()``.
    """

    name: str
    attributes: Tuple[str, ...]
    placement: str  # 'single' (monolithic) | 'partitioned' (sharded, on the first attribute)
    fragments: Dict[Optional[int], Sequence[Row]]
    shard_attribute: Optional[str] = None
    partitioner: Optional[Dict[str, Any]] = None


@dataclass(frozen=True)
class CatalogState:
    """Everything that must be persisted to rebuild a catalog exactly.

    ``shape`` describes the catalog's kind and configuration as strings
    (what a store is stamped with at creation and checked against on
    reopen); ``tries`` pairs each cached trie with the shard holding it
    (``None`` = the whole-relation view).
    """

    shape: Dict[str, str]
    relations: Tuple[RelationState, ...]
    tries: Tuple[Tuple[TrieIndex, Optional[int]], ...]


@runtime_checkable
class Catalog(Protocol):
    """The storage contract engines, caches and the service layer share.

    :class:`Database` satisfies it directly;
    :class:`repro.relational.sharding.ShardedDatabase` satisfies it while
    partitioning each relation across shard databases.  Engines only ever
    read (``relation`` / ``trie_for_atom`` / ``validate_query``); the
    serving layer also mutates (``insert_into``) and subscribes to the
    resulting :class:`MutationEvent` stream.
    """

    name: str

    def relation(self, name: str) -> Relation: ...

    def relation_names(self) -> Tuple[str, ...]: ...

    def __contains__(self, name: str) -> bool: ...

    def trie(self, relation_name: str, attribute_order: Sequence[str]) -> TrieIndex: ...

    def trie_for_atom(self, atom: Atom, variable_order: Sequence[str]) -> TrieIndex: ...

    def validate_query(self, query: ConjunctiveQuery) -> None: ...

    def insert_into(self, relation_name: str, rows: Iterable[Sequence[int]]) -> int: ...

    def subscribe_invalidation(self, callback: MutationListener) -> None: ...

    def unsubscribe_invalidation(self, callback: MutationListener) -> bool: ...

    def total_tuples(self) -> int: ...


def ordered_attributes_for(
    atom: Atom, attributes: Sequence[str], variable_order: Sequence[str]
) -> Tuple[str, ...]:
    """The trie attribute permutation ``atom`` needs under ``variable_order``.

    ``attributes`` are the bound relation's own attribute names.  The atom
    binds query variables to them by position; the trie levels must follow
    the order in which the *query variables* are eliminated.  The one
    derivation behind :meth:`Database.trie_for_atom` and the process
    backend's segment keys (:mod:`repro.service.shm`), so exporter and
    worker derive the same key from the same plan by construction.
    """
    if atom.arity != len(attributes):
        raise ValueError(
            f"atom {atom} has arity {atom.arity} but relation "
            f"{atom.relation!r} has arity {len(attributes)}"
        )
    # Repeated variables bind several attributes; they keep atom order.
    ordered: List[str] = []
    for variable in variable_order:
        for position, bound in enumerate(atom.variables):
            if bound == variable:
                attribute = attributes[position]
                if attribute not in ordered:
                    ordered.append(attribute)
    if len(ordered) != len(attributes):
        missing = [a for a in attributes if a not in ordered]
        raise ValueError(
            f"variable order {tuple(variable_order)!r} does not cover attributes "
            f"{missing!r} of atom {atom}"
        )
    return tuple(ordered)


@lru_cache(maxsize=1024)
def _trie_order(
    atom: Atom, attributes: Tuple[str, ...], variable_order: Tuple[str, ...]
) -> Tuple[str, ...]:
    """:func:`ordered_attributes_for`, memoised (bounded, hashable arguments).

    Every engine run looks up each atom's trie, so the catalogs' per-run
    path derives each ``(atom, attributes, variable_order)`` order once.
    """
    return ordered_attributes_for(atom, attributes, variable_order)


class MutationSource:
    """Invalidation-subscriber bookkeeping, shared by every catalog that mutates."""

    def __init__(self) -> None:
        self._invalidation_listeners: List[MutationListener] = []

    def subscribe_invalidation(self, callback: MutationListener) -> None:
        """Call ``callback(event)`` with the :class:`MutationEvent` of every
        (re)definition or mutation (``shard=None`` from a monolithic catalog)."""
        self._invalidation_listeners.append(callback)

    def unsubscribe_invalidation(self, callback: MutationListener) -> bool:
        """Remove a previously subscribed callback; True if it was present.

        Lets short-lived subscribers (e.g. a closed :class:`repro.api.Session`)
        detach, so a long-lived catalog does not accumulate dead listeners.
        """
        try:
            self._invalidation_listeners.remove(callback)
            return True
        except ValueError:
            return False

    def _notify(self, event: MutationEvent) -> None:
        for callback in self._invalidation_listeners:
            callback(event)


class Database(MutationSource):
    """A named collection of relations with on-demand trie indexes."""

    def __init__(self, name: str = "db"):
        super().__init__()
        self.name = name
        self._relations: Dict[str, Relation] = {}
        self._trie_cache: Dict[Tuple[str, Tuple[str, ...]], TrieIndex] = {}
        # Concurrent engine executions (the service's threaded backend)
        # request tries for the same (relation, order) simultaneously; the
        # lock makes the lazy build happen exactly once instead of racing
        # the check-then-insert.
        self._trie_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Relation management
    # ------------------------------------------------------------------ #
    def check_define(self, relation: Relation, replace: bool = False) -> None:
        """Validate a (re)definition without touching any state.

        Raises what :meth:`add_relation` / :meth:`replace_relation` would.  A
        write-ahead layer calls this *before* logging, so a rejected
        definition is never logged.
        """
        if not replace and relation.name in self._relations:
            raise KeyError(f"relation {relation.name!r} already exists in {self.name!r}")

    def add_relation(self, relation: Relation) -> None:
        """Register ``relation``; its name must be unused."""
        self.check_define(relation)
        self._relations[relation.name] = relation
        self._invalidate(relation.name, delta=relation.cardinality, kind="define")

    def replace_relation(self, relation: Relation) -> None:
        """Register ``relation``, replacing any existing one of the same name."""
        self._relations[relation.name] = relation
        self._invalidate(relation.name, delta=relation.cardinality, kind="define")

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise KeyError(
                f"relation {name!r} not found in database {self.name!r} "
                f"(have: {sorted(self._relations)})"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[str]:
        return iter(self._relations)

    def relation_names(self) -> Tuple[str, ...]:
        return tuple(self._relations)

    def insert_into(self, relation_name: str, rows: Iterable[Sequence[int]]) -> int:
        """Insert ``rows`` into a stored relation; return how many were new.

        This is the mutation entry point of the serving layer: cached tries
        for the relation are extended with the new rows in one batched
        pass (no rebuild, see :meth:`_apply_delta`) and every
        invalidation subscriber is notified with the exact
        :class:`DeltaBatch`, whether or not any row was actually new —
        callers cannot observe staleness either way, but cache layers above
        prefer the conservative signal.
        """
        return self.insert_batch(relation_name, rows).count

    def insert_batch(self, relation_name: str, rows: Iterable[Sequence[int]]) -> DeltaBatch:
        """Insert ``rows`` and return the canonical :class:`DeltaBatch`.

        This is :meth:`insert_into` with the exact new rows surfaced, so
        composing catalogs (sharding, durability) can forward per-fragment
        batches without re-deriving them.
        """
        relation = self.relation(relation_name)
        batch = DeltaBatch.from_rows(relation.insert_batch(rows))
        self._apply_delta(relation_name, batch)
        return batch

    def _invalidate(self, relation_name: str, delta: int, kind: str) -> None:
        with self._trie_lock:
            stale = [key for key in self._trie_cache if key[0] == relation_name]
            for key in stale:
                del self._trie_cache[key]
        self._notify(MutationEvent(relation_name, shard=None, delta=delta, kind=kind))

    def _apply_delta(self, relation_name: str, batch: DeltaBatch) -> None:
        """Extend cached tries with ``batch`` and notify subscribers.

        Each cached trie of the relation is replaced by its
        :meth:`TrieIndex.extended` over the batch rows — one batched pass, no
        rebuild; readers holding the old trie keep a consistent snapshot.  A
        trie whose tuple count no longer matches the relation — someone
        mutated the :class:`Relation` behind the catalog's back — is evicted
        instead, and the next reader rebuilds it.
        """
        relation = self.relation(relation_name)
        with self._trie_lock:
            stale = [
                (key, trie)
                for key, trie in self._trie_cache.items()
                if key[0] == relation_name
            ]
            for key, trie in stale:
                if trie.num_tuples + batch.count != relation.cardinality:
                    del self._trie_cache[key]
                elif batch.rows:
                    self._trie_cache[key] = trie.extended(relation, batch.rows)
        self._notify(MutationEvent(relation_name, shard=None, delta=batch, kind="insert"))

    # ------------------------------------------------------------------ #
    # State hooks (what a durable layer persists and restores)
    # ------------------------------------------------------------------ #
    def dump_state(self) -> CatalogState:
        """The catalog's full contents: relations, rows and cached tries."""
        return CatalogState(
            shape={"catalog_kind": "single"},
            relations=tuple(
                RelationState(
                    name, relation.schema.attributes, "single", {None: relation.sorted_rows()}
                )
                for name, relation in self._relations.items()
            ),
            tries=tuple((trie, None) for trie in self.cached_tries()),
        )

    def load_state(
        self,
        relations: Iterable[RelationState],
        tries: Iterable[Tuple[TrieIndex, Optional[int]]] = (),
        fragment: Optional[int] = None,
    ) -> None:
        """Rebuild from :meth:`dump_state` output (the cold-start path).

        Loads the ``fragment`` (``None`` = whole relations; a shard unit of
        a sharded catalog passes its index) of every relation that has one —
        rows arrive sorted and deduplicated, so the sorted-row cache is
        pre-seeded — then installs that fragment's prebuilt tries in the
        cache (the caller guarantees they match the rows; a later insert
        extends them like any other cached trie), so the first query after a
        restart maps files instead of rebuilding indexes.
        """
        for state in relations:
            if fragment in state.fragments:
                self.add_relation(
                    Relation.from_sorted_rows(
                        state.name, Schema(state.attributes), state.fragments[fragment]
                    )
                )
        with self._trie_lock:
            for trie, shard in tries:
                if shard == fragment and trie.relation_name in self._relations:
                    self._trie_cache[(trie.relation_name, trie.attribute_order)] = trie

    # ------------------------------------------------------------------ #
    # Trie construction
    # ------------------------------------------------------------------ #
    def cached_tries(self) -> Tuple[TrieIndex, ...]:
        """Snapshot of the currently cached (built or adopted) tries."""
        with self._trie_lock:
            return tuple(self._trie_cache.values())

    def trie(self, relation_name: str, attribute_order: Sequence[str]) -> TrieIndex:
        """Return (building if needed) the trie of ``relation_name`` in the given order.

        ``attribute_order`` is expressed in the relation's *own* attribute
        names.  Tries are cached because the same ordering is requested once
        per engine per experiment.
        """
        key = (relation_name, tuple(attribute_order))
        with self._trie_lock:
            trie = self._trie_cache.get(key)
            if trie is None:
                relation = self.relation(relation_name)
                trie = TrieIndex(relation, attribute_order)
                self._trie_cache[key] = trie
            return trie

    def trie_for_atom(
        self, atom: Atom, variable_order: Sequence[str]
    ) -> TrieIndex:
        """The trie an engine needs to scan ``atom`` under ``variable_order``
        (levels in :func:`ordered_attributes_for` order)."""
        attributes = self.relation(atom.relation).schema.attributes
        return self.trie(atom.relation, _trie_order(atom, attributes, tuple(variable_order)))

    # ------------------------------------------------------------------ #
    # Validation / statistics
    # ------------------------------------------------------------------ #
    def validate_query(self, query: ConjunctiveQuery) -> None:
        """Raise if ``query`` references unknown relations or mismatched arities."""
        relations = self._relations
        for atom in query.atoms:
            # Runs on every served request: one dict probe and one length
            # compare per atom.
            relation = relations.get(atom.relation)
            if relation is None:
                relation = self.relation(atom.relation)  # raises the KeyError
            if len(atom.variables) != len(relation.schema.attributes):
                raise ValueError(
                    f"atom {atom} has arity {atom.arity}, but relation "
                    f"{relation.name!r} has arity {relation.schema.arity}"
                )

    def total_tuples(self) -> int:
        """Total number of stored tuples across relations."""
        return sum(r.cardinality for r in self._relations.values())

    def size_in_bytes(self, bytes_per_value: int = 4) -> int:
        """Approximate raw storage footprint of all relations."""
        return sum(r.size_in_bytes(bytes_per_value) for r in self._relations.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Database({self.name!r}, relations={sorted(self._relations)})"


class OverlayCatalog:
    """A read-only catalog in which some names resolve elsewhere.

    ``overlays`` maps a visible relation name to ``(database,
    stored_name)``; every other name falls through to ``base`` (anything
    with the :class:`Catalog` read surface, another overlay included).  A
    scatter task's view maps the shard alias to the seed fragment's
    :class:`Database` (:meth:`ShardedDatabase.shard_view
    <repro.relational.sharding.ShardedDatabase.shard_view>`); a delta term's
    view maps the delta aliases to the one database holding a mutation
    event's batch rows (:class:`repro.joins.delta.DeltaCatalog`).  The
    serving layer mutates the base catalog, never the view.
    """

    def __init__(self, base, overlays: Mapping[str, Tuple[Database, str]], name: str):
        self.base = base
        self.overlays = dict(overlays)
        self.name = name

    def relation(self, name: str) -> Relation:
        target = self.overlays.get(name)
        if target is None:
            return self.base.relation(name)
        return target[0].relation(target[1])

    def relation_names(self) -> Tuple[str, ...]:
        return tuple(self.base.relation_names()) + tuple(self.overlays)

    def __contains__(self, name: str) -> bool:
        return name in self.overlays or name in self.base

    def trie(self, relation_name: str, attribute_order: Sequence[str]) -> TrieIndex:
        target = self.overlays.get(relation_name)
        if target is None:
            return self.base.trie(relation_name, attribute_order)
        return target[0].trie(target[1], attribute_order)

    def trie_for_atom(self, atom: Atom, variable_order: Sequence[str]) -> TrieIndex:
        target = self.overlays.get(atom.relation)
        if target is None:
            return self.base.trie_for_atom(atom, variable_order)
        # The stored relation binds the atom's variables in the same positions.
        database, stored_name = target
        attributes = database.relation(stored_name).schema.attributes
        return database.trie(stored_name, _trie_order(atom, attributes, tuple(variable_order)))

    def validate_query(self, query: ConjunctiveQuery) -> None:
        for atom in query.atoms:
            relation = self.relation(atom.relation)
            if atom.arity != relation.schema.arity:
                raise ValueError(
                    f"atom {atom} has arity {atom.arity}, but relation "
                    f"{relation.name!r} has arity {relation.schema.arity}"
                )

    def total_tuples(self) -> int:
        """Stored tuples across every visible name (the overlaid ones included)."""
        return self.base.total_tuples() + sum(
            database.relation(stored_name).cardinality
            for database, stored_name in self.overlays.values()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"OverlayCatalog({self.name!r}, overlays={sorted(self.overlays)})"
