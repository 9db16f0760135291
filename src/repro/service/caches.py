"""Cross-query caches of the serving layer: compiled plans and full results.

The paper's PJR cache (:mod:`repro.core.pjr_cache`) reuses partial results
*within* one query execution; the serving layer generalises the idea across
requests with two LRU caches keyed by the canonical query signature
(:func:`repro.joins.compiler.canonical_signature`):

* the **plan cache** stores ``(canonical_query, JoinPlan)`` pairs so that
  α-equivalent queries are compiled exactly once;
* the **result cache** stores complete result-tuple lists together with the
  names of the relations they were computed from.  Insert events are
  logged, and an entry is patched when it is next read; a relation
  (re)definition drops every entry that depends on the relation.

The scatter-gather executor (:mod:`repro.service.scatter`) keeps its
per-shard partial results in a second result cache; what makes it shard
aware is its patch solver, which seeds a partial's delta join with only the
logged rows that hash to the partial's shard.

Both caches are bounded by entry count and evict in LRU order, and both keep
the same style of hit/miss/eviction counters as
:class:`~repro.core.pjr_cache.PJRCacheStats` so service reports can show
plan- and result-reuse rates side by side.

**Thread safety.**  The serving layer touches these caches from one thread
(the one that drains), but the caches are exported classes a caller may
share between threads.  Unsynchronised, the ``OrderedDict`` corrupts
(``move_to_end`` racing a structural mutation) and the ``+=`` stats
counters lose updates, so every public operation takes the cache's internal
re-entrant lock; ``tests/test_service_concurrency.py`` hammers it.  The lock
protects *individual operations*; the cross-operation ordering that
determinism needs (get-before-publish) is the event loop's job.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import groupby
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Generic,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

from repro.joins.delta import DeltaResult
from repro.joins.plan import JoinPlan
from repro.relational.catalog import MutationEvent
from repro.relational.query import ConjunctiveQuery
from repro.util.sorted_ops import is_strictly_sorted, splice_sorted
from repro.util.validation import check_positive

if TYPE_CHECKING:
    from repro.service.maintenance import InsertLog

V = TypeVar("V")


@dataclass
class CacheStats:
    """Activity counters shared by the plan and result caches.

    ``insertions`` counts fresh keys only; re-putting an existing key is a
    ``replacement``.  Entries leave the cache through exactly one of
    ``evictions`` (capacity pressure), ``drops`` (a targeted
    :meth:`LRUCache.discard`) or ``clears`` (a bulk :meth:`LRUCache.clear`),
    so service reports can tell reuse loss from staleness loss.  A read
    that catches an entry up with the inserts it missed *patches* it in
    place instead of dropping it (``patches``); ``invalidations`` is the
    derived total of mutation-triggered touches, ``drops + patches``,
    preserving the historical counter for reports and trace events.  A
    maintenance solver that *raised* still degrades its entry to a drop,
    but is counted under ``solver_errors`` so the failure is visible.
    """

    lookups: int = 0
    hits: int = 0
    insertions: int = 0
    replacements: int = 0
    evictions: int = 0
    drops: int = 0
    patches: int = 0
    clears: int = 0
    solver_errors: int = 0

    @property
    def invalidations(self) -> int:
        """Mutation-triggered entry touches: targeted drops plus patches."""
        return self.drops + self.patches

    @property
    def misses(self) -> int:
        return self.lookups - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "insertions": self.insertions,
            "replacements": self.replacements,
            "evictions": self.evictions,
            "drops": self.drops,
            "patches": self.patches,
            "invalidations": self.invalidations,
            "clears": self.clears,
            "solver_errors": self.solver_errors,
        }

    def invalidation_summary(self) -> str:
        """The report-line fragment for mutation-triggered activity."""
        errors = f", {self.solver_errors} solver errors" if self.solver_errors else ""
        return (
            f"{self.invalidations} invalidations "
            f"({self.drops} drops, {self.patches} patches{errors})"
        )


class LRUCache(Generic[V]):
    """A bounded mapping with LRU eviction and activity counters.

    Keys are the canonical query signatures produced by the compiler hooks;
    values are whatever the subclass stores.  ``capacity`` counts entries
    (signatures), not bytes: both cached artefact kinds are small and
    entry-count bounds keep eviction behaviour easy to reason about in
    tests.
    """

    def __init__(self, capacity: int):
        check_positive("capacity", capacity)
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, V]" = OrderedDict()
        # Re-entrant: compound operations (put_result → put, invalidate →
        # discard) nest inside one acquisition, and subclass hooks
        # (_on_evict) run under it.
        self._lock = threading.RLock()

    def get(self, key: str) -> Optional[V]:
        """Return the cached value (refreshing LRU order) or ``None``."""
        with self._lock:
            self.stats.lookups += 1
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def put(self, key: str, value: V) -> None:
        """Insert/replace ``key``, evicting LRU entries past capacity.

        Replacing an existing key counts as a ``replacement``, not a fresh
        insertion — the entry count does not grow, so no eviction can be
        triggered and reuse reports stay honest.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                self.stats.replacements += 1
                return
            self._entries[key] = value
            self.stats.insertions += 1
            while len(self._entries) > self.capacity:
                victim_key, _ = self._entries.popitem(last=False)
                self._on_evict(victim_key)
                self.stats.evictions += 1

    def discard(self, key: str) -> bool:
        """Drop ``key`` (an invalidation drop, not an eviction); True if present."""
        with self._lock:
            if key not in self._entries:
                return False
            del self._entries[key]
            self._on_evict(key)
            self.stats.drops += 1
            return True

    def clear(self) -> None:
        """Drop every entry, counted under ``clears`` (not invalidations)."""
        with self._lock:
            for key in list(self._entries):
                del self._entries[key]
                self._on_evict(key)
                self.stats.clears += 1

    def keys(self) -> Tuple[str, ...]:
        """Current keys in LRU order (least recently used first)."""
        with self._lock:
            return tuple(self._entries)

    def _on_evict(self, key: str) -> None:
        """Subclass hook: an entry left the cache (evicted or invalidated).

        Always invoked with the cache lock held.
        """

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries


class PlanCache(LRUCache[Tuple[ConjunctiveQuery, JoinPlan]]):
    """LRU cache of compiled canonical plans, keyed by query signature."""


#: A cache's patch solver, called as ``solver(key, query, since, now)`` for
#: an entry synced at log position ``since`` and read at virtual time
#: ``now``: every row the entry lacks with the engine cost of finding them,
#: or ``None`` when the entry cannot be patched (it is dropped).
Solver = Callable[[str, ConjunctiveQuery, int, float], Optional[DeltaResult]]


class ResultCache(LRUCache[List[Tuple[int, ...]]]):
    """LRU cache of complete query results, maintained per relation.

    Every entry records the names of the relations its result was computed
    from.  The pipeline's :class:`~repro.service.maintenance.ResultMaintainer`
    attaches its insert log and a patch solver (:meth:`attach`): from then
    on every entry records the log position it is up to date with.  For an
    event it cannot patch, the maintainer calls :meth:`invalidate`, which
    *drops* exactly the entries that depend on the mutated relation
    (counted as drops, not evictions).

    **Patches settle on read.**  An insert only appends to the log.  A
    :meth:`get` or :meth:`peek` of an entry that is behind asks the solver
    once for every row the entry lacks — one delta join, however many
    insert events it missed — and :meth:`patch_result` merges them into a
    new stored list (one merge per read).  An entry nobody reads pays
    nothing, and :meth:`expire` drops one whose backlog outgrew its
    relation.  A list handed out never changes: a merge replaces it.
    """

    def __init__(self, capacity: int):
        super().__init__(capacity)
        # relation -> dependent keys, and key -> its relations.
        self._dependents: Dict[str, Set[str]] = {}
        self._dependencies: Dict[str, Tuple[str, ...]] = {}
        # key -> the query the entry answers; only entries that recorded one
        # are patchable by the incremental-maintenance path.
        self._queries: Dict[str, ConjunctiveQuery] = {}
        # Keys whose stored list this cache itself made sorted and distinct
        # (publishers promise neither); only those may be spliced as they are.
        self._normalised: Set[str] = set()
        #: The maintainer's insert log and patch solver (see :meth:`attach`).
        self.log: Optional["InsertLog"] = None
        self.solver: Optional[Solver] = None
        #: Virtual-time cost of every patch this cache's reads ran; a reader
        #: charges the difference across its read.
        self.maintenance_ns = 0.0
        # key -> the log position the entry is up to date with.
        self._synced: Dict[str, int] = {}
        # relation -> its dependent keys, least recently synced first (so
        # oldest log position first: a sync moves a key to the end).
        self._order: Dict[str, "OrderedDict[str, None]"] = {}

    def attach(self, log: "InsertLog", solver: Solver) -> None:
        """Patch every entry on read from ``log`` through ``solver``.

        The maintainer attaches each cache while it is still empty.
        """
        with self._lock:
            self.log, self.solver = log, solver

    def get(self, key: str, now: float = 0.0) -> Optional[List[Tuple[int, ...]]]:
        """Return the cached rows (refreshing LRU order) or ``None``.

        An entry behind the insert log is patched first (see the class
        docstring), with the fault checks at virtual time ``now``; one the
        patch drops is a miss.  The body repeats :meth:`LRUCache.get` rather
        than calling it: a hit costs one frame and one lock acquisition,
        plus one dict probe.
        """
        with self._lock:
            self.stats.lookups += 1
            entry = self._entries.get(key)
            if entry is None:
                return None
            synced = self._synced.get(key)
            if synced is not None and synced != self.log.position:
                entry = self._catch_up(key, synced, now)
                if entry is None:
                    return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def peek(self, key: str, now: float = 0.0) -> Optional[List[Tuple[int, ...]]]:
        """The up-to-date rows, without touching lookups, hits or LRU order.

        Patches an entry that is behind, exactly like :meth:`get`.
        """
        with self._lock:
            entry = self._entries.get(key)
            synced = self._synced.get(key)
            if entry is not None and synced is not None and synced != self.log.position:
                entry = self._catch_up(key, synced, now)
            return entry

    def _catch_up(
        self, key: str, since: int, now: float
    ) -> Optional[List[Tuple[int, ...]]]:
        """Patch ``key`` with every row it lacks; its rows, or ``None`` if it dropped.

        One solver call covers every relation the entry depends on.  An
        entry without a recorded query, a solver returning ``None`` and a
        raising solver (counted under ``solver_errors``) all drop it.
        """
        self._sync(key)
        if not any(self.log.backlog(relation, since) for relation in self._dependencies[key]):
            return self._entries[key]
        query = self._queries.get(key)
        result = None
        if query is not None:
            try:
                result = self.solver(key, query, since, now)
            except Exception:
                self.stats.solver_errors += 1
        if result is None:
            self.discard(key)
            return None
        self.maintenance_ns += result.cost_ns
        self.patch_result(key, result.tuples)
        return self._entries[key]

    def _sync(self, key: str) -> None:
        """Mark ``key`` up to date with the log's current position."""
        self._synced[key] = self.log.position
        for relation in self._dependencies[key]:
            order = self._order.setdefault(relation, OrderedDict())
            order[key] = None
            order.move_to_end(key)

    def _merge(self, key: str, delta: List[Tuple[int, ...]]) -> None:
        """Replace ``key``'s stored list by its sorted set union with ``delta``.

        ``delta`` is sorted and distinct.  The entry's first merge sorts the
        published list once (publishers hand in unsorted lists, and may
        repeat a row) and drops adjacent repeats only when the sorted list
        is not strictly increasing; every merge then splices, so no set of
        the whole entry is ever built.  Called with the lock held.
        """
        entry = self._entries[key]
        if key not in self._normalised:
            entry = sorted(entry)
            if not is_strictly_sorted(entry):
                entry = [row for row, _ in groupby(entry)]
            self._normalised.add(key)
        self._entries[key] = splice_sorted(entry, delta)

    def put(self, key: str, value: List[Tuple[int, ...]]) -> None:
        """Store ``value`` as published: its order is the publisher's again."""
        with self._lock:
            self._normalised.discard(key)
            super().put(key, value)

    def put_result(
        self,
        key: str,
        tuples: List[Tuple[int, ...]],
        relation_names: Iterable[str],
        query: Optional[ConjunctiveQuery] = None,
    ) -> None:
        """Cache ``tuples`` for ``key``, depending on ``relation_names``.

        ``query`` records what the entry answers: entries carrying their
        query can be *patched* on read by incremental maintenance instead of
        dropped; entries without one drop on their first read after an
        insert into a relation they depend on.  The entry is up to date with
        the insert log's current position.
        """
        dependencies = tuple(dict.fromkeys(relation_names))
        with self._lock:
            if key in self._dependencies:
                self._drop_dependency_index(key)
            self._dependencies[key] = dependencies
            for relation in dependencies:
                self._dependents.setdefault(relation, set()).add(key)
            if query is not None:
                self._queries[key] = query
            self.put(key, tuples)
            if self.log is not None:
                self._sync(key)

    def dependent_keys(self, event: MutationEvent) -> Tuple[str, ...]:
        """The keys that depend on the event's relation, in sorted order."""
        with self._lock:
            return tuple(sorted(self._dependents.get(event.relation, ())))

    def invalidate(self, event: MutationEvent) -> int:
        """Drop every entry dependent on the mutated relation; return the count.

        The maintainer's path for events it cannot patch.
        """
        dropped = 0
        for key in self.dependent_keys(event):
            if self.discard(key):
                dropped += 1
        return dropped

    def expire(self, relation: str, cardinality: int) -> int:
        """Drop the entries whose backlog of ``relation`` outgrew it; the count.

        The maintainer calls it after each logged insert with the
        relation's current row count.  An entry whose backlog — the rows
        logged since its position, all of them in the relation now —
        exceeds the rows the relation held at that position would read
        more new rows in its delta join than a recompute reads old ones, so
        it is dropped instead.  The backlog only grows toward the least
        recently synced entries, so the walk stops at the first entry that
        stays.
        """
        dropped = 0
        with self._lock:
            order = self._order.get(relation)
            while order:
                key = next(iter(order))
                backlog = self.log.backlog(relation, self._synced[key])
                if backlog <= cardinality - backlog:
                    break
                self.discard(key)
                dropped += 1
        return dropped

    def oldest(self, relation: str) -> Optional[int]:
        """The oldest log position of an entry depending on ``relation``."""
        with self._lock:
            order = self._order.get(relation)
            return self._synced[next(iter(order))] if order else None

    def patch_result(self, key: str, rows: Iterable[Tuple[int, ...]]) -> bool:
        """Merge delta ``rows`` into ``key``'s cached result.

        The entry reads as the sorted set union of the old result and the
        delta — set semantics, matching every engine's dedup on merge.  A
        read that catches the entry up calls it once with every row the
        entry lacks; the one merge (:func:`~repro.util.sorted_ops.splice_sorted`,
        O(k·log n) comparisons for k new rows plus a copy) builds a *new*
        stored list, so a list handed out never changes.  An empty delta
        keeps the stored list.  Counted under ``patches`` (never
        ``replacements``); LRU recency is left untouched.  Returns ``False``
        (and changes nothing) when the key is absent.
        """
        with self._lock:
            if key not in self._entries:
                return False
            self.stats.patches += 1
            delta = sorted({tuple(row) for row in rows})
            if delta:
                self._merge(key, delta)
            return True

    def invalidate_relation(self, relation_name: str) -> int:
        """Drop every entry computed from ``relation_name``."""
        return self.invalidate(MutationEvent(relation_name, kind="define"))

    def dependencies_of(self, key: str) -> Tuple[str, ...]:
        """The relation names recorded for ``key`` (tests/debugging)."""
        with self._lock:
            return self._dependencies.get(key, ())

    def _drop_dependency_index(self, key: str) -> None:
        self._queries.pop(key, None)
        self._normalised.discard(key)
        self._synced.pop(key, None)
        for relation in self._dependencies.pop(key, ()):
            order = self._order.get(relation)
            if order is not None:
                order.pop(key, None)
                if not order:
                    del self._order[relation]
            dependents = self._dependents[relation]
            dependents.discard(key)
            if not dependents:
                del self._dependents[relation]

    def _on_evict(self, key: str) -> None:
        self._drop_dependency_index(key)
