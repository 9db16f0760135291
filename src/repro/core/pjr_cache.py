"""The partial-join-result (PJR) cache and its insertion buffer.

Section 3.5 of the paper: TrieJax stores partial join results — the matches
of a cacheable variable together with their trie indexes — in a dedicated
4 MB on-die SRAM keyed by (a hash of) the binding of the variable's key
attributes.  Three mechanisms from the paper are modelled:

* **Insertion buffer.**  Entries under construction live in a separate
  buffer and are copied into the cache atomically once fully analysed, so a
  concurrent reader never observes a half-built entry.
* **Single-path validation.**  With dynamic multithreading two threads on
  *different* search paths can try to build the same entry; only the first
  path is allowed to populate it (the paper validates "that the values are
  stored from just one path"), the other thread simply computes without
  caching.
* **Entry overflow.**  Entries have a bounded number of values; an entry
  that outgrows its allocation is deallocated so the cache never stores an
  incomplete result list.

Capacity is enforced in bytes (values + indexes); completed entries are
evicted in LRU order when space is needed for new allocations.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.util.validation import check_positive

#: A cached match: the value plus its node index in every participating trie.
CachedMatch = Tuple[int, Tuple[int, ...]]
#: Cache key: (cached variable, binding of its key variables).
EntryKey = Tuple[str, Tuple[int, ...]]


@dataclass
class PJRCacheStats:
    """Activity counters of the PJR cache (feed the energy model and reports)."""

    lookups: int = 0
    hits: int = 0
    values_replayed: int = 0
    allocations: int = 0
    allocation_rejected: int = 0
    values_inserted: int = 0
    entries_finalized: int = 0
    entries_aborted: int = 0
    overflows: int = 0
    capacity_rejections: int = 0
    evictions: int = 0
    peak_bytes_used: int = 0

    @property
    def misses(self) -> int:
        return self.lookups - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def sram_reads(self) -> int:
        """Read ports activity: lookups plus replayed values."""
        return self.lookups + self.values_replayed

    @property
    def sram_writes(self) -> int:
        """Write ports activity: inserted values (finalisation copies included)."""
        return self.values_inserted

    def as_dict(self) -> Dict[str, float]:
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "values_replayed": self.values_replayed,
            "allocations": self.allocations,
            "allocation_rejected": self.allocation_rejected,
            "values_inserted": self.values_inserted,
            "entries_finalized": self.entries_finalized,
            "entries_aborted": self.entries_aborted,
            "overflows": self.overflows,
            "capacity_rejections": self.capacity_rejections,
            "evictions": self.evictions,
            "peak_bytes_used": self.peak_bytes_used,
        }


@dataclass
class _PendingEntry:
    """An entry being built in the insertion buffer."""

    path_signature: Tuple[int, ...]
    matches: List[CachedMatch] = field(default_factory=list)
    bytes_used: int = 0


class PJRCache:
    """Bounded partial-join-result cache with an insertion buffer.

    Parameters
    ----------
    capacity_bytes:
        Total SRAM capacity shared by complete entries and the insertion
        buffer (the paper's default is 4 MB, insertion buffer included).
    entry_capacity_values:
        Maximum number of matches per entry; larger partial results overflow
        and are deallocated.
    bytes_per_value:
        Storage cost of one cached match (value word + index word by default,
        multiplied by the number of participating tries at runtime).
    """

    def __init__(
        self,
        capacity_bytes: int,
        entry_capacity_values: int = 512,
        bytes_per_value: int = 8,
    ):
        check_positive("capacity_bytes", capacity_bytes)
        check_positive("entry_capacity_values", entry_capacity_values)
        check_positive("bytes_per_value", bytes_per_value)
        self.capacity_bytes = capacity_bytes
        self.entry_capacity_values = entry_capacity_values
        self.bytes_per_value = bytes_per_value
        self.stats = PJRCacheStats()
        # Complete entries, LRU order (most recently used last).
        self._entries: "OrderedDict[EntryKey, List[CachedMatch]]" = OrderedDict()
        self._entry_bytes: Dict[EntryKey, int] = {}
        # Entries under construction.
        self._pending: Dict[EntryKey, _PendingEntry] = {}
        self._bytes_used = 0

    # ------------------------------------------------------------------ #
    # Lookup / replay
    # ------------------------------------------------------------------ #
    def lookup(self, key: EntryKey) -> Optional[List[CachedMatch]]:
        """Return the completed entry for ``key`` or ``None`` (counts a lookup)."""
        self.stats.lookups += 1
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        self.stats.values_replayed += len(entry)
        return entry

    def peek(self, key: EntryKey) -> Optional[List[CachedMatch]]:
        """Inspect an entry without touching statistics or LRU order (tests)."""
        return self._entries.get(key)

    # ------------------------------------------------------------------ #
    # Construction protocol: allocate -> append* -> finalize / abort
    # ------------------------------------------------------------------ #
    def try_allocate(self, key: EntryKey, path_signature: Tuple[int, ...]) -> bool:
        """Reserve an insertion-buffer slot for ``key`` owned by ``path_signature``.

        Returns ``False`` (and the caller must not cache) when the key is
        already being built from a different path, already completed, or the
        cache cannot make room for even an empty entry.
        """
        if key in self._entries:
            self.stats.allocation_rejected += 1
            return False
        pending = self._pending.get(key)
        if pending is not None:
            if pending.path_signature != path_signature:
                self.stats.allocation_rejected += 1
                return False
            return True  # idempotent re-allocation from the same path
        self._pending[key] = _PendingEntry(path_signature)
        self.stats.allocations += 1
        return True

    def append(self, key: EntryKey, path_signature: Tuple[int, ...], match: CachedMatch) -> bool:
        """Add one match to a pending entry.

        Returns ``False`` when the entry does not exist, is owned by another
        path, or was deallocated because it cannot be stored.  Deallocation
        has two distinct causes with distinct counters: the entry outgrew
        its per-entry value budget (an ``overflow``, the paper's Section 3.5
        mechanism) or the whole cache cannot make room even after evicting
        every complete entry (a ``capacity_rejection`` — a sizing problem,
        not an entry-shape problem).
        """
        pending = self._pending.get(key)
        if pending is None or pending.path_signature != path_signature:
            return False
        if len(pending.matches) >= self.entry_capacity_values:
            # Overflow: deallocate to avoid storing an incomplete result.
            self._bytes_used -= pending.bytes_used
            del self._pending[key]
            self.stats.overflows += 1
            return False
        match_bytes = self.bytes_per_value * max(1, len(match[1]))
        if not self._make_room(match_bytes):
            # Capacity rejection: the SRAM cannot hold this entry at all.
            self._bytes_used -= pending.bytes_used
            del self._pending[key]
            self.stats.capacity_rejections += 1
            return False
        pending.matches.append(match)
        pending.bytes_used += match_bytes
        self._bytes_used += match_bytes
        self.stats.values_inserted += 1
        self.stats.peak_bytes_used = max(self.stats.peak_bytes_used, self._bytes_used)
        return True

    def finalize(self, key: EntryKey, path_signature: Tuple[int, ...]) -> bool:
        """Atomically publish a pending entry into the cache proper."""
        pending = self._pending.get(key)
        if pending is None or pending.path_signature != path_signature:
            return False
        del self._pending[key]
        self._entries[key] = pending.matches
        self._entry_bytes[key] = pending.bytes_used
        self._entries.move_to_end(key)
        self.stats.entries_finalized += 1
        return True

    def abort(self, key: EntryKey, path_signature: Tuple[int, ...]) -> None:
        """Drop a pending entry (thread backed out or overflowed upstream)."""
        pending = self._pending.get(key)
        if pending is not None and pending.path_signature == path_signature:
            self._bytes_used -= pending.bytes_used
            del self._pending[key]
            self.stats.entries_aborted += 1

    # ------------------------------------------------------------------ #
    # Capacity management
    # ------------------------------------------------------------------ #
    def _make_room(self, needed_bytes: int) -> bool:
        """Evict LRU complete entries until ``needed_bytes`` fit; False if impossible."""
        if needed_bytes > self.capacity_bytes:
            return False
        while self._bytes_used + needed_bytes > self.capacity_bytes:
            if not self._entries:
                return False
            victim_key, _victim = self._entries.popitem(last=False)
            victim_bytes = self._entry_bytes.pop(victim_key)
            self._bytes_used -= victim_bytes
            self.stats.evictions += 1
        return True

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def bytes_used(self) -> int:
        return self._bytes_used

    @property
    def num_entries(self) -> int:
        return len(self._entries)

    @property
    def num_pending(self) -> int:
        return len(self._pending)

    def reset(self) -> None:
        self._entries.clear()
        self._entry_bytes.clear()
        self._pending.clear()
        self._bytes_used = 0
        self.stats = PJRCacheStats()
