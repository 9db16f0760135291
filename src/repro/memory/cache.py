"""Set-associative cache models.

TrieJax integrates into the host processor's memory system with private
read-only L1/L2 caches and the shared last-level cache (Figure 5).  The
evaluation's headline energy claim (Figure 15) hinges on how much index
traffic those SRAM structures absorb before it reaches DRAM, so the model
here is a straightforward set-associative, LRU, write-around cache that
tracks hits, misses and evictions per level.

The same class also models the LLC and — with ``read_only=False`` — generic
data caches used by the CPU cost model for the software baselines.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict

from repro.util.validation import check_positive


@dataclass
class CacheStats:
    """Access counters for one cache level."""

    reads: int = 0
    writes: int = 0
    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def hits(self) -> int:
        return self.read_hits + self.write_hits

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class SetAssociativeCache:
    """An LRU set-associative cache.

    Parameters
    ----------
    name:
        Level name used in reports (``"L1"``, ``"L2"``, ``"LLC"``, ...).
    size_bytes:
        Total capacity.
    line_size:
        Cache-line size in bytes.
    associativity:
        Number of ways per set.
    read_only:
        When ``True`` (TrieJax's private caches) writes are rejected with an
        error — the accelerator streams results around these caches, so a
        write reaching them indicates a modelling bug.
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        line_size: int = 64,
        associativity: int = 8,
        read_only: bool = False,
    ):
        check_positive("size_bytes", size_bytes)
        check_positive("line_size", line_size)
        check_positive("associativity", associativity)
        if size_bytes % (line_size * associativity) != 0:
            raise ValueError(
                f"cache size {size_bytes} is not divisible by line_size*associativity "
                f"({line_size}*{associativity})"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.line_size = line_size
        self.associativity = associativity
        self.read_only = read_only
        self.num_sets = size_bytes // (line_size * associativity)
        # Each set is an OrderedDict of tag -> True, most recently used last.
        self._sets: Dict[int, OrderedDict] = {}
        self.stats = CacheStats()

    # ------------------------------------------------------------------ #
    # Address decomposition
    # ------------------------------------------------------------------ #
    def _line_address(self, address: int) -> int:
        return address // self.line_size

    def _set_index(self, line_address: int) -> int:
        return line_address % self.num_sets

    def _tag(self, line_address: int) -> int:
        return line_address // self.num_sets

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def read(self, address: int) -> bool:
        """Access ``address`` for reading; return ``True`` on hit.

        A miss fills the line (allocate-on-read) and may evict the LRU way.
        """
        self.stats.reads += 1
        hit = self._touch(address, fill_on_miss=True)
        if hit:
            self.stats.read_hits += 1
        else:
            self.stats.read_misses += 1
        return hit

    def write(self, address: int) -> bool:
        """Access ``address`` for writing; return ``True`` on hit.

        The policy is write-through / no-write-allocate ("write around"),
        matching the streaming result path of the accelerator and keeping
        the model simple: a write miss does not fill the cache.
        """
        if self.read_only:
            raise PermissionError(
                f"cache {self.name!r} is read-only; result traffic must bypass it"
            )
        self.stats.writes += 1
        hit = self._touch(address, fill_on_miss=False)
        if hit:
            self.stats.write_hits += 1
        else:
            self.stats.write_misses += 1
        return hit

    def _touch(self, address: int, fill_on_miss: bool) -> bool:
        line_address = self._line_address(address)
        set_index = self._set_index(line_address)
        tag = self._tag(line_address)
        ways = self._sets.setdefault(set_index, OrderedDict())
        if tag in ways:
            ways.move_to_end(tag)
            return True
        if fill_on_miss:
            if len(ways) >= self.associativity:
                ways.popitem(last=False)
                self.stats.evictions += 1
            ways[tag] = True
        return False

    def contains(self, address: int) -> bool:
        """Does the cache currently hold the line of ``address``? (no side effects)"""
        line_address = self._line_address(address)
        ways = self._sets.get(self._set_index(line_address))
        return bool(ways) and self._tag(line_address) in ways

    def flush(self) -> None:
        """Drop all cached lines (between experiment repetitions)."""
        self._sets.clear()

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    @property
    def lines_resident(self) -> int:
        """Number of lines currently cached."""
        return sum(len(ways) for ways in self._sets.values())
