"""Physical address layout of trie indexes.

The TrieJax memory-system model (read-only L1/L2, shared LLC, DRAM) operates
on byte addresses.  This module assigns a contiguous virtual-address region to
every flat array of every trie used by a query — the level value arrays and
the CSR child-range arrays of Figure 6 — so that the cache and DRAM models see
realistic spatial locality: sequential elements of one array map to sequential
addresses and share cache lines.

A separate, distant region is reserved for the streamed result writes so that
result traffic never aliases with index traffic in the cache models (mirroring
the paper's write-bypass path, Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.relational.trie import TrieIndex


@dataclass(frozen=True)
class ArrayRegion:
    """A named contiguous region of the simulated address space."""

    name: str
    base_address: int
    num_elements: int
    element_size: int

    @property
    def size_in_bytes(self) -> int:
        return self.num_elements * self.element_size

    def address_of(self, index: int) -> int:
        """Byte address of element ``index``."""
        if not (0 <= index < max(self.num_elements, 1)):
            raise IndexError(
                f"element index {index} out of range for region {self.name!r} "
                f"({self.num_elements} elements)"
            )
        return self.base_address + index * self.element_size


class MemoryLayout:
    """Assigns address regions to trie arrays and the result stream.

    Parameters
    ----------
    element_size:
        Bytes per stored value (the paper's indexes store 32-bit vertex ids).
    alignment:
        Region base alignment in bytes; defaults to a 64-byte cache line so
        that no two arrays share a line.
    result_region_size:
        Bytes reserved for the streamed output region.
    """

    RESULT_REGION_NAME = "__results__"

    def __init__(
        self,
        element_size: int = 4,
        alignment: int = 64,
        result_region_size: int = 1 << 30,
    ):
        if element_size <= 0:
            raise ValueError("element_size must be positive")
        if alignment <= 0 or (alignment & (alignment - 1)) != 0:
            raise ValueError("alignment must be a positive power of two")
        self.element_size = element_size
        self.alignment = alignment
        self._next_free = alignment
        self._regions: Dict[str, ArrayRegion] = {}
        self._result_region_size = result_region_size
        self._result_region: ArrayRegion | None = None

    # ------------------------------------------------------------------ #
    # Region registration
    # ------------------------------------------------------------------ #
    def _allocate(self, name: str, num_elements: int, element_size: int) -> ArrayRegion:
        if name in self._regions:
            raise KeyError(f"region {name!r} already allocated")
        base = self._next_free
        region = ArrayRegion(name, base, num_elements, element_size)
        raw_end = base + max(region.size_in_bytes, 1)
        self._next_free = ((raw_end + self.alignment - 1) // self.alignment) * self.alignment
        self._regions[name] = region
        return region

    def add_trie(self, key: str, trie: TrieIndex) -> List[ArrayRegion]:
        """Allocate regions for every array of ``trie`` under namespace ``key``.

        Returns the regions in allocation order:
        ``key/values/<level>`` for each level, then ``key/offsets/<level>``
        for each non-leaf level.
        """
        regions = []
        for level in range(trie.num_levels):
            regions.append(
                self._allocate(
                    f"{key}/values/{level}", trie.level_size(level), self.element_size
                )
            )
        for level in range(max(trie.num_levels - 1, 0)):
            regions.append(
                self._allocate(
                    f"{key}/offsets/{level}",
                    len(trie.child_offsets(level)),
                    self.element_size,
                )
            )
        return regions

    def result_region(self) -> ArrayRegion:
        """The (lazily allocated) streamed-result output region."""
        if self._result_region is None:
            base = self._next_free
            self._result_region = ArrayRegion(
                self.RESULT_REGION_NAME,
                base,
                self._result_region_size // self.element_size,
                self.element_size,
            )
            self._regions[self.RESULT_REGION_NAME] = self._result_region
            self._next_free = base + self._result_region_size
        return self._result_region

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def region(self, name: str) -> ArrayRegion:
        try:
            return self._regions[name]
        except KeyError:
            raise KeyError(f"no region named {name!r}") from None

    def values_region(self, key: str, level: int) -> ArrayRegion:
        """Region of trie ``key``'s value array at ``level``."""
        return self.region(f"{key}/values/{level}")

    def offsets_region(self, key: str, level: int) -> ArrayRegion:
        """Region of trie ``key``'s child-offsets array at ``level``."""
        return self.region(f"{key}/offsets/{level}")

    @property
    def total_index_bytes(self) -> int:
        """Combined size of all non-result regions."""
        return sum(
            r.size_in_bytes
            for name, r in self._regions.items()
            if name != self.RESULT_REGION_NAME
        )
