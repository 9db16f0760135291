"""Execution statistics shared by every join engine.

The paper's evaluation never reports wall-clock time of the software engines
in isolation; it reports *derived* quantities: the number of intermediate
results (Figure 18), the number of main-memory accesses (Figure 17), and the
runtime/energy of each system computed from a cost model over those counts.
Every engine in :mod:`repro.joins` therefore fills in a :class:`JoinStats`
object with algorithm-level counters; the system models in
:mod:`repro.baselines` and the accelerator in :mod:`repro.core` turn those
counters into cycles, joules and DRAM accesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class JoinStats:
    """Algorithm-level counters produced by one join execution.

    Attributes
    ----------
    output_tuples:
        Number of result tuples produced (after projection, if any).
    bindings_enumerated:
        Number of full variable bindings visited before projection; equals
        ``output_tuples`` for the paper's full conjunctive queries.
    intermediate_results:
        Tuples materialised that are *not* part of the final result stream:
        the rows of intermediate relations for pairwise joins, the values
        stored in the partial-join-result cache for CTJ, and zero for plain
        LFTJ (which materialises nothing).  This is the Figure 18 metric.
    lub_searches:
        Number of lowest-upper-bound searches performed (LFTJ/CTJ/TrieJax).
    index_element_reads:
        Individual values read from index structures (trie arrays, hash
        buckets, sorted runs).  A word-granularity proxy for data traffic.
    index_element_writes:
        Values written while building intermediate structures (hash tables,
        intermediate relations, cache entries).
    cache_lookups / cache_hits / cache_inserts / cache_evictions:
        Partial-join-result cache behaviour (CTJ and TrieJax only).
    per_variable_matches:
        For WCOJ engines: how many matches each join variable produced in
        total, keyed by variable name.  Useful for ablation analysis.
    """

    output_tuples: int = 0
    bindings_enumerated: int = 0
    intermediate_results: int = 0
    lub_searches: int = 0
    index_element_reads: int = 0
    index_element_writes: int = 0
    cache_lookups: int = 0
    cache_hits: int = 0
    cache_inserts: int = 0
    cache_evictions: int = 0
    per_variable_matches: Dict[str, int] = field(default_factory=dict)

    def record_match(self, variable: str, count: int = 1) -> None:
        """Accumulate ``count`` matches found for ``variable``."""
        self.per_variable_matches[variable] = (
            self.per_variable_matches.get(variable, 0) + count
        )

    @property
    def cache_misses(self) -> int:
        """Cache lookups that did not hit."""
        return self.cache_lookups - self.cache_hits

    @property
    def total_index_accesses(self) -> int:
        """Reads plus writes against index/intermediate structures."""
        return self.index_element_reads + self.index_element_writes

    def add(self, other: Optional["JoinStats"]) -> None:
        """Accumulate ``other``'s counters into this object (``None`` adds nothing)."""
        if other is None:
            return
        self.output_tuples += other.output_tuples
        self.bindings_enumerated += other.bindings_enumerated
        self.intermediate_results += other.intermediate_results
        self.lub_searches += other.lub_searches
        self.index_element_reads += other.index_element_reads
        self.index_element_writes += other.index_element_writes
        self.cache_lookups += other.cache_lookups
        self.cache_hits += other.cache_hits
        self.cache_inserts += other.cache_inserts
        self.cache_evictions += other.cache_evictions
        for variable, count in other.per_variable_matches.items():
            self.record_match(variable, count)

    def merge(self, other: "JoinStats") -> "JoinStats":
        """Return a new :class:`JoinStats` with both objects' counters summed."""
        merged = JoinStats()
        merged.add(self)
        merged.add(other)
        return merged

    #: Counters projected onto trace spans (the high-signal subset; the
    #: per-variable breakdown stays off spans to keep trace lines compact).
    TRACE_KEYS = (
        "output_tuples",
        "bindings_enumerated",
        "intermediate_results",
        "lub_searches",
        "index_element_reads",
        "index_element_writes",
        "cache_lookups",
        "cache_hits",
    )

    def trace_attributes(self, prefix: str = "stats.") -> Dict[str, int]:
        """Span-attribute projection used by the observability layer.

        Returns the :data:`TRACE_KEYS` counters keyed ``<prefix><counter>``,
        the form :mod:`repro.obs` attaches to ``execute`` spans.
        """
        full = self.as_dict()
        return {f"{prefix}{key}": full[key] for key in self.TRACE_KEYS}

    def as_dict(self) -> Dict[str, int]:
        """Flat dictionary form used by the reporting layer."""
        return {
            "output_tuples": self.output_tuples,
            "bindings_enumerated": self.bindings_enumerated,
            "intermediate_results": self.intermediate_results,
            "lub_searches": self.lub_searches,
            "index_element_reads": self.index_element_reads,
            "index_element_writes": self.index_element_writes,
            "cache_lookups": self.cache_lookups,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_inserts": self.cache_inserts,
            "cache_evictions": self.cache_evictions,
        }
