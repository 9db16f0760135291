"""Cached TrieJoin (CTJ) — LFTJ plus a partial-join-result cache.

CTJ (Kalinsky, Etsion, Kimelfeld, EDBT'17; Figure 4 of the TrieJax paper)
extends LeapFrog TrieJoin by caching the matches of *cacheable* variables —
variables whose candidate set depends only on a proper subset of the
previously bound variables.  When the same key binding recurs under different
values of the remaining earlier variables, the cached matches (values plus
their trie indexes) are replayed instead of recomputed, eliminating recurrent
partial joins without violating worst-case optimality.

The cache structure (which variable is cached, keyed by which variables) is
decided by the :class:`~repro.joins.compiler.QueryCompiler`; this engine
merely honours it.  The software cache is unbounded, mirroring CTJ's use of
host memory; the bounded hardware PJR cache is modelled separately in
:mod:`repro.core.pjr_cache`.

Execution inherits the slot-compiled hot path of
:class:`~repro.joins.leapfrog.LeapfrogTrieJoin`: cache keys are tuples of
depth-indexed binding values and cached entries replay slot-addressed cursor
positions (a leaf variable's entry is just its value sequence — leaf cursors
are never read back — charged as if it carried them), so hits skip the
leapfrog recomputation without a single string lookup.
"""

from __future__ import annotations

from typing import Optional

from repro.joins.compiler import QueryCompiler
from repro.joins.leapfrog import LeapfrogTrieJoin


class CachedTrieJoin(LeapfrogTrieJoin):
    """The CTJ engine: identical to LFTJ but honouring the plan's cache specs.

    For queries with no cacheable variable (Cycle-3, Clique-4) CTJ behaves
    exactly like LFTJ and records zero cache activity, matching the paper's
    observation that those queries generate no intermediate results.
    """

    name = "ctj"

    def __init__(self, compiler: Optional[QueryCompiler] = None):
        super().__init__(compiler or QueryCompiler(enable_caching=True))

    def _uses_cache(self) -> bool:
        return True
