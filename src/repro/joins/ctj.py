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

Execution is LFTJ's plan kernel (:mod:`repro.joins.leapfrog`) generated with
the plan's cache points: at each cacheable depth the probe is inlined into
the loop nest, keyed by the values bound at the key depths (one dict per
depth).  A miss runs the depth's intersection into a new entry — per match
its cursor indexes and value, or at the leaf just the value sequence, leaf
cursors never being read back, charged as if it carried them — and inserts
it; hit and miss then replay the entry through the same loop, so hits skip
the leapfrog recomputation without a single string lookup.
"""

from __future__ import annotations

from repro.joins.leapfrog import LeapfrogTrieJoin


class CachedTrieJoin(LeapfrogTrieJoin):
    """The CTJ engine: identical to LFTJ but honouring the plan's cache specs.

    For queries with no cacheable variable (Cycle-3, Clique-4) CTJ behaves
    exactly like LFTJ and records zero cache activity, matching the paper's
    observation that those queries generate no intermediate results.
    """

    name = "ctj"
    use_cache = True
