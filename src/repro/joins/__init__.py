"""Join algorithms: the WCOJ family and the traditional pairwise baseline.

The package contains every join algorithm the paper's evaluation touches,
each an :class:`~repro.joins.base.EngineProtocol` (the one engine interface,
shared with the TrieJax model in :mod:`repro.core`):

* :class:`~repro.joins.leapfrog.LeapfrogTrieJoin` — LFTJ, the cache-less
  worst-case optimal join (Veldhuizen).
* :class:`~repro.joins.ctj.CachedTrieJoin` — CTJ, LFTJ with the
  partial-join-result cache; the algorithmic core of TrieJax.
* :class:`~repro.joins.generic_join.GenericJoin` — EmptyHeaded-style
  materialising WCOJ: the LFTJ plan kernel in its ``materialise``
  intersection mode (scan the smallest candidate range, probe the others,
  collect the survivors per depth).
* :class:`~repro.joins.pairwise.PairwiseJoin` — left-deep binary join trees
  over hash / sort-merge operators; the traditional approach underlying the
  Q100 and Graphicionado comparisons.
* :class:`~repro.joins.naive.NaiveJoin` — the nested-loop correctness oracle.

plus the :class:`~repro.joins.compiler.QueryCompiler` that turns conjunctive
queries into :class:`~repro.joins.plan.JoinPlan` objects (variable order,
per-atom trie bindings, cache structure) shared by the software engines and
the TrieJax accelerator model.
"""

from repro.joins.stats import JoinStats
from repro.joins.plan import AtomBinding, CacheSpec, JoinPlan
from repro.joins.compiler import QueryCompiler, compile_query
from repro.joins.base import CostModel, EngineCapabilities, EngineExecution, EngineProtocol
from repro.joins.naive import NaiveJoin, evaluate_naive
from repro.joins.leapfrog import LeapfrogTrieJoin
from repro.joins.ctj import CachedTrieJoin
from repro.joins.generic_join import GenericJoin
from repro.joins.hash_join import hash_join, natural_join_schema
from repro.joins.sort_merge import sort_merge_join
from repro.joins.pairwise import PairwiseJoin
from repro.joins.aggregates import (
    CountResult,
    GroupedCountResult,
    SampleEstimate,
    count_matches,
    count_by_variable,
    estimate_count,
)
from repro.joins.delta import (
    DeltaCatalog,
    DeltaPlan,
    DeltaPlanner,
    DeltaResult,
    delta_alias,
    delta_rewrites,
    evaluate_delta,
)

__all__ = [
    "JoinStats",
    "AtomBinding",
    "CacheSpec",
    "JoinPlan",
    "QueryCompiler",
    "compile_query",
    "CostModel",
    "EngineCapabilities",
    "EngineExecution",
    "EngineProtocol",
    "NaiveJoin",
    "evaluate_naive",
    "LeapfrogTrieJoin",
    "CachedTrieJoin",
    "GenericJoin",
    "hash_join",
    "natural_join_schema",
    "sort_merge_join",
    "PairwiseJoin",
    "CountResult",
    "GroupedCountResult",
    "SampleEstimate",
    "count_matches",
    "count_by_variable",
    "estimate_count",
    "DeltaCatalog",
    "DeltaPlan",
    "DeltaPlanner",
    "DeltaResult",
    "delta_alias",
    "delta_rewrites",
    "evaluate_delta",
]
