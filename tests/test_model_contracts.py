"""Contracts between the TrieJax model's PJR cache and CTJ's software cache.

Both walk the same compiled plan, so both visit every cached depth under the
same bindings: with the PJR cache on, the model makes exactly as many PJR
lookups as CTJ makes ``cache_lookups``, whatever the thread count, the
multithreading scheme or the cache's capacity; with it off, none.

Hits and inserts are *not* equal, even at one thread with an unbounded PJR
cache: the model never caches an empty match list (``CupidProgram._explore``
returns before ``try_allocate``) while CTJ does, so an empty key misses again
on every revisit.  The counterexample is gnu04 at scale 0.01, cycle4: hits
283 vs 363 and finalized entries 237 vs 1,440.  Only the inequalities
``hits <= cache_hits`` and ``entries_finalized <= cache_inserts`` hold.
"""

import dataclasses

import pytest
from test_model_goldens import DATASET, SCALE, grid_configs

from repro.core import TrieJaxAccelerator, TrieJaxConfig
from repro.graphs import PATTERN_NAMES, graph_database, load_dataset, pattern_query
from repro.joins import CachedTrieJoin, QueryCompiler


@pytest.fixture(scope="module")
def database():
    return graph_database(load_dataset(DATASET, scale=SCALE))


@pytest.fixture(scope="module")
def ctj_stats(database):
    """CTJ's counters per pattern, over the plan a PJR-enabled model compiles."""
    compiler = QueryCompiler()
    return {
        pattern: CachedTrieJoin()
        .execute(pattern_query(pattern), database, plan=compiler.compile(pattern_query(pattern)))
        .stats
        for pattern in PATTERN_NAMES
    }


@pytest.mark.parametrize("label", sorted(grid_configs()))
def test_pjr_lookups_equal_ctj_cache_lookups(database, ctj_stats, label):
    config, aggregate = grid_configs()[label]
    engine = TrieJaxAccelerator(config, aggregate=aggregate)
    for pattern in PATTERN_NAMES:
        lookups = engine.execute(pattern_query(pattern), database).report.pjr.lookups
        expected = ctj_stats[pattern].cache_lookups if config.enable_pjr_cache else 0
        assert lookups == expected, pattern


@pytest.mark.parametrize("pattern", PATTERN_NAMES)
def test_unbounded_single_thread_pjr_never_beats_ctj(database, ctj_stats, pattern):
    config = dataclasses.replace(
        TrieJaxConfig().with_threads(1),
        pjr_size_bytes=1 << 40,
        pjr_entry_capacity_values=1 << 30,
    )
    pjr = TrieJaxAccelerator(config).execute(pattern_query(pattern), database).report.pjr
    stats = ctj_stats[pattern]
    assert pjr.lookups == stats.cache_lookups
    assert pjr.hits <= stats.cache_hits
    assert pjr.entries_finalized <= stats.cache_inserts
