"""Shared fixtures for the test suite.

The fixtures build small, deterministic graph databases that are large enough
to exercise every code path (cache hits, backtracking, multithreaded
splitting) yet small enough that even the naive oracle finishes instantly.

It also registers the ``ci`` hypothesis profile (``--hypothesis-profile=ci``):
more examples and no deadline, for the properties CI runs longer.
"""

import pytest
from helpers import deterministic_clique, deterministic_cycle

from repro.graphs import (
    community_graph,
    graph_database,
    preferential_attachment_graph,
    uniform_random_graph,
)

try:
    from hypothesis import settings
except ImportError:  # suites that run without hypothesis installed
    pass
else:
    settings.register_profile("ci", max_examples=1000, deadline=None)


@pytest.fixture(scope="session")
def small_community_db():
    """A 40-vertex community graph with plenty of triangles and 4-cliques."""
    return graph_database(community_graph(40, 200, seed=7))


@pytest.fixture(scope="session")
def small_powerlaw_db():
    """A skewed (hub-heavy) graph resembling the social datasets."""
    return graph_database(preferential_attachment_graph(60, 240, seed=11))


@pytest.fixture(scope="session")
def small_uniform_db():
    """A flat-degree graph resembling the P2P datasets."""
    return graph_database(uniform_random_graph(60, 200, seed=13))


@pytest.fixture(scope="session")
def tiny_clique_db():
    """The complete directed graph on 6 vertices (dense corner case)."""
    return graph_database(deterministic_clique(6))


@pytest.fixture(scope="session")
def tiny_cycle_db():
    """A single directed 8-cycle (sparse corner case, no triangles)."""
    return graph_database(deterministic_cycle(8))
