"""repro — a reproduction of the TrieJax architecture (ASPLOS 2020).

TrieJax is an on-die hardware accelerator for graph pattern matching built on
worst-case optimal joins (Cached TrieJoin).  This package rebuilds the whole
stack described in the paper in pure Python:

``repro.relational``
    Relations, trie indexes (EmptyHeaded flat layout), conjunctive queries,
    datalog/SQL front ends and the database catalog.
``repro.joins``
    The join algorithms: LeapFrog TrieJoin, Cached TrieJoin, Generic Join,
    traditional pairwise joins, the naive oracle and the CTJ query compiler.
``repro.graphs``
    Graph workloads: the Table 1 pattern queries, the Table 2 datasets
    (synthetic stand-ins) and SNAP edge-list I/O.
``repro.memory``
    Cache, DRAM-timing and energy models (the Ramulator / DRAMPower / Cacti
    substitutes).
``repro.core``
    The TrieJax accelerator model: Cupid, MatchMaker, Midwife, LUB, the
    partial-join-result cache and the multithreaded scheduler.
``repro.baselines``
    The four comparison systems: CTJ, EmptyHeaded, Graphicionado and Q100.
``repro.eval``
    The experiment harness that regenerates every table and figure of the
    paper's evaluation.
``repro.service``
    The query-serving subsystem: a :class:`~repro.service.QueryService`
    facade with plan/result caches keyed on canonical query signatures,
    seeded admission control with priority classes, pluggable engine
    backends and a workload driver for open/closed-loop query streams.
``repro.api``
    **The public API**: :class:`~repro.api.Session` /
    :class:`~repro.api.Statement` / :class:`~repro.api.ResultSet` over the
    unified engine protocol, the single engine registry, and ``"auto"``
    routing over a fixed software-engine order.  Start here.

Quick start::

    from repro import Session
    from repro.graphs import load_dataset, graph_database

    session = Session(graph_database(load_dataset("wiki", scale=0.01)))
    triangles = session.execute("cycle3")          # runs on lftj ("auto")
    print(len(triangles.to_list()), "triangles via", triangles.backend)
"""

__version__ = "1.10.0"

__all__ = ["__version__", "ResultSet", "Session", "Statement"]


def __getattr__(name):
    # Lazy re-exports of the public API surface, so ``import repro`` stays
    # cheap for consumers that only want a subpackage.
    if name in ("Session", "Statement", "ResultSet"):
        import repro.api

        return getattr(repro.api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
