"""Quickstart for the public API: one Session, three front-ends, auto-routing.

The :class:`repro.api.Session` facade is the repository's single entry
point: it owns the database, the plan/result caches and the engine
registry.  A statement that names no engine runs on the first eligible
engine of a fixed software-engine order (``lftj`` > ``ctj`` > ``generic``
> ``pairwise``); the TrieJax accelerator model and the naive oracle run
only when pinned by name.

Run with::

    python examples/api_quickstart.py
"""

from repro.api import Session, Statement
from repro.service import WorkloadSpec, workload_database


def main() -> None:
    # A seeded triangle-rich community graph wrapped in a catalog.
    session = Session(workload_database(num_vertices=60, num_edges=300))

    # --- One statement, three equivalent front doors ---------------------- #
    by_pattern = Statement.pattern("cycle3")
    by_datalog = Statement.from_datalog("tri(a,b,c) = E(a,b), E(b,c), E(c,a).")
    by_sql = Statement.from_sql(
        "SELECT * FROM E AS r, E AS s, E AS t "
        "WHERE r.dst = s.src AND s.dst = t.src AND t.dst = r.src"
    )
    assert by_pattern == by_datalog  # canonical-signature identity
    assert by_sql.signature(session.database) == by_pattern.signature()

    # --- Routing: "auto" or a pinned engine -------------------------------- #
    for name in ("path3", "cycle3", "clique4"):
        decision = session.explain(name).decision
        print(f"{name:<8} -> {decision.chosen:<8} ({decision.reason})")
    modelled = session.execute("clique4", route="triejax")  # the TrieJax model
    print(f"clique4 pinned to {modelled.backend}: {modelled.cardinality} matches")

    # --- Lazy, cached execution ------------------------------------------- #
    triangles = session.execute(by_pattern)          # nothing runs yet
    print(f"\n{len(triangles.to_list())} triangles via {triangles.backend}")
    replay = session.execute(by_datalog)             # α-equivalent: cache hit
    print(f"replayed from cache: {replay.from_cache} "
          f"(cost {replay.cost:.1f} ns vs {triangles.cost:.1f} ns)")

    # --- Query shape, chosen engine and plan ------------------------------ #
    print("\n" + session.explain("cycle4").describe())

    # --- Concurrent serving through the same caches ----------------------- #
    outcomes = session.serve(WorkloadSpec(num_queries=60, mode="mixed"))
    print(f"\nserved {len(outcomes)} requests through the service layer")
    print(session.report())


if __name__ == "__main__":
    main()
