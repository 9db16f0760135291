"""Quickstart: count triangles in a graph with the TrieJax accelerator model.

This is the smallest end-to-end use of the library:

1. generate (or load) a graph and wrap it in a database,
2. pick one of the paper's pattern queries (here ``cycle3`` — triangles),
3. run it on the simulated TrieJax accelerator,
4. cross-check the answer against the software Cached TrieJoin engine, and
5. print the accelerator's run report (cycles, DRAM traffic, energy split).

Run with::

    python examples/quickstart.py
"""

from repro.api import Session
from repro.core import TrieJaxAccelerator
from repro.graphs import graph_database, load_dataset, pattern_query


def main() -> None:
    # A 2%-scale synthetic stand-in for the wiki-Vote dataset (Table 2).
    graph = load_dataset("wiki", scale=0.02)
    print(f"dataset: {graph.name} with {graph.num_vertices} vertices, "
          f"{graph.num_edges} edges")

    database = graph_database(graph)
    query = pattern_query("cycle3")
    print(f"query  : {query.to_datalog()}")

    # --- Run on the accelerator model ------------------------------------ #
    accelerator = TrieJaxAccelerator(dataset_name=graph.name)
    outcome = accelerator.execute(query, database)
    print(f"\nTrieJax found {outcome.cardinality} directed triangles")
    print(outcome.report.summary())

    # --- Cross-check against the software CTJ engine (public API) -------- #
    software = Session(database, engines=("ctj",)).execute(query, route="ctj")
    assert software.to_set() == set(outcome.tuples), "accelerator disagrees with CTJ!"
    print("\nsoftware CTJ agrees with the accelerator "
          f"({software.cardinality} triangles)")

    # --- A peek at the compiled plan -------------------------------------- #
    print("\ncompiled plan:")
    print(outcome.plan.describe())


if __name__ == "__main__":
    main()
