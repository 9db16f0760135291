"""Design-space exploration of the TrieJax accelerator.

The paper fixes one design point (32 dynamic threads, 4 MB PJR cache, result
writes bypassing the private caches) after exploring the space; this example
re-opens that exploration with the simulator:

* thread-count sweep (the Figure 14 experiment),
* multithreading scheme comparison (static vs dynamic vs hybrid, Section 3.4),
* PJR cache capacity sweep and on/off ablation (Section 3.5),
* result write-bypass ablation (Section 3.1).

Run with::

    python examples/accelerator_design_space.py
"""

from repro.core import TrieJaxAccelerator, TrieJaxConfig
from repro.eval import format_table
from repro.graphs import graph_database, load_dataset, pattern_query


def run_cycles(query, database, config):
    """Total simulated cycles of one configuration."""
    return TrieJaxAccelerator(config).execute(query, database).report.total_cycles


def main() -> None:
    database = graph_database(load_dataset("bitcoin", scale=0.015))
    cacheable_query = pattern_query("cycle4")    # uses the PJR cache
    write_heavy_query = pattern_query("path4")   # produces many results
    base = TrieJaxConfig()

    # --- Thread sweep (Figure 14) ----------------------------------------- #
    rows = []
    single_thread = run_cycles(cacheable_query, database, base.with_threads(1))
    for threads in (1, 4, 8, 16, 32, 64):
        cycles = run_cycles(cacheable_query, database, base.with_threads(threads, "dynamic"))
        rows.append((f"{threads}T", cycles, single_thread / cycles))
    print(format_table(("threads", "cycles", "speedup vs 1T"), rows,
                       title="Thread-count sweep (cycle4, dynamic MT)"))

    # --- MT scheme comparison ---------------------------------------------- #
    rows = []
    for scheme in ("static", "dynamic", "hybrid"):
        cycles = run_cycles(cacheable_query, database, base.with_threads(32, scheme))
        rows.append((scheme, cycles))
    print()
    print(format_table(("scheme", "cycles"), rows,
                       title="Multithreading scheme (cycle4, 32 threads)"))

    # --- PJR cache: off, and a capacity sweep ------------------------------ #
    rows = []
    no_cache = run_cycles(cacheable_query, database, base.without_pjr_cache())
    rows.append(("disabled", no_cache, 1.0))
    for size_kb in (16, 64, 256, 4096):
        config = base.with_pjr_size(size_kb * 1024)
        cycles = run_cycles(cacheable_query, database, config)
        rows.append((f"{size_kb} KB", cycles, no_cache / cycles))
    print()
    print(format_table(("PJR capacity", "cycles", "speedup vs disabled"), rows,
                       title="Partial-join-result cache sweep (cycle4)"))

    # --- Write bypass (Section 3.1) ---------------------------------------- #
    rows = []
    for query, label in ((write_heavy_query, "path4"), (cacheable_query, "cycle4")):
        with_bypass = run_cycles(query, database, base.with_write_bypass(True))
        without_bypass = run_cycles(query, database, base.with_write_bypass(False))
        rows.append((label, with_bypass, without_bypass, without_bypass / with_bypass))
    print()
    print(format_table(("query", "cycles (bypass)", "cycles (no bypass)", "benefit"),
                       rows, title="Result write-bypass ablation"))


if __name__ == "__main__":
    main()
