"""Cyber-security scenario: hunting lateral-movement patterns in a flow graph.

Security analytics is another of the paper's motivating domains: suspicious
behaviour often shows up as *structural* patterns in the graph of network
flows — chains of remote logins (lateral movement), rings of hosts relaying
traffic (exfiltration loops), or dense cliques of machines talking to each
other (botnet meshes).

This example models a corporate network as a directed "host A initiated a
connection to host B" graph, expresses three threat-hunting patterns both in
SQL (the paper's Figure 1 front end) and as pattern queries, and runs them
through the software engines and the TrieJax accelerator model.

Run with::

    python examples/cybersecurity_lateral_movement.py
"""

from repro.core import TrieJaxAccelerator
from repro.eval import format_table
from repro.graphs import pattern_query, uniform_random_graph
from repro.joins import CachedTrieJoin
from repro.relational import Database, parse_sql_join


def build_network_database(num_hosts: int = 300, num_flows: int = 900) -> Database:
    """A flat-degree flow graph (P2P-like), plus a planted attack path."""
    graph = uniform_random_graph(num_hosts, num_flows, seed=443, name="flows")
    # Plant an obvious lateral-movement chain and a relay ring so the hunt
    # has something interesting to find.
    chain = [3, 77, 191, 288]
    for source, target in zip(chain, chain[1:]):
        graph.add_edge(source, target)
    ring = [10, 150, 260]
    for index, host in enumerate(ring):
        graph.add_edge(host, ring[(index + 1) % len(ring)])

    database = Database("corporate_network")
    database.add_relation(graph.to_relation("Flows", "src", "dst"))
    # The pattern queries below bind the relation under the name "E".
    database.add_relation(graph.to_relation("E"))
    return database, chain, ring


def main() -> None:
    database, chain, ring = build_network_database()
    flows = database.relation("Flows")
    print(f"flow graph: {flows.cardinality} connections between hosts")

    # --- The same hunt, written as SQL (Figure 1 style) ------------------- #
    sql = (
        "SELECT * FROM Flows AS hop1, Flows AS hop2, Flows AS hop3 "
        "WHERE hop1.dst = hop2.src AND hop2.dst = hop3.src"
    )
    lateral_sql = parse_sql_join(sql, database, query_name="lateral_movement")
    print("\nSQL form of the lateral-movement hunt:")
    print(f"  {sql}")
    print(f"  compiled to: {lateral_sql.to_datalog()}")

    engine = CachedTrieJoin()
    accelerator = TrieJaxAccelerator(dataset_name="corporate_network")

    hunts = [
        ("lateral movement (3 hops)", pattern_query("path4")),
        ("relay ring (3 hosts)", pattern_query("cycle3")),
        ("dense mesh (4 hosts)", pattern_query("clique4")),
    ]
    rows = []
    findings = {}
    for label, query in hunts:
        software = engine.execute(query, database)
        accelerated = accelerator.execute(query, database)
        assert set(accelerated.tuples) == set(software.tuples)
        findings[query.name] = software.tuples
        rows.append(
            (
                label,
                query.name,
                software.cardinality,
                accelerated.report.total_cycles,
                accelerated.report.dram.accesses,
                f"{accelerated.report.total_energy_nj / 1e3:.1f}",
            )
        )
    print()
    print(
        format_table(
            ("hunt", "query", "matches", "TrieJax cycles", "DRAM accesses", "energy (uJ)"),
            rows,
            title="Threat-hunting patterns on the flow graph",
        )
    )

    # --- Check the planted incidents were found --------------------------- #
    planted_chain = tuple(chain)
    chain_hits = [row for row in findings["path4"] if row == planted_chain]
    print(f"\nplanted lateral-movement chain {planted_chain} found: {bool(chain_hits)}")

    ring_rotations = {
        (ring[i], ring[(i + 1) % 3], ring[(i + 2) % 3]) for i in range(3)
    }
    ring_hits = ring_rotations & set(findings["cycle3"])
    print(f"planted relay ring {tuple(ring)} found as rotations: {sorted(ring_hits)}")

    # The SQL query and the datalog pattern agree on the hop count.
    sql_result = engine.execute(lateral_sql, database)
    print(
        f"\nSQL front end agrees with the pattern query: "
        f"{sql_result.cardinality} == {len(findings['path4'])}"
    )


if __name__ == "__main__":
    main()
