"""Workload driver: seeded query streams for the service.

The driver turns the paper's single-query workloads — the Table 1 pattern
queries over the synthetic graph generators — into request *streams* for
:class:`~repro.service.QueryService`:

* **closed-loop** requests form a backlog (all arrive at virtual time 0, as
  if a fixed client population always has a request outstanding);
* **open-loop** requests arrive on a Poisson process (exponential
  inter-arrival gaps at a configurable rate), independent of completions;
* ``mode="mixed"`` draws each request's loop behaviour at random.

Each request picks a pattern, a priority class and (optionally) a pinned
backend from seeded distributions, and a configurable fraction is α-renamed
(fresh variable names, same structure) specifically to exercise the plan
cache's canonicalization: renamed repeats must still compile exactly once.

Two realism knobs stress the caching layers the way production traffic
does:

* ``zipf_skew`` draws patterns with Zipf-distributed popularity (weight
  ``1/rank^s`` over the spec's query list) instead of uniformly, so the
  result cache sees a realistic hot set;
* ``update_fraction`` turns that fraction of the stream into catalog
  *inserts* (seeded random edges), interleaved with the queries, so
  cache maintenance is actually exercised mid-run rather than
  only between runs.

Everything is driven by one :class:`~repro.util.rng.DeterministicRNG` seed,
so a (spec, seed) pair always regenerates the same stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graphs import PATTERN_NAMES, community_graph, graph_database, pattern_query
from repro.relational.catalog import Database
from repro.relational.query import Atom, ConjunctiveQuery
from repro.service.service import QueryOutcome, QueryService
from repro.util.rng import DeterministicRNG
from repro.util.validation import check_in_range, check_positive

#: Default priority mix: mostly normal traffic with some interactive (high)
#: and background (low) requests.
DEFAULT_PRIORITY_MIX: Dict[str, float] = {"high": 0.2, "normal": 0.6, "low": 0.2}


@dataclass
class WorkloadSpec:
    """Shape of one generated query stream.

    Parameters
    ----------
    num_queries:
        Stream length.
    queries:
        Pattern names to draw from (Table 1 names by default).
    mode:
        ``"closed"``, ``"open"`` or ``"mixed"`` (see module docstring).
    arrival_rate:
        Open-loop arrivals per virtual time unit (ignored for pure
        closed-loop streams).
    rename_fraction:
        Fraction of requests rewritten with fresh variable names
        (α-equivalent forms) to exercise plan-cache canonicalization.
    priority_mix:
        Sampling weights of the priority classes.
    backends:
        When given, each request is pinned to one of these backends
        (seeded round-robin-ish draw); otherwise requests use the
        service's own rotation.
    edge_relation:
        Relation name the pattern queries bind.
    zipf_skew:
        ``None`` draws patterns uniformly; a positive value draws them
        with Zipf popularity — pattern at (1-based) rank ``r`` in
        ``queries`` has weight ``1 / r**zipf_skew``.
    update_fraction:
        Fraction of the stream that is a catalog *insert* instead of a
        query (seeded random edges into ``edge_relation``).
    update_batch:
        Rows per generated insert.
    update_domain:
        Vertex ids of generated update edges are drawn from
        ``[0, update_domain)``; match the catalog's vertex count so
        updates hit existing shards/joins.
    """

    num_queries: int = 100
    queries: Sequence[str] = PATTERN_NAMES
    mode: str = "mixed"
    arrival_rate: float = 0.001
    rename_fraction: float = 0.5
    priority_mix: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_PRIORITY_MIX)
    )
    backends: Optional[Sequence[str]] = None
    edge_relation: str = "E"
    zipf_skew: Optional[float] = None
    update_fraction: float = 0.0
    update_batch: int = 1
    update_domain: int = 60

    def __post_init__(self) -> None:
        check_positive("num_queries", self.num_queries)
        if self.mode not in ("closed", "open", "mixed"):
            raise ValueError(
                f"mode must be 'closed', 'open' or 'mixed', got {self.mode!r}"
            )
        check_positive("arrival_rate", self.arrival_rate)
        check_in_range("rename_fraction", self.rename_fraction, 0.0, 1.0)
        if not self.queries:
            raise ValueError("queries must name at least one pattern")
        if self.zipf_skew is not None:
            check_positive("zipf_skew", self.zipf_skew)
        check_in_range("update_fraction", self.update_fraction, 0.0, 1.0)
        check_positive("update_batch", self.update_batch)
        check_positive("update_domain", self.update_domain)


@dataclass
class WorkloadRequest:
    """One generated request, ready for :func:`run_workload` to submit.

    ``kind == "query"`` requests carry a conjunctive query; ``"update"``
    requests carry ``relation``/``rows`` to insert through the catalog
    (``query`` is ``None`` for them).
    """

    query: Optional[ConjunctiveQuery]
    priority: str
    arrival_time: float
    backend: Optional[str]
    kind: str = "query"
    relation: Optional[str] = None
    rows: Optional[List[Tuple[int, ...]]] = None


def alpha_rename(query: ConjunctiveQuery, tag: int) -> ConjunctiveQuery:
    """An α-equivalent copy of ``query`` with fresh, ``tag``-derived names.

    Structure (atom order, positions) is untouched, so the canonical
    signature of the result equals the original's.
    """
    mapping = {v: f"{v}_r{tag}" for v in query.variables}
    atoms = [
        Atom(atom.relation, tuple(mapping[v] for v in atom.variables))
        for atom in query.atoms
    ]
    head = tuple(mapping[v] for v in query.head_variables)
    return ConjunctiveQuery(f"{query.name}_r{tag}", head, atoms)


def zipf_weights(names: Sequence[str], skew: float) -> Dict[str, float]:
    """Zipf popularity weights over ``names``: rank ``r`` gets ``1/r**skew``."""
    return {name: 1.0 / float(rank) ** skew for rank, name in enumerate(names, start=1)}


def generate_requests(spec: WorkloadSpec, seed: int = 2020) -> List[WorkloadRequest]:
    """Generate the seeded request stream described by ``spec``."""
    rng = DeterministicRNG(seed)
    requests: List[WorkloadRequest] = []
    popularity = (
        zipf_weights(tuple(spec.queries), spec.zipf_skew)
        if spec.zipf_skew is not None
        else None
    )
    open_clock = 0.0
    for index in range(spec.num_queries):
        # Draw order matters: with the realism knobs at their defaults the
        # consumption sequence must match the historical one, so existing
        # (spec, seed) pairs regenerate byte-identical streams.
        is_update = (
            spec.update_fraction > 0.0 and rng.random() < spec.update_fraction
        )
        if is_update:
            rows = [
                (
                    rng.randint(0, spec.update_domain - 1),
                    rng.randint(0, spec.update_domain - 1),
                )
                for _ in range(spec.update_batch)
            ]
            query = None
        else:
            if popularity is not None:
                name = rng.weighted_choice(popularity)
            else:
                name = rng.choice(list(spec.queries))
            query = pattern_query(name, spec.edge_relation)
            if rng.random() < spec.rename_fraction:
                query = alpha_rename(query, index)
        priority = rng.weighted_choice(spec.priority_mix)
        backend = (
            rng.choice(list(spec.backends)) if spec.backends and not is_update else None
        )
        if spec.mode == "closed":
            is_open = False
        elif spec.mode == "open":
            is_open = True
        else:
            is_open = rng.random() < 0.5
        if is_open:
            open_clock += rng.expovariate(spec.arrival_rate)
            arrival = open_clock
        else:
            arrival = 0.0
        if is_update:
            requests.append(
                WorkloadRequest(
                    None,
                    priority,
                    arrival,
                    None,
                    kind="update",
                    relation=spec.edge_relation,
                    rows=rows,
                )
            )
        else:
            requests.append(WorkloadRequest(query, priority, arrival, backend))
    return requests


def workload_database(
    num_vertices: int = 60,
    num_edges: int = 300,
    seed: int = 2020,
    edge_relation: str = "E",
) -> Database:
    """A small seeded community-graph catalog for service workloads/tests.

    Community graphs are triangle- and clique-rich, so every Table 1
    pattern returns non-trivial results at this size.
    """
    graph = community_graph(num_vertices, num_edges, seed=seed)
    return graph_database(graph, edge_relation)


def run_workload(
    service: QueryService, requests: Sequence[WorkloadRequest]
) -> Dict[int, QueryOutcome]:
    """Submit ``requests`` to ``service`` and drain it; outcomes by request id.

    Update requests (``kind == "update"``) are applied in stream order:
    every query submitted so far is drained first, then the rows are
    inserted through the catalog — so invalidation hits the result caches
    mid-run exactly where the stream places the mutation, and queries after
    it observe the new data.

    Generated arrival times restart at virtual time 0 for every stream, but
    the service clock persists across drains; the driver therefore dates
    each submission at ``max(generated arrival, service.clock)`` — the
    stream's relative spacing within one drain is preserved and requests
    after a mid-stream mutation simply "arrive now", without tripping the
    service's back-dated-arrival policy.
    """
    outcomes: Dict[int, QueryOutcome] = {}
    pending = 0
    for request in requests:
        if request.kind == "update":
            if pending:
                outcomes.update(service.drain())
                pending = 0
            service.insert_tuples(request.relation, request.rows or ())
            continue
        service.submit(
            request.query,
            priority=request.priority,
            arrival_time=max(request.arrival_time, service.clock),
            backend=request.backend,
        )
        pending += 1
    if pending:
        outcomes.update(service.drain())
    return outcomes
