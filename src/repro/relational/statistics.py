"""Query statistics: the cardinality estimates behind cost-based routing.

Section 2.1 of the paper builds on the AGM bound (Atserias, Grohe, Marx): the
worst-case output size of a natural join is ``prod_i |R_i|^{x_i}`` minimised
over *fractional edge covers* ``x`` of the query hypergraph, and an algorithm
is worst-case optimal (WCOJ) when its running time matches that bound.  No
routing decision reads the bound itself; the test suite computes it
(``tests/test_relational_statistics.py``) as an oracle-free upper bound on
every WCOJ engine's output.

This module provides the cardinality-estimation primitives behind the public
API's cost-based routing (:mod:`repro.api.routing`): the GYO α-acyclicity
test (:func:`is_alpha_acyclic` / :func:`is_cyclic`) that separates the
paper's path queries from its cycle/clique queries, per-atom selectivities
under the uniform-independence model, and deterministic work estimates for
the three execution styles the engine registry exposes (nested-loop,
left-deep pairwise, and worst-case-optimal variable elimination).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.relational.catalog import Database
from repro.relational.query import ConjunctiveQuery


# --------------------------------------------------------------------------- #
# Structure: α-acyclicity (GYO reduction)
# --------------------------------------------------------------------------- #
def is_alpha_acyclic(query: ConjunctiveQuery) -> bool:
    """Whether the query's hypergraph is α-acyclic (GYO ear removal).

    The reduction alternates two rewrites until neither applies: drop every
    variable that occurs in exactly one hyperedge, and drop every hyperedge
    contained in another.  The hypergraph is α-acyclic exactly when this
    empties it.  The paper's path and star patterns are acyclic; its cycle
    and clique patterns are not — which is what the cost router keys on,
    because cyclic queries are where intermediate-result blowup (and hence
    the accelerator's PJR cache) matters.
    """
    edges: List[Set[str]] = [set(atom.variables) for atom in query.atoms]
    changed = True
    while changed and edges:
        changed = False
        occurrences: Dict[str, int] = {}
        for edge in edges:
            for variable in edge:
                occurrences[variable] = occurrences.get(variable, 0) + 1
        for edge in edges:
            lone = {v for v in edge if occurrences[v] == 1}
            if lone:
                edge -= lone
                changed = True
        edges = [edge for edge in edges if edge]
        for i, edge in enumerate(edges):
            if any(i != j and edge <= other for j, other in enumerate(edges)):
                edges.pop(i)
                changed = True
                break
    return not edges


def is_cyclic(query: ConjunctiveQuery) -> bool:
    """True when the query hypergraph is *not* α-acyclic."""
    return not is_alpha_acyclic(query)


def has_repeated_atom_variables(query: ConjunctiveQuery) -> bool:
    """Whether any atom repeats a variable (e.g. ``R(x, x)``).

    The trie-join engines reject such atoms; the cost router uses this to
    restrict routing to engines whose capabilities declare support.
    """
    return any(len(set(atom.variables)) != len(atom.variables) for atom in query.atoms)


# --------------------------------------------------------------------------- #
# Cardinality estimation (uniform-independence model)
# --------------------------------------------------------------------------- #
def active_domain_size(database: Database, query: ConjunctiveQuery) -> int:
    """Size of the combined active domain of the relations ``query`` touches."""
    domain: Set[int] = set()
    for name in query.relation_names():
        domain.update(database.relation(name).active_domain())
    return max(len(domain), 1)


def atom_selectivity(atom, database: Database, domain: int) -> float:
    """Probability that a uniform random binding satisfies ``atom``.

    Under the uniform-independence model an atom over a relation of
    cardinality ``c`` and arity ``k`` holds with probability ``c / domain**k``
    (each attribute drawn independently from the active domain).
    """
    cardinality = database.relation(atom.relation).cardinality
    return min(1.0, cardinality / float(domain ** atom.arity))


def wcoj_work_estimate(
    query: ConjunctiveQuery,
    database: Database,
    order: Optional[Sequence[str]] = None,
    domain: Optional[int] = None,
) -> float:
    """Expected work of a WCOJ variable-elimination run of ``query``.

    Sums the expected cardinality of every variable-order prefix: a prefix
    of ``k`` variables has ``domain**k`` candidate bindings, thinned by the
    selectivity of every atom it fully covers.  This is the number of
    partial bindings an LFTJ/CTJ-style engine materialises, which dominates
    its index-probe count.  ``order`` defaults to first-appearance order
    (the same seed the compiler's heuristic starts from).  Pass ``domain``
    to reuse a precomputed :func:`active_domain_size` (callers pricing
    several engines on one query avoid rescanning the relations).
    """
    database.validate_query(query)
    variables = tuple(order) if order is not None else query.variables
    if domain is None:
        domain = active_domain_size(database, query)
    work = 0.0
    for depth in range(1, len(variables) + 1):
        prefix = set(variables[:depth])
        estimate = float(domain) ** depth
        for atom in query.atoms:
            if set(atom.variables) <= prefix:
                estimate *= atom_selectivity(atom, database, domain)
        work += estimate
    return max(work, 1.0)


def pairwise_work_estimate(
    query: ConjunctiveQuery, database: Database, domain: Optional[int] = None
) -> float:
    """Expected work of a left-deep pairwise join of ``query``'s atoms.

    Charges every base-relation scan plus the expected cardinality of each
    materialised intermediate (the running join of an atom prefix).  For
    cyclic queries the intermediates exceed the final output — the blowup
    the paper's Figure 18 measures.
    """
    database.validate_query(query)
    if domain is None:
        domain = active_domain_size(database, query)
    work = float(
        sum(database.relation(atom.relation).cardinality for atom in query.atoms)
    )
    covered: Set[str] = set()
    selectivity = 1.0
    for index, atom in enumerate(query.atoms):
        covered |= set(atom.variables)
        selectivity *= atom_selectivity(atom, database, domain)
        if index >= 1:
            work += float(domain) ** len(covered) * selectivity
    return max(work, 1.0)


def nested_loop_work_estimate(query: ConjunctiveQuery, database: Database) -> float:
    """Work of the naive nested-loop oracle: the product of atom cardinalities."""
    database.validate_query(query)
    work = 1.0
    for atom in query.atoms:
        work *= max(database.relation(atom.relation).cardinality, 1)
    return max(work, 1.0)


# --------------------------------------------------------------------------- #
# Scatter-gather estimation over sharded catalogs
# --------------------------------------------------------------------------- #
#: Work estimators by cost-model name, as used for per-shard pricing.
_SHARD_WORK_ESTIMATORS = {
    "wcoj": lambda query, catalog: wcoj_work_estimate(query, catalog),
    "pairwise": lambda query, catalog: pairwise_work_estimate(query, catalog),
    "nested-loop": lambda query, catalog: nested_loop_work_estimate(query, catalog),
}


@dataclass(frozen=True)
class ScatterWorkEstimate:
    """Per-shard work of a scatter-gather execution of one query.

    ``parallel`` is the critical-path work (shards run concurrently in the
    service's virtual-time model, so the slowest shard dominates);
    ``total`` is the aggregate work across all shards (what a cost *budget*
    would charge).
    """

    per_shard: Tuple[float, ...]

    @property
    def num_shards(self) -> int:
        return len(self.per_shard)

    @property
    def parallel(self) -> float:
        return max(self.per_shard) if self.per_shard else 0.0

    @property
    def total(self) -> float:
        return sum(self.per_shard)


def scatter_work_estimate(
    query: ConjunctiveQuery, catalog, work_model: str = "wcoj"
) -> Optional[ScatterWorkEstimate]:
    """Per-shard work estimates of scattering ``query`` over ``catalog``.

    ``catalog`` is duck-typed: anything exposing the
    :class:`repro.relational.sharding.ShardedDatabase` scatter surface
    (``scatter_spec`` / ``shard_view`` / ``num_shards``) qualifies.  Returns
    ``None`` when the catalog is monolithic.

    Each shard's estimate prices the *rewritten* query against that shard's
    view, so the seed atom's selectivity reflects the fragment cardinality
    while non-seed atoms keep their full-relation cardinalities — exactly
    the data a scatter task reads.
    """
    spec_builder = getattr(catalog, "scatter_spec", None)
    if spec_builder is None:
        return None
    spec = spec_builder(query)
    estimator = _SHARD_WORK_ESTIMATORS.get(work_model, _SHARD_WORK_ESTIMATORS["wcoj"])
    per_shard = tuple(
        estimator(spec.query, catalog.shard_view(shard, spec))
        for shard in range(catalog.num_shards)
    )
    return ScatterWorkEstimate(per_shard)
