"""Semi-naive delta plans (:mod:`repro.joins.delta`).

The contract under test: for any conjunctive query and any batch of
genuinely-new rows, evaluating the delta terms against the *post-insert*
catalog yields exactly the result tuples the insert added —
``after == before ∪ delta`` and ``delta ⊇ after - before`` — across
engines and patterns, with plans memoised per (signature, relation, atom
position) and ``JoinStats``/cost accounting carried through the normal
slot-program machinery.
"""

import pytest

from repro.engines import create_engine
from repro.graphs import pattern_query
from repro.joins.delta import (
    DELTA_SUFFIX,
    DeltaCatalog,
    DeltaPlanner,
    delta_alias,
    delta_rewrites,
    evaluate_delta,
    is_delta_alias,
)
from repro.relational import (
    Atom,
    Catalog,
    ConjunctiveQuery,
    Database,
    OverlayCatalog,
    Relation,
    Schema,
    shard_database,
)
from repro.service import workload_database

#: Plan-aware engines the maintainer may run delta terms through.
ENGINES = ("lftj", "ctj", "generic")

#: Patterns covering self-joins over one relation at several arities.
PATTERNS = ("cycle3", "path3", "clique4")


def fresh_rows(database, batch):
    """Insert ``batch`` and return the genuinely-new rows it added."""
    events = []
    database.subscribe_invalidation(events.append)
    database.insert_into("E", batch)
    database.unsubscribe_invalidation(events.append)
    return tuple(row for event in events for row in event.delta.rows)


class TestRewrites:
    def test_alias_round_trip(self):
        assert delta_alias("E") == f"E{DELTA_SUFFIX}"
        assert is_delta_alias(delta_alias("E"))
        assert not is_delta_alias("E")

    def test_one_rewrite_per_matching_atom(self):
        query = pattern_query("cycle3")  # E(x,y), E(y,z), E(z,x)
        rewrites = delta_rewrites(query, ["E"])
        assert [index for index, _ in rewrites] == [0, 1, 2]
        for index, rewritten in rewrites:
            assert rewritten.head_variables == query.head_variables
            for position, atom in enumerate(rewritten.atoms):
                original = query.atoms[position]
                assert atom.variables == original.variables
                expected = (
                    delta_alias(original.relation)
                    if position == index
                    else original.relation
                )
                assert atom.relation == expected

    def test_unchanged_relations_produce_no_rewrites(self):
        assert delta_rewrites(pattern_query("cycle3"), ["other"]) == ()


#: The read half of the ``Catalog`` protocol: all an engine, an estimator or
#: the process backend's exporter ever calls on the catalog it is handed.
CATALOG_READ_SURFACE = (
    "relation",
    "relation_names",
    "__contains__",
    "trie",
    "trie_for_atom",
    "validate_query",
    "total_tuples",
)


def delta_view_of(query, base, deltas):
    """The overlay ``evaluate_delta`` runs ``query``'s delta terms against."""
    views = []
    engine = create_engine("lftj")

    class Capture:
        def execute(self, query, database, plan=None):
            views.append(database)
            return engine.execute(query, database, plan=plan)

    evaluate_delta(query, DeltaCatalog(base, deltas).view, Capture(), DeltaPlanner())
    return views[0]


def edge_database():
    base = Database("base")
    base.add_relation(
        Relation("E", Schema(("src", "dst")), [(1, 2), (2, 3), (3, 1), (4, 1)])
    )
    return base


def overlay_views(kind):
    """``(view, expected name, {visible name: its sorted rows})`` per kind.

    The three shapes the serving layer builds: a scatter task's shard view,
    a delta term's view, and the delta view ``scatter.maintain`` nests over
    a shard view.
    """
    base = edge_database()
    rows = {"E": base.relation("E").sorted_rows()}
    if kind == "delta":
        view = delta_view_of(pattern_query("path3"), base, {"E": [(7, 8)]})
        rows[delta_alias("E")] = [(7, 8)]
        return view, "base~delta", rows
    sharded = shard_database(base, 2, name="sharded")
    spec = sharded.scatter_spec(pattern_query("path3"))
    shard_view = sharded.shard_view(1, spec)
    rows[spec.alias] = sharded.shard_relation("E", 1).sorted_rows()
    if kind == "shard":
        return shard_view, "sharded.view1", rows
    view = delta_view_of(spec.query, shard_view, {spec.alias: [(7, 8)]})
    rows[delta_alias(spec.alias)] = [(7, 8)]
    return view, "sharded.view1~delta", rows


class TestDeltaView:
    def test_alias_resolves_to_batch_everything_else_to_base(self):
        base = Database("base")
        base.add_relation(Relation("E", Schema(("src", "dst")), [(1, 2), (2, 3)]))
        view = delta_view_of(pattern_query("path3"), base, {"E": [(7, 8)]})
        assert sorted(view.relation("E").sorted_rows()) == [(1, 2), (2, 3)]
        assert sorted(view.relation(delta_alias("E")).sorted_rows()) == [(7, 8)]
        assert delta_alias("E") in view and "E" in view
        assert view.total_tuples() == 3
        assert view.trie(delta_alias("E"), ("src", "dst")).num_tuples == 1

    @pytest.mark.parametrize("kind", ["shard", "delta", "delta-over-shard"])
    def test_every_view_is_one_overlay_with_the_catalog_read_surface(self, kind):
        view, name, rows = overlay_views(kind)
        assert isinstance(view, OverlayCatalog) and view.name == name
        for member in CATALOG_READ_SURFACE:
            assert hasattr(Catalog, member) and callable(getattr(view, member))
        assert not hasattr(view, "insert_into")  # read-only by construction
        assert set(view.relation_names()) == set(rows)
        assert view.total_tuples() == sum(len(r) for r in rows.values())
        for visible, expected in rows.items():
            assert visible in view
            assert view.relation(visible).sorted_rows() == expected
            assert view.trie(visible, ("dst", "src")).num_tuples == len(expected)
            atom = Atom(visible, ("x", "y"))
            assert view.trie_for_atom(atom, ("y", "x")).attribute_order == ("dst", "src")
        assert "missing" not in view
        with pytest.raises(KeyError, match="missing"):
            view.relation("missing")
        everything = [Atom(visible, ("x", "y")) for visible in rows]
        view.validate_query(ConjunctiveQuery("q", ("x", "y"), everything))
        for visible in rows:
            with pytest.raises(ValueError, match="has arity 3"):
                view.validate_query(
                    ConjunctiveQuery("q", ("x",), [Atom(visible, ("x", "y", "z"))])
                )


class TestPlannerMemoisation:
    def test_plans_are_compiled_once_per_term(self):
        planner = DeltaPlanner()
        query = pattern_query("cycle3")
        first = planner.plans_for(query, ["E"])
        second = planner.plans_for(query, ["E"])
        assert len(first) == 3
        for a, b in zip(first, second):
            assert a is b  # memoised, not recompiled

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_term_orders_are_seeded_by_the_delta_atom(self, pattern):
        planner = DeltaPlanner()
        query = pattern_query(pattern)
        base_order = planner.compiler.compile(query).variable_order
        for plan in planner.plans_for(query, ["E"]):
            order = plan.plan.variable_order
            seeds = set(query.atoms[plan.atom_index].variables)
            assert set(order[: len(seeds)]) == seeds
            # The base order, stably partitioned: both halves keep its sequence.
            assert [v for v in base_order if v in seeds] == list(order[: len(seeds)])
            assert [v for v in base_order if v not in seeds] == list(order[len(seeds):])


class TestEvaluateDelta:
    @pytest.mark.parametrize("engine_name", ENGINES)
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_delta_equals_recompute_difference(self, engine_name, pattern):
        database = workload_database(num_vertices=24, num_edges=90, seed=11)
        engine = create_engine(engine_name)
        planner = DeltaPlanner()
        query = pattern_query(pattern)
        before = set(engine.execute(query, database).tuples)
        batches = (
            [(1, 2), (2, 5), (5, 1), (9, 9)],
            [(0, 1), (1, 0), (3, 3), (2, 2), (5, 2)],
            [(6, 7), (7, 8), (8, 6), (6, 6)],
        )
        for batch in batches:
            rows = fresh_rows(database, batch)
            result = evaluate_delta(
                query, DeltaCatalog(database, {"E": rows}).view, engine, planner
            )
            after = set(engine.execute(query, database).tuples)
            assert after - before <= set(result.tuples)
            assert before | set(result.tuples) == after
            before = after

    def test_empty_delta_short_circuits(self):
        database = workload_database(num_vertices=10, num_edges=20, seed=3)
        result = evaluate_delta(
            pattern_query("cycle3"),
            DeltaCatalog(database, {"E": ()}).view,
            create_engine("lftj"),
            DeltaPlanner(),
        )
        assert result.tuples == () and result.terms == 0

    def test_unrelated_relations_are_ignored(self):
        database = workload_database(num_vertices=10, num_edges=20, seed=3)
        database.add_relation(Relation("other", Schema(("a", "b")), []))
        result = evaluate_delta(
            pattern_query("cycle3"),
            DeltaCatalog(database, {"other": ((1, 2),)}).view,
            create_engine("lftj"),
            DeltaPlanner(),
        )
        assert result.tuples == () and result.terms == 0

    def test_stats_and_cost_are_accounted(self):
        database = workload_database(num_vertices=24, num_edges=90, seed=11)
        rows = fresh_rows(database, [(1, 2), (2, 3), (3, 1)])
        result = evaluate_delta(
            pattern_query("cycle3"),
            DeltaCatalog(database, {"E": rows}).view,
            create_engine("lftj"),
            DeltaPlanner(),
        )
        assert result.terms == 3  # one per atom over E
        assert result.cost_ns > 0.0
        assert result.stats.index_element_reads > 0
