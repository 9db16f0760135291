"""A plan's per-query setup is computed once; its tries are resolved per run.

``run_plan`` keeps the generated kernel on the plan
(``JoinPlan.kernels``, per ``(use_cache, intersection)``) and the catalogs
memoise each atom's trie attribute order, so a warm plan re-derives
neither.  What a catalog holds is never kept on the plan: a catalog
replaces its tries on every insert, so a plan run after an insert must see
the new rows, and a plan pickled for a process worker carries nothing a run
bound.
"""

import pickle

import pytest

from repro.graphs import pattern_query, uniform_random_graph
from repro.joins import QueryCompiler, leapfrog
from repro.joins.delta import DeltaCatalog, DeltaPlanner
from repro.joins.leapfrog import run_plan
from repro.relational import Atom, ConjunctiveQuery, Database, Relation, Schema, catalog
from repro.relational.sharding import shard_database

#: Every kernel a plan can run: LFTJ, CTJ and Generic Join's.
MODES = [(False, "leapfrog"), (True, "leapfrog"), (False, "materialise")]

EDGES = sorted(uniform_random_graph(14, 48, seed=11).edges())
#: Rows inserted between two runs: new edges, some closing triangles.
INSERTED = [(0, 13), (13, 2), (2, 0), (5, 6), (6, 5), (9, 1)]


def edge_database(edges, name="db", relation="E"):
    database = Database(name)
    database.add_relation(Relation(relation, Schema(("src", "dst")), edges))
    return database


def compile_plan(query):
    return QueryCompiler(enable_caching=True).compile(query)


def observe(plan, database, use_cache, intersection):
    """Everything one run shows: rows in order, counters, per-variable matches."""
    rows, stats = run_plan(plan, database, use_cache, intersection)
    return rows, stats.as_dict(), list(stats.per_variable_matches.items())


class CallCounter:
    """Replaces ``module.name`` with a wrapper that counts its calls."""

    def __init__(self, monkeypatch, module, name):
        self.calls = 0
        function = getattr(module, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return function(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)


class TestWarmPlan:
    """A warm plan's second run derives no kernel shape and no attribute order."""

    def guard_catalogs(self):
        """``(name, query, catalog)`` for each ``trie_for_atom`` a run reaches."""
        database = edge_database(EDGES, relation="Guarded")
        query = ConjunctiveQuery(
            "guarded_cycle3",
            ("a", "b", "c"),
            [Atom("Guarded", ("a", "b")), Atom("Guarded", ("b", "c")), Atom("Guarded", ("a", "c"))],
        )
        sharded = shard_database(database, 2)
        spec = sharded.scatter_spec(query)
        deltas = DeltaCatalog(database, {"Guarded": EDGES[:3]})
        term = DeltaPlanner().plans_for(query, ["Guarded"])[0]
        return [
            ("database", query, database),
            ("shard view", spec.query, sharded.shard_view(1, spec)),
            ("delta view", term.query, deltas.view),
        ]

    @pytest.mark.parametrize("use_cache, intersection", MODES)
    def test_second_run_derives_no_shape_or_attribute_order(
        self, monkeypatch, use_cache, intersection
    ):
        shapes = CallCounter(monkeypatch, leapfrog, "plan_shape")
        orders = CallCounter(monkeypatch, catalog, "ordered_attributes_for")
        for name, query, database in self.guard_catalogs():
            plan = compile_plan(query)
            shapes.calls = 0
            cold = observe(plan, database, use_cache, intersection)
            assert shapes.calls == 1, name
            shapes.calls = orders.calls = 0
            assert observe(plan, database, use_cache, intersection) == cold
            assert (name, shapes.calls, orders.calls) == (name, 0, 0)

    def test_the_counters_see_a_cold_attribute_order(self, monkeypatch):
        # A relation name no other test uses, so the memo misses.
        orders = CallCounter(monkeypatch, catalog, "ordered_attributes_for")
        database = edge_database(EDGES, relation="GuardedCold")
        query = ConjunctiveQuery(
            "guarded_path", ("a", "b", "c"),
            [Atom("GuardedCold", ("a", "b")), Atom("GuardedCold", ("b", "c"))],
        )
        run_plan(compile_plan(query), database, False)
        assert orders.calls == 2


def sharded_view(edges, query):
    sharded = shard_database(edge_database(edges), 2, name="sharded")
    spec = sharded.scatter_spec(query)
    return sharded, spec


class TestRunAfterInsert:
    """Run, insert, run again: each run equals a fresh catalog's."""

    @pytest.mark.parametrize("pattern", ["cycle3", "path3", "clique4"])
    @pytest.mark.parametrize("use_cache, intersection", MODES)
    def test_database(self, pattern, use_cache, intersection):
        database = edge_database(EDGES)
        plan = compile_plan(pattern_query(pattern))
        for edges in (EDGES, EDGES + INSERTED):
            if edges is not EDGES:
                database.insert_into("E", INSERTED)
            fresh = observe(
                compile_plan(pattern_query(pattern)), edge_database(edges), use_cache, intersection
            )
            assert observe(plan, database, use_cache, intersection) == fresh

    @pytest.mark.parametrize("pattern", ["cycle3", "path3", "clique4"])
    @pytest.mark.parametrize("use_cache, intersection", MODES)
    def test_two_shard_view(self, pattern, use_cache, intersection):
        sharded, spec = sharded_view(EDGES, pattern_query(pattern))
        plan = compile_plan(spec.query)
        views = [sharded.shard_view(shard, spec) for shard in range(2)]
        for edges in (EDGES, EDGES + INSERTED):
            if edges is not EDGES:
                sharded.insert_into("E", INSERTED)
            fresh_sharded, fresh_spec = sharded_view(edges, pattern_query(pattern))
            for shard, view in enumerate(views):
                fresh = observe(
                    compile_plan(fresh_spec.query),
                    fresh_sharded.shard_view(shard, fresh_spec),
                    use_cache,
                    intersection,
                )
                assert observe(plan, view, use_cache, intersection) == fresh

    @pytest.mark.parametrize("pattern", ["cycle3", "path3", "clique4"])
    @pytest.mark.parametrize("use_cache, intersection", MODES)
    def test_delta_overlay(self, pattern, use_cache, intersection):
        delta = EDGES[::5]
        database = edge_database(EDGES)
        view = DeltaCatalog(database, {"E": delta}).view
        terms = DeltaPlanner().plans_for(pattern_query(pattern), ["E"])
        for edges in (EDGES, EDGES + INSERTED):
            if edges is not EDGES:
                database.insert_into("E", INSERTED)
            fresh_view = DeltaCatalog(edge_database(edges), {"E": delta}).view
            fresh_terms = DeltaPlanner().plans_for(pattern_query(pattern), ["E"])
            for term, fresh_term in zip(terms, fresh_terms):
                fresh = observe(fresh_term.plan, fresh_view, use_cache, intersection)
                assert observe(term.plan, view, use_cache, intersection) == fresh


class TestPickle:
    @pytest.mark.parametrize("pattern", ["cycle3", "path3", "clique4"])
    def test_a_plan_pickles_the_same_before_and_after_it_runs(self, pattern):
        database = edge_database(EDGES)
        plan = compile_plan(pattern_query(pattern))
        before = pickle.dumps(plan)
        runs = [observe(plan, database, *mode) for mode in MODES]
        assert len(plan.kernels) == len(MODES)
        assert pickle.dumps(plan) == before
        restored = pickle.loads(before)
        assert restored.kernels == {}
        assert [observe(restored, database, *mode) for mode in MODES] == runs
