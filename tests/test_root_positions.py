"""A trie's root-position map: what the plan kernel probes before bisecting
a root-level seek.

The map is host-only state on a :class:`TrieIndex`, built on first use.  An
extension that adds no root value hands the same map to the new trie; one
that does leaves the old trie's map as it was and the new trie builds its
own.  So a plan run after an insert never lands on a stale position, and a
warm run builds nothing.
"""

from array import array

import pytest

from repro.graphs import pattern_query
from repro.joins import QueryCompiler
from repro.joins.delta import DeltaCatalog, DeltaPlanner
from repro.joins.leapfrog import run_plan
from repro.relational import Atom, ConjunctiveQuery, Database, Relation, Schema, TrieIndex
from repro.relational.sharding import shard_database

#: Every kernel a plan can run: LFTJ, CTJ and Generic Join's.
MODES = [(False, "leapfrog"), (True, "leapfrog"), (False, "materialise")]

#: A graph on the even vertices 0..22: triangles, a 4-clique and chords.
EDGES = sorted(
    {(a, b) for a, b in [(0, 2), (2, 4), (4, 0), (6, 8), (8, 10), (10, 6), (6, 10)]}
    | {(a, b) for a in (12, 14, 16, 18) for b in (12, 14, 16, 18) if a != b}
    | {(20, 22), (22, 0), (0, 20), (2, 18), (18, 4)}
)
#: Rows whose root values (odd) fall mid-level in either attribute order,
#: closing new triangles through the old vertices.
INSERTED = [(7, 8), (8, 13), (13, 7), (13, 6), (6, 7), (3, 12), (12, 3)]


def edge_database(edges, name="db"):
    database = Database(name)
    database.add_relation(Relation("E", Schema(("src", "dst")), edges))
    return database


def observe(plan, database, use_cache, intersection):
    """Everything one run shows: rows in order, counters, per-variable matches."""
    rows, stats = run_plan(plan, database, use_cache, intersection)
    return rows, stats.as_dict(), list(stats.per_variable_matches.items())


def compile_plan(query):
    return QueryCompiler(enable_caching=True).compile(query)


def fresh_positions(trie):
    return {value: i for i, value in enumerate(trie.level_values(0))}


class TestMapLifetime:
    ROWS = [(1, 5), (1, 9), (4, 2), (8, 8)]

    def relation(self, rows):
        return Relation("R", Schema(("a", "b")), rows)

    def test_extension_below_existing_roots_shares_the_map(self):
        relation = self.relation(self.ROWS)
        trie = TrieIndex(relation)
        positions = trie.root_positions()
        grown = trie.extended(relation, [(1, 7), (8, 0)])
        assert grown.root_positions() is positions
        assert positions == fresh_positions(grown) == {1: 0, 4: 1, 8: 2}

    def test_extension_with_new_roots_builds_its_own_map(self):
        relation = self.relation(self.ROWS)
        trie = TrieIndex(relation)
        positions = trie.root_positions()
        before = dict(positions)
        grown = trie.extended(relation, [(0, 1), (5, 5), (9, 1)])
        expected = TrieIndex(self.relation(self.ROWS + [(0, 1), (5, 5), (9, 1)]))
        assert grown.root_positions() == expected.root_positions() == fresh_positions(expected)
        assert grown.root_positions() == {0: 0, 1: 1, 4: 2, 5: 3, 8: 4, 9: 5}
        assert trie.root_positions() is positions
        assert positions == before

    def test_an_unbuilt_map_is_built_by_each_trie_on_first_use(self):
        relation = self.relation(self.ROWS)
        trie = TrieIndex(relation)
        below = trie.extended(relation, [(4, 3)])
        above = trie.extended(relation, [(6, 3)])
        assert below.root_positions() == trie.root_positions() == {1: 0, 4: 1, 8: 2}
        assert above.root_positions() == {1: 0, 4: 1, 6: 2, 8: 3}

    def test_adopted_levels_give_equal_maps(self):
        built = TrieIndex(self.relation(self.ROWS))
        values = [list(built.level_values(level)) for level in range(2)]
        offsets = [list(built.child_offsets(0))]
        forms = {
            "list": lambda level: level,
            "array": lambda level: array("q", level),
            "memoryview": lambda level: memoryview(array("q", level)),
        }
        maps = {
            name: TrieIndex.from_flat(
                "R", ("a", "b"), [form(v) for v in values], [form(o) for o in offsets], 4
            ).root_positions()
            for name, form in forms.items()
        }
        assert all(positions == built.root_positions() for positions in maps.values())
        assert built.root_positions() == {1: 0, 4: 1, 8: 2}

    def test_the_map_is_not_in_the_footprint(self):
        trie = TrieIndex(self.relation(self.ROWS))
        words = trie.memory_words()
        trie.root_positions()
        assert trie.memory_words() == words == 3 + 4 + 4


def sharded_view(edges, query):
    sharded = shard_database(edge_database(edges), 2, name="sharded")
    return sharded, sharded.scatter_spec(query)


@pytest.mark.parametrize("pattern", ["cycle3", "clique4"])
@pytest.mark.parametrize("use_cache, intersection", MODES)
class TestRunAfterMidLevelInsert:
    """Run (building the maps), insert rows whose root values fall mid-level,
    run again: each run equals a fresh catalog's."""

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
        assert 7 in database.trie("E", ("src", "dst")).root_positions()

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

    def test_delta_overlay(self, pattern, use_cache, intersection):
        delta = EDGES[::3]
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


class MapBuilds:
    """Counts the root-position maps built through :meth:`TrieIndex.root_positions`."""

    def __init__(self, monkeypatch):
        self.count = 0
        root_positions = TrieIndex.root_positions

        def counted(trie):
            self.count += trie._root_positions is None
            return root_positions(trie)

        monkeypatch.setattr(TrieIndex, "root_positions", counted)


class TestWarmRun:
    @pytest.mark.parametrize("pattern", ["cycle3", "clique4"])
    @pytest.mark.parametrize("use_cache", [False, True])
    def test_a_warm_run_builds_no_map(self, monkeypatch, pattern, use_cache):
        builds = MapBuilds(monkeypatch)
        database = edge_database(EDGES)
        plan = compile_plan(pattern_query(pattern))
        cold = observe(plan, database, use_cache, "leapfrog")
        # One build per distinct trie a root seeker reads, on the cold run only.
        program = plan.slot_program()
        seekers = {
            id(database.trie_for_atom(plan.atom_bindings[program.trie_slots[trie]].atom,
                                      plan.variable_order))
            for trie in program.root_seeks
        }
        assert builds.count == len(seekers) >= 1
        assert observe(plan, database, use_cache, "leapfrog") == cold
        assert builds.count == len(seekers)

    def test_materialise_builds_no_map(self, monkeypatch):
        builds = MapBuilds(monkeypatch)
        run_plan(compile_plan(pattern_query("cycle3")), edge_database(EDGES), False, "materialise")
        assert builds.count == 0

    @pytest.mark.parametrize(
        "atoms, order",
        [
            ([Atom("E", ("x", "y")), Atom("E", ("z", "y"))], ("x", "z", "y")),
            ([Atom("E", ("x", "y"))], ("x", "y")),
        ],
        ids=["wedge", "single_atom"],
    )
    def test_single_participant_roots_build_no_map(self, monkeypatch, atoms, order):
        builds = MapBuilds(monkeypatch)
        query = ConjunctiveQuery("q", order, atoms)
        plan = QueryCompiler().compile(query, variable_order=order)
        assert plan.slot_program().root_seeks == ()
        rows, _stats = run_plan(plan, edge_database(EDGES), False)
        assert rows
        assert builds.count == 0
