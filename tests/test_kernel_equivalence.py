"""Equivalence of the overhauled hot-path kernels with the seed semantics.

The kernel overhauls (array-backed tries, slot-compiled cursor state, the
bulk leaf, the generated plan kernel with C-level seeks) must be *invisible*
at every observable surface: result tuples (and their order), ``JoinStats``
counters, and the trie's flat-layout invariants.  These tests pin that down
with property-style checks across the engine x query correctness matrix, the
plan kernel against a transcription of the interpreted driver and leapfrog
it replaced (and its ``materialise`` mode against Generic Join's retired
recursive walk), and the storage-layer helpers.
"""

import linecache
import pickle
from array import array
from bisect import bisect_left
from functools import partial
from itertools import accumulate, product, repeat
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import create_engine
from repro.graphs import (
    graph_database,
    pattern_query,
    uniform_random_graph,
)
from repro.joins import (
    CachedTrieJoin,
    GenericJoin,
    LeapfrogTrieJoin,
    NaiveJoin,
    QueryCompiler,
    leapfrog,
)
from repro.joins.aggregates import count_by_variable, count_matches
from repro.joins.delta import DeltaCatalog, DeltaPlanner, evaluate_delta
from repro.joins.leapfrog import (
    plan_kernel,
    plan_shape,
    plan_source,
    resolve_slot_tables,
    run_plan,
)
from repro.joins.stats import JoinStats
from repro.relational import (
    Atom,
    ConjunctiveQuery,
    Database,
    Relation,
    Schema,
    TrieIndex,
)
from repro.service import alpha_rename
from repro.util.sorted_ops import gallop, lowest_upper_bound

WCOJ_ENGINES = [LeapfrogTrieJoin(), CachedTrieJoin(), GenericJoin()]

#: The seed correctness matrix of the issue: every WCOJ engine on a cyclic
#: query, an acyclic query and a query whose variables repeat across atoms
#: of the same stored relation (two bindings of E under different orders).
MATRIX_QUERIES = [
    pattern_query("cycle3"),
    pattern_query("path3"),
    ConjunctiveQuery(
        "repeated_var",
        ("x", "y"),
        [Atom("E", ("x", "y")), Atom("E", ("y", "x"))],
    ),
]


def seeded_database(seed: int, num_nodes: int = 24, num_edges: int = 70) -> Database:
    return graph_database(uniform_random_graph(num_nodes, num_edges, seed=seed))


class TestEngineEquivalenceMatrix:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    @pytest.mark.parametrize("query", MATRIX_QUERIES, ids=lambda q: q.name)
    def test_results_identical_to_oracle(self, seed, query):
        database = seeded_database(seed)
        reference = sorted(NaiveJoin().execute(query, database).tuples)
        for engine in WCOJ_ENGINES:
            result = engine.execute(query, database)
            assert sorted(result.tuples) == reference, engine.name
            # Results are duplicate-free even for projection paths.
            assert len(result.tuples) == len(set(result.tuples))

    @pytest.mark.parametrize("query", MATRIX_QUERIES, ids=lambda q: q.name)
    def test_join_stats_semantics(self, query):
        database = seeded_database(3)
        lftj = LeapfrogTrieJoin().execute(query, database)
        ctj = CachedTrieJoin().execute(query, database)
        for result in (lftj, ctj):
            stats = result.stats
            assert stats.output_tuples == result.cardinality
            assert stats.bindings_enumerated >= stats.output_tuples
            assert stats.cache_hits <= stats.cache_lookups
            # Every variable of the order reports its match count.
            if result.cardinality:
                assert set(stats.per_variable_matches) == set(result.plan.variable_order)
        # LFTJ materialises nothing; CTJ's intermediates equal its cached values.
        assert lftj.stats.intermediate_results == 0
        assert lftj.stats.cache_lookups == 0
        if ctj.plan.uses_cache:
            assert ctj.stats.cache_lookups > 0
        else:
            assert ctj.stats.as_dict() == lftj.stats.as_dict()

    def test_projection_dedup_is_order_preserving(self):
        # dict.fromkeys keeps first-appearance order, like the seed's
        # list+set dedup did.
        database = seeded_database(11)
        query = ConjunctiveQuery(
            "proj", ("x",), [Atom("E", ("x", "y")), Atom("E", ("y", "z"))]
        )
        for engine in WCOJ_ENGINES:
            tuples = engine.execute(query, database).tuples
            assert tuples == list(dict.fromkeys(tuples))
            assert sorted(tuples) == sorted(set(tuples))

    def test_slot_program_shape(self):
        plan = LeapfrogTrieJoin().compiler.compile(pattern_query("cycle3"))
        program = plan.slot_program()
        assert program.num_slots == 3
        assert program.num_positions == 6  # three binary tries, two levels each
        assert plan.slot_program() is program  # compiled once, cached
        # Every depth of cycle3 has exactly two participating cursors.
        assert [len(d.participants) for d in program.depths] == [2, 2, 2]
        assert program.head_depths == (0, 1, 2)


#: A fixed 13-vertex digraph for the leaf-kernel cases (spelled out by a
#: formula, not drawn from a generator, so the pinned counters below can only
#: move when the kernel's accounting does).  Vertices 0-4 form a bidirected
#: 5-clique (triangles and 4-cliques); the rest hang off it sparsely.
LEAF_EDGES = sorted(
    {(a, b) for a in range(5) for b in range(5) if a != b}
    | {(a, (3 * a + b * b + 1) % 13) for a in range(5, 13) for b in range(3)}
    - {(a, a) for a in range(13)}
)

_TRIANGLE = [Atom("E", ("x", "y")), Atom("E", ("y", "z")), Atom("E", ("z", "x"))]
_PATH = [Atom("E", ("x", "y")), Atom("E", ("y", "z"))]

#: ``(query, variable order)``; the last variable of the order is the leaf.
LEAF_CASES = {
    "leaf_last": (ConjunctiveQuery("t", ("x", "y", "z"), _TRIANGLE), "xyz"),
    "leaf_first": (ConjunctiveQuery("t", ("z", "x", "y"), _TRIANGLE), "xyz"),
    "leaf_middle": (ConjunctiveQuery("t", ("x", "z", "y"), _TRIANGLE), "xyz"),
    "leaf_projected_out": (ConjunctiveQuery("t", ("x", "y"), _TRIANGLE), "xyz"),
    "one_variable_k1": (ConjunctiveQuery("u", ("x",), [Atom("V", ("x",))]), "x"),
    "one_variable_k2": (
        ConjunctiveQuery("u", ("x",), [Atom("V", ("x",)), Atom("W", ("x",))]),
        "x",
    ),
    "leaf_k1_cached": (ConjunctiveQuery("p", ("x", "y", "z"), _PATH), "xyz"),
    "leaf_k1_projected_cached": (ConjunctiveQuery("p", ("x",), _PATH), "xyz"),
    "leaf_k2_cached": (pattern_query("cycle4"), "xyzw"),
    "leaf_k3": (pattern_query("clique4"), "xyzw"),
    # F's only source is vertex 99, which E never reaches: every (x, y)
    # prefix visits the leaf and every leaf intersection is empty.
    "empty_leaf_intersections": (
        ConjunctiveQuery(
            "e",
            ("x", "y", "z"),
            [Atom("E", ("x", "y")), Atom("E", ("y", "z")), Atom("F", ("z", "x"))],
        ),
        "xyz",
    ),
}

#: ``JoinStats.as_dict()`` + ``per_variable_matches`` of every case, per
#: engine, as produced by the per-binding generator kernel of the parent
#: commit (bff1368).  The bulk leaf kernel must reproduce them exactly.
LEAF_PINNED = {
    "leaf_last": {
        "lftj": {
            "output_tuples": 75, "bindings_enumerated": 75, "lub_searches": 78,
            "index_element_reads": 757, "x": 13, "y": 42, "z": 75,
        },
        "ctj": {
            "output_tuples": 75, "bindings_enumerated": 75, "lub_searches": 78,
            "index_element_reads": 757, "x": 13, "y": 42, "z": 75,
        },
    },
    "leaf_first": {
        "lftj": {
            "output_tuples": 75, "bindings_enumerated": 75, "lub_searches": 78,
            "index_element_reads": 757, "x": 13, "y": 42, "z": 75,
        },
        "ctj": {
            "output_tuples": 75, "bindings_enumerated": 75, "lub_searches": 78,
            "index_element_reads": 757, "x": 13, "y": 42, "z": 75,
        },
    },
    "leaf_middle": {
        "lftj": {
            "output_tuples": 75, "bindings_enumerated": 75, "lub_searches": 78,
            "index_element_reads": 757, "x": 13, "y": 42, "z": 75,
        },
        "ctj": {
            "output_tuples": 75, "bindings_enumerated": 75, "lub_searches": 78,
            "index_element_reads": 757, "x": 13, "y": 42, "z": 75,
        },
    },
    "leaf_projected_out": {
        "lftj": {
            "output_tuples": 32, "bindings_enumerated": 75, "lub_searches": 78,
            "index_element_reads": 757, "x": 13, "y": 42, "z": 75,
        },
        "ctj": {
            "output_tuples": 32, "bindings_enumerated": 75, "lub_searches": 78,
            "index_element_reads": 757, "x": 13, "y": 42, "z": 75,
        },
    },
    "one_variable_k1": {
        "lftj": {
            "output_tuples": 7, "bindings_enumerated": 7, "index_element_reads": 7, "x":
            7,
        },
        "ctj": {
            "output_tuples": 7, "bindings_enumerated": 7, "index_element_reads": 7, "x":
            7,
        },
    },
    "one_variable_k2": {
        "lftj": {
            "output_tuples": 3, "bindings_enumerated": 3, "lub_searches": 6,
            "index_element_reads": 27, "x": 3,
        },
        "ctj": {
            "output_tuples": 3, "bindings_enumerated": 3, "lub_searches": 6,
            "index_element_reads": 27, "x": 3,
        },
    },
    "leaf_k1_cached": {
        "lftj": {
            "output_tuples": 150, "bindings_enumerated": 150, "lub_searches": 19,
            "index_element_reads": 448, "x": 13, "y": 42, "z": 150,
        },
        "ctj": {
            "output_tuples": 150, "bindings_enumerated": 150, "intermediate_results":
            42, "lub_searches": 19, "index_element_reads": 498, "index_element_writes":
            84, "cache_lookups": 42, "cache_hits": 29, "cache_misses": 13,
            "cache_inserts": 13, "x": 13, "y": 42, "z": 150,
        },
    },
    "leaf_k1_projected_cached": {
        "lftj": {
            "output_tuples": 13, "bindings_enumerated": 150, "lub_searches": 19,
            "index_element_reads": 448, "x": 13, "y": 42, "z": 150,
        },
        "ctj": {
            "output_tuples": 13, "bindings_enumerated": 150, "intermediate_results": 42,
            "lub_searches": 19, "index_element_reads": 498, "index_element_writes": 84,
            "cache_lookups": 42, "cache_hits": 29, "cache_misses": 13, "cache_inserts":
            13, "x": 13, "y": 42, "z": 150,
        },
    },
    "leaf_k2_cached": {
        "lftj": {
            "output_tuples": 268, "bindings_enumerated": 268, "lub_searches": 259,
            "index_element_reads": 2716, "x": 13, "y": 42, "z": 150, "w": 268,
        },
        "ctj": {
            "output_tuples": 268, "bindings_enumerated": 268, "intermediate_results":
            130, "lub_searches": 137, "index_element_reads": 2157,
            "index_element_writes": 390, "cache_lookups": 192, "cache_hits": 103,
            "cache_misses": 89, "cache_inserts": 89, "x": 13, "y": 42, "z": 150, "w":
            268,
        },
    },
    "leaf_k3": {
        "lftj": {
            "output_tuples": 122, "bindings_enumerated": 122, "lub_searches": 479,
            "index_element_reads": 3270, "x": 13, "y": 42, "z": 75, "w": 122,
        },
        "ctj": {
            "output_tuples": 122, "bindings_enumerated": 122, "lub_searches": 479,
            "index_element_reads": 3270, "x": 13, "y": 42, "z": 75, "w": 122,
        },
    },
    "empty_leaf_intersections": {
        "lftj": {
            "lub_searches": 61, "index_element_reads": 591, "x": 13, "y": 42,
        },
        "ctj": {
            "lub_searches": 61, "index_element_reads": 591, "x": 13, "y": 42,
        },
    },
}


def leaf_database() -> Database:
    database = Database()
    database.add_relation(Relation("E", Schema(("src", "dst")), LEAF_EDGES))
    database.add_relation(
        Relation("F", Schema(("src", "dst")), [(99, a) for a in range(13)])
    )
    database.add_relation(Relation("V", Schema(("v",)), [(v,) for v in range(0, 13, 2)]))
    database.add_relation(Relation("W", Schema(("v",)), [(v,) for v in range(0, 13, 3)]))
    return database


def run_leaf_case(engine, case):
    query, order = LEAF_CASES[case]
    plan = engine.compiler.compile(query, variable_order=tuple(order))
    return engine.execute(query, leaf_database(), plan=plan)


def observed_counters(result):
    """The non-zero ``JoinStats`` counters plus the per-variable match counts."""
    counters = {**result.stats.as_dict(), **result.stats.per_variable_matches}
    return {name: count for name, count in counters.items() if count}


def oracle_rows(query, order):
    """Rows in trie-join emission order, derived from the naive oracle."""
    full = ConjunctiveQuery("full", tuple(order), query.atoms)
    bindings = sorted(NaiveJoin().execute(full, leaf_database()).tuples)
    columns = [order.index(v) for v in query.head_variables]
    return list(dict.fromkeys(tuple(row[c] for c in columns) for row in bindings))


class TestBulkLeafKernel:
    @pytest.mark.parametrize("engine", [LeapfrogTrieJoin(), CachedTrieJoin()], ids=lambda e: e.name)
    @pytest.mark.parametrize("case", list(LEAF_CASES))
    def test_rows_order_and_counters(self, case, engine):
        query, order = LEAF_CASES[case]
        result = run_leaf_case(engine, case)
        assert result.plan.variable_order[-1] == order[-1]
        assert result.tuples == oracle_rows(query, order)
        assert observed_counters(result) == LEAF_PINNED[case][engine.name]

    def test_cases_cover_every_leaf_shape(self):
        participants = {}
        for case in LEAF_CASES:
            result = run_leaf_case(CachedTrieJoin(), case)
            leaf = result.plan.slot_program().depths[-1]
            participants[case] = (len(leaf.participants), leaf.cache_key_depths)
        assert participants["one_variable_k1"] == (1, None)
        assert participants["one_variable_k2"] == (2, None)
        assert participants["leaf_last"] == (2, None)
        assert participants["leaf_k3"] == (3, None)
        # The cached plans cache the *leaf* variable, and see both a miss
        # (insert) and a replay (hit) of its value sequence.
        assert participants["leaf_k1_cached"] == (1, (1,))
        assert participants["leaf_k2_cached"] == (2, (0, 2))
        for case in ("leaf_k1_cached", "leaf_k1_projected_cached", "leaf_k2_cached"):
            pinned = LEAF_PINNED[case]["ctj"]
            assert pinned["cache_inserts"] > 0 and pinned["cache_hits"] > 0
        assert "output_tuples" not in LEAF_PINNED["empty_leaf_intersections"]["lftj"]
        assert LEAF_PINNED["empty_leaf_intersections"]["lftj"]["y"] > 0

    def test_zero_variable_queries_cannot_be_built(self):
        # The kernel has no zero-variable branch because no query reaches it.
        with pytest.raises(ValueError):
            Atom("E", ())
        with pytest.raises(ValueError):
            ConjunctiveQuery("q", (), [Atom("E", ("x", "y"))])

    @pytest.mark.parametrize("use_cache", [False, True], ids=["lftj", "ctj"])
    @pytest.mark.parametrize("variable", ["z", "x", "y"])
    @pytest.mark.parametrize("case", ["leaf_last", "leaf_k1_cached"])
    def test_grouped_counts_on_leaf_and_prefix_variables(self, case, variable, use_cache):
        query, order = LEAF_CASES[case]
        engine = CachedTrieJoin() if use_cache else LeapfrogTrieJoin()
        plan = engine.compiler.compile(query, variable_order=tuple(order))
        grouped = count_by_variable(
            query, leaf_database(), variable, plan=plan, use_cache=use_cache
        )
        column = query.head_variables.index(variable)
        expected = {}
        for row in oracle_rows(query, order):
            expected[row[column]] = expected.get(row[column], 0) + 1
        assert grouped.counts == expected
        # Groups appear in first-emission order, as with per-binding emit.
        assert list(grouped.counts) == list(expected)
        counters = LEAF_PINNED[case][engine.name]
        assert observed_counters(grouped) == counters
        assert count_matches(query, leaf_database(), plan=plan, use_cache=use_cache).count == (
            counters["bindings_enumerated"]
        )


class TestGallopReference:
    """``gallop`` supplies the landing positions of the plan-kernel oracle below."""

    @given(
        st.lists(st.integers(0, 100), max_size=40).map(lambda v: sorted(set(v))),
        st.integers(-5, 105),
        st.integers(0, 40),
    )
    @settings(max_examples=200)
    def test_agrees_with_lowest_upper_bound_and_bisect(self, values, target, lo):
        lo = min(lo, len(values))
        position, probes = gallop(values, target, lo)
        assert position == lowest_upper_bound(values, target, lo, len(values))
        assert position == bisect_left(values, target, lo, len(values))
        assert (probes >= 1) == (lo < len(values))


def reference_kernel(arrays, parent_offsets, parent_indexes, positions, stats, leaf):
    """The interpreted ``_intersect`` + ``_leapfrog`` the generated kernels replaced.

    A plain-Python transcription of one depth's candidate ranges and
    leapfrog, kept as the oracle's intersection (:func:`reference_plan_run`
    binds one per depth): list-held cursor state, ``max``/``min`` per pass,
    landing positions from :func:`gallop`.
    """
    k = len(arrays)

    def leapfrog_matches(cursors, ends):
        reads = k
        lubs = 0
        try:
            vals = [arrays[i][cursors[i]] for i in range(k)]
            while True:
                max_value = max(vals)
                if min(vals) == max_value:
                    yield max_value if leaf else (max_value, tuple(cursors))
                    for i in range(k):
                        cursors[i] += 1
                        if cursors[i] >= ends[i]:
                            return
                    for i in range(k):
                        reads += 1
                        vals[i] = arrays[i][cursors[i]]
                    continue
                for i in range(k):
                    if vals[i] < max_value:
                        lubs += 1
                        reads += (ends[i] - cursors[i]).bit_length()
                        landing, _ = gallop(arrays[i], max_value, cursors[i] + 1, ends[i])
                        if landing == ends[i]:
                            return
                        cursors[i] = landing
                        reads += 1
                        vals[i] = arrays[i][landing]
        finally:
            stats.index_element_reads += reads
            stats.lub_searches += lubs

    def intersect():
        cursors, ends = [], []
        for i in range(k):
            offsets = parent_offsets[i]
            if offsets is None:
                lo, hi = 0, len(arrays[i])
            else:
                parent = positions[parent_indexes[i]]
                lo, hi = offsets[parent], offsets[parent + 1]
                stats.index_element_reads += 2
            if lo >= hi:
                return ()
            cursors.append(lo)
            ends.append(hi)
        if k == 1:
            lo, hi = cursors[0], ends[0]
            stats.index_element_reads += hi - lo
            values = arrays[0][lo:hi]
            return values if leaf else zip(values, zip(range(lo, hi)))
        matches = leapfrog_matches(cursors, ends)
        return list(matches) if leaf else matches

    return intersect


#: What can back a trie level: machine words, or an mmap/shm view of them.
STORAGES = {
    "array": lambda values: array("q", values),
    "memoryview": lambda values: memoryview(array("q", values)),
}


class StoredLevels:
    """A catalog whose tries hand out every level in one :data:`STORAGES` form."""

    def __init__(self, database, storage):
        self.database, self.store = database, STORAGES[storage]

    def trie_for_atom(self, atom, order):
        trie = self.database.trie_for_atom(atom, order)
        store = self.store
        return SimpleNamespace(
            num_tuples=trie.num_tuples,
            level_values=lambda level: store(list(trie.level_values(level))),
            child_offsets=lambda level: store(list(trie.child_offsets(level))),
        )


def reference_plan_run(plan, database, use_cache, action="rows", group_by=None):
    """The interpreted driver the plan kernel replaced, over :func:`reference_kernel`.

    A transcription of the retired ``_TrieJoinExecution``: ``_run`` (an
    explicit stack of lazy per-depth match iterators), ``_matches_at`` (the
    software cache keyed ``(depth, key values)``), ``_fill_cache`` /
    ``_cache_insert`` and ``_emit_leaf`` with the grouping override — one
    bulk emit per non-empty leaf group.  Same signature and outcome as
    :func:`run_plan`.
    """
    stats = JoinStats()
    program = plan.slot_program()
    slot_tries, depth_tables = resolve_slot_tables(plan, database)
    positions = [-1] * program.num_positions
    binding_values = [0] * plan.num_variables
    match_counts = [0] * plan.num_variables
    last = plan.num_variables - 1
    group_depth = None if group_by is None else plan.depth_of(group_by)
    results, counts, cache = [], {}, {}
    kernels = [
        reference_kernel(arrays, offsets, parents, positions, stats, depth == last)
        for depth, (_program, arrays, offsets, _indexes, parents) in enumerate(depth_tables)
    ]

    def cache_insert(key, entry):
        cache[key] = entry
        stats.cache_inserts += 1
        stats.intermediate_results += len(entry)
        width = 1 + len(depth_tables[key[0]][0].participants)
        stats.index_element_writes += len(entry) * width

    def fill_cache(key, matches):
        entry = []
        try:
            for match in matches:
                entry.append(match)
                yield match
        finally:
            cache_insert(key, entry)

    def matches_at(depth):
        depth_program = depth_tables[depth][0]
        key_depths = depth_program.cache_key_depths if use_cache else None
        if key_depths is None:
            return kernels[depth]()
        key = (depth, tuple(binding_values[d] for d in key_depths))
        stats.cache_lookups += 1
        cached = cache.get(key)
        if cached is not None:
            stats.cache_hits += 1
            stats.index_element_reads += len(cached) * (1 + len(depth_program.participants))
            return cached
        if depth == last:
            values = kernels[depth]()
            cache_insert(key, values)
            return values
        return fill_cache(key, kernels[depth]())

    def emit_leaf(values):
        match_counts[last] += len(values)
        stats.bindings_enumerated += len(values)
        head_depths = program.head_depths
        if action == "rows" and last in head_depths:
            results.extend(
                zip(*[values if d == last else repeat(binding_values[d]) for d in head_depths])
            )
        elif action == "rows":
            results.append(tuple(binding_values[d] for d in head_depths))
        elif action == "group" and group_depth == last:
            for value in values:
                counts[value] = counts.get(value, 0) + 1
        elif action == "group":
            value = binding_values[group_depth]
            counts[value] = counts.get(value, 0) + len(values)

    def run():
        if last == 0:
            values = matches_at(0)
            if values:
                emit_leaf(values)
            return
        stack = [iter(matches_at(0))]
        while stack:
            depth = len(stack) - 1
            position_indexes = depth_tables[depth][3]
            for value, indexes in stack[-1]:
                match_counts[depth] += 1
                binding_values[depth] = value
                for i, index in zip(position_indexes, indexes):
                    positions[i] = index
                if depth + 1 == last:
                    values = matches_at(last)
                    if values:
                        emit_leaf(values)
                    continue
                stack.append(iter(matches_at(depth + 1)))
                break
            else:
                stack.pop()

    if all(trie.num_tuples for trie in slot_tries):
        run()
        for depth, count in enumerate(match_counts):
            if count:
                stats.record_match(plan.variable_order[depth], count)
    if action != "rows":
        stats.output_tuples = stats.bindings_enumerated
        return (stats.bindings_enumerated if action == "count" else counts), stats
    if not plan.query.is_full:
        results = list(dict.fromkeys(results))
    stats.output_tuples = len(results)
    return results, stats


def reference_generic_run(plan, database):
    """Generic Join's own recursive walk, which the ``materialise`` kernel replaced.

    A transcription of the retired ``_GenericJoinExecution``: ``execute``,
    ``_search`` (one frame per depth, one leaf call per full binding) and
    ``_materialised_intersection`` (scan the smallest candidate range, the
    lowest participant on a tie, and probe the others in ascending range-size
    order by bisection, stopping at the first miss; the survivors are
    materialised as ``(value, indexes)`` before recursing).  Same outcome as
    ``run_plan(plan, database, False, intersection="materialise")``.
    """
    stats = JoinStats()
    program = plan.slot_program()
    slot_tries, depth_tables = resolve_slot_tables(plan, database)
    positions = [-1] * program.num_positions
    binding_values = [0] * plan.num_variables
    results = []

    def materialised_intersection(depth):
        _dp, arrays, parent_offsets, _pos_idx, parent_indexes = depth_tables[depth]
        k = len(arrays)
        ranges = []
        for i in range(k):
            offsets = parent_offsets[i]
            if offsets is None:
                lo, hi = 0, len(arrays[i])
            else:
                parent = positions[parent_indexes[i]]
                lo = offsets[parent]
                hi = offsets[parent + 1]
                stats.index_element_reads += 2
            if lo >= hi:
                return []
            ranges.append((lo, hi))
        order = sorted(range(k), key=lambda i: ranges[i][1] - ranges[i][0])
        seed, others = order[0], order[1:]
        seed_values = arrays[seed]
        seed_lo, seed_hi = ranges[seed]
        matches = []
        indexes = [0] * k
        for position in range(seed_lo, seed_hi):
            stats.index_element_reads += 1
            value = seed_values[position]
            indexes[seed] = position
            survived = True
            for i in others:
                values = arrays[i]
                lo, hi = ranges[i]
                stats.lub_searches += 1
                stats.index_element_reads += (hi - lo).bit_length()
                probe = bisect_left(values, value, lo, hi)
                if probe >= hi or values[probe] != value:
                    survived = False
                    break
                indexes[i] = probe
            if survived:
                matches.append((value, tuple(indexes)))
                stats.index_element_writes += 1
        return matches

    def search(depth):
        if depth == plan.num_variables:
            stats.bindings_enumerated += 1
            results.append(tuple(binding_values[d] for d in program.head_depths))
            return
        matches = materialised_intersection(depth)
        if not matches:
            return
        depth_program = depth_tables[depth][0]
        stats.record_match(depth_program.variable, len(matches))
        for value, indexes in matches:
            binding_values[depth] = value
            for i, index in zip(depth_program.position_indexes, indexes):
                positions[i] = index
            search(depth + 1)

    if any(trie.num_tuples == 0 for trie in slot_tries):
        return [], stats
    search(0)
    if not plan.query.is_full:
        results = list(dict.fromkeys(results))
    stats.output_tuples = len(results)
    return results, stats


def observe_plan(runner, plan, database, use_cache, action="rows", group_by=None):
    """Everything one plan run shows: outcome (rows, count or groups, in order)
    and the counters, with ``per_variable_matches`` in order."""
    outcome, stats = runner(plan, database, use_cache, action, group_by)
    if isinstance(outcome, dict):
        outcome = list(outcome.items())
    return outcome, stats.as_dict(), list(stats.per_variable_matches.items())


def assert_plan_matches_reference(plan, database, use_cache, action="rows", group_by=None):
    assert observe_plan(run_plan, plan, database, use_cache, action, group_by) == observe_plan(
        reference_plan_run, plan, database, use_cache, action, group_by
    )


def assert_generic_matches_reference(plan, database):
    """Generic Join's leg: the ``materialise`` kernel against its retired walk."""
    kernel = partial(run_plan, intersection="materialise")
    assert observe_plan(kernel, plan, database, False) == observe_plan(
        lambda plan, database, *_: reference_generic_run(plan, database), plan, database, False
    )


#: The query shapes of the plan oracle (each also under a drawn variable order).
ORACLE_QUERIES = [
    *(pattern_query(name) for name in ("path3", "cycle3", "cycle4", "clique4", "path4")),
    ConjunctiveQuery("projected_leaf", ("x", "y"), _TRIANGLE),
    ConjunctiveQuery("projected_path", ("x",), _PATH),
    ConjunctiveQuery("repeated_var", ("x", "y"), [Atom("E", ("x", "y")), Atom("E", ("y", "x"))]),
    ConjunctiveQuery("single_atom", ("y", "x"), [Atom("E", ("x", "y"))]),
    ConjunctiveQuery("unary", ("x",), [Atom("V", ("x",)), Atom("E", ("x", "y"))]),
    ConjunctiveQuery("self_loop", ("x",), [Atom("E", ("x", "x"))]),
]

_EDGES = st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=28)


def oracle_database(edges, vertices) -> Database:
    database = Database()
    database.add_relation(Relation("E", Schema(("src", "dst")), sorted(edges)))
    database.add_relation(Relation("V", Schema(("v",)), [(v,) for v in sorted(vertices)]))
    return database


#: Two-participant inputs that take each exit of the seek loop (these were the
#: gallop edge cases: empty window, target past the end, single-element runs,
#: cursor already at the answer).  ``([group, ...], parent)`` per participant.
EXIT_CASES = {
    "empty_range": [([[], [1, 2]], 0), ([[1, 2]], 0)],
    "empty_range_second": [([[1, 2]], 0), ([[3], []], 1)],
    "first_cursor_exhausted": [([[5]], 0), ([[5, 6]], 0)],
    "second_cursor_exhausted": [([[5, 6]], 0), ([[1], [5]], 1)],
    "seek_past_end": [([[1, 2, 3, 4, 5]], 0), ([[9]], 0)],
    "seek_lands_on_last": [([[1, 2, 3, 4, 9]], 0), ([[9]], 0)],
    "single_element_equal": [([[7]], 0), ([[7]], 0)],
    "single_element_above": [([[7]], 0), ([[8]], 0)],
    "single_element_below": [([[7]], 0), ([[3]], 0)],
    "cursor_next_to_answer": [([[1, 5, 9]], 0), ([[4, 5]], 0)],
    "overshoot_swaps_the_laggard": [([[1, 4, 8, 9]], 0), ([[2, 3, 9]], 0)],
}

_SIBLINGS = st.lists(st.integers(0, 14), max_size=10).map(lambda v: sorted(set(v)))

#: One participant: the sibling groups of its level and the parent the cursor
#: above it sits on.  Its candidate range is that parent's group.
def _participant(siblings):
    return st.lists(siblings, min_size=1, max_size=3).flatmap(
        lambda groups: st.tuples(st.just(groups), st.integers(0, len(groups) - 1))
    )


_PARTICIPANT = _participant(_SIBLINGS)


def _tied(k):
    """``k`` participants whose sibling groups all hold the same number of values."""
    return st.integers(0, 6).flatmap(
        lambda size: st.tuples(
            *[_participant(st.sets(st.integers(0, 14), min_size=size, max_size=size).map(sorted))]
            * k
        )
    )


def depth_plan(participants, roots, storage, leaf=True, use_cache=False):
    """A plan whose variable ``v`` intersects one atom per participant.

    Participant ``i`` is ``R{i}(v)`` over its parent's group (root-level) or
    ``R{i}(u{i}, v)`` over every group, ``u{i}``'s value being the group's
    index; ``v`` comes after the ``u``'s, so every group is a candidate
    range.  The tries are stand-ins over the groups as given: unlike a built
    trie's, a range may be empty.  Unless ``v`` is the ``leaf``, the first
    atom carries one more variable ``w``, two children per value.
    """
    store = STORAGES[storage]
    tries, atoms, order = {}, [], []
    for i, ((groups, parent), root) in enumerate(zip(participants, roots)):
        if root:
            levels, offsets, variables = [groups[parent]], [], ("v",)
        else:
            levels = [list(range(len(groups))), [value for group in groups for value in group]]
            offsets, variables = [[0, *accumulate(map(len, groups))]], (f"u{i}", "v")
            order.append(f"u{i}")
        if i == 0 and not leaf:
            offsets.append(list(range(0, 2 * len(levels[-1]) + 1, 2)))
            levels.append([value + shift for value in levels[-1] for shift in (100, 200)])
            variables += ("w",)
        tries[f"R{i}"] = SimpleNamespace(
            num_tuples=len(levels[-1]),
            level_values=lambda level, levels=levels: store(levels[level]),
            child_offsets=lambda level, offsets=offsets: store(offsets[level]),
        )
        atoms.append(Atom(f"R{i}", variables))
    order += ["v"] + ([] if leaf else ["w"])
    query = ConjunctiveQuery("depth", tuple(order), atoms)
    plan = QueryCompiler(enable_caching=use_cache).compile(query, variable_order=tuple(order))
    catalog = SimpleNamespace(trie_for_atom=lambda atom, _order: tries[atom.relation])
    return plan, catalog


class TestPlanKernel:
    """The generated plan kernel against the interpreted driver it replaced,
    and its ``materialise`` mode against Generic Join's retired walk."""

    @given(
        st.sampled_from(ORACLE_QUERIES).flatmap(
            lambda query: st.tuples(st.just(query), st.permutations(query.variables))
        ),
        _EDGES,
        st.sets(st.integers(0, 7), max_size=6),
        st.booleans(),
        st.sampled_from(list(STORAGES)),
        st.data(),
    )
    @settings(max_examples=max(200, settings.default.max_examples), deadline=None)
    def test_plan_oracle(self, query_order, edges, vertices, use_cache, storage, data):
        query, order = query_order
        action, group_by = data.draw(
            st.sampled_from([("rows", None), ("count", None)])
            | st.sampled_from(query.head_variables).map(lambda variable: ("group", variable))
        )
        compiler = QueryCompiler(enable_caching=use_cache)
        if query.name == "self_loop":
            # The trie-join engines refuse a repeated variable within an atom.
            with pytest.raises(ValueError):
                compiler.compile(query, variable_order=tuple(order))
            return
        plan = compiler.compile(query, variable_order=tuple(order))
        database = StoredLevels(oracle_database(edges, vertices), storage)
        assert_plan_matches_reference(plan, database, use_cache, action, group_by)
        assert_generic_matches_reference(plan, database)

    @pytest.mark.parametrize("storage", list(STORAGES))
    @pytest.mark.parametrize("leaf", [True, False], ids=["leaf", "nonleaf"])
    @pytest.mark.parametrize("case", list(EXIT_CASES))
    def test_every_exit(self, case, leaf, storage):
        # Non-leaf with participant 0 root-level and 1 not, CTJ caches ``w``.
        for roots, use_cache in product(product([True, False], repeat=2), [False, True]):
            plan, catalog = depth_plan(EXIT_CASES[case], roots, storage, leaf, use_cache)
            assert_plan_matches_reference(plan, catalog, use_cache)
            assert_generic_matches_reference(plan, catalog)

    @pytest.mark.parametrize("storage", list(STORAGES))
    @pytest.mark.parametrize("leaf", [True, False], ids=["leaf", "nonleaf"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_intersection_widths(self, k, leaf, storage, data):
        # Equal-size candidate ranges exercise Generic Join's tie rule: the
        # lowest participant is scanned, and probed first among equals.
        participants = data.draw(st.tuples(*[_PARTICIPANT] * k) | _tied(k))
        roots = data.draw(st.tuples(*[st.booleans()] * k))
        plan, catalog = depth_plan(participants, roots, storage, leaf)
        assert len(plan.slot_program().depths[plan.depth_of("v")].participants) == k
        assert_plan_matches_reference(plan, catalog, False)
        assert_generic_matches_reference(plan, catalog)

    def test_source_is_registered_under_a_name_that_reads_as_the_shape(self):
        query = ConjunctiveQuery(
            "u", ("x",), [Atom("V", ("x",)), Atom("W", ("x",)), Atom("V", ("x",))]
        )
        plan = LeapfrogTrieJoin().compiler.compile(query)
        shape = plan_shape(plan, use_cache=False)
        name, source = plan_source(shape)
        assert name == "<repro.joins.leapfrog plan [r r r] head=0 rows>"
        assert source.count("bisect_left(") == 3  # one seek per participant
        kernel = plan_kernel(shape)
        linecache.checkcache()
        assert linecache.getlines(name) == source.splitlines(True)
        with pytest.raises(TypeError) as raised:
            kernel(JoinStats(), [], [1], [1], ["x"])
        frame = raised.traceback[-1]
        assert str(frame.path) == name
        assert str(frame.statement).strip() == "if v0_2 > m:"
        # Generic Join's shape: the same plan under the materialise mode.
        shape = plan_shape(plan, use_cache=False, intersection="materialise")
        name, source = plan_source(shape)
        assert name == "<repro.joins.leapfrog plan [r r r] head=0 rows materialise>"
        assert source.count("bisect_left(") == 1  # one probe, whichever participant
        kernel = plan_kernel(shape)
        linecache.checkcache()
        assert linecache.getlines(name) == source.splitlines(True)
        with pytest.raises(TypeError) as raised:
            kernel(JoinStats(), [], [1], [1], ["x"])
        frame = raised.traceback[-1]
        assert str(frame.path) == name
        assert "bisect_left(" in str(frame.statement)

    def test_plan_carries_no_generated_function(self):
        database = seeded_database(1)
        query = pattern_query("cycle3")
        for engine in (LeapfrogTrieJoin(), CachedTrieJoin()):
            result = engine.execute(query, database)
            plan = pickle.loads(pickle.dumps(result.plan))
            again = engine.execute(query, database, plan=plan)
            assert again.tuples == result.tuples
            assert again.stats.as_dict() == result.stats.as_dict()

    @pytest.mark.parametrize("full", [True, False], ids=["full", "ends"])
    @pytest.mark.parametrize("closed", [False, True], ids=["path", "cycle"])
    @pytest.mark.parametrize("length", [18, 19, 20, 37, 40])
    def test_plans_deeper_than_one_loop_nest(self, length, closed, full):
        # Past 18 depths the loop nest continues in nested functions; a
        # cycle's closing atom reads depth 0's cursor from the last one, and
        # CTJ cache keys cross them whether or not the head names the key.
        variables = [f"v{i}" for i in range(length)]
        pairs = list(zip(variables, variables[1:])) + [(variables[-1], variables[0])] * closed
        head = tuple(variables) if full else (variables[0], variables[-1])
        query = ConjunctiveQuery("deep", head, [Atom("E", pair) for pair in pairs])
        # A 4-cycle whose every vertex also has an edge to a dead end.
        edges = {(i, (i + 1) % 4) for i in range(4)} | {(i, 4 + i) for i in range(4)}
        database = oracle_database(edges, ())
        actions = [("rows", None), ("count", None), ("group", "v0"), ("group", variables[-1])]
        for use_cache, (action, group_by) in product([False, True], actions):
            compiler = QueryCompiler(enable_caching=use_cache)
            plan = compiler.compile(query, variable_order=tuple(variables))
            shape = plan_shape(plan, use_cache, action, group_by)
            assert plan_source(shape)[1].count("def walk") == (length - 1) // 18
            assert_plan_matches_reference(plan, database, use_cache, action, group_by)
        shape = plan_shape(plan, False, intersection="materialise")
        assert plan_source(shape)[1].count("def walk") == (length - 1) // 18
        assert_generic_matches_reference(plan, database)
        # A path ends on the cycle or at a dead end; a cycle closes iff 4 | length.
        expected = 0 if closed and length % 4 else 4 if closed else 8
        assert len(LeapfrogTrieJoin().execute(query, database).tuples) == expected


class TestKernelMemo:
    """One generated function per plan *shape*: a long-lived service that
    sees fresh variable names per request, or fresh delta batches, must not
    grow one function per request."""

    def test_alpha_renamed_queries_share_one_kernel(self, monkeypatch):
        monkeypatch.setattr(leapfrog, "_PLAN_KERNELS", {})
        database = seeded_database(5)
        queries = [alpha_rename(pattern_query("cycle4"), tag) for tag in range(6)]
        assert len({query.variables for query in queries}) == 6
        shapes = set()
        for engine in (LeapfrogTrieJoin(), CachedTrieJoin(), GenericJoin()):
            intersection = "materialise" if engine.name == "generic" else "leapfrog"
            for query in queries:
                result = engine.execute(query, database)
                shapes.add(
                    plan_shape(result.plan, engine.name == "ctj", intersection=intersection)
                )
        # One per engine: CTJ caches two depths of cycle4, and a materialise
        # shape never shares a leapfrog kernel.
        assert len(shapes) == 3
        assert set(leapfrog._PLAN_KERNELS) == shapes

    def test_delta_terms_share_one_kernel_per_shape(self, monkeypatch):
        monkeypatch.setattr(leapfrog, "_PLAN_KERNELS", {})
        database = graph_database(uniform_random_graph(16, 40, seed=3))
        engine, planner, query = create_engine("lftj"), DeltaPlanner(), pattern_query("path3")
        for batch in range(8):
            rows = [(batch, 16 + batch), (16 + batch, (batch * 5) % 16)]
            database.insert_into("E", rows)
            evaluate_delta(query, DeltaCatalog(database, {"E": rows}).view, engine, planner)
        terms = planner.plans_for(query, ["E"])
        assert len(terms) == 2  # one per atom of E
        assert set(leapfrog._PLAN_KERNELS) == {
            plan_shape(term.plan, use_cache=False) for term in terms
        }


class TestArrayBackedTrie:
    def test_levels_are_machine_word_arrays(self):
        relation = Relation("R", Schema(("x", "y")), [(1, 2), (1, 3), (4, 5)])
        trie = TrieIndex(relation)
        assert isinstance(trie.level_values(0), array)
        assert isinstance(trie.child_offsets(0), array)
        assert trie.level_values(0).typecode == "q"

    def test_values_outside_a_word_are_rejected(self):
        lowest, highest = -(1 << 63), (1 << 63) - 1
        relation = Relation("R", Schema(("x", "y")), [(lowest, highest), (0, lowest)])
        assert list(TrieIndex(relation).paths()) == [(lowest, highest), (0, lowest)]
        for value in (highest + 1, lowest - 1, 1 << 70):
            with pytest.raises(ValueError, match=f"value {value} .* relation 'R'"):
                Relation("R", Schema(("x", "y")), [(1, 2), (0, value)])

    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9)),
            max_size=50,
        ),
        st.permutations(["a", "b", "c"]),
    )
    @settings(max_examples=60)
    def test_single_pass_build_matches_sorted_rows(self, rows, order):
        relation = Relation("T", Schema(("a", "b", "c")), rows)
        trie = TrieIndex(relation, order)
        assert list(trie.paths()) == relation.sorted_rows_in(order)
        assert trie.num_tuples == len(set(rows))

    def test_sorted_rows_in_is_cached_until_mutation(self):
        relation = Relation("R", Schema(("x", "y")), [(1, 2), (3, 4)])
        permuted = relation.sorted_rows_in(("y", "x"))
        assert permuted == [(2, 1), (4, 3)]
        assert relation.sorted_rows_in(("y", "x")) is permuted
        assert relation.sorted_rows_in(("x", "y")) is relation.sorted_rows()
        relation.insert((5, 0))
        assert relation.sorted_rows_in(("y", "x")) == [(0, 5), (2, 1), (4, 3)]

