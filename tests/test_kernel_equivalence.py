"""Equivalence of the overhauled hot-path kernels with the seed semantics.

The kernel overhauls (array-backed tries, slot-compiled cursor state, the
iterative driver, the bulk leaf, the generated depth kernel with C-level
seeks) must be *invisible* at every observable surface: result tuples (and
their order), ``JoinStats`` counters, and the trie's flat-layout invariants.
These tests pin that down with property-style checks across the engine x
query correctness matrix, the depth kernel against a transcription of the
interpreted leapfrog it replaced, and the storage-layer helpers.
"""

import linecache
import pickle
from array import array
from bisect import bisect_left
from itertools import accumulate, islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import graph_database, pattern_query, uniform_random_graph
from repro.joins import CachedTrieJoin, GenericJoin, LeapfrogTrieJoin, NaiveJoin
from repro.joins.aggregates import count_by_variable, count_matches
from repro.joins.leapfrog import bind_kernel, kernel_source
from repro.joins.stats import JoinStats
from repro.relational import (
    Atom,
    ConjunctiveQuery,
    Database,
    Relation,
    Schema,
    TrieIndex,
)
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
        reference = sorted(NaiveJoin().run(query, database).tuples)
        for engine in WCOJ_ENGINES:
            result = engine.run(query, database)
            assert sorted(result.tuples) == reference, engine.name
            # Results are duplicate-free even for projection paths.
            assert len(result.tuples) == len(set(result.tuples))

    @pytest.mark.parametrize("query", MATRIX_QUERIES, ids=lambda q: q.name)
    def test_join_stats_semantics(self, query):
        database = seeded_database(3)
        lftj = LeapfrogTrieJoin().run(query, database)
        ctj = CachedTrieJoin().run(query, database)
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
            tuples = engine.run(query, database).tuples
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
    return engine.run(query, leaf_database(), plan=plan)


def observed_counters(result):
    """The non-zero ``JoinStats`` counters plus the per-variable match counts."""
    counters = {**result.stats.as_dict(), **result.stats.per_variable_matches}
    return {name: count for name, count in counters.items() if count}


def oracle_rows(query, order):
    """Rows in trie-join emission order, derived from the naive oracle."""
    full = ConjunctiveQuery("full", tuple(order), query.atoms)
    bindings = sorted(NaiveJoin().run(full, leaf_database()).tuples)
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
    """``gallop`` supplies the landing positions of the depth-kernel oracle below."""

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
    """The interpreted ``_intersect`` + ``_leapfrog`` the depth kernel replaced.

    A plain-Python transcription, kept as the kernel's oracle: same signature
    as :func:`bind_kernel`, list-held cursor state, ``max``/``min`` per pass,
    landing positions from :func:`gallop`.
    """
    k = len(arrays)

    def leapfrog(cursors, ends):
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
        matches = leapfrog(cursors, ends)
        return list(matches) if leaf else matches

    return intersect


#: What can back a trie level: boxed values, machine words, an mmap/shm view.
STORAGES = {
    "list": list,
    "array": lambda values: array("q", values),
    "memoryview": lambda values: memoryview(array("q", values)),
}

_SIBLINGS = st.lists(st.integers(0, 14), max_size=10).map(lambda v: sorted(set(v)))

#: One participant: the sibling groups of its level and the parent the cursor
#: above it sits on.  Its candidate range is that parent's group.
_PARTICIPANT = st.lists(_SIBLINGS, min_size=1, max_size=3).flatmap(
    lambda groups: st.tuples(st.just(groups), st.integers(0, len(groups) - 1))
)


def depth_inputs(participants, roots, storage):
    """``bind_kernel``'s data arguments for one depth under one root/non-root mix.

    A root-level participant's level array is its candidate group alone; a
    deeper one keeps every group behind CSR offsets and a parent position.
    """
    store = STORAGES[storage]
    arrays, parent_offsets, parent_indexes, positions = [], [], [], []
    for (groups, parent), root in zip(participants, roots):
        if root:
            arrays.append(store(groups[parent]))
            parent_offsets.append(None)
            parent_indexes.append(-1)
        else:
            arrays.append(store([value for group in groups for value in group]))
            parent_offsets.append(store([0, *accumulate(map(len, groups))]))
            parent_indexes.append(len(positions))
            positions.append(parent)
    return arrays, parent_offsets, parent_indexes, positions


def _relay(matches):
    """A pass-through generator holding the only reference, like CTJ's ``_fill_cache``."""
    for match in matches:
        yield match


def observe(bind, inputs, leaf, take=None):
    """Matches and counters of one call; ``take`` closes the result after that many."""
    stats = JoinStats()
    if take is None:
        seen = list(bind(*inputs, stats, leaf)())
    else:
        relay = _relay(bind(*inputs, stats, leaf)())
        seen = list(islice(relay, take))
        relay.close()
    return seen, stats.lub_searches, stats.index_element_reads


def assert_kernel_matches_reference(participants, leaf, storage, take=None):
    for roots in product([True, False], repeat=len(participants)):
        inputs = depth_inputs(participants, roots, storage)
        assert observe(bind_kernel, inputs, leaf, take) == observe(
            reference_kernel, inputs, leaf, take
        ), roots


#: Two-participant inputs that take each exit of the seek loop (these were the
#: gallop edge cases: empty window, target past the end, single-element runs,
#: cursor already at the answer).
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


class TestDepthKernel:
    """The generated depth kernel against the interpreted leapfrog it replaced."""

    @pytest.mark.parametrize("storage", list(STORAGES))
    @pytest.mark.parametrize("leaf", [True, False], ids=["leaf", "nonleaf"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_indexes_and_counters(self, k, leaf, storage, data):
        participants = data.draw(st.tuples(*[_PARTICIPANT] * k))
        assert_kernel_matches_reference(participants, leaf, storage)

    @pytest.mark.parametrize("storage", list(STORAGES))
    @pytest.mark.parametrize("leaf", [True, False], ids=["leaf", "nonleaf"])
    @pytest.mark.parametrize("case", list(EXIT_CASES))
    def test_every_exit(self, case, leaf, storage):
        assert_kernel_matches_reference(EXIT_CASES[case], leaf, storage)

    @pytest.mark.parametrize("k", [2, 3])
    @given(st.data(), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_result_closed_early_flushes_the_same_counters(self, k, data, take):
        # CTJ's _fill_cache abandons its source when the driver drops it.
        # (take >= 1: the kernel reads its ranges on the first next().)
        participants = data.draw(st.tuples(*[_PARTICIPANT] * k))
        assert_kernel_matches_reference(participants, False, "array", take)

    def test_source_is_registered_under_a_name_that_reads_as_the_shape(self):
        name, source = kernel_source((True, False, False), False)
        assert name == "<repro.joins.leapfrog kernel k=3 roots=100 nonleaf>"
        assert source.count("bisect_left(") == 3  # one seek per participant
        kernel = bind_kernel(
            [[1], [1], ["x"]], [None, [0, 1], [0, 1]], [-1, 0, 1], [0, 0], JoinStats(), False
        )
        linecache.checkcache()
        assert linecache.getlines(name) == source.splitlines(True)
        with pytest.raises(TypeError) as raised:
            list(kernel())
        frame = raised.traceback[-1]
        assert str(frame.path) == name
        assert str(frame.statement).strip() == "if v2 > m:"

    def test_plan_carries_no_generated_function(self):
        database = seeded_database(1)
        query = pattern_query("cycle3")
        for engine in (LeapfrogTrieJoin(), CachedTrieJoin()):
            result = engine.run(query, database)
            plan = pickle.loads(pickle.dumps(result.plan))
            again = engine.run(query, database, plan=plan)
            assert again.tuples == result.tuples
            assert again.stats.as_dict() == result.stats.as_dict()


class TestArrayBackedTrie:
    def test_levels_are_machine_word_arrays(self):
        relation = Relation("R", Schema(("x", "y")), [(1, 2), (1, 3), (4, 5)])
        trie = TrieIndex(relation)
        assert isinstance(trie.level_values(0), array)
        assert isinstance(trie.child_offsets(0), array)
        assert trie.level_values(0).typecode == "q"

    def test_huge_values_fall_back_to_boxed_storage(self):
        big = 1 << 70
        relation = Relation("R", Schema(("x", "y")), [(big, 1), (0, big)])
        trie = TrieIndex(relation)
        assert sorted(trie.paths()) == [(0, big), (big, 1)]

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

