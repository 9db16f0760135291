"""The write path's seam: one splice primitive under every cached sorted list.

Everything ``insert`` triggers — patching cached results, extending the
relation's sorted-row caches, extending cached tries, the delta joins that
compute what to patch — is checked here against the plain oracles it
replaced: ``sorted(set(old) | set(delta))``, a fresh sort, a fresh
:class:`TrieIndex`, and recompute-difference.  A batch holding a value
outside the signed 64-bit range is rejected whole, before anything changes.
Cases are drawn by ``hypothesis``; the one fixed-size test is the
comparison-count guard that keeps a patch and its read O(Δ·log n).
Patches settle on read: the cache is held against a transcription of the
copy-per-patch ``patch_result`` it replaced (:func:`reference_patch_result`).
"""

import tempfile
from array import array
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engines import create_engine
from repro.joins import NaiveJoin
from repro.joins.delta import DeltaCatalog, DeltaPlanner, evaluate_delta
from repro.relational import Atom, ConjunctiveQuery, Database, Relation, Schema
from repro.relational.relation import WORDS
from repro.relational.sharding import shard_database
from repro.relational.trie import TrieIndex
from repro.service import ResultCache
from repro.storage import open_store
from repro.util.sorted_ops import splice_sorted

rows2 = st.tuples(st.integers(0, 12), st.integers(0, 12))


# --------------------------------------------------------------------------- #
# (a) splice_sorted / ResultCache.patch_result against sorted(set | set)
# --------------------------------------------------------------------------- #
@given(st.sets(rows2), st.sets(rows2))
def test_splice_sorted_is_the_sorted_union_and_leaves_base_alone(base, fresh):
    base_list, fresh_list = sorted(base), sorted(fresh)
    snapshot = list(base_list)
    merged = splice_sorted(base_list, fresh_list)
    assert merged == sorted(base | fresh)
    assert merged is not base_list and base_list == snapshot


#: One step of a cached entry's life: a patch (any iterable of rows, with
#: duplicates, already-present rows, or nothing) or a fresh ``put_result``.
cache_steps = st.lists(
    st.tuples(st.sampled_from(["patch", "patch", "put"]), st.lists(rows2, max_size=6)),
    max_size=8,
)


@given(st.lists(rows2, unique=True, max_size=20), st.booleans(), cache_steps)
def test_patch_result_equals_the_set_union_oracle(initial, put_sorted, steps):
    cache = ResultCache(capacity=2)
    published = sorted(initial) if put_sorted else list(initial)
    cache.put_result("k", published, ["E"])
    model, normalised = set(initial), False
    for kind, rows in steps:
        held = cache.get("k")
        before = list(held)
        if kind == "put":
            published = list(dict.fromkeys(rows))  # distinct, publisher's order
            cache.put_result("k", published, ["E"])
            model, normalised = set(published), False
        else:
            patches = cache.stats.patches
            assert cache.patch_result("k", rows)
            assert cache.stats.patches == patches + 1
            model |= set(rows)
            normalised = normalised or bool(rows)
            if not rows:
                assert cache.peek("k") is held  # an empty delta is O(1)
        # A list handed out earlier never changes under later patches.
        assert held == before
        entry = cache.peek("k")
        assert entry == (sorted(model) if normalised else published)


class CountingRow(tuple):
    """A result row that counts the ``<`` comparisons made against it."""

    comparisons = 0

    def __lt__(self, other):
        CountingRow.comparisons += 1
        return tuple.__lt__(self, other)


def test_second_patch_makes_o_delta_log_n_comparisons():
    n, d = 50_000, 8
    cache = ResultCache(capacity=1)
    cache.put_result("k", [CountingRow((i, 2 * i)) for i in range(n)], ["E"])
    assert cache.patch_result("k", [(0, 1)])
    cache.peek("k")  # the first merge normalised, O(n log n)
    delta = [(i * (n // d), 1) for i in range(d)]  # (0, 1) is already there
    CountingRow.comparisons = 0
    assert cache.patch_result("k", delta)
    entry = cache.peek("k")  # the merge spliced the delta in
    # ~d·log2(n) ≈ 130 for the splice; a re-sort or a timsort-merge of
    # ``base + fresh`` compares every stored row at least once.
    assert CountingRow.comparisons < n // 10
    assert len(entry) == n + d and entry == sorted(entry)


def reference_patch_result(cache, key, rows):
    """``ResultCache.patch_result`` as it was before patches settled on read:
    every non-empty patch copies the stored list (the oracle)."""
    with cache._lock:
        current = cache._entries.get(key)
        if current is None:
            return False
        cache.stats.patches += 1
        delta = sorted({tuple(row) for row in rows})
        if not delta:
            return True
        if key in cache._normalised:
            cache._entries[key] = splice_sorted(current, delta)
        else:
            cache._entries[key] = sorted(set(current) | set(delta))
            cache._normalised.add(key)
        return True


class ReferenceResultCache(ResultCache):
    """The result cache with its copy-per-patch ``patch_result``; nothing is
    ever pending, so its reads are the plain stored lists."""

    patch_result = reference_patch_result


#: One operation on a capacity-2 cache over three keys (so a fresh key
#: evicts): ``(name, key, rows)``.
cache_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["put_result", "put", "patch", "patch", "patch", "get", "peek", "discard", "clear"]
        ),
        st.sampled_from("abc"),
        st.lists(rows2, max_size=6),
    ),
    max_size=24,
)


@given(cache_ops)
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
def test_patches_settle_on_read_like_the_copying_reference(ops):
    cache, reference = ResultCache(capacity=2), ReferenceResultCache(capacity=2)
    handed_out = []  # (list returned by a read, its contents then)
    for name, key, rows in ops:
        if name == "put_result":
            published = list(dict.fromkeys(rows))  # distinct, publisher's order
            cache.put_result(key, published, ["E"])
            reference.put_result(key, list(published), ["E"])
        elif name == "put":  # a bare put: no dependencies recorded
            published = list(dict.fromkeys(rows))
            cache.put(key, published)
            reference.put(key, list(published))
        elif name == "patch":
            held = cache.peek(key) if not rows else None
            assert cache.patch_result(key, rows) == reference.patch_result(key, rows)
            if held is not None:
                assert cache.peek(key) is held  # an empty delta keeps the list
        elif name in ("get", "peek"):
            got = getattr(cache, name)(key)
            assert got == getattr(reference, name)(key)
            if got is not None:
                handed_out.append((got, list(got)))
        elif name == "discard":
            assert cache.discard(key) == reference.discard(key)
        else:
            cache.clear()
            reference.clear()
        assert cache.keys() == reference.keys()
    assert cache.stats.as_dict() == reference.stats.as_dict()
    for key in "abc":
        assert cache.peek(key) == reference.peek(key)
    for rows, snapshot in handed_out:
        assert rows == snapshot  # no list handed out ever changed


# --------------------------------------------------------------------------- #
# (c) cached tries and sorted-row caches after insert_batch, every catalog
# --------------------------------------------------------------------------- #
def levels(trie):
    """A trie's flat arrays as plain lists, level by level; every value is a word.

    A value level is a list (built or extended) or an adopted ``memoryview``;
    an offsets level is an ``array('q')`` or an adopted ``memoryview``.
    """
    values = [trie.level_values(level) for level in range(trie.num_levels)]
    offsets = [trie.child_offsets(level) for level in range(trie.num_levels - 1)]
    assert all(isinstance(level, (list, memoryview)) for level in values)
    assert all(isinstance(level, (array, memoryview)) for level in offsets)
    values = [list(level) for level in values]
    assert all(type(value) is int and value in WORDS for level in values for value in level)
    return trie.num_tuples, values, [list(level) for level in offsets]


def backing_databases(catalog):
    """Every :class:`Database` whose trie cache an insert must keep right."""
    if not hasattr(catalog, "scatter_spec"):  # monolithic, bare or durable
        return [catalog]
    replicas = [
        catalog.shard_replica_database("T", shard, 1)
        for shard in range(catalog.num_shards)
    ]
    return [catalog.global_database, *catalog.shard_databases, *replicas]


def reopened_store(directory, relation, orders):
    """A durable store holding ``relation`` whose cached tries were adopted
    from segments (``memoryview`` levels) on reopen."""
    store = open_store(directory)
    store.add_relation(Relation(relation.name, relation.schema, relation.sorted_rows()))
    for order in orders:
        store.trie(relation.name, order)
    store.snapshot()
    store.close()
    store = open_store(directory)
    assert all(isinstance(t.level_values(0), memoryview) for t in store.cached_tries())
    return store


def stored_state(catalog):
    """Every backing database's rows and cached tries, level by level."""
    return [
        (
            list(database.relation("T").sorted_rows()),
            sorted((trie.attribute_order, levels(trie)) for trie in database.cached_tries()),
        )
        for database in backing_databases(catalog)
    ]


@st.composite
def relation_and_batches(draw):
    """An arity-1..4 relation (possibly empty) and insert batches, some
    holding a value one past the signed 64-bit range (>= 2**63)."""
    arity = draw(st.integers(1, 4))
    small = st.integers(0, 5)
    rows = st.tuples(*[small] * arity)
    fresh = st.tuples(*[small | st.integers(2**63, 2**63 + 1)] * arity)
    initial = draw(st.sets(rows, max_size=25))
    batches = draw(st.lists(st.lists(fresh, max_size=6), min_size=1, max_size=5))
    return "abcd"[:arity], initial, batches


@given(relation_and_batches())
@settings(max_examples=60, deadline=None)
@example(("abc", set(), [[(0, 1, 2), (2**63, 0, 0)], [(0, 1, 3)]]))
def test_cached_tries_and_row_caches_track_every_insert(case):
    attributes, initial, batches = case
    orders = tuple(permutations(attributes))
    mono = Database("mono")
    mono.add_relation(Relation("T", Schema(tuple(attributes)), initial))
    sharded = shard_database(mono, 2, replication_factor=2)
    with tempfile.TemporaryDirectory() as directory:
        durable = reopened_store(directory, mono.relation("T"), orders)
        for catalog in (mono, sharded, durable):
            model = set(initial)
            for database in backing_databases(catalog):
                for order in orders:
                    database.trie("T", order)
            for batch in batches:
                if any(value not in WORDS for row in batch for value in row):
                    before = stored_state(catalog), durable.info()["wal_records"]
                    with pytest.raises(ValueError, match="outside the signed 64-bit range"):
                        catalog.insert_into("T", batch)
                    assert (stored_state(catalog), durable.info()["wal_records"]) == before
                    continue
                model.update(batch)
                held = [
                    (trie, levels(trie))
                    for database in backing_databases(catalog)
                    for trie in database.cached_tries()
                ]
                catalog.insert_into("T", batch)
                for trie, before in held:
                    assert levels(trie) == before  # readers keep their snapshot
                for database in backing_databases(catalog):
                    relation = database.relation("T")
                    stored = [row for row in model if row in relation]
                    assert len(stored) == relation.cardinality
                    assert relation.sorted_rows() == sorted(stored)
                    cached = {trie.attribute_order: trie for trie in database.cached_tries()}
                    assert set(cached) == set(orders)
                    for order in orders:
                        indexes = [attributes.index(a) for a in order]
                        assert relation.sorted_rows_in(order) == sorted(
                            tuple(row[i] for i in indexes) for row in stored
                        )
                        fresh = TrieIndex(Relation("T", relation.schema, stored), order)
                        assert levels(cached[order]) == levels(fresh)
            assert catalog.relation("T").cardinality == len(model)
        durable.close()


# --------------------------------------------------------------------------- #
# (d) delta joins under delta-seeded orders equal recompute-difference
# --------------------------------------------------------------------------- #
def _query(name, head, *atoms):
    return ConjunctiveQuery(name, head, [Atom("E", variables) for variables in atoms])


#: Self-joins where every atom reads the changed relation, full and projected.
DELTA_QUERIES = (
    _query("cycle3", ("x", "y", "z"), ("x", "y"), ("y", "z"), ("z", "x")),
    _query("path3", ("x", "y", "z", "w"), ("x", "y"), ("y", "z"), ("z", "w")),
    _query("two_hop_ends", ("x", "z"), ("x", "y"), ("y", "z")),
    _query("in_triangle", ("z",), ("x", "y"), ("y", "z"), ("z", "x")),
)

edges = st.tuples(st.integers(0, 6), st.integers(0, 6))


@given(
    st.sets(edges, max_size=20),
    st.lists(st.lists(edges, min_size=1, max_size=4), min_size=1, max_size=3),
    st.sampled_from(DELTA_QUERIES),
    st.sampled_from(["lftj", "ctj"]),
)
@settings(max_examples=80, deadline=None)
def test_seeded_delta_terms_equal_recompute_difference(initial, batches, query, engine_name):
    database = Database("g")
    database.add_relation(Relation("E", Schema(("src", "dst")), initial))
    engine, planner, oracle = create_engine(engine_name), DeltaPlanner(), NaiveJoin()
    before = set(oracle.execute(query, database).tuples)
    for batch in batches:
        added = database.insert_batch("E", batch).rows
        delta = evaluate_delta(
            query, DeltaCatalog(database, {"E": added}).view, engine, planner
        )
        after = set(oracle.execute(query, database).tuples)
        assert list(delta.tuples) == sorted(set(delta.tuples))
        assert before | set(delta.tuples) == after
        before = after
