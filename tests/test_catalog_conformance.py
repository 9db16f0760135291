"""Shared conformance suite for every :class:`Catalog` implementation.

Engines, caches and the serving layer are written against the ``Catalog``
protocol, not a concrete class — so every implementation (the in-memory
:class:`Database`, the scatter-gather :class:`ShardedDatabase`, and either
one behind the :class:`repro.storage.DurableCatalog` layer) must expose
identical observable behaviour: lookup and membership, cached trie builds,
atom/trie translation, query validation, conservative insert semantics and
the invalidation event stream.  One parametrized suite, generated as
``{base} × {plain, durable}`` from one table, keeps them from drifting.
"""

import copy
import pickle

import pytest

from repro.graphs import pattern_query
from repro.relational import (
    Atom,
    Catalog,
    ConjunctiveQuery,
    Database,
    DeltaBatch,
    MutationEvent,
    Relation,
    Schema,
    ShardedDatabase,
)
from repro.storage import DurableCatalog

EDGES = [(1, 2), (1, 3), (2, 3), (3, 1), (4, 1), (4, 5)]

#: The in-memory catalogs, by name; every one is tested bare and durable.
BASES = {
    "database": lambda: Database("conformance"),
    "sharded-hash": lambda: ShardedDatabase("conformance", num_shards=2),
    # Four first values over eight shards: at least half the fragments of
    # every relation are empty, so each behaviour also runs over them.
    "sharded-hash-8": lambda: ShardedDatabase("conformance", num_shards=8),
}
LAYERS = ("plain", "durable")
CATALOG_KINDS = tuple(f"{base}/{layer}" for base in BASES for layer in LAYERS)


def edge_relation():
    return Relation("E", Schema(("src", "dst")), EDGES)


def make_catalog(kind, tmp_path):
    """One freshly populated catalog of the requested ``base/layer`` kind."""
    base, layer = kind.split("/")
    instance = BASES[base]()
    if layer == "durable":
        instance = DurableCatalog(instance, str(tmp_path / "store"))
    instance.add_relation(edge_relation())
    return instance


@pytest.fixture(params=CATALOG_KINDS)
def catalog(request, tmp_path):
    """One freshly populated catalog per implementation under test."""
    instance = make_catalog(request.param, tmp_path)
    yield instance
    close = getattr(instance, "close", None)
    if close is not None:
        close()


class TestCatalogConformance:
    def test_satisfies_the_protocol(self, catalog):
        assert isinstance(catalog, Catalog)
        assert catalog.name == "conformance"

    def test_membership_and_lookup(self, catalog):
        assert "E" in catalog
        assert "missing" not in catalog
        assert "E" in catalog.relation_names()
        assert sorted(catalog.relation("E").sorted_rows()) == sorted(EDGES)
        with pytest.raises(KeyError):
            catalog.relation("missing")

    def test_total_tuples_counts_stored_rows(self, catalog):
        assert catalog.total_tuples() == len(EDGES)

    def test_tries_are_built_once_and_ordered(self, catalog):
        trie = catalog.trie("E", ("dst", "src"))
        assert trie.num_tuples == len(EDGES)
        assert trie.attribute_order == ("dst", "src")
        assert catalog.trie("E", ("dst", "src")) is trie  # cached

    def test_trie_for_atom_translates_variable_order(self, catalog):
        atom = pattern_query("cycle3").atoms[0]  # E(x, y)
        trie = catalog.trie_for_atom(atom, ("y", "x", "z"))
        assert trie.attribute_order == ("dst", "src")
        assert trie.num_tuples == len(EDGES)

    def test_validate_query(self, catalog):
        catalog.validate_query(pattern_query("cycle3"))
        bad = ConjunctiveQuery(
            "bad", ("x", "y"), [Atom("missing", ("x", "y"))]
        )
        with pytest.raises(KeyError):
            catalog.validate_query(bad)

    def test_insert_semantics_are_conservative(self, catalog):
        stale = catalog.trie("E", ("src", "dst"))
        assert catalog.insert_into("E", [(9, 9), (1, 2)]) == 1  # one duplicate
        assert catalog.insert_into("E", [(9, 9)]) == 0
        fresh = catalog.trie("E", ("src", "dst"))
        assert fresh is not stale  # mutation evicted the cached trie
        assert fresh.num_tuples == len(EDGES) + 1

    def test_insert_into_unknown_relation_raises(self, catalog):
        with pytest.raises(KeyError):
            catalog.insert_into("missing", [(1, 2)])

    @pytest.mark.parametrize("bad_row", [(), (1, 2**63)], ids=["short", "outside-int64"])
    def test_rejected_row_fails_the_batch_before_any_change(self, catalog, bad_row):
        """A short row or a value past the signed 64-bit range raises
        ``ValueError`` before any row, trie, event or WAL record changes."""

        def observed():
            return (
                catalog.relation("E").sorted_rows(),
                catalog.shard_cardinalities("E") if hasattr(catalog, "scatter_spec") else None,
                catalog.info()["wal_records"] if isinstance(catalog, DurableCatalog) else None,
            )

        trie = catalog.trie("E", ("src", "dst"))
        before, events = observed(), []
        catalog.subscribe_invalidation(events.append)
        with pytest.raises(ValueError, match="relation 'E'"):
            catalog.insert_into("E", [(7, 8), bad_row])
        assert observed() == before
        assert catalog.trie("E", ("src", "dst")) is trie
        assert events == []

    def test_invalidation_events_flow_until_unsubscribed(self, catalog):
        events = []
        catalog.subscribe_invalidation(events.append)
        catalog.insert_into("E", [(7, 8)])
        assert events and events[-1].relation == "E"
        assert events[-1].kind == "insert"
        assert events[-1].delta == DeltaBatch(((7, 8),))
        assert isinstance(events[-1], MutationEvent)
        assert catalog.unsubscribe_invalidation(events.append)
        catalog.insert_into("E", [(8, 9)])
        assert len(events) == 1
        assert not catalog.unsubscribe_invalidation(events.append)


#: A mutation stream exercising every canonicalisation rule: duplicates
#: against the stored relation, duplicates within the submitted batch,
#: unordered rows, a batch that is entirely duplicate, and floats that
#: normalise to ints.
MUTATION_STREAM = (
    [(7, 8), (1, 2), (6, 7)],
    [(9.0, 9.0), (9, 9), (8, 0)],
    [(2, 3), (3, 1)],
    [(5, 4), (0, 0), (5, 4), (4, 5)],
)


class TestDeltaBatchConformance:
    """Every catalog emits the same canonical delta batches for one stream.

    Sharded catalogs fire one event per touched shard, so the *number* of
    events may differ — but per mutation, the merged rows (sorted) and the
    summed counts must be byte-identical across all implementations, or
    incremental maintenance would patch differently depending on which
    catalog backs the service.
    """

    def _observe(self, kind, tmp_path):
        instance = make_catalog(kind, tmp_path / kind.replace("-", "_").replace("/", "_"))
        try:
            events = []
            instance.subscribe_invalidation(events.append)
            stream = []
            for batch in MUTATION_STREAM:
                events.clear()
                inserted = instance.insert_into("E", batch)
                assert all(isinstance(e.delta, DeltaBatch) for e in events)
                assert all(e.patchable for e in events)
                assert all(e.kind == "insert" and e.relation == "E" for e in events)
                merged = tuple(sorted(row for e in events for row in e.delta.rows))
                counts = sum(e.delta.count for e in events)
                assert counts == inserted == len(merged)
                stream.append((merged, counts))
            return tuple(stream)
        finally:
            close = getattr(instance, "close", None)
            if close is not None:
                close()

    def test_all_catalogs_emit_identical_delta_batches(self, tmp_path):
        observed = {
            kind: self._observe(kind, tmp_path) for kind in CATALOG_KINDS
        }
        reference = observed["database/plain"]
        assert any(count == 0 for _, count in reference)  # duplicate-only batch
        assert any(count > 1 for _, count in reference)
        for kind in CATALOG_KINDS:
            assert observed[kind] == reference, kind

    @pytest.mark.parametrize("kind", CATALOG_KINDS)
    def test_define_events_carry_no_batch(self, kind, tmp_path):
        instance = make_catalog(kind, tmp_path)
        try:
            events = []
            instance.subscribe_invalidation(events.append)
            instance.replace_relation(edge_relation())  # redefinition
            assert events
            assert all(e.kind == "define" for e in events)
            assert all(e.delta is None for e in events)
            assert all(not e.patchable for e in events)
        finally:
            close = getattr(instance, "close", None)
            if close is not None:
                close()


class TestDurableLayerIsTransparent:
    """The durable layer adds a log, never behaviour of its own."""

    @pytest.mark.parametrize("base", list(BASES))
    def test_subscribers_see_the_same_events_plain_and_durable(self, base, tmp_path):
        """Same stream in → the same events out, shard ids and batches included."""
        observed = {}
        for layer in LAYERS:
            instance = make_catalog(f"{base}/{layer}", tmp_path)
            try:
                events = []
                instance.subscribe_invalidation(events.append)
                for batch in MUTATION_STREAM:
                    instance.insert_into("E", batch)
                instance.replace_relation(edge_relation())
                instance.add_relation(Relation("F", Schema(("a",)), [(1,), (2,)]))
                observed[layer] = events
            finally:
                getattr(instance, "close", lambda: None)()
        assert observed["durable"] == observed["plain"]
        assert {e.kind for e in observed["plain"]} == {"insert", "define"}

    @pytest.mark.parametrize("base", list(BASES))
    def test_copy_and_pickle_probes_do_not_recurse(self, base, tmp_path):
        """``copy``/``pickle`` probe a blank instance for ``__setstate__`` &
        co.; attribute forwarding must answer AttributeError, not recurse."""
        instance = make_catalog(f"{base}/durable", tmp_path)
        try:
            blank = DurableCatalog.__new__(DurableCatalog)
            with pytest.raises(AttributeError):
                blank.anything
            assert not hasattr(instance, "__setstate__")
            assert copy.copy(instance).relation_names() == ("E",)
            with pytest.raises(TypeError):  # open file handles do not pickle
                pickle.dumps(instance)
            # Non-dunder names the layer does not define are the catalog's.
            assert instance.size_in_bytes() > 0
        finally:
            instance.close()
