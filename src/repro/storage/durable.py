"""The durable layer: snapshot + WAL + trie segments behind one directory.

A *store* is a directory::

    <storage_dir>/
        catalog.sqlite    relation catalog + packed row fragments (sqlite_store)
        mutations.wal     checksummed mutation log since the last snapshot (wal)
        segments/         binary trie segments, mmap'd back on open (segments)

Durability is one layer over any in-memory catalog::

    DurableCatalog → {Database | ShardedDatabase} → Database units

:class:`DurableCatalog` *holds* a catalog instead of subclassing one.  It
satisfies the :class:`~repro.relational.catalog.Catalog` protocol by
forwarding every read to the wrapped catalog — which therefore behaves
*identically* to a bare one (same tries, same mutation events) — and owns
only the three mutators, each as **validate → log → apply**: the wrapped
catalog checks the mutation without touching any state, the record is
appended (fsynced) to the WAL, and only then is the mutation applied.  A
mutation the catalog rejects is therefore never logged, and a logged one
always replays.  :meth:`DurableCatalog.snapshot` folds the log into the
SQLite snapshot plus one trie segment per currently cached index, from the
wrapped catalog's ``dump_state()``.

**Recovery** (on open of an existing store) is the wrapped catalog's own
``load_state(...)`` over the snapshot — packed fragments adopt straight into
relations with their sorted-row cache pre-seeded, never re-partitioned;
every trie segment is adopted via ``mmap`` (zero-copy — cold start maps
files instead of rebuilding indexes) — followed by replaying the WAL into
the wrapped catalog through its normal mutation entry points, which also
re-invalidates the adopted tries of any relation the log touches, so a
recovered catalog can never serve an index that is stale with respect to
the replayed rows.
Replay is idempotent (re-inserting is a set no-op; re-defining replaces), so
a crash *during* :meth:`DurableCatalog.snapshot` — after the SQLite commit,
before the WAL truncate — recovers correctly on the next open.  A torn final
WAL record (a crash mid-append) is dropped by replay and truncated away
before the next append (see :mod:`repro.storage.wal`).

Note: :meth:`DurableCatalog.snapshot` rewrites the segment directory in
place; on POSIX systems a previously ``mmap``'d segment stays valid after its
file is unlinked, so live adopted tries are unaffected.
"""

from __future__ import annotations

import os
import shutil
from typing import Dict, Iterable, Optional, Sequence

from repro.relational.catalog import Database, RelationState
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.sharding import ShardedDatabase
from repro.storage.errors import StorageError, StoreFormatError
from repro.storage.segments import TrieSegmentStore, read_trie_segment
from repro.storage.sqlite_store import GLOBAL_FRAGMENT, SQLiteStore, STORE_FORMAT_VERSION
from repro.storage.wal import MutationLog, WalRecord

CATALOG_FILENAME = "catalog.sqlite"
WAL_FILENAME = "mutations.wal"
SEGMENTS_DIRNAME = "segments"


def _forward(method_name: str):
    """A method that calls the wrapped catalog's method of the same name."""

    def method(self, *args, **kwargs):
        return getattr(self._catalog, method_name)(*args, **kwargs)

    method.__name__ = method_name
    method.__doc__ = f"The wrapped catalog's ``{method_name}``."
    return method


class DurableCatalog:
    """Write-ahead durability over an in-memory catalog.

    ``catalog`` is an *empty* :class:`Database` or :class:`ShardedDatabase`
    (anything with ``check_define`` / ``dump_state`` / ``load_state``).
    Opening a directory that already holds a store recovers it into the
    catalog after checking the store was created with the same shape; an
    empty directory is stamped as a fresh store.  Mutations are logged ahead;
    :meth:`snapshot` folds the log down and persists the cached tries.
    Everything else — the rest of the ``Catalog`` surface, a sharded
    catalog's scatter surface — is the wrapped catalog's.
    """

    def __init__(self, catalog, storage_dir: str):
        if catalog.relation_names():
            raise StorageError(
                f"catalog {catalog.name!r} already holds relations; the durable "
                "layer wraps an empty catalog and fills it from the store"
            )
        shape = catalog.dump_state().shape
        self._catalog = catalog
        self.storage_dir = storage_dir
        self._store = SQLiteStore(os.path.join(storage_dir, CATALOG_FILENAME))  # creates the dir
        self._wal = MutationLog(os.path.join(storage_dir, WAL_FILENAME))
        self._segments = TrieSegmentStore(os.path.join(storage_dir, SEGMENTS_DIRNAME))
        try:
            stored = self._store.all_meta()
            if "catalog_kind" not in stored:
                stamps = {**shape, "catalog_name": catalog.name, "snapshot_seq": "0"}
                for key, value in stamps.items():
                    self._store.set_meta(key, value)
            else:
                for key in ("catalog_kind", "num_shards", "partitioner_kind"):
                    if stored.get(key) != shape.get(key):
                        raise StoreFormatError(
                            f"store {storage_dir} was created with {key} "
                            f"{stored.get(key)!r}, not {shape.get(key)!r} — open it "
                            "with the matching shape (see repro.storage.open_store)"
                        )
                self._recover()
        except BaseException:
            self.close()
            raise

    # -- the Catalog surface: reads are the wrapped catalog's ------------- #
    @property
    def name(self) -> str:
        return self._catalog.name

    relation = _forward("relation")
    relation_names = _forward("relation_names")
    trie = _forward("trie")
    trie_for_atom = _forward("trie_for_atom")
    validate_query = _forward("validate_query")
    subscribe_invalidation = _forward("subscribe_invalidation")
    unsubscribe_invalidation = _forward("unsubscribe_invalidation")
    total_tuples = _forward("total_tuples")

    def __contains__(self, name: str) -> bool:
        return name in self._catalog

    def __getattr__(self, attribute: str):
        # Reached only for names this class does not define: shard
        # introspection, scatter planning, statistics helpers.  A missing
        # ``_catalog`` means the instance is half-built (copy/pickle probe a
        # blank object), and dunder probes are never forwarded — either
        # would otherwise recurse or borrow the wrapped catalog's protocols.
        if attribute == "_catalog" or attribute.startswith("__"):
            raise AttributeError(attribute)
        return getattr(self._catalog, attribute)

    # -- mutators: validate → log → apply -------------------------------- #
    def add_relation(self, relation: Relation) -> None:
        """Durably register ``relation`` (its name must be unused)."""
        self._define(relation, False)

    def replace_relation(self, relation: Relation) -> None:
        """Durably register ``relation``, replacing any existing one."""
        self._define(relation, True)

    def _define(self, relation: Relation, replace: bool) -> None:
        self._catalog.check_define(relation, replace=replace)
        self._wal.append(
            "define",
            relation.name,
            attributes=list(relation.schema.attributes),
            rows=relation.sorted_rows(),
            replace=replace,
        )
        apply = self._catalog.replace_relation if replace else self._catalog.add_relation
        apply(relation)

    def insert_into(self, relation_name: str, rows: Iterable[Sequence[int]]) -> int:
        """Durably insert ``rows``; returns how many were new."""
        relation = self._catalog.relation(relation_name)
        normalized = [relation.normalize_row(row) for row in rows]  # a rejected batch is never logged
        self._wal.append("insert", relation_name, rows=normalized)
        return self._catalog.insert_into(relation_name, normalized)

    # -- snapshot / recovery --------------------------------------------- #
    def snapshot(self) -> Dict:
        """Persist the full catalog + cached tries; truncate the WAL.

        What is persisted is the wrapped catalog's ``dump_state()``:
        relation records, row fragments and cached tries with their shard.
        The segment directory is wiped *before* the SQLite commit and
        repopulated after it, so at no point can a stale segment coexist
        with newer snapshot rows; a crash anywhere in between recovers from
        the old (or new) snapshot plus the idempotent WAL.
        """
        shutil.rmtree(self._segments.root, ignore_errors=True)
        state = self._catalog.dump_state()
        snapshot_seq = int(self._store.get_meta("snapshot_seq", "0")) + 1
        self._store.write_snapshot(
            state.relations,  # a RelationState has every RelationRecord field
            [
                (r.name, GLOBAL_FRAGMENT if shard is None else shard, rows, len(r.attributes))
                for r in state.relations
                for shard, rows in r.fragments.items()
            ],
            meta_updates={"snapshot_seq": str(snapshot_seq)},
        )
        for trie, shard in state.tries:
            self._segments.save(trie, shard=shard)
        self._wal.reset()
        return {
            "snapshot_seq": snapshot_seq,
            "relations": len(state.relations),
            "segments": len(state.tries),
        }

    def _recover(self) -> None:
        relations = [
            RelationState(
                record.name,
                record.attributes,
                record.placement,
                {
                    None if shard == GLOBAL_FRAGMENT else shard: self._store.load_fragment(
                        record.name, shard
                    )
                    for shard in self._store.fragment_shards(record.name)
                },
                record.shard_attribute,
                record.partitioner,
            )
            for record in self._store.load_relations()
        ]
        tries = ((read_trie_segment(entry.path), entry.shard) for entry in self._segments.entries())
        try:
            self._catalog.load_state(relations, tries)
        except (KeyError, TypeError, ValueError) as error:
            raise StoreFormatError(
                f"store {self.storage_dir}: the snapshot does not fit a "
                f"{type(self._catalog).__name__}: {error}"
            ) from error
        for record in self._wal.replay():
            self._replay(record)

    def _replay(self, record: WalRecord) -> None:
        """Re-apply one logged mutation to the wrapped catalog (never re-logged).

        A record the catalog rejects (an unknown relation, a row it does not
        accept) raises :class:`StoreFormatError` naming the record.
        """
        rows = record.data.get("rows", ())  # the catalog normalises them, as it did live
        try:
            if record.kind == "insert":
                self._catalog.insert_into(record.relation, rows)
            elif record.kind == "define":
                if record.data.get("replicate", False) is not False:
                    # A store may carry the placement a sharded definition was
                    # once logged with; only the partitioned one (False) fits.
                    raise ValueError(
                        f"placement replicate={record.data['replicate']!r}; a sharded "
                        "catalog partitions every relation on its first attribute"
                    )
                # Always *replace*: replay must be idempotent so a crash between
                # the snapshot commit and the WAL truncate still recovers (the
                # record's effect is then already in the snapshot).
                self._catalog.replace_relation(
                    Relation(record.relation, Schema(tuple(record.data["attributes"])), rows)
                )
            else:
                raise StoreFormatError(
                    f"mutation log record {record.seq} has unknown kind {record.kind!r}"
                )
        except (KeyError, ValueError) as error:
            raise StoreFormatError(
                f"store {self.storage_dir}: mutation log record {record.seq} "
                f"({record.kind} into {record.relation!r}) does not replay: {error}"
            ) from error

    # -- store management ------------------------------------------------- #
    def info(self) -> Dict:
        """Operational summary of the open store (live relation/tuple counts)."""
        summary = _summarise(self.storage_dir, self._store, self._wal, self._segments)
        summary["relations"] = len(self._catalog.relation_names())
        summary["tuples"] = self._catalog.total_tuples()
        return summary

    def close(self) -> None:
        """Release the store's file handles (the catalog stays usable in memory)."""
        self._wal.close()
        self._store.close()

    def __enter__(self) -> "DurableCatalog":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# --------------------------------------------------------------------------- #
# Store-level helpers
# --------------------------------------------------------------------------- #
def _summarise(
    storage_dir: str, store: SQLiteStore, wal: MutationLog, segments: TrieSegmentStore
) -> Dict:
    """The one store summary behind :func:`store_info` and ``DurableCatalog.info``."""
    meta = store.all_meta()
    entries = segments.entries()
    summary = {
        "storage_dir": storage_dir,
        "kind": meta.get("catalog_kind", "single"),
        "name": meta.get("catalog_name", "durable"),
        "format_version": int(meta.get("format_version", STORE_FORMAT_VERSION)),
        "snapshot_seq": int(meta.get("snapshot_seq", "0")),
        "relations": len(store.load_relations()),
        "snapshot_rows": store.total_rows(),
        "wal_records": wal.record_count(),
        "wal_bytes": wal.size_bytes(),
        "segments": len(entries),
        "segment_bytes": sum(entry.file_bytes for entry in entries),
    }
    if summary["kind"] == "sharded":
        summary["num_shards"] = int(meta.get("num_shards", "0"))
        summary["partitioner"] = meta.get("partitioner_kind", "hash")
    return summary


def store_exists(storage_dir: str) -> bool:
    """Whether ``storage_dir`` already holds a durable store."""
    return os.path.exists(os.path.join(storage_dir, CATALOG_FILENAME))


def store_info(storage_dir: str) -> Dict:
    """Cheap store summary without recovering the catalog into memory."""
    if not store_exists(storage_dir):
        raise StorageError(f"no durable store at {storage_dir}")
    with SQLiteStore(os.path.join(storage_dir, CATALOG_FILENAME)) as store, MutationLog(
        os.path.join(storage_dir, WAL_FILENAME)
    ) as wal:
        segments = TrieSegmentStore(os.path.join(storage_dir, SEGMENTS_DIRNAME))
        return _summarise(storage_dir, store, wal, segments)


def open_store(
    storage_dir: str,
    name: Optional[str] = None,
    num_shards: Optional[int] = None,
) -> DurableCatalog:
    """Open (recovering) or initialise the durable store at ``storage_dir``.

    ``num_shards=None`` means "whatever shape the store has" (a fresh store
    becomes monolithic); an integer — including 1 — requests a sharded
    catalog and must match an existing store's shard count.  An existing
    store's stamped name and shard count win over the arguments; a store
    stamped with a partitioner other than ``"hash"`` raises
    :class:`StoreFormatError`.
    """
    if store_exists(storage_dir):
        with SQLiteStore(os.path.join(storage_dir, CATALOG_FILENAME)) as store:
            meta = store.all_meta()
        name = meta.get("catalog_name", name)
        if meta.get("catalog_kind") == "sharded":
            if num_shards is None:
                num_shards = int(meta.get("num_shards", "2"))
    if num_shards is None:
        catalog = Database(name or "durable")
    else:
        catalog = ShardedDatabase(name or "durable", num_shards=num_shards)
    return DurableCatalog(catalog, storage_dir)


__all__ = [
    "CATALOG_FILENAME",
    "DurableCatalog",
    "SEGMENTS_DIRNAME",
    "WAL_FILENAME",
    "open_store",
    "store_exists",
    "store_info",
]
