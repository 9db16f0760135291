"""Durable catalogs: snapshot + WAL + trie segments behind one directory.

A *store* is a directory::

    <storage_dir>/
        catalog.sqlite    relation catalog + packed row fragments (sqlite_store)
        mutations.wal     checksummed mutation log since the last snapshot (wal)
        segments/         binary trie segments, mmap'd back on open (segments)

:class:`DurableDatabase` subclasses the monolithic
:class:`~repro.relational.catalog.Database` and
:class:`DurableShardedDatabase` the partitioned
:class:`~repro.relational.sharding.ShardedDatabase`, so both satisfy the
:class:`~repro.relational.catalog.Catalog` protocol and behave *identically*
to their in-memory parents — every mutation is simply written ahead to the
log before it is applied, and :meth:`snapshot` folds the log into the SQLite
snapshot plus one trie segment per currently cached index.

**Recovery** (on open of an existing store) is: load the snapshot (packed
fragments adopt straight into relations with their sorted-row cache
pre-seeded; for the sharded catalog the *fitted* partitioners are restored
exactly, never refit), adopt every trie segment via ``mmap`` (zero-copy —
cold start maps files instead of rebuilding indexes), then replay the WAL
through the normal mutation entry points — which also re-invalidates the
adopted tries of any relation the log touches, so a recovered catalog can
never serve an index that is stale with respect to the replayed rows.
Replay is idempotent (re-inserting is a set no-op; re-defining replaces), so
a crash *during* :meth:`snapshot` — after the SQLite commit, before the WAL
truncate — recovers correctly on the next open.

Note: :meth:`snapshot` rewrites the segment directory in place; on POSIX
systems a previously ``mmap``'d segment stays valid after its file is
unlinked, so live adopted tries are unaffected.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.relational.catalog import Database
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.sharding import (
    HashPartitioner,
    RangePartitioner,
    ShardedDatabase,
)
from repro.storage.errors import StorageError, StoreFormatError
from repro.storage.segments import TrieSegmentStore, read_trie_segment
from repro.storage.sqlite_store import (
    GLOBAL_FRAGMENT,
    RelationRecord,
    SQLiteStore,
    STORE_FORMAT_VERSION,
)
from repro.storage.wal import MutationLog, WalRecord

CATALOG_FILENAME = "catalog.sqlite"
WAL_FILENAME = "mutations.wal"
SEGMENTS_DIRNAME = "segments"


def describe_partitioner(partitioner) -> Dict:
    """JSON-able description of a fitted built-in partitioner."""
    kind = getattr(partitioner, "kind", None)
    if kind == "hash":
        return {"kind": "hash", "num_shards": partitioner.num_shards}
    if kind == "range":
        return {
            "kind": "range",
            "num_shards": partitioner.num_shards,
            "boundaries": list(partitioner.boundaries),
        }
    raise StorageError(
        f"cannot persist partitioner {partitioner!r}: only the built-in "
        "'hash' and 'range' partitioners have a durable description"
    )


def restore_partitioner(spec: Dict):
    """Rebuild a fitted partitioner from :func:`describe_partitioner` output."""
    kind = spec.get("kind")
    if kind == "hash":
        return HashPartitioner(spec["num_shards"])
    if kind == "range":
        return RangePartitioner(spec["num_shards"], spec.get("boundaries") or ())
    raise StoreFormatError(f"unknown persisted partitioner kind {kind!r}")


class _DurableState:
    """The store plumbing both durable catalogs share.

    Mixed into a concrete :class:`Database`/:class:`ShardedDatabase`
    subclass; the host class provides the catalog behaviour, this class the
    files.  ``self._replaying`` gates the write-ahead overrides: ``True``
    while the catalog is being rebuilt *from* the store (restore + replay),
    so recovery does not re-log what it reads.
    """

    catalog_kind = ""  # overridden: 'single' | 'sharded'

    def _init_storage(self, storage_dir: str, use_mmap: bool, use_segments: bool) -> None:
        self.storage_dir = storage_dir
        self._use_mmap = use_mmap
        self._use_segments = use_segments
        os.makedirs(storage_dir, exist_ok=True)
        self._store = SQLiteStore(os.path.join(storage_dir, CATALOG_FILENAME))
        self._wal = MutationLog(os.path.join(storage_dir, WAL_FILENAME))
        self._segments = TrieSegmentStore(os.path.join(storage_dir, SEGMENTS_DIRNAME))

    def _stamp_or_check_meta(self, extra: Optional[Dict[str, str]] = None) -> bool:
        """Stamp a fresh store's identity, or verify an existing one.

        Returns ``True`` when the store already held a catalog (recovery
        should run).
        """
        stored_kind = self._store.get_meta("catalog_kind")
        if stored_kind is None:
            stamps = {
                "catalog_kind": self.catalog_kind,
                "catalog_name": self.name,
                "snapshot_seq": "0",
            }
            stamps.update(extra or {})
            for key, value in stamps.items():
                self._store.set_meta(key, value)
            return False
        if stored_kind != self.catalog_kind:
            raise StoreFormatError(
                f"store {self.storage_dir} holds a {stored_kind!r} catalog, "
                f"not {self.catalog_kind!r} — open it with the matching shape "
                "(see repro.storage.open_store)"
            )
        return True

    # -- write-ahead helpers ------------------------------------------- #
    def _log_insert(self, relation_name: str, rows: Sequence[Tuple[int, ...]]) -> None:
        self._wal.append(
            "insert", relation_name, rows=[list(row) for row in rows]
        )

    def _log_define(self, relation: Relation, **extra) -> None:
        self._wal.append(
            "define",
            relation.name,
            attributes=list(relation.schema.attributes),
            rows=[list(row) for row in relation.sorted_rows()],
            **extra,
        )

    @staticmethod
    def _normalize_rows(rows: Iterable[Sequence[int]], arity: int, relation_name: str):
        normalized = []
        for row in rows:
            if len(row) != arity:
                raise ValueError(
                    f"row {tuple(row)!r} has arity {len(row)}, expected {arity} "
                    f"for relation {relation_name!r}"
                )
            normalized.append(tuple(int(v) for v in row))
        return normalized

    @staticmethod
    def _wal_rows(record: WalRecord) -> List[Tuple[int, ...]]:
        return [tuple(int(v) for v in row) for row in record.data.get("rows", ())]

    # -- shared surface ------------------------------------------------- #
    def insert_into(self, relation_name: str, rows: Iterable[Sequence[int]]) -> int:
        arity = self.relation(relation_name).schema.arity
        normalized = self._normalize_rows(rows, arity, relation_name)
        if not self._replaying:
            self._log_insert(relation_name, normalized)
        return super().insert_into(relation_name, normalized)

    def snapshot(self) -> Dict:
        """Persist the full catalog + cached tries; truncate the WAL.

        What is persisted comes from the host class's
        ``_snapshot_contents`` (relation records and row fragments) and
        ``_snapshot_tries`` (cached tries with their shard).  The segment
        directory is wiped *before* the SQLite commit and repopulated after
        it, so at no point can a stale segment coexist with newer snapshot
        rows; a crash anywhere in between recovers from the old (or new)
        snapshot plus the idempotent WAL.
        """
        shutil.rmtree(self._segments.root, ignore_errors=True)
        records, fragments = self._snapshot_contents()
        self._store.write_snapshot(
            records,
            fragments,
            meta_updates={
                "snapshot_seq": str(int(self._store.get_meta("snapshot_seq", "0")) + 1)
            },
        )
        segment_count = 0
        if self._use_segments:
            for trie, shard in self._snapshot_tries():
                self._segments.save(trie, shard=shard)
                segment_count += 1
        self._wal.reset()
        return {
            "snapshot_seq": int(self._store.get_meta("snapshot_seq", "0")),
            "relations": len(records),
            "segments": segment_count,
        }

    def info(self) -> Dict:
        """Operational summary of the store (the CLI's ``store info``)."""
        segment_entries = self._segments.entries()
        return {
            "storage_dir": self.storage_dir,
            "kind": self.catalog_kind,
            "name": self.name,
            "format_version": STORE_FORMAT_VERSION,
            "snapshot_seq": int(self._store.get_meta("snapshot_seq", "0")),
            "relations": len(self.relation_names()),
            "tuples": self.total_tuples(),
            "snapshot_rows": self._store.total_rows(),
            "wal_records": self._wal.record_count(),
            "wal_bytes": self._wal.size_bytes(),
            "segments": len(segment_entries),
            "segment_bytes": sum(entry.file_bytes for entry in segment_entries),
        }

    def close(self) -> None:
        """Release the store's file handles (the catalog stays usable in memory)."""
        self._wal.close()
        self._store.close()

    def __enter__(self):
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class DurableDatabase(_DurableState, Database):
    """A monolithic :class:`Database` whose state survives the process.

    Opening a directory that already holds a store recovers it (snapshot +
    segment adoption + WAL replay); opening an empty directory initialises a
    fresh one.  All mutations are logged ahead; call :meth:`snapshot` to
    fold the log down and persist the currently cached tries as segments.
    """

    catalog_kind = "single"

    def __init__(
        self,
        storage_dir: str,
        name: str = "durable",
        use_mmap: bool = True,
        use_segments: bool = True,
    ):
        self._replaying = True  # no write-ahead until the store is attached
        super().__init__(name)
        self._init_storage(storage_dir, use_mmap, use_segments)
        try:
            if self._stamp_or_check_meta():
                self.name = self._store.get_meta("catalog_name", name)
                self._recover()
        finally:
            self._replaying = False

    # -- write-ahead overrides ------------------------------------------ #
    def add_relation(self, relation: Relation) -> None:
        if not self._replaying:
            if relation.name in self._relations:
                raise KeyError(
                    f"relation {relation.name!r} already exists in {self.name!r}"
                )
            self._log_define(relation, replace=False)
        super().add_relation(relation)

    def replace_relation(self, relation: Relation) -> None:
        if not self._replaying:
            self._log_define(relation, replace=True)
        super().replace_relation(relation)

    # -- snapshot / recovery -------------------------------------------- #
    def _snapshot_contents(self):
        records, fragments = [], []
        for relation_name in self.relation_names():
            relation = self.relation(relation_name)
            records.append(
                RelationRecord(relation_name, relation.schema.attributes, "single")
            )
            fragments.append(
                (
                    relation_name,
                    GLOBAL_FRAGMENT,
                    relation.sorted_rows(),
                    relation.schema.arity,
                )
            )
        return records, fragments

    def _snapshot_tries(self):
        return [(trie, None) for trie in self.cached_tries()]

    def _recover(self) -> None:
        for record in self._store.load_relations():
            rows = self._store.load_fragment(record.name, GLOBAL_FRAGMENT)
            super().add_relation(
                Relation.from_sorted_rows(record.name, Schema(record.attributes), rows)
            )
        if self._use_segments:
            for entry in self._segments.entries():
                if entry.relation in self and entry.shard is None:
                    self.adopt_trie(
                        read_trie_segment(entry.path, use_mmap=self._use_mmap)
                    )
        for wal_record in self._wal.replay():
            self._apply_wal(wal_record)

    def _apply_wal(self, record: WalRecord) -> None:
        rows = self._wal_rows(record)
        if record.kind == "insert":
            self.insert_into(record.relation, rows)
        elif record.kind == "define":
            relation = Relation(
                record.relation, Schema(tuple(record.data["attributes"])), rows
            )
            # Replace when present: replay must be idempotent so a crash
            # between the snapshot commit and the WAL truncate still
            # recovers (the record's effect is already in the snapshot).
            if record.relation in self:
                super().replace_relation(relation)
            else:
                super().add_relation(relation)
        else:
            raise StoreFormatError(
                f"mutation log record {record.seq} has unknown kind {record.kind!r}"
            )


class DurableShardedDatabase(_DurableState, ShardedDatabase):
    """A :class:`ShardedDatabase` whose state survives the process.

    Persists the global copy *and* every per-shard fragment, together with
    each partitioned relation's fitted partitioner — recovery restores
    routing exactly (range boundaries are never refit), so post-recovery
    inserts land on the same shards they would have originally.
    """

    catalog_kind = "sharded"

    def __init__(
        self,
        storage_dir: str,
        name: str = "durable",
        num_shards: int = 2,
        partitioner: str = "hash",
        shard_attributes=None,
        replicate_threshold: int = 0,
        use_mmap: bool = True,
        use_segments: bool = True,
    ):
        if not isinstance(partitioner, str):
            raise StorageError(
                "a durable sharded catalog needs a named partitioner "
                "('hash' or 'range'); custom factories cannot be persisted"
            )
        self._replaying = True
        super().__init__(
            name=name,
            num_shards=num_shards,
            partitioner=partitioner,
            shard_attributes=shard_attributes,
            replicate_threshold=replicate_threshold,
        )
        self._init_storage(storage_dir, use_mmap, use_segments)
        try:
            existing = self._stamp_or_check_meta(
                {
                    "num_shards": str(num_shards),
                    "partitioner_kind": partitioner,
                    "replicate_threshold": str(replicate_threshold),
                    "shard_attributes": json.dumps(
                        dict(shard_attributes or {}), sort_keys=True
                    ),
                }
            )
            if existing:
                stored_shards = int(self._store.get_meta("num_shards", "0"))
                if stored_shards != num_shards:
                    raise StoreFormatError(
                        f"store {storage_dir} was created with "
                        f"{stored_shards} shard(s), not {num_shards}"
                    )
                self.name = self._store.get_meta("catalog_name", name)
                self._recover()
        finally:
            self._replaying = False

    # -- write-ahead overrides ------------------------------------------ #
    def add_relation(self, relation: Relation, replicate: Optional[bool] = None) -> None:
        resolved = (
            replicate
            if replicate is not None
            else relation.cardinality <= self.replicate_threshold
        )
        if not self._replaying:
            if relation.name in self._global:
                raise KeyError(
                    f"relation {relation.name!r} already exists in {self.name!r}"
                )
            self._log_define(relation, replace=False, replicate=resolved)
        super().add_relation(relation, replicate=resolved)

    def replace_relation(self, relation: Relation, replicate: Optional[bool] = None) -> None:
        resolved = (
            replicate
            if replicate is not None
            else relation.cardinality <= self.replicate_threshold
        )
        if not self._replaying:
            self._log_define(relation, replace=True, replicate=resolved)
        super().replace_relation(relation, replicate=resolved)

    # -- snapshot / recovery -------------------------------------------- #
    def _snapshot_contents(self):
        """Global + per-shard fragments and each relation's partitioner."""
        records, fragments = [], []
        for relation_name in self.relation_names():
            relation = self.relation(relation_name)
            arity = relation.schema.arity
            fragments.append(
                (relation_name, GLOBAL_FRAGMENT, relation.sorted_rows(), arity)
            )
            if self.is_replicated(relation_name):
                records.append(
                    RelationRecord(
                        relation_name, relation.schema.attributes, "replicated"
                    )
                )
                continue
            records.append(
                RelationRecord(
                    relation_name,
                    relation.schema.attributes,
                    "partitioned",
                    shard_attribute=self.shard_attribute(relation_name),
                    partitioner=describe_partitioner(
                        self.partitioner_for(relation_name)
                    ),
                )
            )
            for shard in range(self.num_shards):
                fragments.append(
                    (
                        relation_name,
                        shard,
                        self.shard_databases[shard]
                        .relation(relation_name)
                        .sorted_rows(),
                        arity,
                    )
                )
        return records, fragments

    def _snapshot_tries(self):
        tries = [(trie, None) for trie in self.global_database.cached_tries()]
        for shard, shard_db in enumerate(self.shard_databases):
            tries.extend((trie, shard) for trie in shard_db.cached_tries())
        return tries

    def _recover(self) -> None:
        for record in self._store.load_relations():
            schema = Schema(record.attributes)
            rows = self._store.load_fragment(record.name, GLOBAL_FRAGMENT)
            relation = Relation.from_sorted_rows(record.name, schema, rows)
            if record.placement == "replicated":
                self.adopt_replicated_relation(relation)
                continue
            if record.placement != "partitioned":
                raise StoreFormatError(
                    f"relation {record.name!r} has placement "
                    f"{record.placement!r}, which a sharded catalog cannot hold"
                )
            shard_fragments = [
                Relation.from_sorted_rows(
                    record.name, schema, self._store.load_fragment(record.name, shard)
                )
                for shard in range(self.num_shards)
            ]
            self.adopt_partitioned_relation(
                relation,
                shard_fragments,
                restore_partitioner(record.partitioner or {}),
                schema.index_of(record.shard_attribute),
            )
        if self._use_segments:
            for entry in self._segments.entries():
                if entry.relation not in self:
                    continue
                if entry.shard is None:
                    self.global_database.adopt_trie(
                        read_trie_segment(entry.path, use_mmap=self._use_mmap)
                    )
                elif 0 <= entry.shard < self.num_shards:
                    shard_db = self.shard_databases[entry.shard]
                    if entry.relation in shard_db:
                        shard_db.adopt_trie(
                            read_trie_segment(entry.path, use_mmap=self._use_mmap)
                        )
        for wal_record in self._wal.replay():
            self._apply_wal(wal_record)

    def _apply_wal(self, record: WalRecord) -> None:
        rows = self._wal_rows(record)
        if record.kind == "insert":
            self.insert_into(record.relation, rows)
        elif record.kind == "define":
            relation = Relation(
                record.relation, Schema(tuple(record.data["attributes"])), rows
            )
            replicate = record.data.get("replicate")
            # Idempotent replay: see DurableDatabase._apply_wal.
            if record.relation in self:
                super().replace_relation(relation, replicate=replicate)
            else:
                super().add_relation(relation, replicate=replicate)
        else:
            raise StoreFormatError(
                f"mutation log record {record.seq} has unknown kind {record.kind!r}"
            )

    def info(self) -> Dict:
        summary = super().info()
        summary["num_shards"] = self.num_shards
        summary["partitioner"] = self._store.get_meta("partitioner_kind", "hash")
        return summary


# --------------------------------------------------------------------------- #
# Store-level helpers
# --------------------------------------------------------------------------- #
def store_exists(storage_dir: str) -> bool:
    """Whether ``storage_dir`` already holds a durable store."""
    return os.path.exists(os.path.join(storage_dir, CATALOG_FILENAME))


def store_info(storage_dir: str) -> Dict:
    """Cheap store summary without recovering the catalog into memory."""
    if not store_exists(storage_dir):
        raise StorageError(f"no durable store at {storage_dir}")
    with SQLiteStore(os.path.join(storage_dir, CATALOG_FILENAME)) as store:
        meta = store.all_meta()
        snapshot_rows = store.total_rows()
        relations = len(store.load_relations())
    wal = MutationLog(os.path.join(storage_dir, WAL_FILENAME))
    try:
        wal_records = wal.record_count()
        wal_bytes = wal.size_bytes()
    finally:
        wal.close()
    segments = TrieSegmentStore(os.path.join(storage_dir, SEGMENTS_DIRNAME)).entries()
    summary = {
        "storage_dir": storage_dir,
        "kind": meta.get("catalog_kind", "single"),
        "name": meta.get("catalog_name", "durable"),
        "format_version": int(meta.get("format_version", STORE_FORMAT_VERSION)),
        "snapshot_seq": int(meta.get("snapshot_seq", "0")),
        "relations": relations,
        "snapshot_rows": snapshot_rows,
        "wal_records": wal_records,
        "wal_bytes": wal_bytes,
        "segments": len(segments),
        "segment_bytes": sum(entry.file_bytes for entry in segments),
    }
    if summary["kind"] == "sharded":
        summary["num_shards"] = int(meta.get("num_shards", "0"))
        summary["partitioner"] = meta.get("partitioner_kind", "hash")
    return summary


def open_store(
    storage_dir: str,
    name: Optional[str] = None,
    num_shards: Optional[int] = None,
    partitioner: str = "hash",
    shard_attributes=None,
    replicate_threshold: int = 0,
    use_mmap: bool = True,
    use_segments: bool = True,
) -> Union[DurableDatabase, DurableShardedDatabase]:
    """Open (recovering) or initialise the durable store at ``storage_dir``.

    ``num_shards=None`` means "whatever shape the store has" (a fresh store
    becomes monolithic); an integer — including 1 — requests a sharded
    catalog and must match an existing store's shard count.
    """
    if store_exists(storage_dir):
        with SQLiteStore(os.path.join(storage_dir, CATALOG_FILENAME)) as store:
            meta = store.all_meta()
        kind = meta.get("catalog_kind", "single")
        if kind == "sharded":
            stored_shards = int(meta.get("num_shards", "2"))
            if num_shards is not None and num_shards != stored_shards:
                raise StoreFormatError(
                    f"store {storage_dir} was created with {stored_shards} "
                    f"shard(s), not {num_shards}"
                )
            stored_attributes = json.loads(meta.get("shard_attributes", "{}"))
            return DurableShardedDatabase(
                storage_dir,
                name=meta.get("catalog_name", name or "durable"),
                num_shards=stored_shards,
                partitioner=meta.get("partitioner_kind", "hash"),
                shard_attributes=stored_attributes or None,
                replicate_threshold=int(meta.get("replicate_threshold", "0")),
                use_mmap=use_mmap,
                use_segments=use_segments,
            )
        if num_shards is not None:
            raise StoreFormatError(
                f"store {storage_dir} holds a monolithic catalog; it cannot "
                f"be opened with num_shards={num_shards}"
            )
        return DurableDatabase(
            storage_dir,
            name=meta.get("catalog_name", name or "durable"),
            use_mmap=use_mmap,
            use_segments=use_segments,
        )
    if num_shards is not None:
        return DurableShardedDatabase(
            storage_dir,
            name=name or "durable",
            num_shards=num_shards,
            partitioner=partitioner,
            shard_attributes=shard_attributes,
            replicate_threshold=replicate_threshold,
            use_mmap=use_mmap,
            use_segments=use_segments,
        )
    return DurableDatabase(
        storage_dir,
        name=name or "durable",
        use_mmap=use_mmap,
        use_segments=use_segments,
    )


__all__ = [
    "CATALOG_FILENAME",
    "DurableDatabase",
    "DurableShardedDatabase",
    "SEGMENTS_DIRNAME",
    "WAL_FILENAME",
    "describe_partitioner",
    "open_store",
    "restore_partitioner",
    "store_exists",
    "store_info",
]
