"""SQLite-backed catalog snapshots.

:class:`SQLiteStore` persists the *snapshot* half of a durable store: the
relation catalog (names, schemas, placements, partitioner records) and every
fragment's rows.  Rows are packed per fragment into a single blob: the
sorted rows flattened into the one word format of :mod:`repro.storage.words`
(little-endian signed 64-bit words, the only values a relation holds),
stamped ``encoding='q'``.  A fragment loads as one ``memcpy`` into
``array('q')`` plus a C-speed zip into tuples instead of a Python-level loop
per row.

The store is deliberately dumb: it neither knows about tries (segments.py)
nor about pending mutations (wal.py).  ``durable.py`` composes the three.
"""

from __future__ import annotations

import json
import os
import sqlite3
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.storage.errors import StoreFormatError
from repro.storage.words import pack_words, unpack_words

#: Bump on any incompatible change to the SQLite schema or blob encodings.
STORE_FORMAT_VERSION = 1

#: Fragment id used for a whole (unsharded) copy of a relation.
GLOBAL_FRAGMENT = -1

_SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "schema.sql")

Row = Tuple[int, ...]


def pack_rows(rows: Sequence[Row]) -> Tuple[str, bytes]:
    """Encode rows as ``(encoding, blob)``: ``'q'``, the rows' words in order."""
    return "q", pack_words(chain.from_iterable(rows))


def unpack_rows(encoding: str, blob: bytes, arity: int, count: int) -> List[Row]:
    """Decode a fragment blob back into a list of int tuples."""
    if encoding != "q":
        raise StoreFormatError(f"unknown fragment encoding {encoding!r}")
    flat = unpack_words(blob)
    if len(flat) != arity * count:
        raise StoreFormatError(
            f"fragment blob holds {len(flat)} words, expected "
            f"{arity}x{count} — snapshot corrupt"
        )
    it = iter(flat)
    return list(zip(*([it] * arity))) if arity else []


@dataclass(frozen=True)
class RelationRecord:
    """One catalog entry as persisted in the ``relations`` table."""

    name: str
    attributes: Tuple[str, ...]
    placement: str  # 'single' (monolithic) | 'partitioned' (sharded, on the first attribute)
    shard_attribute: Optional[str] = None
    partitioner: Optional[Dict] = None  # {'kind': 'hash', 'num_shards': N}; partitioned only


class SQLiteStore:
    """The catalog/fragment snapshot behind one ``catalog.sqlite`` file."""

    def __init__(self, path: str):
        self.path = path
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self._conn = sqlite3.connect(path)
        # Durability is handled explicitly (one transaction per snapshot);
        # WAL-mode journaling keeps a crashed snapshot from corrupting the
        # previous one.
        self._conn.execute("PRAGMA journal_mode=WAL")
        with open(_SCHEMA_PATH, "r", encoding="utf-8") as schema:
            self._conn.executescript(schema.read())
        self._conn.commit()
        self._check_format_version()

    def _check_format_version(self) -> None:
        stored = self.get_meta("format_version")
        if stored is None:
            self.set_meta("format_version", str(STORE_FORMAT_VERSION))
        elif int(stored) != STORE_FORMAT_VERSION:
            raise StoreFormatError(
                f"store {self.path}: format version {stored} is not supported "
                f"(this build reads version {STORE_FORMAT_VERSION})"
            )

    # ------------------------------------------------------------------ #
    # Meta
    # ------------------------------------------------------------------ #
    def get_meta(self, key: str, default: Optional[str] = None) -> Optional[str]:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return default if row is None else row[0]

    def set_meta(self, key: str, value: str) -> None:
        self._conn.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT (key) DO UPDATE SET value = excluded.value",
            (key, value),
        )
        self._conn.commit()

    def all_meta(self) -> Dict[str, str]:
        return dict(self._conn.execute("SELECT key, value FROM meta"))

    # ------------------------------------------------------------------ #
    # Snapshot writes
    # ------------------------------------------------------------------ #
    def write_snapshot(
        self,
        records: Iterable[RelationRecord],
        fragments: Iterable[Tuple[str, int, Sequence[Row], int]],
        meta_updates: Optional[Dict[str, str]] = None,
    ) -> None:
        """Replace the whole snapshot atomically.

        ``fragments`` yields ``(relation, shard, sorted_rows, arity)``
        tuples; ``shard`` is :data:`GLOBAL_FRAGMENT` for whole-relation
        copies.  Everything lands in one transaction, so a crash mid-write
        leaves the previous snapshot intact.
        """
        cursor = self._conn.cursor()
        try:
            cursor.execute("BEGIN IMMEDIATE")
            cursor.execute("DELETE FROM relations")
            cursor.execute("DELETE FROM fragments")
            for record in records:
                cursor.execute(
                    "INSERT INTO relations "
                    "(name, attributes, placement, shard_attribute, partitioner) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (
                        record.name,
                        json.dumps(list(record.attributes)),
                        record.placement,
                        record.shard_attribute,
                        None
                        if record.partitioner is None
                        else json.dumps(record.partitioner, sort_keys=True),
                    ),
                )
            for relation, shard, rows, arity in fragments:
                encoding, blob = pack_rows(rows)
                cursor.execute(
                    "INSERT INTO fragments "
                    "(relation, shard, encoding, arity, count, data) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    (relation, shard, encoding, arity, len(rows), blob),
                )
            for key, value in (meta_updates or {}).items():
                cursor.execute(
                    "INSERT INTO meta (key, value) VALUES (?, ?) "
                    "ON CONFLICT (key) DO UPDATE SET value = excluded.value",
                    (key, value),
                )
            self._conn.commit()
        except BaseException:
            self._conn.rollback()
            raise

    # ------------------------------------------------------------------ #
    # Snapshot reads
    # ------------------------------------------------------------------ #
    def load_relations(self) -> List[RelationRecord]:
        rows = self._conn.execute(
            "SELECT name, attributes, placement, shard_attribute, partitioner "
            "FROM relations ORDER BY name"
        ).fetchall()
        return [
            RelationRecord(
                name=name,
                attributes=tuple(json.loads(attributes)),
                placement=placement,
                shard_attribute=shard_attribute,
                partitioner=None if partitioner is None else json.loads(partitioner),
            )
            for name, attributes, placement, shard_attribute, partitioner in rows
        ]

    def load_fragment(self, relation: str, shard: int) -> List[Row]:
        row = self._conn.execute(
            "SELECT encoding, arity, count, data FROM fragments "
            "WHERE relation = ? AND shard = ?",
            (relation, shard),
        ).fetchone()
        if row is None:
            raise KeyError(f"no fragment ({relation!r}, shard {shard}) in {self.path}")
        encoding, arity, count, blob = row
        return unpack_rows(encoding, blob, arity, count)

    def fragment_shards(self, relation: str) -> List[int]:
        """Shard ids with a stored fragment of ``relation`` (sorted)."""
        return [
            shard
            for (shard,) in self._conn.execute(
                "SELECT shard FROM fragments WHERE relation = ? ORDER BY shard",
                (relation,),
            )
        ]

    def total_rows(self) -> int:
        """Stored row count across whole-relation fragments only."""
        value = self._conn.execute(
            "SELECT COALESCE(SUM(count), 0) FROM fragments WHERE shard = ?",
            (GLOBAL_FRAGMENT,),
        ).fetchone()[0]
        return int(value)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "SQLiteStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


__all__ = [
    "GLOBAL_FRAGMENT",
    "RelationRecord",
    "SQLiteStore",
    "STORE_FORMAT_VERSION",
    "pack_rows",
    "unpack_rows",
]
