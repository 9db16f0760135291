"""repro.storage — the durable tier: catalog snapshots, a mutation WAL,
and mmap'd trie segments for instant cold start.

Durability is one layer, :class:`DurableCatalog`, over any in-memory
catalog::

    DurableCatalog → {Database | ShardedDatabase} → Database units

Every mutation goes **validate → log → apply**: the wrapped catalog checks
it without touching state, the record is fsynced to the WAL, then the
mutation is applied — so a rejected mutation is never
logged and a logged one always replays.  A torn final WAL record (a crash
mid-append) is dropped on replay and truncated away before the next append.
Layout of a store directory and the recovery contract are documented in
:mod:`repro.storage.durable`; the usual entry point is::

    from repro.storage import open_store

    db = open_store("var/store", num_shards=2)
    ...
    db.snapshot()   # fold the WAL into the snapshot + persist cached tries
    db.close()

A recovered store is *equivalent* to a freshly built in-memory catalog:
byte-identical query results, JoinStats and cache behaviour (the recovery
equivalence suite in ``tests/test_storage_recovery.py`` is the gate).
"""

from repro.storage.durable import (
    DurableCatalog,
    open_store,
    store_exists,
    store_info,
)
from repro.storage.errors import (
    SegmentFormatError,
    StorageError,
    StoreFormatError,
    WalCorruptionError,
)
from repro.storage.segments import (
    SEGMENT_FORMAT_VERSION,
    SegmentInfo,
    TrieSegmentStore,
    decode_trie_segment,
    encode_trie_segment,
    read_segment_info,
    read_trie_segment,
    write_trie_segment,
)
from repro.storage.sqlite_store import (
    GLOBAL_FRAGMENT,
    STORE_FORMAT_VERSION,
    RelationRecord,
    SQLiteStore,
)
from repro.storage.wal import MutationLog, WalRecord

__all__ = [
    "GLOBAL_FRAGMENT",
    "SEGMENT_FORMAT_VERSION",
    "STORE_FORMAT_VERSION",
    "DurableCatalog",
    "MutationLog",
    "RelationRecord",
    "SQLiteStore",
    "SegmentFormatError",
    "SegmentInfo",
    "StorageError",
    "StoreFormatError",
    "TrieSegmentStore",
    "WalCorruptionError",
    "WalRecord",
    "decode_trie_segment",
    "encode_trie_segment",
    "open_store",
    "read_segment_info",
    "read_trie_segment",
    "store_exists",
    "store_info",
    "write_trie_segment",
]
