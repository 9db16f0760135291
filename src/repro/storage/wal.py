"""The mutation write-ahead log.

Every catalog mutation (an ``insert_into`` batch, a relation (re)definition)
is appended here *before* it is applied in memory, so the store's durable
state is always ``snapshot + log``: a crash between snapshots replays the
log over the last snapshot and loses nothing.  The log records carry the
actual rows — a :class:`~repro.relational.catalog.MutationEvent` only counts
changed rows, which identifies *what* to invalidate but not *how* to redo
the mutation — and replay feeds them back through the catalog's normal
mutation entry points, so shard routing, trie invalidation and listener
notification behave exactly as they did the first time.

Format: one record per line, ``crc32(payload):08x`` + space + compact JSON
payload, terminated by ``\\n``.  The checksum-per-line framing makes the two
failure modes distinguishable:

* a **torn tail** — the process died mid-append, so the final line has no
  newline or fails its checksum.  Expected; replay drops it.  (The in-memory
  mutation it described was never applied either: records are fsynced before
  the catalog mutates, so a torn record means the mutation never happened.)
  The first :meth:`MutationLog.append` after a scan that dropped a tail
  truncates the file back to the end of its last intact record first —
  appending straight after the torn bytes would fuse the new, acknowledged
  record with the garbage and lose it (or worse, bury the damage mid-log).
* **corruption before the final record** — bytes were damaged after being
  durably written.  Replay must not guess past the damage, so this raises
  :class:`~repro.storage.errors.WalCorruptionError`.
"""

from __future__ import annotations

import io
import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.storage.errors import WalCorruptionError


@dataclass(frozen=True)
class WalRecord:
    """One durable mutation.

    ``kind`` is ``"insert"`` or ``"define"``; ``data`` carries the payload
    needed to re-apply it (rows always; attributes and ``replace`` for defines).
    """

    seq: int
    kind: str
    relation: str
    data: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        body = {"seq": self.seq, "kind": self.kind, "relation": self.relation}
        body.update(self.data)
        return json.dumps(body, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, payload: str) -> "WalRecord":
        body = json.loads(payload)
        seq = body.pop("seq")
        kind = body.pop("kind")
        relation = body.pop("relation")
        return cls(seq=seq, kind=kind, relation=relation, data=body)


class MutationLog:
    """Append-only, checksummed, fsynced mutation log at ``path``.

    The log file is held open for appending; :meth:`append` is durable when
    it returns (``flush`` + ``fsync``).  :meth:`reset` truncates after a
    successful snapshot.  :meth:`replay` reads the file fresh, so
    a log can be replayed by a different process than the one that wrote it.
    """

    def __init__(self, path: str):
        self.path = path
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self._handle: Optional[io.TextIOWrapper] = None
        #: Byte offset where the last scan found a torn tail (``None``: none).
        self._torn_at: Optional[int] = None
        records = self.replay()
        self._next_seq = records[-1].seq + 1 if records else 0

    def _open_for_append(self) -> io.TextIOWrapper:
        if self._handle is None or self._handle.closed:
            self._handle = open(self.path, "a", encoding="utf-8", newline="\n")
        return self._handle

    @property
    def next_seq(self) -> int:
        """Sequence number the next appended record will get."""
        return self._next_seq

    def append(self, kind: str, relation: str, **data: Any) -> WalRecord:
        """Durably append one record; returns it once it is on disk."""
        record = WalRecord(seq=self._next_seq, kind=kind, relation=relation, data=data)
        payload = record.to_json()
        line = f"{zlib.crc32(payload.encode('utf-8')):08x} {payload}\n"
        if self._torn_at is not None:
            self._drop_torn_tail()
        handle = self._open_for_append()
        handle.write(line)
        handle.flush()
        os.fsync(handle.fileno())
        self._next_seq += 1
        return record

    def _drop_torn_tail(self) -> None:
        """Cut the file back to its last intact record (durably)."""
        self.close()
        with open(self.path, "r+b") as handle:
            handle.truncate(self._torn_at)
            handle.flush()
            os.fsync(handle.fileno())
        self._torn_at = None

    def replay(self) -> List[WalRecord]:
        """Every intact record in append order, read fresh from the file.

        A damaged *final* line (torn append) is silently dropped — and
        remembered, so the next :meth:`append` truncates it away first;
        damage anywhere earlier raises :class:`WalCorruptionError`.
        """
        self._torn_at = None
        if not os.path.exists(self.path):
            return []
        with open(self.path, "rb") as handle:
            data = handle.read()
        lines = data.split(b"\n")
        # Every completed append ends with "\n", so the final split element
        # is empty; anything else is an unterminated (torn) final line.
        unterminated = lines[-1] != b""
        if not unterminated:
            lines.pop()
        records: List[WalRecord] = []
        intact_bytes = 0
        for index, line in enumerate(lines):
            record = self._decode(line.decode("utf-8", errors="replace"))
            is_last = index == len(lines) - 1
            if is_last and (record is None or unterminated):
                self._torn_at = intact_bytes  # the crash interrupted this append
                break
            if record is None:
                raise WalCorruptionError(
                    f"mutation log {self.path}: record {index} is damaged but "
                    f"{len(lines) - 1 - index} intact record(s) follow — the "
                    "log was corrupted after being written; refusing to "
                    "replay past the damage"
                )
            records.append(record)
            intact_bytes += len(line) + 1
        return records

    @staticmethod
    def _decode(line: str) -> Optional[WalRecord]:
        if len(line) < 10 or line[8] != " ":
            return None
        checksum, payload = line[:8], line[9:]
        try:
            if int(checksum, 16) != zlib.crc32(payload.encode("utf-8")):
                return None
            return WalRecord.from_json(payload)
        except (ValueError, KeyError, TypeError):
            return None

    def record_count(self) -> int:
        """Number of intact records currently in the log."""
        return len(self.replay())

    def size_bytes(self) -> int:
        return os.path.getsize(self.path) if os.path.exists(self.path) else 0

    def reset(self) -> None:
        """Truncate the log (called after its contents reach a snapshot)."""
        self.close()
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.flush()
            os.fsync(handle.fileno())
        self._next_seq = 0
        self._torn_at = None

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
        self._handle = None

    def __enter__(self) -> "MutationLog":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


__all__ = ["MutationLog", "WalRecord"]
