"""Binary trie segments: persist ``TrieIndex`` arrays, reload via ``mmap``.

A *segment* is one trie — the flat EmptyHeaded layout of one
(relation, attribute permutation, shard) triple — serialized as a single
file.  The payload is every level packed into the one word format of
:mod:`repro.storage.words` (one 64-bit little-endian word per element; a
trie holds nothing else): the bytes are the same whether a level is a
built ``list`` of ints, an ``array('q')`` or a word ``memoryview``.
Reloading is a file map plus a couple of ``memoryview.cast("q")`` calls
instead of the O(n log n) sort-and-scan rebuild
:class:`~repro.relational.trie.TrieIndex` performs from rows.

File layout (all integers little-endian)::

    0   magic           8s   b"REPROTRI"
    8   version         u32  SEGMENT_FORMAT_VERSION
    12  flags           u32  zero (a set bit is rejected)
    16  arity           u32  number of trie levels
    20  (reserved)      u32  zero
    24  num_tuples      u64  root-to-leaf paths
    32  meta_len        u64  length of the JSON meta block
    40  payload_len     u64  length of the payload
    48  meta_crc        u32  zlib.crc32 of the meta block
    52  payload_crc     u32  zlib.crc32 of the payload
    56  meta            meta_len bytes of JSON (relation, order, sizes, shard)
    .   padding         to the next 8-byte boundary
    .   payload         payload_len bytes

The header, the meta block and the file length are always validated on load
(truncation and header corruption fail fast with
:class:`~repro.storage.errors.SegmentFormatError`); the payload checksum is
verified only when ``validate=True``, because checksumming the payload would
force the whole mapping into memory and defeat the point of ``mmap``.

Writes are atomic (temp file + ``os.replace``), so a crash mid-write never
leaves a half-segment under a valid name.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass
from mmap import ACCESS_READ, mmap
from typing import Dict, List, Optional, Sequence, Tuple

from repro.relational.trie import TrieIndex
from repro.storage.errors import SegmentFormatError
from repro.storage.words import NATIVE_WORDS, WORD_BYTES, pack_words, unpack_words

#: Magic bytes every segment file starts with.
SEGMENT_MAGIC = b"REPROTRI"

#: Bump on any incompatible change to the header or payload layout.
SEGMENT_FORMAT_VERSION = 1

_HEADER = struct.Struct("<8sIIIIQQQII")
HEADER_SIZE = _HEADER.size


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


@dataclass(frozen=True)
class SegmentInfo:
    """What one segment file stores (decoded from its header + meta block)."""

    path: str
    relation: str
    attribute_order: Tuple[str, ...]
    shard: Optional[int]
    num_tuples: int
    file_bytes: int


def encode_trie_segment(trie: TrieIndex, shard: Optional[int] = None) -> bytes:
    """Serialize ``trie`` to the segment byte layout (header+meta+payload).

    This is the in-memory form of :func:`write_trie_segment`: the returned
    bytes are exactly what that function writes to disk, so the same layout
    serves files, ``mmap`` reloads and ``multiprocessing.shared_memory``
    exports (see :mod:`repro.service.shm`).
    """
    arity = trie.num_levels
    levels = [trie.level_values(level) for level in range(arity)]
    offsets = [trie.child_offsets(level) for level in range(max(arity - 1, 0))]
    meta = {
        "relation": trie.relation_name,
        "order": list(trie.attribute_order),
        "level_sizes": [len(level) for level in levels],
        "offset_sizes": [len(level) for level in offsets],
        "shard": shard,
    }
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = b"".join(pack_words(level) for level in levels + offsets)
    header = _HEADER.pack(
        SEGMENT_MAGIC,
        SEGMENT_FORMAT_VERSION,
        0,  # flags
        arity,
        0,
        trie.num_tuples,
        len(meta_bytes),
        len(payload),
        zlib.crc32(meta_bytes),
        zlib.crc32(payload),
    )
    padding = b"\0" * (_align8(HEADER_SIZE + len(meta_bytes)) - HEADER_SIZE - len(meta_bytes))
    return b"".join((header, meta_bytes, padding, payload))


def write_trie_segment(path: str, trie: TrieIndex, shard: Optional[int] = None) -> int:
    """Serialize ``trie`` to ``path`` atomically; returns the bytes written.

    ``shard`` tags which catalog fragment the trie indexes (``None`` for a
    monolithic/global trie); it is stored in the meta block so a segment
    directory can be re-attributed without trusting file names.
    """
    blob = encode_trie_segment(trie, shard=shard)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".", prefix=".segment-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return len(blob)


def _read_header(path: str, raw: bytes, file_size: int) -> Tuple[Dict, int, int, int, int]:
    """Decode + validate a segment header; returns meta and payload geometry."""
    if len(raw) < HEADER_SIZE:
        raise SegmentFormatError(
            f"segment {path}: file is {file_size} bytes, smaller than the "
            f"{HEADER_SIZE}-byte header — truncated or not a segment"
        )
    (
        magic,
        version,
        flags,
        arity,
        _reserved,
        num_tuples,
        meta_len,
        payload_len,
        meta_crc,
        payload_crc,
    ) = _HEADER.unpack_from(raw)
    if magic != SEGMENT_MAGIC:
        raise SegmentFormatError(
            f"segment {path}: bad magic {magic!r} (expected {SEGMENT_MAGIC!r}) "
            "— not a trie segment file"
        )
    if version != SEGMENT_FORMAT_VERSION:
        raise SegmentFormatError(
            f"segment {path}: format version {version} is not supported "
            f"(this build reads version {SEGMENT_FORMAT_VERSION})"
        )
    if flags:
        raise SegmentFormatError(
            f"segment {path}: header flags {flags:#x} are not supported (this "
            "build reads only the 64-bit word payload) — rebuild the segment"
        )
    payload_start = _align8(HEADER_SIZE + meta_len)
    expected_size = payload_start + payload_len
    if file_size != expected_size:
        raise SegmentFormatError(
            f"segment {path}: file is {file_size} bytes but the header "
            f"declares {expected_size} — truncated or corrupt"
        )
    meta_bytes = raw[HEADER_SIZE : HEADER_SIZE + meta_len]
    if len(meta_bytes) != meta_len or zlib.crc32(meta_bytes) != meta_crc:
        raise SegmentFormatError(
            f"segment {path}: meta block checksum mismatch — header corrupt"
        )
    try:
        meta = json.loads(meta_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SegmentFormatError(
            f"segment {path}: meta block is not valid JSON ({error})"
        ) from None
    sizes_words = sum(meta["level_sizes"]) + sum(meta["offset_sizes"])
    if payload_len != sizes_words * WORD_BYTES:
        raise SegmentFormatError(
            f"segment {path}: payload is {payload_len} bytes but the meta "
            f"block declares {sizes_words} words — corrupt"
        )
    if len(meta["level_sizes"]) != arity:
        raise SegmentFormatError(
            f"segment {path}: meta declares {len(meta['level_sizes'])} levels "
            f"but the header arity is {arity}"
        )
    return meta, num_tuples, payload_start, payload_len, payload_crc


def read_segment_info(path: str) -> SegmentInfo:
    """Decode a segment's identity (header + meta only, payload untouched)."""
    file_size = os.path.getsize(path)
    with open(path, "rb") as handle:
        raw = handle.read(_align8(HEADER_SIZE + 4096))
    if len(raw) >= HEADER_SIZE:
        meta_len = _HEADER.unpack_from(raw)[6]
        if HEADER_SIZE + meta_len > len(raw):  # unusually large meta block
            with open(path, "rb") as handle:
                raw = handle.read(_align8(HEADER_SIZE + meta_len))
    meta, num_tuples, _start, _len, _crc = _read_header(path, raw, file_size)
    return SegmentInfo(
        path=path,
        relation=meta["relation"],
        attribute_order=tuple(meta["order"]),
        shard=meta["shard"],
        num_tuples=num_tuples,
        file_bytes=file_size,
    )


def decode_trie_segment(
    buffer,
    source: str = "<memory>",
    zero_copy: bool = True,
    validate: bool = False,
    exact_size: bool = True,
) -> TrieIndex:
    """Decode a segment byte buffer into a ready :class:`TrieIndex`.

    ``buffer`` is anything exposing the buffer protocol holding the layout
    :func:`encode_trie_segment` produces — an ``mmap`` view, a shared-memory
    block, plain ``bytes``.  ``zero_copy`` (the default) exposes each level
    as a ``memoryview`` cast to 64-bit words referencing ``buffer`` directly
    (the buffer must then outlive the trie); ``zero_copy=False`` copies into
    fresh ``array('q')`` storage.  ``exact_size=False`` tolerates trailing
    slack beyond the declared segment length — shared-memory blocks are
    page-rounded, so attachers pass the whole block.  ``source`` names the
    buffer in error messages.
    """
    view = buffer if isinstance(buffer, memoryview) else memoryview(buffer)
    total = view.nbytes
    head = bytes(view[: min(total, _align8(HEADER_SIZE + 4096))])
    if len(head) >= HEADER_SIZE and head[:8] == SEGMENT_MAGIC:
        fields = _HEADER.unpack_from(head)
        meta_len, payload_len = fields[6], fields[7]
        if HEADER_SIZE + meta_len > len(head):  # unusually large meta block
            head = bytes(view[: min(total, _align8(HEADER_SIZE + meta_len))])
        if not exact_size:
            declared = _align8(HEADER_SIZE + meta_len) + payload_len
            if declared <= total:
                total = declared
    meta, num_tuples, payload_start, payload_len, payload_crc = _read_header(
        source, head, total
    )
    payload = view[payload_start : payload_start + payload_len]
    if validate and zlib.crc32(payload) != payload_crc:
        raise SegmentFormatError(
            f"segment {source}: payload checksum mismatch — data corrupt"
        )

    values, offsets = [], []
    cursor = 0
    for size in meta["level_sizes"] + meta["offset_sizes"]:
        chunk = payload[cursor : cursor + size * WORD_BYTES]
        cursor += size * WORD_BYTES
        level: Sequence[int] = (
            chunk.cast("q") if zero_copy and NATIVE_WORDS else unpack_words(chunk)
        )
        (values if len(values) < len(meta["level_sizes"]) else offsets).append(level)

    return TrieIndex.from_flat(
        meta["relation"],
        meta["order"],
        values,
        offsets,
        num_tuples,
        validate=validate,
    )


def read_trie_segment(
    path: str, use_mmap: bool = True, validate: bool = False
) -> TrieIndex:
    """Reload a persisted trie; returns a ready :class:`TrieIndex`.

    ``use_mmap`` (the default) maps the payload and exposes each level as a
    zero-copy ``memoryview`` cast to 64-bit words — cold start touches no
    tuple data.  ``use_mmap=False`` copies into fresh ``array('q')`` storage
    (useful when the file will be deleted while the trie lives on).
    ``validate`` additionally checks the payload checksum and the trie's
    structural invariants — O(n), intended for ``repro store recover`` style
    integrity passes, not the hot open path.
    """
    file_size = os.path.getsize(path)
    with open(path, "rb") as handle:
        if use_mmap and file_size > 0:
            mapped = mmap(handle.fileno(), 0, access=ACCESS_READ)
            raw = memoryview(mapped)
        else:
            raw = handle.read()
    return decode_trie_segment(
        raw, source=path, zero_copy=use_mmap, validate=validate
    )


# --------------------------------------------------------------------------- #
# Directory of segments
# --------------------------------------------------------------------------- #
def _safe_tag(text: str) -> str:
    cleaned = "".join(c if c.isalnum() or c in "_-" else "_" for c in text)
    return f"{cleaned[:40]}-{zlib.crc32(text.encode('utf-8')):08x}"


class TrieSegmentStore:
    """A directory of trie segments keyed by (relation, permutation, shard).

    File names are derived (sanitized + checksummed) from the key, but the
    authoritative identity of every segment lives in its meta block —
    :meth:`entries` re-reads headers, so a segment directory survives being
    copied or renamed wholesale.
    """

    def __init__(self, root: str):
        self.root = root

    def path_for(
        self, relation: str, attribute_order: Sequence[str], shard: Optional[int] = None
    ) -> str:
        shard_tag = "g" if shard is None else f"s{shard}"
        order_tag = _safe_tag("_".join(attribute_order))
        return os.path.join(
            self.root, _safe_tag(relation), f"{shard_tag}.{order_tag}.trie"
        )

    def save(self, trie: TrieIndex, shard: Optional[int] = None) -> str:
        """Persist ``trie``; returns the segment path."""
        path = self.path_for(trie.relation_name, trie.attribute_order, shard)
        write_trie_segment(path, trie, shard=shard)
        return path

    def has(
        self, relation: str, attribute_order: Sequence[str], shard: Optional[int] = None
    ) -> bool:
        return os.path.exists(self.path_for(relation, attribute_order, shard))

    def load(
        self,
        relation: str,
        attribute_order: Sequence[str],
        shard: Optional[int] = None,
        use_mmap: bool = True,
        validate: bool = False,
    ) -> TrieIndex:
        return read_trie_segment(
            self.path_for(relation, attribute_order, shard),
            use_mmap=use_mmap,
            validate=validate,
        )

    def entries(self) -> List[SegmentInfo]:
        """Every segment in the store, identified by its own header."""
        found: List[SegmentInfo] = []
        if not os.path.isdir(self.root):
            return found
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for filename in sorted(filenames):
                if filename.endswith(".trie"):
                    found.append(read_segment_info(os.path.join(dirpath, filename)))
        found.sort(key=lambda info: (info.relation, info.shard is not None, info.shard or 0, info.attribute_order))
        return found

    def discard_relation(self, relation: str) -> int:
        """Delete every segment of ``relation``; returns how many were removed."""
        directory = os.path.join(self.root, _safe_tag(relation))
        removed = 0
        if os.path.isdir(directory):
            for filename in os.listdir(directory):
                if filename.endswith(".trie"):
                    os.unlink(os.path.join(directory, filename))
                    removed += 1
            try:
                os.rmdir(directory)
            except OSError:
                pass
        return removed

    def total_bytes(self) -> int:
        return sum(info.file_bytes for info in self.entries())


__all__ = [
    "HEADER_SIZE",
    "SEGMENT_FORMAT_VERSION",
    "SEGMENT_MAGIC",
    "SegmentInfo",
    "TrieSegmentStore",
    "decode_trie_segment",
    "encode_trie_segment",
    "read_segment_info",
    "read_trie_segment",
    "write_trie_segment",
]
