"""Trie segment serialization: round trips, mmap adoption, corruption.

The segment format is the cold-start fast path — these tests pin down the
contract :mod:`repro.storage.segments` documents: tries round-trip
bit-exactly through the 64-bit word payload, whose bytes do not depend on
what container backs a level, and every
corruption mode (bad magic, wrong version, a set flag bit, truncation,
damaged meta or payload) fails with a :class:`SegmentFormatError` that names the file and
the problem instead of producing a silently wrong trie.
"""

import json
import os
import struct
import zlib
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import Relation, Schema, TrieIndex
from repro.storage import (
    SegmentFormatError,
    TrieSegmentStore,
    encode_trie_segment,
    read_segment_info,
    read_trie_segment,
    write_trie_segment,
)
from repro.storage.segments import (
    HEADER_SIZE,
    SEGMENT_FORMAT_VERSION,
    SEGMENT_MAGIC,
    decode_trie_segment,
)

#: The on-disk header: magic, version, flags, arity, reserved, tuples,
#: meta length, payload length, meta CRC, payload CRC.
HEADER = struct.Struct("<8sIIIIQQQII")
assert HEADER.size == HEADER_SIZE


def edge_trie(rows, order=None, name="E"):
    relation = Relation(name, Schema(("src", "dst")), rows)
    return TrieIndex(relation, order)


def levels_of(trie):
    """All value and offset levels of a trie, as plain lists."""
    values = [list(trie.level_values(level)) for level in range(trie.num_levels)]
    offsets = [
        list(trie.child_offsets(level)) for level in range(max(trie.num_levels - 1, 0))
    ]
    return values, offsets


def assert_same_trie(reloaded, original):
    assert reloaded.relation_name == original.relation_name
    assert reloaded.attribute_order == original.attribute_order
    assert reloaded.num_tuples == original.num_tuples
    assert levels_of(reloaded) == levels_of(original)


ROWS = [(1, 2), (1, 3), (2, 3), (5, 1), (5, 9)]


class TestRoundTrips:
    def test_flat_trie_round_trips_via_mmap(self, tmp_path):
        trie = edge_trie(ROWS)
        path = str(tmp_path / "e.trie")
        write_trie_segment(path, trie)
        assert_same_trie(read_trie_segment(path, use_mmap=True), trie)

    def test_flat_trie_round_trips_via_portable_path(self, tmp_path):
        trie = edge_trie(ROWS, order=("dst", "src"))
        path = str(tmp_path / "e.trie")
        write_trie_segment(path, trie)
        assert_same_trie(read_trie_segment(path, use_mmap=False), trie)

    def test_mmap_levels_are_zero_copy_views(self, tmp_path):
        """The mmap path must expose levels as casts of the mapping, not copies."""
        path = str(tmp_path / "e.trie")
        write_trie_segment(path, edge_trie(ROWS))
        reloaded = read_trie_segment(path, use_mmap=True)
        assert isinstance(reloaded.level_values(0), memoryview)
        assert reloaded.level_values(0).format == "q"

    @pytest.mark.parametrize("use_mmap", [True, False], ids=["mmap", "copy"])
    def test_word_extremes_round_trip(self, tmp_path, use_mmap):
        lowest, highest = -(2**63), 2**63 - 1
        trie = edge_trie([(lowest, highest), (lowest, 0), (highest, lowest)], name="X")
        path = str(tmp_path / "x.trie")
        write_trie_segment(path, trie)
        assert_same_trie(read_trie_segment(path, use_mmap=use_mmap, validate=True), trie)

    def test_empty_relation_round_trips(self, tmp_path):
        trie = edge_trie([])
        path = str(tmp_path / "empty.trie")
        write_trie_segment(path, trie)
        reloaded = read_trie_segment(path)
        assert reloaded.num_tuples == 0
        assert_same_trie(reloaded, trie)

    def test_validate_checks_payload_and_invariants(self, tmp_path):
        path = str(tmp_path / "e.trie")
        write_trie_segment(path, edge_trie(ROWS))
        assert_same_trie(
            read_trie_segment(path, use_mmap=False, validate=True), edge_trie(ROWS)
        )

    @given(
        st.integers(1, 3).flatmap(
            lambda arity: st.tuples(
                st.permutations(("a", "b", "c")[:arity]),
                st.lists(st.tuples(*[st.integers(-(2**63), 2**63 - 1)] * arity), max_size=12),
            )
        ),
        st.one_of(st.none(), st.integers(0, 3)),
    )
    @settings(max_examples=60)
    def test_bytes_do_not_depend_on_the_level_container(self, order_rows, shard):
        order, rows = order_rows
        trie = TrieIndex(Relation("R", Schema(tuple(sorted(order))), rows), order)
        values, offsets = levels_of(trie)
        assert all(type(trie.level_values(level)) is list for level in range(len(values)))
        words = TrieIndex.from_flat(
            trie.relation_name,
            trie.attribute_order,
            [array("q", level) for level in values],
            [array("q", level) for level in offsets],
            trie.num_tuples,
            validate=True,
        )
        assert encode_trie_segment(trie, shard) == encode_trie_segment(words, shard)

    def test_shard_tag_is_stored_in_meta(self, tmp_path):
        path = str(tmp_path / "e.trie")
        write_trie_segment(path, edge_trie(ROWS), shard=3)
        assert read_segment_info(path).shard == 3


class TestCorruption:
    def write_segment(self, tmp_path):
        path = str(tmp_path / "e.trie")
        write_trie_segment(path, edge_trie(ROWS))
        return path

    def corrupt(self, path, offset, new_bytes):
        with open(path, "r+b") as handle:
            handle.seek(offset)
            handle.write(new_bytes)

    def test_bad_magic_is_rejected(self, tmp_path):
        path = self.write_segment(tmp_path)
        self.corrupt(path, 0, b"NOTATRIE")
        with pytest.raises(SegmentFormatError, match="bad magic"):
            read_trie_segment(path)

    def test_unsupported_version_is_rejected(self, tmp_path):
        path = self.write_segment(tmp_path)
        self.corrupt(path, len(SEGMENT_MAGIC), struct.pack("<I", 99))
        with pytest.raises(SegmentFormatError, match="version 99"):
            read_trie_segment(path)

    def test_flagged_header_is_rejected(self, tmp_path):
        """Bit 0 of ``flags`` once marked a JSON payload; the word payload is
        the only one, so any set flag bit fails, on the info path too."""
        path = self.write_segment(tmp_path)
        self.corrupt(path, len(SEGMENT_MAGIC) + 4, struct.pack("<I", 1))
        for read in (read_trie_segment, read_segment_info):
            with pytest.raises(SegmentFormatError, match="flags 0x1"):
                read(path)

    def test_truncated_header_is_rejected(self, tmp_path):
        path = self.write_segment(tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(HEADER_SIZE - 4)
        with pytest.raises(SegmentFormatError, match="truncated"):
            read_trie_segment(path)

    def test_truncated_payload_is_rejected(self, tmp_path):
        path = self.write_segment(tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 8)
        with pytest.raises(SegmentFormatError, match="truncated or corrupt"):
            read_trie_segment(path)

    def test_damaged_meta_block_is_rejected(self, tmp_path):
        path = self.write_segment(tmp_path)
        self.corrupt(path, HEADER_SIZE + 2, b"X")
        with pytest.raises(SegmentFormatError, match="meta block"):
            read_trie_segment(path)

    def test_flipped_payload_byte_fails_only_under_validate(self, tmp_path):
        """Payload damage is caught by ``validate=True`` (the recover pass);
        the plain open path only validates the header + geometry."""
        path = self.write_segment(tmp_path)
        self.corrupt(path, os.path.getsize(path) - 1, b"\x7f")
        read_trie_segment(path)  # header-only validation still passes
        with pytest.raises(SegmentFormatError, match="payload checksum"):
            read_trie_segment(path, validate=True)

    @staticmethod
    def forge(tmp_path, meta, payload=b"", arity=2):
        """A segment file whose header checksums match ``meta`` (bytes or a
        dict) and ``payload``, so only the meta block's content is wrong."""
        if isinstance(meta, dict):
            meta = json.dumps(meta).encode("utf-8")
        header = HEADER.pack(
            SEGMENT_MAGIC, SEGMENT_FORMAT_VERSION, 0, arity, 0, 0,
            len(meta), len(payload), zlib.crc32(meta), zlib.crc32(payload),
        )
        padding = b"\0" * (-(HEADER_SIZE + len(meta)) % 8)
        path = str(tmp_path / "forged.trie")
        with open(path, "wb") as handle:
            handle.write(header + meta + padding + payload)
        return path

    def test_a_meta_block_that_is_not_json_is_rejected(self, tmp_path):
        path = self.forge(tmp_path, b"{not json")
        for read in (read_trie_segment, read_segment_info):
            with pytest.raises(SegmentFormatError, match="meta block is not valid JSON"):
                read(path)

    def test_a_payload_size_the_meta_does_not_declare_is_rejected(self, tmp_path):
        meta = {"relation": "E", "order": ["src", "dst"], "shard": None,
                "level_sizes": [1, 2], "offset_sizes": [2]}
        path = self.forge(tmp_path, meta, payload=b"\0" * 8 * 4)
        with pytest.raises(SegmentFormatError, match="declares 5 words"):
            read_trie_segment(path)

    def test_a_level_count_other_than_the_arity_is_rejected(self, tmp_path):
        meta = {"relation": "E", "order": ["src", "dst"], "shard": None,
                "level_sizes": [1], "offset_sizes": []}
        path = self.forge(tmp_path, meta, payload=b"\0" * 8, arity=2)
        with pytest.raises(SegmentFormatError, match="1 levels but the header arity is 2"):
            read_trie_segment(path)

    def test_a_meta_block_past_the_first_read_is_read_whole(self, tmp_path):
        # The header and info readers read 4 KiB first; a longer meta block
        # (here a long relation name) takes a second, exact read.
        trie = edge_trie(ROWS, name="R" * 5000)
        path = str(tmp_path / "long.trie")
        write_trie_segment(path, trie, shard=3)
        info = read_segment_info(path)
        assert (info.relation, info.shard, info.num_tuples) == ("R" * 5000, 3, len(ROWS))
        assert_same_trie(decode_trie_segment(encode_trie_segment(trie)), trie)
        assert_same_trie(read_trie_segment(path), trie)

    def test_not_a_segment_file(self, tmp_path):
        path = str(tmp_path / "junk.trie")
        with open(path, "wb") as handle:
            handle.write(b"hello")
        with pytest.raises(SegmentFormatError, match="smaller than"):
            read_trie_segment(path)


class TestAtomicWrite:
    @pytest.mark.parametrize("temp_survives", [True, False])
    def test_a_failed_write_leaves_neither_file_nor_temp(
        self, tmp_path, monkeypatch, temp_survives
    ):
        """A write that fails before its rename removes its temp file (or
        finds it already gone) and re-raises; the target never appears."""

        def failing_replace(source, target):
            if not temp_survives:
                os.unlink(source)
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename failed"):
            write_trie_segment(str(tmp_path / "e.trie"), edge_trie(ROWS))
        assert os.listdir(tmp_path) == []


class TestSegmentStore:
    def test_save_has_load_round_trip(self, tmp_path):
        store = TrieSegmentStore(str(tmp_path / "segments"))
        trie = edge_trie(ROWS)
        store.save(trie, shard=1)
        assert store.has("E", trie.attribute_order, shard=1)
        assert not store.has("E", trie.attribute_order, shard=2)
        assert_same_trie(store.load("E", trie.attribute_order, shard=1), trie)

    def test_entries_identify_segments_from_headers(self, tmp_path):
        store = TrieSegmentStore(str(tmp_path / "segments"))
        store.save(edge_trie(ROWS))
        store.save(edge_trie(ROWS, order=("dst", "src")), shard=0)
        store.save(edge_trie([(7, 8)], name="F"), shard=1)
        entries = store.entries()
        assert [(e.relation, e.shard) for e in entries] == [
            ("E", None),
            ("E", 0),
            ("F", 1),
        ]
        assert store.total_bytes() == sum(e.file_bytes for e in entries)

    def test_discard_relation_removes_only_that_relation(self, tmp_path):
        store = TrieSegmentStore(str(tmp_path / "segments"))
        store.save(edge_trie(ROWS))
        store.save(edge_trie(ROWS, order=("dst", "src")))
        store.save(edge_trie([(7, 8)], name="F"))
        assert store.discard_relation("E") == 2
        assert [e.relation for e in store.entries()] == ["F"]

    def test_discard_leaves_a_directory_that_holds_other_files(self, tmp_path):
        store = TrieSegmentStore(str(tmp_path / "segments"))
        directory = os.path.dirname(store.save(edge_trie(ROWS)))
        with open(os.path.join(directory, "notes.txt"), "w") as handle:
            handle.write("not a segment")
        assert store.discard_relation("E") == 1
        assert os.listdir(directory) == ["notes.txt"]
        assert store.entries() == []

    def test_hostile_relation_names_stay_inside_the_store(self, tmp_path):
        """Separators and dots in relation names must not escape the root."""
        store = TrieSegmentStore(str(tmp_path / "segments"))
        trie = edge_trie(ROWS, name="../../evil name")
        path = store.save(trie)
        assert os.path.commonpath([path, store.root]) == store.root
        assert store.entries()[0].relation == "../../evil name"
