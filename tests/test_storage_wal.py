"""Mutation log framing: durability, torn tails, refusal to skip damage.

The WAL's one job is that ``snapshot + log`` always reconstructs the catalog.
That rests on the framing contract: every intact record replays in order, a
torn *final* line (a crash mid-append) is silently dropped because its
mutation was never applied, and damage anywhere *earlier* — bytes corrupted
after being durably written — raises :class:`WalCorruptionError` rather than
guessing past the hole.
"""

import zlib

import pytest

from repro.storage import MutationLog, WalCorruptionError, WalRecord


def wal_path(tmp_path):
    return str(tmp_path / "mutations.wal")


class TestAppendReplay:
    def test_records_round_trip_in_order(self, tmp_path):
        with MutationLog(wal_path(tmp_path)) as log:
            log.append("insert", "E", rows=[[1, 2], [3, 4]])
            log.append("define", "F", rows=[[5]], attributes=["x"], replace=False)
            records = log.replay()
        assert [r.seq for r in records] == [0, 1]
        assert records[0] == WalRecord(0, "insert", "E", {"rows": [[1, 2], [3, 4]]})
        assert records[1].data["attributes"] == ["x"]

    def test_sequence_numbers_survive_reopen(self, tmp_path):
        path = wal_path(tmp_path)
        with MutationLog(path) as log:
            log.append("insert", "E", rows=[[1, 2]])
        with MutationLog(path) as log:
            assert log.next_seq == 1
            record = log.append("insert", "E", rows=[[3, 4]])
            assert record.seq == 1
            assert log.record_count() == 2

    def test_missing_file_replays_empty(self, tmp_path):
        log = MutationLog(wal_path(tmp_path))
        assert log.replay() == []
        assert log.record_count() == 0
        assert log.size_bytes() == 0

    def test_reset_truncates_and_restarts_sequencing(self, tmp_path):
        with MutationLog(wal_path(tmp_path)) as log:
            log.append("insert", "E", rows=[[1, 2]])
            log.reset()
            assert log.record_count() == 0
            assert log.size_bytes() == 0
            assert log.append("insert", "E", rows=[[3, 4]]).seq == 0


class TestDamage:
    def fill(self, path, count=3):
        with MutationLog(path) as log:
            for i in range(count):
                log.append("insert", "E", rows=[[i, i + 1]])

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = wal_path(tmp_path)
        self.fill(path)
        with open(path, "r+b") as handle:
            handle.seek(0, 2)
            handle.truncate(handle.tell() - 7)  # mid-record crash
        log = MutationLog(path)
        assert [r.seq for r in log.replay()] == [0, 1]
        # The torn record's slot is reused by the next append.
        assert log.next_seq == 2

    def test_corrupted_final_checksum_is_dropped(self, tmp_path):
        path = wal_path(tmp_path)
        self.fill(path, count=2)
        with open(path, "r+b") as handle:
            handle.seek(0, 2)
            handle.seek(handle.tell() - 3)
            handle.write(b"X")
        assert [r.seq for r in MutationLog(path).replay()] == [0]

    def test_damage_before_the_final_record_refuses_to_replay(self, tmp_path):
        path = wal_path(tmp_path)
        self.fill(path)
        with open(path, "r+b") as handle:
            handle.seek(12)  # inside record 0's payload
            handle.write(b"X")
        with pytest.raises(WalCorruptionError, match="record 0 is damaged"):
            MutationLog(path).replay()

    @pytest.mark.parametrize(
        "payload", ['{"seq": 0, "kind": "insert"', '{"kind": "insert", "relation": "E"}', "[0]"],
        ids=["not_json", "missing_seq", "not_an_object"],
    )
    def test_a_checksummed_record_that_does_not_decode_is_damage(self, tmp_path, payload):
        """The checksum matches but the payload is no record: mid-log it is
        damage, at the tail a torn append."""
        def framed(text):
            return f"{zlib.crc32(text.encode('utf-8')):08x} {text}\n"

        path = wal_path(tmp_path)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(framed(payload))
        assert MutationLog(path).replay() == []
        intact = WalRecord(seq=1, kind="insert", relation="E", data={"rows": [[1, 2]]})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(framed(intact.to_json()))
        with pytest.raises(WalCorruptionError, match="record 0 is damaged"):
            MutationLog(path).replay()

    def test_append_after_a_dropped_garbage_tail_replays(self, tmp_path):
        """The scanner tolerates a damaged *final* line as a torn tail; the
        next append must cut it away first, or the new (acknowledged) record
        would fuse with the garbage — lost, and the damage made non-final."""
        path = wal_path(tmp_path)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not a wal line\n")
        with MutationLog(path) as log:
            assert log.replay() == []
            log.append("insert", "E", rows=[[1, 2]])
            assert [r.data["rows"] for r in log.replay()] == [[[1, 2]]]
        with open(path, "rb") as handle:
            assert b"not a wal line" not in handle.read()

    @pytest.mark.parametrize("tear", ["mid-record", "missing-newline", "bad-checksum"])
    def test_torn_tail_then_append_reopen_append_reopen(self, tmp_path, tear):
        path = wal_path(tmp_path)
        self.fill(path)  # seq 0, 1, 2
        with open(path, "r+b") as handle:
            handle.seek(0, 2)
            if tear == "mid-record":
                handle.truncate(handle.tell() - 7)
            elif tear == "missing-newline":
                handle.truncate(handle.tell() - 1)
            else:
                handle.seek(handle.tell() - 3)
                handle.write(b"X")
        with MutationLog(path) as log:
            assert [r.seq for r in log.replay()] == [0, 1]
            assert log.record_count() == 2  # re-scanning keeps the tear known
            assert log.append("insert", "E", rows=[[7, 8]]).seq == 2
        with MutationLog(path) as log:
            assert [r.seq for r in log.replay()] == [0, 1, 2]
            assert log.replay()[-1].data["rows"] == [[7, 8]]
            assert log.append("insert", "E", rows=[[9, 9]]).seq == 3
        with MutationLog(path) as log:
            assert [r.data["rows"] for r in log.replay()] == [
                [[0, 1]], [[1, 2]], [[7, 8]], [[9, 9]],
            ]

    def test_scanning_alone_never_modifies_the_file(self, tmp_path):
        path = wal_path(tmp_path)
        self.fill(path)
        with open(path, "r+b") as handle:
            handle.seek(0, 2)
            handle.truncate(handle.tell() - 7)
        with open(path, "rb") as handle:
            torn = handle.read()
        with MutationLog(path) as log:
            log.replay()
            log.record_count()
        with open(path, "rb") as handle:
            assert handle.read() == torn
