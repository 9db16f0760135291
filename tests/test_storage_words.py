"""The one stored value format: signed 64-bit little-endian words.

Segment payloads and SQLite fragment blobs both go through
:mod:`repro.storage.words`; these tests pin its byte layout (the layout
every store written from int64 data has always had) and its round trip at
the ends of the word range.
"""

import struct
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.relational.relation import WORDS
from repro.storage import StoreFormatError
from repro.storage.sqlite_store import pack_rows, unpack_rows
from repro.storage.words import pack_words, unpack_words

WORD_MIN, WORD_MAX = WORDS[0], WORDS[-1]
EXTREMES = [1, -1, WORD_MAX, WORD_MIN, 0]

#: What a caller hands the packer: a trie level, a segment view, row values.
SOURCES = {
    "array": lambda values: array("q", values),
    "memoryview": lambda values: memoryview(array("q", values)),
    "iterator": iter,
}


@pytest.mark.parametrize("source", list(SOURCES))
def test_words_are_little_endian_int64(source):
    assert pack_words(SOURCES[source](EXTREMES)) == struct.pack("<5q", *EXTREMES)


@given(st.lists(st.integers(WORD_MIN, WORD_MAX), max_size=40))
def test_words_round_trip(values):
    unpacked = unpack_words(pack_words(values))
    assert isinstance(unpacked, array) and unpacked.typecode == "q"
    assert list(unpacked) == values


def test_fragment_blob_is_the_rows_words_in_order():
    rows = [(1, -1), (WORD_MAX, WORD_MIN), (0, 0)]
    encoding, blob = pack_rows(rows)
    assert (encoding, blob) == ("q", struct.pack("<6q", 1, -1, WORD_MAX, WORD_MIN, 0, 0))
    assert unpack_rows(encoding, blob, 2, 3) == rows


def test_fragment_with_the_wrong_word_count_is_corrupt():
    _encoding, blob = pack_rows([(1, 2), (3, 4)])
    with pytest.raises(StoreFormatError, match="holds 4 words, expected 2x3"):
        unpack_rows("q", blob, 2, 3)
