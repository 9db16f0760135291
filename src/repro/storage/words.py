"""The one stored value format: signed 64-bit little-endian words.

Every value a relation holds fits one word
(:meth:`~repro.relational.relation.Relation.normalize_row` rejects the
rest), so trie segment payloads (:mod:`repro.storage.segments`) and SQLite
fragment blobs (:mod:`repro.storage.sqlite_store`) store the contents of an
``array('q')`` in one byte order.  A little-endian host reads them back with
one copy, or zero-copy as a ``memoryview.cast('q')``.
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterable

#: Bytes per stored word.
WORD_BYTES = 8

#: Whether stored words are this host's native ``'q'`` layout.
NATIVE_WORDS = sys.byteorder == "little"


def pack_words(words: Iterable[int]) -> bytes:
    """Little-endian bytes of ``words`` (an ``array('q')``, a word view or any ints)."""
    flat = words if isinstance(words, array) and NATIVE_WORDS else array("q", words)
    if not NATIVE_WORDS:
        flat.byteswap()
    return flat.tobytes()


def unpack_words(data) -> array:
    """The words in the little-endian bytes ``data``, copied into an ``array('q')``."""
    flat = array("q")
    flat.frombytes(data)
    if not NATIVE_WORDS:
        flat.byteswap()
    return flat


__all__ = ["NATIVE_WORDS", "WORD_BYTES", "pack_words", "unpack_words"]
