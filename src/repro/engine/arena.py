"""Shape arena: the engine's canonical identity for full-state shapes.

Every distinct full-state shape the engine meets becomes one **row**, a
small int that every consumer compares instead of a nested tuple.  A row
carries, when first asked for, its **canonical binary encoding** —
byte-for-byte the :func:`~repro.io.serialization.encode_shape_binary`
store-row format — and the CRC digest of that encoding, so
``stable_shape_hash`` is one CRC over cached bytes
(:func:`zlib.crc32`) instead of a fresh recursive encode.

Rows enter the arena one way: :meth:`ShapeArena.intern_cons` takes a
nested-tuple shape (the engine's own, or one from a worker's answer).  A
tuple→row memo deduplicates it, and the row's encoding is **deferred** until
:meth:`~ShapeArena.encoded` or :meth:`~ShapeArena.stable_hash` first asks
for it.  A store-less exploration interns many more shapes than it ever
encodes, so most rows stay one memo entry.

The encoding is injective and order-preserving, so byte equality is shape
equality.  Before the first encoding-keyed probe
(:meth:`~ShapeArena.find_cons`, :meth:`~ShapeArena.drop_cons_cache`) every
row is encoded and indexed by its bytes, and from then on ``intern_cons``
encodes eagerly, so a shape whose tuple memo was dropped still lands on its
row.

The tuple memos are droppable under residency budgets: the encodings are
the ground truth, and :meth:`ShapeArena.cons_of` decodes a row back into its
tuple on demand.

The arena is append-only and content-addressed: a row id, once returned, is
valid for the arena's lifetime.  Differential properties (arena⇄cons
round-trip, arena hash == ``stable_shape_hash`` on the cons form, lazy ==
eager encoding under any interleaving) are pinned by
``tests/property/test_arena_properties.py``.
"""

from __future__ import annotations

import zlib
from typing import Optional

from repro.core.tree import Shape
from repro.io.serialization import (
    SHAPE_BINARY_VERSION,
    decode_shape_binary,
    encode_shape_binary,
    write_uvarint,
)

#: Index of a shape row in a :class:`ShapeArena`.
RowId = int


class ShapeArena:
    """Canonical row identity for full-state shapes, encoded on first use."""

    def __init__(self) -> None:
        self._labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        #: Per label, its length-prefixed UTF-8 framing (the canonical
        #: encoding is a pure concatenation of these plus child-count
        #: varints, so encoding a row never re-encodes label text).
        self._label_enc: list[bytes] = []
        #: row -> canonical binary encoding, ``None`` until first asked for.
        self._encoded: list[Optional[bytes]] = []
        self._hashes: list[Optional[int]] = []  # row -> CRC digest (lazy)
        #: Encoded rows by their encoding.  Once ``_eager`` is set, every
        #: row is in here.
        self._by_encoding: dict[bytes, RowId] = {}
        self._eager = False
        #: Shape tuple -> row and row -> shape tuple (droppable memos; see
        #: :meth:`drop_cons_cache`).
        self._row_of: dict = {}
        self._cons_cache: dict[RowId, Shape] = {}
        self.rows_deduped = 0

    # ------------------------------------------------------------------ #
    # labels
    # ------------------------------------------------------------------ #

    def label_id(self, label: str) -> int:
        """Intern *label*; returns its arena-global id."""
        existing = self._label_ids.get(label)
        if existing is not None:
            return existing
        new_id = len(self._labels)
        self._label_ids[label] = new_id
        self._labels.append(label)
        raw = label.encode("utf-8")
        framing = bytearray()
        write_uvarint(framing, len(raw))
        framing.extend(raw)
        self._label_enc.append(bytes(framing))
        return new_id

    def label_of(self, label_id: int) -> str:
        return self._labels[label_id]

    # ------------------------------------------------------------------ #
    # interning
    # ------------------------------------------------------------------ #

    def _encode(self, shape: Shape) -> bytes:
        """The canonical encoding of a nested-tuple shape."""
        encoded = bytearray([SHAPE_BINARY_VERSION])
        label_id = self.label_id
        label_enc = self._label_enc
        stack = [shape]
        pop = stack.pop
        while stack:
            label, children = pop()
            encoded += label_enc[label_id(label)]
            nchildren = len(children)
            if nchildren < 0x80:
                encoded.append(nchildren)
            else:
                write_uvarint(encoded, nchildren)
            stack.extend(reversed(children))
        return bytes(encoded)

    def _index_all(self) -> None:
        """Encode and index every row still pending, then encode eagerly."""
        if self._eager:
            return
        for row, encoded in enumerate(self._encoded):
            if encoded is None:
                self.encoded(row)
        self._eager = True

    def _append_row(self, encoded: Optional[bytes]) -> RowId:
        row = len(self._encoded)
        self._encoded.append(encoded)
        self._hashes.append(None)
        if encoded is not None:
            self._by_encoding[encoded] = row
        return row

    def intern_cons(self, shape: Shape) -> RowId:
        """Intern a nested-tuple shape; returns its (deduplicated) row id."""
        row = self._row_of.get(shape)
        if row is not None:
            return row
        encoded = None
        if self._eager:
            encoded = self._encode(shape)
            row = self._by_encoding.get(encoded)
            if row is not None:
                self.rows_deduped += 1
                self._row_of[shape] = row
                return row
        row = self._append_row(encoded)
        self._row_of[shape] = row
        self._cons_cache[row] = shape
        return row

    def find_cons(self, shape: Shape) -> Optional[RowId]:
        """The row id of *shape* if already interned, else ``None`` (never
        creates a row)."""
        row = self._row_of.get(shape)
        if row is not None:
            return row
        self._index_all()
        return self._by_encoding.get(encode_shape_binary(shape))

    # ------------------------------------------------------------------ #
    # per-row accessors
    # ------------------------------------------------------------------ #

    def encoded(self, row: RowId) -> bytes:
        """The row's canonical binary encoding (identical to
        :func:`~repro.io.serialization.encode_shape_binary` on its cons
        form), computed on first use."""
        encoded = self._encoded[row]
        if encoded is None:
            # only rows interned as tuples defer their encoding, and their
            # tuple stays cached until _index_all has encoded them all
            encoded = self._encode(self._cons_cache[row])
            self._encoded[row] = encoded
            self._by_encoding[encoded] = row
        return encoded

    def stable_hash(self, row: RowId) -> int:
        """The row's :func:`~repro.io.serialization.stable_shape_hash`,
        computed once over the encoding and memoized."""
        digest = self._hashes[row]
        if digest is None:
            digest = zlib.crc32(self.encoded(row))
            self._hashes[row] = digest
        return digest

    def node_count(self, row: RowId) -> int:
        count = 0
        stack = [self.cons_of(row)]
        while stack:
            _label, children = stack.pop()
            count += 1
            stack.extend(children)
        return count

    def cons_of(self, row: RowId) -> Shape:
        """Materialise the row back into a nested-tuple shape (memoized)."""
        shape = self._cons_cache.get(row)
        if shape is None:
            shape = decode_shape_binary(self.encoded(row))
            self._cons_cache[row] = shape
            self._row_of[shape] = row
        return shape

    def drop_cons_cache(self) -> int:
        """Drop the tuple⇄row memos (budget enforcement); returns the number
        of materialised tuples dropped.  Every row is encoded first, so any
        row can be decoded again on demand."""
        self._index_all()
        dropped = len(self._cons_cache)
        self._cons_cache.clear()
        self._row_of.clear()
        return dropped

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._encoded)

    def nbytes(self) -> int:
        """Approximate arena payload size: the encodings built so far."""
        return sum(len(encoded) for encoded in self._by_encoding)

    def stats(self) -> dict:
        return {
            "arena_rows": len(self._encoded),
            "arena_rows_encoded": len(self._by_encoding),
            "arena_labels": len(self._labels),
            "arena_nbytes": self.nbytes(),
            "arena_rows_deduped": self.rows_deduped,
            "arena_cons_cached": len(self._cons_cache),
        }
