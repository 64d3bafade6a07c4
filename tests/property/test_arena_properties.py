"""Hypothesis properties of the flat shape arena and the varint codec.

Three contracts pinned over arbitrary shapes and varint runs:

* **arena round trips** — interning a cons shape into a
  :class:`~repro.engine.arena.ShapeArena` and materialising it back
  (``cons_of``) is the identity; interning the same shape twice lands on
  the same deduplicated row; the arena's cached row encoding and digest
  equal :func:`encode_shape_binary` / :func:`stable_shape_hash` byte for
  byte;
* **varints** — :func:`read_uvarint` returns the values
  :func:`write_uvarint` wrote and their end position; the arena digest is
  :func:`zlib.crc32` of the canonical encoding;
* **deferred encoding** — rows interned as tuples are encoded on first use,
  yet any interleaving of interning, encoding, hashing and memo drops gives
  the row ids, encodings and digests of an arena that encodes eagerly.

The dedicated CI job runs this module with ``--hypothesis-profile=ci``.
"""

from __future__ import annotations

import zlib

from hypothesis import given
from hypothesis import strategies as st

from repro.engine.arena import ShapeArena
from repro.io.serialization import (
    encode_shape_binary,
    read_uvarint,
    stable_shape_hash,
    write_uvarint,
)

labels = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8
)

shapes = st.recursive(
    st.tuples(labels, st.just(())),
    lambda children: st.tuples(labels, st.lists(children, max_size=3).map(tuple)),
    max_leaves=12,
)

uvarint_values = st.one_of(
    st.integers(min_value=0, max_value=127),  # single-byte varints
    st.integers(min_value=0, max_value=(1 << 64) - 1),
)


class TestArenaRoundTrip:
    @given(shapes)
    def test_cons_round_trips_and_dedups(self, shape):
        arena = ShapeArena()
        row = arena.intern_cons(shape)
        assert arena.cons_of(row) == shape
        assert arena.intern_cons(shape) == row
        assert arena.find_cons(shape) == row

    @given(st.lists(shapes, min_size=1, max_size=8))
    def test_distinct_shapes_get_distinct_rows(self, batch):
        arena = ShapeArena()
        rows = [arena.intern_cons(shape) for shape in batch]
        for shape, row in zip(batch, rows):
            assert (arena.cons_of(row) == shape) and (
                len({r for s, r in zip(batch, rows) if s == shape}) == 1
            )
        assert len(set(rows)) == len(set(batch))

    @given(shapes)
    def test_row_encoding_and_digest_match_serialization(self, shape):
        arena = ShapeArena()
        row = arena.intern_cons(shape)
        assert bytes(arena.encoded(row)) == encode_shape_binary(shape)
        assert arena.stable_hash(row) == stable_shape_hash(shape)
        # cons_of survives a dropped cons cache (decodes the encoding)
        arena.drop_cons_cache()
        assert arena.cons_of(row) == shape

    @given(shapes)
    def test_node_count_matches_the_tree(self, shape):
        def count(s):
            label, children = s
            return 1 + sum(count(child) for child in children)

        arena = ShapeArena()
        row = arena.intern_cons(shape)
        assert arena.node_count(row) == count(shape)

#: One step of an arena workload: an operation and the index of the shape
#: (or row) it applies to, taken modulo what exists when it runs.
arena_ops = st.tuples(
    st.sampled_from(
        ["intern_cons", "find_cons", "encoded", "stable_hash", "drop", "cons_of"]
    ),
    st.integers(min_value=0, max_value=63),
)


class TestDeferredEncoding:
    @given(st.lists(shapes, min_size=1, max_size=6), st.lists(arena_ops, max_size=40))
    def test_interleavings_match_an_eager_reference(self, pool, ops):
        arena = ShapeArena()
        reference: dict = {}  # shape -> row, in first-interned order
        rows: list = []  # row -> shape
        for op, index in ops:
            shape = pool[index % len(pool)]
            if op == "intern_cons":
                row = arena.intern_cons(shape)
                expected = reference.setdefault(shape, len(rows))
                if expected == len(rows):
                    rows.append(shape)
                assert row == expected
            elif op == "find_cons":
                assert arena.find_cons(shape) == reference.get(shape)
            elif op == "drop":
                arena.drop_cons_cache()
            elif rows:
                row = index % len(rows)
                if op == "encoded":
                    assert arena.encoded(row) == encode_shape_binary(rows[row])
                elif op == "stable_hash":
                    assert arena.stable_hash(row) == stable_shape_hash(rows[row])
                else:
                    assert arena.cons_of(row) == rows[row]
        assert len(arena) == len(rows)
        for row, shape in enumerate(rows):
            assert arena.encoded(row) == encode_shape_binary(shape)
            assert arena.stable_hash(row) == stable_shape_hash(shape)
            assert arena.cons_of(row) == shape
            assert arena.intern_cons(shape) == row


class TestCodecParity:
    @given(st.lists(uvarint_values, max_size=64), st.binary(max_size=8))
    def test_varint_runs_decode_identically(self, values, trailing):
        buffer = bytearray()
        for value in values:
            write_uvarint(buffer, value)
        data = bytes(buffer) + trailing
        decoded, pos = [], 0
        for _ in values:
            value, pos = read_uvarint(data, pos)
            decoded.append(value)
        assert (decoded, pos) == (values, len(buffer))

    @given(shapes)
    def test_stable_hash_is_crc_of_the_canonical_encoding(self, shape):
        arena = ShapeArena()
        row = arena.intern_cons(shape)
        assert arena.stable_hash(row) == zlib.crc32(encode_shape_binary(shape))
