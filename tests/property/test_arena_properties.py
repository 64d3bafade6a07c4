"""Hypothesis properties of the flat shape arena and the varint-run decoder.

Four contracts pinned over arbitrary shapes and varint runs:

* **arena round trips** — interning a cons shape into a
  :class:`~repro.engine.arena.ShapeArena` and materialising it back
  (``cons_of``) is the identity; interning the same shape twice (or via the
  preorder wire path) lands on the same deduplicated row; the arena's cached
  row encoding and digest equal :func:`encode_shape_binary` /
  :func:`stable_shape_hash` byte for byte;
* **varint runs** — :func:`decode_uvarint_run` returns the values written
  and their end position, and on arbitrary buffers rejects exactly what a
  loop of single-value reads bounded at 64 bits rejects; the arena digest
  is :func:`zlib.crc32` of the canonical encoding;
* **rejection** — malformed preorder streams (multiple roots, missing
  children) never build a row silently;
* **deferred encoding** — rows interned as tuples are encoded on first use,
  yet any interleaving of interning, encoding, hashing and memo drops gives
  the row ids, encodings and digests of an arena that encodes eagerly.

The dedicated CI job runs this module with ``--hypothesis-profile=ci``.
"""

from __future__ import annotations

import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.arena import ShapeArena
from repro.exceptions import WireFormatError
from repro.io.serialization import (
    decode_uvarint_run,
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
    st.integers(min_value=0, max_value=127),  # the single-byte fast path
    st.integers(min_value=0, max_value=(1 << 64) - 1),
)

def preorder_pairs(arena, shape):
    """Preorder ``(label_id, child count)`` pairs — the wire decode input."""
    pairs = []
    stack = [shape]
    while stack:
        label, children = stack.pop()
        pairs.append((arena.label_id(label), len(children)))
        stack.extend(reversed(children))
    return pairs


class TestArenaRoundTrip:
    @given(shapes)
    def test_cons_round_trips_and_dedups(self, shape):
        arena = ShapeArena()
        row = arena.intern_cons(shape)
        assert arena.cons_of(row) == shape
        assert arena.intern_cons(shape) == row
        assert arena.find_cons(shape) == row

    @given(shapes)
    def test_preorder_and_cons_paths_share_rows(self, shape):
        arena = ShapeArena()
        row = arena.intern_cons(shape)
        assert arena.intern_preorder(preorder_pairs(arena, shape)) == row

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

    @given(st.lists(shapes, min_size=2, max_size=4, unique=True))
    def test_forests_are_rejected(self, batch):
        arena = ShapeArena()
        pairs = []
        for shape in batch:
            pairs.extend(preorder_pairs(arena, shape))
        with pytest.raises(WireFormatError):
            arena.intern_preorder(pairs)

    @given(shapes)
    def test_truncated_preorder_is_rejected(self, shape):
        arena = ShapeArena()
        pairs = preorder_pairs(arena, shape)
        label, count = pairs[-1]
        pairs[-1] = (label, count + 1)  # promises a child that never arrives
        with pytest.raises(WireFormatError):
            arena.intern_preorder(pairs)


#: One step of an arena workload: an operation and the index of the shape
#: (or row) it applies to, taken modulo what exists when it runs.
arena_ops = st.tuples(
    st.sampled_from(
        ["intern_cons", "intern_preorder", "find_cons", "encoded", "stable_hash", "drop", "cons_of"]
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
            if op in ("intern_cons", "intern_preorder"):
                if op == "intern_cons":
                    row = arena.intern_cons(shape)
                else:
                    row = arena.intern_preorder(preorder_pairs(arena, shape))
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
        assert decode_uvarint_run(data, 0, len(values)) == (values, len(buffer))

    @given(st.binary(max_size=64), st.integers(min_value=0, max_value=16))
    def test_arbitrary_buffers_agree_on_rejection(self, data, count):
        def one_at_a_time():
            decoded, pos = [], 0
            for _ in range(count):
                value, end = read_uvarint(data, pos)
                # the run decoder's 64-bit bound: at most ten bytes, and a
                # value below 2**64
                if end - pos > 10 or value >> 64:
                    raise WireFormatError("varint overflow")
                decoded.append(value)
                pos = end
            return decoded, pos

        def outcome(decode):
            try:
                return decode()
            except WireFormatError:
                return "rejected"

        assert outcome(lambda: decode_uvarint_run(data, 0, count)) == outcome(
            one_at_a_time
        )

    @given(shapes)
    def test_stable_hash_is_crc_of_the_canonical_encoding(self, shape):
        arena = ShapeArena()
        row = arena.intern_cons(shape)
        assert arena.stable_hash(row) == zlib.crc32(encode_shape_binary(shape))
