"""Hypothesis properties of the flat shape arena and the dual-path codec.

Three contracts pinned over arbitrary shapes, varint runs and wire frames:

* **arena round trips** — interning a cons shape into a
  :class:`~repro.engine.arena.ShapeArena` and materialising it back
  (``cons_of``) is the identity; interning the same shape twice (or via the
  preorder wire path) lands on the same deduplicated row; the arena's cached
  row encoding and digest equal :func:`encode_shape_binary` /
  :func:`stable_shape_hash` byte for byte;
* **pure/accelerated parity** — the C codec (when it compiled) and the
  mandatory pure-Python fallback agree on every varint run (values, end
  positions, truncation and overflow rejections alike), on the CRC digest,
  and on whole-frame decodes, byte for byte;
* **rejection** — malformed preorder streams (multiple roots, missing
  children) never build a row silently;
* **deferred encoding** — rows interned as tuples are encoded on first use,
  yet any interleaving of interning, encoding, hashing and memo drops gives
  the row ids, encodings and digests of an arena that encodes eagerly.

The dedicated CI job runs this module with ``--hypothesis-profile=ci``; a
separate matrix leg re-runs the whole tier-1 suite under ``REPRO_PURE=1``
(where the accelerated half of the differentials auto-skips).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.guarded_form import Addition, Deletion
from repro.engine import _codec
from repro.engine.arena import ShapeArena
from repro.engine.wire import FrameEncoder, WireFrame
from repro.exceptions import WireFormatError
from repro.io.serialization import (
    encode_shape_binary,
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

node_ids = st.integers(min_value=0, max_value=2**20)

uvarint_values = st.one_of(
    st.integers(min_value=0, max_value=127),  # the single-byte fast path
    st.integers(min_value=0, max_value=(1 << 64) - 1),
)

needs_accel = pytest.mark.skipif(
    not _codec.ACCELERATED, reason="C codec extension not available"
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


@st.composite
def candidates(draw):
    shape = draw(shapes)
    size = draw(st.integers(min_value=1, max_value=200))
    if draw(st.booleans()):
        update = Addition(draw(node_ids), draw(labels))
        return (update, shape, True, size, draw(st.integers(min_value=0, max_value=8)))
    return (Deletion(draw(node_ids)), shape, False, size, 0)


@st.composite
def frames(draw):
    state_ids = draw(st.lists(node_ids, min_size=0, max_size=4, unique=True))
    encoder = FrameEncoder()
    for state_id in state_ids:
        cands = draw(st.lists(candidates(), max_size=5))
        encoder.add_state(state_id, cands, draw(st.integers(min_value=0, max_value=50)))
    return encoder.finish(), state_ids


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
        pure_values, pure_pos = _codec.pure_decode_uvarint_run(data, 0, len(values))
        assert pure_values == values
        assert pure_pos == len(buffer)
        if _codec.ACCELERATED:
            c_values, c_pos = _codec.c_decode_uvarint_run(data, 0, len(values))
            assert (c_values, c_pos) == (pure_values, pure_pos)

    @needs_accel
    @given(st.binary(max_size=64), st.integers(min_value=0, max_value=16))
    def test_arbitrary_buffers_agree_on_rejection(self, data, count):
        try:
            pure = _codec.pure_decode_uvarint_run(data, 0, count)
        except WireFormatError as exc:
            pure = ("error", str(exc))
        try:
            accel = _codec.c_decode_uvarint_run(data, 0, count)
        except WireFormatError as exc:
            accel = ("error", str(exc))
        assert accel == pure

    @needs_accel
    @given(st.binary(max_size=256))
    def test_crc_implementations_agree(self, data):
        assert _codec.c_arena_hash(data) == _codec.pure_arena_hash(data)

    @given(shapes)
    def test_stable_hash_is_crc_of_the_canonical_encoding(self, shape):
        arena = ShapeArena()
        row = arena.intern_cons(shape)
        digest = arena.stable_hash(row)
        assert digest == _codec.pure_arena_hash(encode_shape_binary(shape))
        if _codec.ACCELERATED:
            assert digest == _codec.c_arena_hash(encode_shape_binary(shape))


class TestFrameParity:
    @needs_accel
    @given(frames())
    @settings(deadline=None)
    def test_frames_decode_identically_under_both_paths(self, packed):
        data, state_ids = packed

        def decode():
            arena = ShapeArena()
            frame = WireFrame(data)
            rows = frame.shape_rows(arena)
            return (
                [bytes(arena.encoded(row)) for row in rows],
                [arena.stable_hash(row) for row in rows],
                [frame.expansion(state_id) for state_id in state_ids],
                frame.guard_entries,
            )

        was_pure = _codec.set_pure(True)
        try:
            pure_result = decode()
        finally:
            _codec.set_pure(was_pure)
        assert not _codec.is_pure()
        assert decode() == pure_result
