"""Hypothesis properties of the worker answers (:mod:`repro.engine.wire`).

The contract, pinned here over arbitrary shapes, guard keys and candidate
lists:

* **round trips** — whatever a :class:`FrameEncoder` packs, a
  :class:`WireFrame` reads back structurally identical: guard entries,
  state payloads (updates, flags, sizes), and shape-table indices that
  resolve to the original root shapes, with each distinct shape listed
  exactly once per answer;
* **rejection** — every strict prefix of an answer, any trailing garbage,
  and each malformed answer (telemetry that is not a dict, a candidate of
  unknown layout, a shape index outside the table, a state the answer does
  not carry) raise :class:`~repro.exceptions.WireFormatError` (no partial
  decodes, no silently-wrong payloads);
* the store's **binary shape rows** agree with the JSON shape codec, and an
  actual ``SqliteStore`` reads its own binary rows mixed with the JSON rows
  that earlier builds wrote.

The dedicated CI job runs this module with ``--hypothesis-profile=ci`` (a
raised example budget registered in ``tests/conftest.py``).
"""

from __future__ import annotations

import io
import pickle
import sqlite3
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.guarded_form import Addition, Deletion
from repro.engine.interning import ShapeInterner
from repro.engine.store import SqliteStore
from repro.engine.wire import FrameEncoder, WireFrame
from repro.exceptions import WireFormatError
from repro.io.serialization import (
    decode_shape,
    decode_shape_binary,
    decode_shape_row,
    encode_shape,
    encode_shape_binary,
)

labels = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8
)

shapes = st.recursive(
    st.tuples(labels, st.just(())),
    lambda children: st.tuples(labels, st.lists(children, max_size=3).map(tuple)),
    max_leaves=12,
)


def canonical(shape):
    """*shape* with every child tuple sorted."""
    label, children = shape
    return (label, tuple(sorted(canonical(child) for child in children)))


guard_terms = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**40), max_value=2**40),
        labels,
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=4).map(frozenset),
    ),
    max_leaves=10,
)

guard_keys = st.lists(guard_terms, min_size=1, max_size=5).map(tuple)

node_ids = st.integers(min_value=0, max_value=2**20)


@st.composite
def candidates(draw):
    """One raw worker candidate: ``(update, shape, is_addition, size, copies)``."""
    shape = draw(shapes)
    size = draw(st.integers(min_value=1, max_value=200))
    if draw(st.booleans()):
        update = Addition(draw(node_ids), draw(labels))
        return (update, shape, True, size, draw(st.integers(min_value=0, max_value=8)))
    return (Deletion(draw(node_ids)), shape, False, size, 0)


@st.composite
def frames(draw):
    """An encoded frame plus the payloads that went into it."""
    states = {}
    state_ids = draw(
        st.lists(node_ids, min_size=0, max_size=4, unique=True)
    )
    encoder = FrameEncoder()
    for state_id in state_ids:
        cands = draw(st.lists(candidates(), max_size=5))
        queries = draw(st.integers(min_value=0, max_value=50))
        encoder.add_state(state_id, cands, queries)
        states[state_id] = (cands, queries)
    guards = draw(st.lists(st.tuples(guard_keys, st.booleans()), max_size=5))
    encoder.add_guard_entries(guards)
    return encoder.finish(), states, guards


class TestFrameRoundTrip:
    @given(frames())
    def test_everything_round_trips(self, packed):
        data, states, guards = packed
        frame = WireFrame(data)
        assert frame.guard_entries == guards
        assert frame.state_ids() == list(states)
        # the interner answers with canonical (child-sorted) shapes
        interner = ShapeInterner()
        table = [interner.nested(sid) for sid in frame.shape_rows(interner)]
        expected_shapes = []
        for state_id, (cands, queries) in states.items():
            decoded, decoded_queries = frame.expansion(state_id)
            assert decoded_queries == queries
            assert len(decoded) == len(cands)
            for got, sent in zip(decoded, cands):
                update, shape, is_addition, size, copies = sent
                got_update, shape_index, got_is_addition, got_size, got_copies = got
                assert type(got_update) is type(update)
                if is_addition:
                    assert (got_update.parent_id, got_update.label) == (
                        update.parent_id,
                        update.label,
                    )
                else:
                    assert got_update.node_id == update.node_id
                assert table[shape_index] == canonical(shape)
                assert got_is_addition is is_addition
                assert (got_size, got_copies) == (size, copies)
                if shape not in expected_shapes:
                    expected_shapes.append(shape)
        # per-batch dedup: each distinct shape is listed exactly once
        assert table == [canonical(shape) for shape in expected_shapes]
        assert frame.shape_count == len(expected_shapes)
        assert frame.total_candidates == sum(len(c) for c, _ in states.values())


def answer(telemetry=None, guards=(), shapes=(("r", ()),), states=()) -> bytes:
    """Hand-built answer bytes, laid out as :meth:`FrameEncoder.finish`
    lays them out, with whatever contents a test needs."""
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, pickle.HIGHEST_PROTOCOL)
    pickler.dump(telemetry)
    pickler.dump(list(guards))
    pickler.dump((shapes, list(states)))
    return buffer.getvalue()


class TestFrameRejection:
    @given(frames())
    def test_every_strict_prefix_is_rejected(self, packed):
        data, _states, _guards = packed
        for cut in range(len(data)):
            with pytest.raises(WireFormatError):
                frame = WireFrame(data[:cut])
                for state_id in frame.state_ids():
                    frame.expansion(state_id)

    @given(frames(), st.binary(min_size=1, max_size=8))
    def test_trailing_garbage_is_rejected(self, packed, garbage):
        data, _states, _guards = packed
        with pytest.raises(WireFormatError):
            WireFrame(data + garbage)

    def test_each_malformed_answer_is_rejected(self):
        assert WireFrame(answer(states=[(7, 0, [(0, 0, 2)])])).expansion(7)
        with pytest.raises(WireFormatError, match="telemetry"):
            WireFrame(answer(telemetry=["not", "a", "dict"]))
        with pytest.raises(WireFormatError, match="malformed answer"):
            WireFrame(answer(states=[(7, 0)]))
        with pytest.raises(WireFormatError, match="malformed answer"):
            WireFrame(answer(shapes=None))
        for candidate in [(0, 0), (0, "a", 0, 2, 0, 9), [0, 0, 2], 5]:
            frame = WireFrame(answer(states=[(7, 0, [candidate])]))
            with pytest.raises(WireFormatError, match="layout"):
                frame.expansion(7)
        for index in [1, -1, "0", None]:
            frame = WireFrame(answer(states=[(7, 0, [(0, index, 2)])]))
            with pytest.raises(WireFormatError, match="shape"):
                frame.expansion(7)
        with pytest.raises(WireFormatError, match="state 8"):
            WireFrame(answer(states=[(7, 0, [])])).expansion(8)


class TestBinaryShapeRows:
    @given(shapes)
    def test_binary_rows_round_trip_and_agree_with_json(self, shape):
        row = encode_shape_binary(shape)
        assert decode_shape_binary(row) == shape
        assert decode_shape_row(row) == shape
        assert decode_shape_row(encode_shape(shape)) == shape
        assert decode_shape(encode_shape(shape)) == decode_shape_binary(row)

    @given(shapes)
    def test_binary_row_version_byte_is_checked(self, shape):
        row = encode_shape_binary(shape)
        with pytest.raises(WireFormatError):
            decode_shape_binary(bytes([row[0] + 1]) + row[1:])
        with pytest.raises(WireFormatError):
            decode_shape_binary(row + b"\x00")

    @given(st.lists(shapes, min_size=1, max_size=6, unique=True))
    @settings(max_examples=20, deadline=None)
    def test_sqlite_store_reads_either_row_format(self, batch):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "shapes.db"
            store = SqliteStore(path)
            for state_id, shape in enumerate(batch):
                store.put_shape(state_id, shape)
            store.close()
            # the store writes binary rows; rewrite every other one as the
            # JSON text row earlier builds wrote, so both formats are mixed
            conn = sqlite3.connect(path)
            rows = conn.execute("SELECT id, shape FROM shapes").fetchall()
            assert all(isinstance(row, bytes) for _, row in rows)
            conn.executemany(
                "UPDATE shapes SET shape = ? WHERE id = ?",
                [(encode_shape(batch[sid]), sid) for sid, _ in rows if sid % 2],
            )
            conn.commit()
            conn.close()
            # the read path detects the format per row
            reader = SqliteStore(path)
            assert list(reader.load_shapes()) == list(enumerate(batch))
            assert [reader.get_shape(i) for i in range(len(batch))] == batch
            assert [reader.get_state_id(shape) for shape in batch] == list(range(len(batch)))
            reader.close()
