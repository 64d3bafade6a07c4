"""Hypothesis properties of the subtree-id table and the varint codec.

The contracts, pinned over arbitrary shapes and any interleaving of
``full_map``, ``successor_shape``, ``cons_tree`` and memo drops on one
:class:`~repro.engine.interning.ShapeInterner`:

* **round trips** — ``nested(cons_tree(s)) == s`` for every canonical
  (child-sorted) nested-tuple shape ``s``;
* **identity** — equal shapes get equal subtree ids and different shapes
  different ones, however a shape was reached (a whole tree, a path
  rewrite, a nested tuple);
* **encodings** — a subtree id's encoding is byte for byte
  :func:`encode_shape_binary` of its shape, and its digest
  :func:`stable_shape_hash`, with or without the memos dropped in between;
* **varints** — :func:`read_uvarint` returns the values
  :func:`write_uvarint` wrote and their end position.

The dedicated CI job runs this module with ``--hypothesis-profile=ci``.
"""

from __future__ import annotations

import zlib

from hypothesis import given
from hypothesis import strategies as st

from repro.core.guarded_form import Addition, Deletion
from repro.core.tree import LabelledTree, Shape
from repro.engine.interning import IncrementalShaper, ShapeInterner
from repro.io.serialization import (
    encode_shape_binary,
    read_uvarint,
    stable_shape_hash,
    write_uvarint,
)

#: Labels that can name tree nodes: few and short, so shapes share subtrees.
labels = st.sampled_from(["a", "b", "ab", "x2"])

#: Any text, for shapes that never become trees: label framing of several
#: bytes, and child orders that differ between text and UTF-8 bytes.
wide_labels = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8)


def canonical(shape: Shape) -> Shape:
    """*shape* with every child tuple sorted, as ``LabelledTree.shape`` has it."""
    label, children = shape
    return (label, tuple(sorted(canonical(child) for child in children)))




def shapes_over(label_strategy):
    return st.recursive(
        st.tuples(label_strategy, st.just(())),
        lambda children: st.tuples(label_strategy, st.lists(children, max_size=4).map(tuple)),
        max_leaves=14,
    ).map(lambda shape: canonical(("r", (shape,))))


shapes = shapes_over(labels)
wide_shapes = shapes_over(wide_labels)

#: One step of a workload: an operation, the index of the shape it starts
#: from, and a node index and label for a path rewrite.
operations = st.tuples(
    st.sampled_from(["cons_tree", "full_map", "add", "delete", "encode", "drop"]),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=63),
    labels,
)

uvarint_values = st.one_of(
    st.integers(min_value=0, max_value=127),  # single-byte varints
    st.integers(min_value=0, max_value=(1 << 64) - 1),
)


class SidOracle:
    """An interner with the nested-tuple reference of every sid it gave."""

    def __init__(self) -> None:
        self.interner = ShapeInterner()
        self.shaper = IncrementalShaper(self.interner)
        self.sid_of: dict = {}
        self.shape_of: dict = {}

    def check(self, sid: int, shape: Shape) -> None:
        """*sid* was returned for *shape*: both directions must agree with
        every earlier answer, and the sid must round-trip."""
        assert self.sid_of.setdefault(shape, sid) == sid
        assert self.shape_of.setdefault(sid, shape) == shape
        assert self.interner.nested(sid) == shape

    def rewrite(self, shape: Shape, node_index: int, label: str, add: bool) -> None:
        """Rewrite one path of the tree of *shape* and check the root sid
        against the rewritten tree's shape."""
        tree = LabelledTree.from_nested(shape)
        shape_map = self.shaper.full_map(tree)
        nodes = list(tree.nodes())
        if add:
            node = nodes[node_index % len(nodes)]
            update = Addition(node.node_id, label)
        else:
            leaves = [node for node in nodes if not node.children and node.parent is not None]
            node = leaves[node_index % len(leaves)]
            update = Deletion(node.node_id)
        root = self.shaper.successor_shape(tree, shape_map, update)
        if add:
            tree.add_leaf(node, label)
        else:
            tree.remove_leaf(node)
        self.check(root, tree.shape())


class TestSidTable:
    @given(wide_shapes)
    def test_nested_round_trip(self, shape):
        interner = ShapeInterner()
        sid = interner.cons_tree(shape)
        assert interner.nested(sid) == shape
        assert interner.cons_tree(shape) == sid
        interner.trim_memos(limit=0)
        assert interner.nested(sid) == shape
        assert interner.cons_tree(shape) == sid

    @given(shapes)
    def test_full_map_agrees_with_cons_tree(self, shape):
        interner = ShapeInterner()
        shaper = IncrementalShaper(interner)
        tree = LabelledTree.from_nested(shape)
        shape_map = shaper.full_map(tree)
        for node in tree.nodes():
            assert interner.nested(shape_map[node.node_id]) == tree.subtree_shape(node)
        assert shape_map[tree.root.node_id] == interner.cons_tree(shape)

    @given(wide_shapes)
    def test_encoding_and_digest_match_the_reference(self, shape):
        interner = ShapeInterner()
        sid = interner.cons_tree(shape)
        assert interner.encoded(sid) == encode_shape_binary(shape)
        assert interner.stable_hash(sid) == stable_shape_hash(shape)
        assert interner.stable_hash(sid) == zlib.crc32(encode_shape_binary(shape))

    @given(st.lists(shapes, min_size=1, max_size=8), st.lists(operations, max_size=40))
    def test_any_interleaving_keeps_sids_canonical(self, batch, ops):
        oracle = SidOracle()
        interner = oracle.interner
        for op, index, node_index, label in ops:
            shape = batch[index % len(batch)]
            if op == "cons_tree":
                oracle.check(interner.cons_tree(shape), shape)
            elif op == "full_map":
                tree = LabelledTree.from_nested(shape)
                oracle.check(oracle.shaper.full_map(tree)[tree.root.node_id], shape)
            elif op in ("add", "delete"):
                oracle.rewrite(shape, node_index, label, op == "add")
            elif op == "encode":
                for sid, known in oracle.shape_of.items():
                    assert interner.encoded(sid) == encode_shape_binary(known)
                    assert interner.stable_hash(sid) == stable_shape_hash(known)
            else:
                interner.trim_memos(limit=0)
        for sid, known in oracle.shape_of.items():
            assert interner.nested(sid) == known
            assert interner.cons_tree(known) == sid
            assert interner.encoded(sid) == encode_shape_binary(known)
            assert interner.stable_hash(sid) == stable_shape_hash(known)


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
