"""Unit tests for shape interning and incremental shape maintenance."""

import pytest

from repro.core.instance import Instance
from repro.core.tree import LabelledTree
from repro.engine import interning
from repro.engine.interning import (
    IncrementalShaper,
    ShapeInterner,
    map_isomorphism,
)


class TestShapeInterner:
    def test_cons_assigns_one_dense_sid_per_key(self):
        interner = ShapeInterner()
        first = interner.cons(("a",))
        second = interner.cons(("a",))
        other = interner.cons(("b",))
        parent = interner.cons(("r", first, other))
        assert (first, second, other, parent) == (0, 0, 1, 2)
        assert interner.nested(parent) == ("r", (("a", ()), ("b", ())))
        assert interner.cons_tree(("r", (("b", ()), ("a", ())))) == parent

    def test_state_ids_are_dense_ints(self):
        interner = ShapeInterner()
        shape_a = ("r", (("a", ()),))
        shape_b = ("r", (("b", ()),))
        id_a, new_a = interner.state_id(shape_a)
        id_b, new_b = interner.state_id(shape_b)
        id_a2, new_a2 = interner.state_id(shape_a)
        assert (id_a, id_b) == (0, 1)
        assert new_a and new_b and not new_a2
        assert id_a2 == id_a
        assert interner.shape_of(id_b) == shape_b
        assert len(interner) == 2

    def test_lookup_of_unknown_shape(self):
        interner = ShapeInterner()
        assert interner.lookup(("r", ())) is None


class TestIncrementalShaper:
    def test_full_map_matches_tree_shapes(self, submitted_instance):
        shaper = IncrementalShaper(ShapeInterner())
        shape_map = shaper.full_map(submitted_instance)
        nested = shaper._interner.nested
        assert nested(shape_map[submitted_instance.root.node_id]) == submitted_instance.shape()
        for node in submitted_instance.nodes():
            assert nested(shape_map[node.node_id]) == submitted_instance.subtree_shape(node)

    def test_incremental_successors_match_full_recompute(self, leave_form):
        """Walk a few levels of the reachable space, checking every
        incrementally derived shape against a full ``shape()`` walk."""
        interner = ShapeInterner()
        shaper = IncrementalShaper(interner)
        instance = leave_form.initial_instance()
        shape_map = shaper.full_map(instance)
        frontier = [(instance, shape_map)]
        checked = 0
        for _ in range(3):
            next_frontier = []
            for current, current_map in frontier:
                for update in leave_form.enabled_updates(current):
                    successor, successor_map, root_shape = shaper.successor(
                        current, current_map, update
                    )
                    assert interner.nested(root_shape) == successor.shape()
                    assert successor_map == shaper.full_map(successor)
                    checked += 1
                    next_frontier.append((successor, successor_map))
            frontier = next_frontier[:6]
        assert checked > 10

    def test_successor_shape_matches_materialised_successor(self, leave_form):
        """``successor_shape`` (the copy-free worker path) must return the
        sid ``successor`` derives, for every enabled update along a breadth
        of the reachable space."""
        shaper = IncrementalShaper(ShapeInterner())
        instance = leave_form.initial_instance()
        shape_map = shaper.full_map(instance)
        frontier = [(instance, shape_map)]
        checked = 0
        for _ in range(3):
            next_frontier = []
            for current, current_map in frontier:
                for update in leave_form.enabled_updates(current):
                    shape_only = shaper.successor_shape(current, current_map, update)
                    successor, successor_map, root_shape = shaper.successor(
                        current, current_map, update
                    )
                    assert shape_only == root_shape
                    checked += 1
                    next_frontier.append((successor, successor_map))
            frontier = next_frontier[:6]
        assert checked > 10

    def test_successor_shape_matches_on_benchgen_expansions(self):
        """Every candidate the serial engine memoized across the benchgen
        bounded families: the copy-free derivation agrees with the interned
        successor shape (the exact pairing the frontier workers rely on)."""
        from repro.analysis.results import ExplorationLimits
        from repro.benchgen.families import (
            counter_machine_family,
            positive_deep_family,
        )
        from repro.engine import ExplorationEngine

        limits = ExplorationLimits(max_states=500, max_instance_nodes=14)
        for form in (positive_deep_family(3, width=2), counter_machine_family(2)[0]):
            engine = ExplorationEngine(form, limits=limits)
            engine.explore()
            checked = 0
            for state_id, (candidates, _queries) in engine._expansions.items():
                rep = engine.representative(state_id)
                rep_map = engine._shape_map_of(state_id)
                for update, succ_id, _is_add, _size, _copies in candidates:
                    derived = engine.shaper.successor_shape(rep, rep_map, update)
                    assert engine.interner.nested(derived) == engine.interner.shape_of(succ_id)
                    checked += 1
            assert checked > 20

    def test_incremental_rehashes_fewer_nodes_than_full_walks(self, leave_form):
        shaper = IncrementalShaper(ShapeInterner())
        instance = leave_form.initial_instance()
        shape_map = shaper.full_map(instance)
        current, current_map = instance, shape_map
        for _ in range(6):
            updates = leave_form.enabled_updates(current)
            if not updates:
                break
            current, current_map, _ = shaper.successor(current, current_map, updates[0])
        assert shaper.nodes_rehashed < shaper.nodes_full_equivalent


def reference_isomorphism(source, target) -> dict:
    """The mapping as first written: children sorted by a fresh recursive
    shape walk at every level."""

    def shape(node):
        return (node.label, tuple(sorted(shape(child) for child in node.children)))

    mapping = {}
    stack = [(source, target)]
    while stack:
        from_node, to_node = stack.pop()
        mapping[from_node.node_id] = to_node.node_id
        stack.extend(zip(sorted(from_node.children, key=shape), sorted(to_node.children, key=shape)))
    return mapping


class TestMapIsomorphism:
    def test_same_mappings_as_the_reference_walk(self, leave_form):
        """Over a breadth of the reachable space, mapping each state onto
        a rebuilt copy (other node ids, other child order) gives exactly
        the mapping of the per-level recursive walk."""
        frontier = [leave_form.initial_instance()]
        checked = 0
        for _ in range(4):
            next_frontier = []
            for current in frontier:
                rebuilt = LabelledTree.from_nested(current.shape())
                assert map_isomorphism(current.root, rebuilt.root) == reference_isomorphism(
                    current.root, rebuilt.root
                )
                assert map_isomorphism(rebuilt.root, current.root) == reference_isomorphism(
                    rebuilt.root, current.root
                )
                checked += 1
                next_frontier.extend(
                    leave_form.apply_unchecked(current, update)
                    for update in leave_form.enabled_updates(current)
                )
            frontier = next_frontier[:8]
        assert checked > 10

    def test_maps_between_renamed_copies(self, leave_schema):
        left = Instance.from_paths(leave_schema, ["a/n", "a/p/b", "s"])
        # build the same tree in a different insertion order => different ids
        right = Instance.from_paths(leave_schema, ["s", "a/p/b", "a/n"])
        mapping = map_isomorphism(left.root, right.root)
        assert len(mapping) == left.size()
        for node in left.nodes():
            image = right.node(mapping[node.node_id])
            assert image.label == node.label
            assert left.subtree_shape(node) == right.subtree_shape(image)

    def test_rejects_non_isomorphic_trees(self, leave_schema):
        left = Instance.from_paths(leave_schema, ["a"])
        right = Instance.from_paths(leave_schema, ["s"])
        with pytest.raises(ValueError):
            map_isomorphism(left.root, right.root)

    def test_chain_mapping_computes_each_shape_once(self, monkeypatch):
        """Each node's shape is built once per tree, not once per level of
        the sibling sorts: a 400-deep chain costs 2 x 401 shape builds."""
        depth = 400
        left = LabelledTree()
        right = LabelledTree()
        left_tip, right_tip = left.root, right.root
        for _ in range(depth):
            left_tip = left.add_leaf(left_tip, "a")
            right.add_leaf(right_tip, "b")  # a decoy leaf shifts the node ids
            right_tip = right.add_leaf(right_tip, "a")
            right.remove_leaf(right_tip.parent.children[0])
        calls = []
        node_shape = interning._node_shape

        def counting(node, shapes):
            calls.append(node.node_id)
            return node_shape(node, shapes)

        monkeypatch.setattr(interning, "_node_shape", counting)
        mapping = map_isomorphism(left.root, right.root)
        assert len(calls) == left.size() + right.size() == 2 * (depth + 1)
        assert len(mapping) == depth + 1
        assert sorted(mapping.values()) == sorted(node.node_id for node in right.nodes())
        for node in left.nodes():
            assert left.subtree_shape(node) == right.subtree_shape(mapping[node.node_id])
