"""Canonical instances (Definition 3.8, Lemma 3.9, Figure 3).

Every class of formula-equivalent instances contains a single canonical
instance (up to isomorphism) obtained by quotienting an instance by the
formula equivalence between its own nodes.  Canonical instances are the state
representation used by the workflow analyses:

* for depth-1 guarded forms, Lemma 4.3 shows that reachability and
  completability can be decided entirely on canonical instances, which is how
  Theorem 4.6 obtains the PSPACE upper bound;
* for deeper schemas, canonical instances still provide a sound way to check
  formula values (Lemma 3.9) but *not* a sound state quotient for
  reachability (updates on one member of an equivalence class are not
  mirrored on the others), which is why the bounded explorer for deep schemas
  deduplicates by isomorphism instead — see
  :mod:`repro.analysis.statespace`.
"""

from __future__ import annotations

from repro.core.equivalence import node_equivalence_classes
from repro.core.instance import Instance
from repro.core.schema import Schema
from repro.core.tree import LabelledTree, Shape
from repro.exceptions import InstanceError


def canonical_instance(instance: Instance) -> Instance:
    """The canonical instance ``can(I)`` of Definition 3.8.

    Nodes are the formula-equivalence classes of the nodes of *instance*;
    there is an edge between two classes when some pair of representatives is
    connected by an edge; the label of a class is the (shared) label of its
    members.
    """
    tree = _quotient(instance)
    result = Instance.from_shape(instance.schema, tree.shape())
    return result


def canonical_tree(tree: LabelledTree) -> LabelledTree:
    """The quotient construction for arbitrary rooted node-labelled trees."""
    return _quotient(tree)


def canonical_shape(instance: LabelledTree) -> Shape:
    """The :data:`~repro.core.tree.Shape` of the canonical instance.

    Two instances are formula equivalent iff their canonical shapes are equal
    (Lemma 3.9: ``I ∼ can(I)`` and canonical instances of equivalent
    instances are isomorphic), so this value is usable as a dictionary key for
    state deduplication wherever formula equivalence is the right notion of
    state identity.
    """
    return _quotient(instance).shape()


def is_canonical(instance: LabelledTree) -> bool:
    """``True`` when *instance* is (isomorphic to) its own canonical form."""
    return instance.shape() == _quotient(instance).shape()


def _quotient(tree: LabelledTree) -> LabelledTree:
    classes = node_equivalence_classes(tree)

    # representative structure: class of root, class adjacency via edges
    root_class = classes[tree.root.node_id]
    children_of: dict[int, set[int]] = {}
    labels: dict[int, str] = {}
    parents_of: dict[int, set[int]] = {}
    for node in tree.nodes():
        node_class = classes[node.node_id]
        labels[node_class] = node.label
        children_of.setdefault(node_class, set())
        for child in node.children:
            child_class = classes[child.node_id]
            children_of[node_class].add(child_class)
            parents_of.setdefault(child_class, set()).add(node_class)

    # Definition 3.8 remarks the quotient of an instance is again a tree: two
    # equivalent nodes are either both the root or have equivalent parents.
    for node_class, parent_classes in parents_of.items():
        if len(parent_classes) > 1:
            raise InstanceError(
                "the quotient by formula equivalence is not a tree; the input "
                "is not a valid rooted node-labelled tree"
            )

    result = LabelledTree(labels[root_class])
    stack = [(root_class, result.root)]
    seen = {root_class}
    while stack:
        node_class, node = stack.pop()
        for child_class in children_of.get(node_class, ()):
            if child_class in seen:
                raise InstanceError(
                    "the quotient by formula equivalence contains a cycle; the "
                    "input is not a valid rooted node-labelled tree"
                )
            seen.add(child_class)
            child_node = result.add_leaf(node, labels[child_class])
            stack.append((child_class, child_node))
    return result


def canonical_depth1_state(instance: LabelledTree) -> frozenset[str]:
    """The canonical form of a depth-1 instance, as a set of child labels.

    For depth-1 instances two nodes are formula equivalent exactly when they
    carry the same label, so the canonical instance is fully described by the
    set of labels occurring below the root.  The depth-1 decision procedures
    (Theorem 4.6, Corollary 4.7, Corollary 5.7) work directly on these sets.
    """
    if instance.depth() > 1:
        raise InstanceError(
            f"instance has depth {instance.depth()}, expected a depth-1 instance"
        )
    return frozenset(child.label for child in instance.root.children)


def depth1_state_to_instance(schema: Schema, state: frozenset[str]) -> Instance:
    """Materialise a depth-1 canonical state back into an instance."""
    instance = Instance.empty(schema)
    for label in sorted(state):
        instance.add_field(instance.root, label)
    return instance


def depth1_label_bits(schema: Schema) -> dict:
    """The bit of each root-child label in a depth-1 state mask.

    Bit *i* stands for the *i*-th root child of *schema*, in schema order; a
    canonical depth-1 state (a label set) is the sum of its labels' bits.
    """
    return {child.label: 1 << index for index, child in enumerate(schema.root.children)}


def depth1_state_mask(bits: dict, state: frozenset[str]) -> int:
    """The bitmask of the canonical depth-1 *state* (see
    :func:`depth1_label_bits`)."""
    return sum(map(bits.__getitem__, state))


def depth1_mask_state(bits: dict, mask: int) -> frozenset[str]:
    """The canonical depth-1 state (label set) of the bitmask *mask*."""
    return frozenset(label for label, bit in bits.items() if mask & bit)
