"""Hash-consed subtree ids and incremental shape maintenance.

The bounded explorer deduplicates states by the isomorphism-invariant
:data:`~repro.core.tree.Shape` of their instances.  As nested tuples, shapes
cost O(tree size) to hash and compare on every probe (Python does not cache
tuple hashes).  This module keys everything by small ints instead:

* :class:`ShapeInterner` hash-conses every subtree to a dense **subtree id**
  (sid).  A sid's key is ``(label, *sorted child sids)``, so interning a
  node costs O(children), never O(subtree), and equal shapes get equal sids.
  Full-state shapes are root sids, and each gets a dense **state id**, so
  state keys used by the exploration engine are O(1)-comparable ints.

  Nested tuples and the canonical binary store row
  (:func:`~repro.io.serialization.encode_shape_binary`) are derived from a
  sid on demand and memoized: the encoding compositionally, one *body* per
  sid (its label framing, its child-count varint and its children's bodies
  in nested-tuple order), so a new state's row only encodes the subtrees its
  update rewrote.  The sid table is append-only (guard keys hold sids); the
  nested-tuple and encoding memos are what a resident budget drops
  (:meth:`ShapeInterner.trim_memos`).

  On a store-backed engine the state ids form a **two-tier table**: the
  resident dict is consulted first, and a miss falls back to the store's
  reverse lookup (:meth:`~repro.engine.store.SqliteStore.get_state_id`,
  indexed by ``shape_hash``) before a new id is ever assigned.  Attaching to
  a populated store therefore restores nothing up front:
  :meth:`~ShapeInterner.bind_persisted` records the persisted id range (so
  ``len`` and new id assignment stay exact), rows are pulled in on first
  touch, and resident rows can be evicted again
  (:meth:`~ShapeInterner.evict_states`) under a resident budget — ids never
  change either way, which the residency property suite pins.

* :class:`IncrementalShaper` maintains, per state, a ``node_id -> sid`` map
  for the state's representative instance.  A successor changes one
  root-to-leaf path (the only updates are leaf additions and deletions), so
  its root sid is derived from the parent's map: the rewrite at the updated
  node is memoized per ``(sid, label)`` or ``(sid, leaf sid)``, and each
  ancestor's key is rebuilt from its old key by swapping one child sid.

* :func:`map_isomorphism` computes an explicit isomorphism between two
  isomorphic trees; the engine uses it to translate witness runs recorded
  against canonical representatives back onto a caller-supplied start
  instance.

``tests/property/test_sid_properties.py`` pins the sid table against the
nested-tuple reference: round trips, equal shapes ⇔ equal sids, and the
encoding and digest of every root.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left, insort
from collections import OrderedDict
from typing import Optional

from repro.core.guarded_form import Addition, Update
from repro.core.instance import Instance
from repro.core.tree import LabelledTree, Node, Shape
from repro.io.serialization import SHAPE_BINARY_VERSION, write_str, write_uvarint

#: Interned state identifier: dense, assigned in first-interned order.
StateId = int

#: Interned subtree identifier: an index into the interner's key table.
SubtreeId = int


class ShapeInterner:
    """Subtree ids for every shape the engine meets, and state ids for roots.

    ``cons`` hash-conses one node's key; ``cons_tree`` a whole nested-tuple
    shape; ``state_id_row`` assigns a dense state id to a root sid and
    ``state_id`` to a nested-tuple shape.  ``nested``, ``encoded`` and
    ``stable_hash`` derive a sid's tuple, store row and digest;
    ``shape_of`` returns the nested tuple of a state id.

    With a persistent *store* attached, state ids need not all be resident:
    a ``state_id_row`` miss falls back to the store's ``shape_hash`` reverse
    lookup, a ``shape_of`` miss to the store's row read, and either hit
    re-registers the row resident.  ``len`` counts *assigned* state ids
    (dense, including non-resident ones), never just the resident slice.
    """

    def __init__(self, store=None) -> None:
        #: ``(label, *sorted child sids)`` -> sid, and sid -> key
        self._sids: dict = {}
        self._keys: list = []
        #: ``(sid, label)`` -> sid with a *label* leaf added under the root,
        #: ``(sid, leaf sid)`` -> sid with one such leaf child removed
        self._edits: dict = {}
        #: Droppable memos: sid -> nested tuple, nested tuple -> sid (the
        #: shapes ``cons_tree`` was handed), sid -> encoding body.
        self._nested: dict = {}
        self._by_nested: dict = {}
        self._bodies: dict = {}
        self._label_framing: dict = {}  # label -> length-prefixed UTF-8
        self._ids: dict = {}  # root sid -> StateId (resident tier)
        #: StateId -> root sid, maintained in recency-of-access order
        #: (front = coldest) so budget eviction can drop the least recently
        #: used residents first.
        self._shapes: OrderedDict = OrderedDict()
        #: Next id to assign; equals ``max persisted or interned id + 1``.
        self._next_id: StateId = 0
        #: Persistent write-through sink and fallback tier (a persistent
        #: :class:`~repro.engine.store.StateStore`), or ``None``.
        self._store = store
        #: Persisted rows not currently resident; while positive, unknown
        #: shapes consult the store before being assigned a fresh id.  Zero
        #: on fresh stores, so the fully-resident hot path pays nothing.
        self._nonresident = 0
        #: Distinct persisted ids restored from the store so far (re-restores
        #: after eviction do not count twice) — the basis for the engine's
        #: ``hydration_rows_skipped`` statistic.  Only ids within the
        #: persisted-at-attach range count: rows this process interned and
        #: evicted come back through the same fallback but are not
        #: *hydration*.
        self._restored_ids: set = set()
        #: Highest id persisted when :meth:`bind_persisted` ran (-1: never).
        self._persisted_max: StateId = -1
        self.state_hits = 0
        self.state_misses = 0
        self.states_restored = 0
        self.states_evicted = 0
        self.store_id_lookups = 0
        self.memos_dropped = 0

    # ------------------------------------------------------------------ #
    # subtree ids
    # ------------------------------------------------------------------ #

    def cons(self, key: tuple) -> SubtreeId:
        """The sid of the node whose key is *key* — ``(label, *child sids)``,
        child sids sorted — assigning the next sid on first sight."""
        sid = self._sids.get(key)
        if sid is None:
            sid = self._sids[key] = len(self._keys)
            self._keys.append(key)
        return sid

    def cons_tree(self, shape: Shape) -> SubtreeId:
        """The sid of a nested-tuple *shape*, interning every subtree of it.

        Used where shapes enter the engine from outside the incremental
        derivation path (store rows, worker answers); the shapes handed in
        are memoized, so a shape that arrives again costs one tuple hash.
        Child order does not matter: equal shapes get equal sids.
        """
        sid = self._by_nested.get(shape)
        if sid is None:
            sid = self._by_nested[shape] = self._cons_nested(shape)
        return sid

    def _cons_nested(self, shape: Shape) -> SubtreeId:
        label, children = shape
        if children:
            key = (label, *sorted([self._cons_nested(child) for child in children]))
        else:
            key = (label,)
        sid = self._sids.get(key)
        return sid if sid is not None else self.cons(key)

    def added(self, sid: SubtreeId, label: str) -> SubtreeId:
        """The sid of subtree *sid* with one *label* leaf added under its
        root (memoized)."""
        edit = (sid, label)
        result = self._edits.get(edit)
        if result is None:
            key = list(self._keys[sid])
            insort(key, self.cons((label,)), 1)
            result = self._edits[edit] = self.cons(tuple(key))
        return result

    def removed(self, sid: SubtreeId, leaf: SubtreeId) -> SubtreeId:
        """The sid of subtree *sid* with one child of sid *leaf* removed
        (memoized)."""
        edit = (sid, leaf)
        result = self._edits.get(edit)
        if result is None:
            key = list(self._keys[sid])
            del key[bisect_left(key, leaf, 1)]
            result = self._edits[edit] = self.cons(tuple(key))
        return result

    def nested(self, sid: SubtreeId) -> Shape:
        """The nested-tuple shape of *sid* (memoized)."""
        shape = self._nested.get(sid)
        if shape is None:
            key = self._keys[sid]
            nested = self.nested
            shape = (key[0], tuple(sorted([nested(child) for child in key[1:]])))
            self._nested[sid] = shape
        return shape

    def _body(self, sid: SubtreeId) -> bytes:
        """The encoding of *sid* without the version byte: label framing,
        child-count varint, then the children's bodies in nested-tuple
        order (memoized)."""
        body = self._bodies.get(sid)
        if body is None:
            key = self._keys[sid]
            label = key[0]
            framing = self._label_framing.get(label)
            if framing is None:
                out = bytearray()
                write_str(out, label)
                framing = self._label_framing[label] = bytes(out)
            out = bytearray(framing)
            count = len(key) - 1
            write_uvarint(out, count)
            children = key[1:]
            # sorted by sid, so equal ends mean every child is one subtree
            if count > 1 and children[0] != children[-1]:
                children = sorted(children, key=self.nested)
            for child in children:
                out += self._body(child)
            body = self._bodies[sid] = bytes(out)
        return body

    def encoded(self, sid: SubtreeId) -> bytes:
        """The canonical binary encoding of *sid*: byte for byte
        :func:`~repro.io.serialization.encode_shape_binary` of its nested
        shape, the store-row format."""
        return bytes((SHAPE_BINARY_VERSION,)) + self._body(sid)

    def stable_hash(self, sid: SubtreeId) -> int:
        """:func:`~repro.io.serialization.stable_shape_hash` of *sid*: the
        CRC of its encoding."""
        return zlib.crc32(self.encoded(sid))

    def trim_memos(self, limit: int = 4096) -> int:
        """Drop the nested-tuple and encoding memos once they hold more than
        *limit* entries (budget enforcement); returns the entries dropped.

        Sids stay valid: every memo is recomputed from the key table on
        demand.
        """
        memos = (self._nested, self._by_nested, self._bodies)
        held = sum(len(memo) for memo in memos)
        if held <= limit:
            return 0
        for memo in memos:
            memo.clear()
        self.memos_dropped += held
        return held

    # ------------------------------------------------------------------ #
    # state ids
    # ------------------------------------------------------------------ #

    def state_id(self, shape: Shape) -> tuple[StateId, bool]:
        """Intern a nested-tuple full-state shape; return ``(id, is_new)``
        (see :meth:`state_id_row`)."""
        return self.state_id_row(self.cons_tree(shape))

    def state_id_row(self, sid: SubtreeId) -> tuple[StateId, bool]:
        """Intern the full-state shape with root sid *sid*; return
        ``(id, is_new)``.

        The resident tier answers first; when persisted non-resident rows
        exist, an unknown shape consults the store's reverse lookup with the
        sid's digest and encoding and — on a hit — is restored resident
        under its persisted id.  Only a shape absent from both tiers gets a
        fresh id, so ids are bit-identical whether or not rows were hydrated
        or evicted in between.
        """
        existing = self._ids.get(sid)
        if existing is not None:
            self.state_hits += 1
            self._shapes.move_to_end(existing)
            return existing, False
        store = self._store
        if self._nonresident > 0 and store is not None:
            self.store_id_lookups += 1
            encoded = self.encoded(sid)
            found = store.get_state_id(None, digest=zlib.crc32(encoded), encoded=encoded)
            if found is not None:
                self._make_resident(found, sid)
                self.state_hits += 1
                return found, False
        self.state_misses += 1
        new_id = self._next_id
        self._next_id += 1
        self._ids[sid] = new_id
        self._shapes[new_id] = sid
        if store is not None:
            encoded = self.encoded(sid)
            store.put_shape(new_id, None, encoded=encoded, digest=zlib.crc32(encoded))
        return new_id, True

    def _make_resident(self, state_id: StateId, sid: SubtreeId) -> None:
        """Register a store row on the resident tier (shared restore path)."""
        if state_id not in self._shapes and self._nonresident > 0:
            self._nonresident -= 1
        self._ids[sid] = state_id
        self._shapes[state_id] = sid
        if state_id <= self._persisted_max:
            self._restored_ids.add(state_id)
        self.states_restored += 1

    def bind_persisted(self, max_state_id: StateId, row_count: int) -> None:
        """Attach *row_count* persisted rows with ids up to *max_state_id*
        without restoring any of them.

        New shapes get ids above the persisted range, ``len`` counts the
        persisted ids as assigned, and unknown shapes fall back to the
        store's reverse lookup while non-resident rows remain.  Idempotent —
        a retried hydration (after a mid-hydration failure) recomputes the
        non-resident count from what is actually resident.
        """
        self._next_id = max(self._next_id, max_state_id + 1)
        self._persisted_max = max(self._persisted_max, max_state_id)
        resident_persisted = sum(1 for state_id in self._shapes if state_id <= max_state_id)
        self._nonresident = max(0, row_count - resident_persisted)

    def restore(self, state_id: StateId, shape: Shape) -> None:
        """Re-intern a persisted nested-tuple shape under its recorded id.

        Any persisted row may be restored at any time (the two-tier fallback
        does exactly that on first touch), and restoring an already-resident
        row is a harmless overwrite.  Restored rows are not written back to
        the store.
        """
        self._make_resident(state_id, self.cons_tree(shape))
        self._next_id = max(self._next_id, state_id + 1)

    def evict_states(self, keep: int) -> int:
        """Drop least-recently-used resident full-state shapes beyond *keep*.

        Only meaningful with a backing store (evicted rows are transparently
        restored through the reverse-lookup / row-read fallbacks); returns
        the number evicted.  Ids are never invalidated by eviction.
        """
        if self._store is None:
            return 0
        evicted = 0
        while len(self._shapes) > keep:
            _state_id, sid = self._shapes.popitem(last=False)
            del self._ids[sid]
            self._nonresident += 1
            evicted += 1
        self.states_evicted += evicted
        return evicted

    def lookup(self, shape: Shape) -> Optional[StateId]:
        """The id of the nested-tuple *shape* if it is resident, else
        ``None`` (the resident tier only; ``state_id`` is the
        store-consulting entry point)."""
        return self._ids.get(self.cons_tree(shape))

    def _root_sid(self, state_id: StateId) -> SubtreeId:
        """The root sid of *state_id* (restored from the store when not
        resident)."""
        sid = self._shapes.get(state_id)
        if sid is not None:
            self._shapes.move_to_end(state_id)
            return sid
        if self._store is not None and 0 <= state_id < self._next_id:
            stored = self._store.get_shape(state_id)
            if stored is not None:
                sid = self.cons_tree(stored)
                self._make_resident(state_id, sid)
                return sid
        raise IndexError(
            f"state id {state_id} is not interned (and not in the backing store)"
        )

    def shape_of(self, state_id: StateId) -> Shape:
        """The nested-tuple shape interned under *state_id*."""
        return self.nested(self._root_sid(state_id))

    def stable_hash_of(self, state_id: StateId) -> int:
        """The :func:`~repro.io.serialization.stable_shape_hash` of the shape
        interned under *state_id*."""
        return self.stable_hash(self._root_sid(state_id))

    @property
    def resident(self) -> int:
        """How many full-state shapes are resident right now."""
        return len(self._shapes)

    @property
    def states_restored_distinct(self) -> int:
        """Distinct persisted rows restored so far (eviction/re-restore
        cycles count once)."""
        return len(self._restored_ids)

    def __len__(self) -> int:
        """Assigned state ids — resident or not."""
        return self._next_id

    def stats(self) -> dict:
        """Counter snapshot for :class:`AnalysisResult` stats."""
        return {
            "interned_states": self._next_id,
            "interned_subtrees": len(self._keys),
            "subtree_edits": len(self._edits),
            "states_resident": len(self._shapes),
            "state_hits": self.state_hits,
            "state_misses": self.state_misses,
            "states_restored": self.states_restored,
            "states_restored_distinct": len(self._restored_ids),
            "states_evicted": self.states_evicted,
            "store_id_lookups": self.store_id_lookups,
            "memos_dropped": self.memos_dropped,
        }


class IncrementalShaper:
    """Derives successor shapes incrementally from per-state sid maps."""

    def __init__(self, interner: ShapeInterner) -> None:
        self._interner = interner
        self.nodes_rehashed = 0  # node keys actually rebuilt
        self.nodes_full_equivalent = 0  # what full per-successor walks would cost

    def full_map(self, tree: LabelledTree) -> dict[int, SubtreeId]:
        """``node_id -> sid`` for every node of *tree*."""
        sids = self._interner._sids
        cons = self._interner.cons
        shape_map: dict[int, SubtreeId] = {}
        # reversed pre-order visits every node after all of its descendants
        for node in reversed(list(tree.nodes())):
            children = node.children
            if children:
                key = (node.label, *sorted([shape_map[child.node_id] for child in children]))
            else:
                key = (node.label,)
            sid = sids.get(key)
            shape_map[node.node_id] = sid if sid is not None else cons(key)
        self.nodes_rehashed += len(shape_map)
        self.nodes_full_equivalent += len(shape_map)
        return shape_map

    def _rewrite(
        self,
        instance: Instance,
        shape_map: dict,
        update: Update,
        out: Optional[dict],
    ) -> SubtreeId:
        """The root sid of ``apply(update)`` to *instance*, whose map is
        *shape_map*; the new sid of every node on the updated path is
        written to *out* when given."""
        interner = self._interner
        is_addition = isinstance(update, Addition)
        if is_addition:
            node = instance.node(update.parent_id)
            new = interner._edits.get((shape_map[node.node_id], update.label))
            if new is None:
                new = interner.added(shape_map[node.node_id], update.label)
            rehashed = 2  # the new leaf and its parent
        else:
            leaf = instance.node(update.node_id)
            node = leaf.parent
            new = interner.removed(shape_map[node.node_id], shape_map[leaf.node_id])
            rehashed = 1
        if out is not None:
            out[node.node_id] = new
        keys = interner._keys
        sids = interner._sids
        parent = node.parent
        while parent is not None:
            # swap the rewritten child's sid in the parent's key
            key = keys[shape_map[parent.node_id]]
            if len(key) == 2:
                key = (key[0], new)
            else:
                key = list(key)
                del key[bisect_left(key, shape_map[node.node_id], 1)]
                insort(key, new, 1)
                key = tuple(key)
            new = sids.get(key)
            if new is None:
                new = interner.cons(key)
            if out is not None:
                out[parent.node_id] = new
            rehashed += 1
            node = parent
            parent = node.parent
        self.nodes_rehashed += rehashed
        self.nodes_full_equivalent += instance.size() + (1 if is_addition else -1)
        return new

    def successor(
        self,
        instance: Instance,
        shape_map: dict[int, SubtreeId],
        update: Update,
    ) -> tuple[Instance, dict[int, SubtreeId], SubtreeId]:
        """Apply *update* to a copy of *instance* and derive the successor's
        sid map from the parent's.

        Returns ``(successor instance, successor sid map, root sid)``.  Only
        the nodes on the path from the updated node to the root get new
        sids; every untouched subtree keeps the parent's.
        """
        new_map = dict(shape_map)
        root = self._rewrite(instance, shape_map, update, new_map)
        successor = instance.copy()
        if isinstance(update, Addition):
            leaf = successor.add_field(successor.node(update.parent_id), update.label)
            new_map[leaf.node_id] = self._interner.cons((update.label,))
        else:
            successor.remove_field(successor.node(update.node_id))
            del new_map[update.node_id]
        return successor, new_map, root

    def successor_shape(
        self,
        instance: Instance,
        shape_map: dict[int, SubtreeId],
        update: Update,
    ) -> SubtreeId:
        """The root sid of ``apply(update)`` *without* materialising the
        successor instance.

        Equivalent to ``successor(...)[2]`` — the same path rewrite — but
        skipping the deep copy of the instance and the successor sid map.
        Both the serial engine (every candidate, before it knows whether the
        successor is new) and the frontier workers use it;
        :meth:`successor` runs only when a successor's representative is
        actually needed.
        """
        return self._rewrite(instance, shape_map, update, None)

    def stats(self) -> dict:
        """Counter snapshot for :class:`AnalysisResult` stats."""
        saved = self.nodes_full_equivalent - self.nodes_rehashed
        return {
            "nodes_rehashed": self.nodes_rehashed,
            "nodes_full_walk_equivalent": self.nodes_full_equivalent,
            "nodes_saved": saved,
        }


def _node_shape(node: Node, shapes: dict) -> Shape:
    """The shape of *node*, given the shapes of its children in *shapes*."""
    return (node.label, tuple(sorted([shapes[child.node_id] for child in node.children])))


def _shape_table(root: Node) -> dict:
    """``node_id -> shape`` for every node under *root*, each computed once."""
    shapes: dict = {}
    # reversed pre-order visits every node after all of its descendants
    for node in reversed(list(root.iter_subtree())):
        shapes[node.node_id] = _node_shape(node, shapes)
    return shapes


def map_isomorphism(source: Node, target: Node) -> dict[int, int]:
    """An explicit isomorphism (``source node_id -> target node_id``) between
    the isomorphic trees rooted at *source* and *target*.

    Children are matched by sorted subtree shape; within a group of
    same-shape siblings any pairing is an isomorphism (they are related by an
    automorphism), so the first consistent one is returned.  Each node's
    shape is computed once per tree, so the cost is linear in the tree size
    plus the sibling sorts.

    Raises:
        ValueError: when the trees are not isomorphic.
    """
    source_shapes = _shape_table(source)
    target_shapes = _shape_table(target)
    if source_shapes[source.node_id] != target_shapes[target.node_id]:
        raise ValueError("cannot map between non-isomorphic trees")
    mapping: dict[int, int] = {}
    stack = [(source, target)]
    while stack:
        from_node, to_node = stack.pop()
        mapping[from_node.node_id] = to_node.node_id
        stack.extend(
            zip(
                sorted(from_node.children, key=lambda node: source_shapes[node.node_id]),
                sorted(to_node.children, key=lambda node: target_shapes[node.node_id]),
            )
        )
    return mapping
