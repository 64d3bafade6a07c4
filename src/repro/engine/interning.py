"""Hash-consed shape interning and incremental shape maintenance.

The bounded explorer deduplicates states by the isomorphism-invariant
:data:`~repro.core.tree.Shape` of their instances.  Shapes are nested tuples;
comparing and hashing them is O(tree size), and the legacy explorer recomputed
them from scratch for every successor.  This module removes both costs:

* :class:`ShapeInterner` hash-conses shapes.  Every subtree shape is mapped to
  a single canonical tuple object (structurally equal subtrees share one
  object, so equality checks short-circuit on identity and memory stays
  proportional to the number of *distinct* subtrees), and every full-state
  shape is mapped to a small integer id.  State keys used by the exploration
  engine are therefore O(1)-comparable ints.

  On a store-backed engine the interner is a **two-tier table**: the resident
  dict is consulted first, and a miss falls back to the store's reverse
  lookup (:meth:`~repro.engine.store.SqliteStore.get_state_id`, indexed by
  ``shape_hash``) before a new id is ever assigned.  Attaching to a populated
  store therefore no longer bulk-restores the whole shape table:
  :meth:`bind_persisted` records the persisted id range (so ``len`` and new
  id assignment stay exact), rows are pulled in on first touch, and resident
  rows can be evicted again (:meth:`evict_states`) under a resident budget —
  ids never change either way, which the residency property suite pins.

* :class:`IncrementalShaper` maintains, per state, a ``node_id -> Shape`` map
  for the state's representative instance.  The shape of a successor is then
  computed from the parent's map plus the applied update: only the shapes on
  the root-to-update path are rebuilt (O(depth x branching)), instead of
  re-walking the whole tree (O(size log size)).

* :func:`map_isomorphism` computes an explicit isomorphism between two
  isomorphic trees; the engine uses it to translate witness runs recorded
  against canonical representatives back onto a caller-supplied start
  instance.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Optional

from repro.core.guarded_form import Addition, Update
from repro.core.instance import Instance
from repro.core.tree import LabelledTree, Node, Shape
from repro.engine.arena import RowId, ShapeArena

#: Interned state identifier: an index into the interner's shape table.
StateId = int


def _subtree_shape(node: Node) -> Shape:
    """The plain (un-consed) shape of the subtree rooted at *node*."""
    children = sorted(_subtree_shape(child) for child in node.children)
    return (node.label, tuple(children))


class ShapeInterner:
    """A two-tier hash-consing table for tree shapes.

    ``cons`` canonicalises a subtree shape (structurally equal inputs return
    the *same* tuple object); ``state_id`` assigns a dense integer id to a
    full-state shape.  Both directions are O(1) amortised on the resident
    tier; ``shape_of`` recovers the shape of an id.

    With a persistent *store* attached, ids and shapes need not all be
    resident: a ``state_id`` miss falls back to the store's ``shape_hash``
    reverse lookup, a ``shape_of`` miss to the store's row read, and either
    hit re-registers the row resident.  ``len`` counts *assigned* ids (dense,
    including non-resident ones), never just the resident slice.
    """

    def __init__(self, store=None) -> None:
        self._cons: dict = {}  # Shape -> canonical Shape object
        #: Row identity of every full-state shape this interner has seen;
        #: rows carry the canonical encoding and CRC digest (built on first
        #: use), so the id tier below works on small ints instead of nested
        #: tuples.
        self.arena = ShapeArena()
        self._ids: dict = {}  # arena row -> StateId (resident tier)
        #: StateId -> arena row, maintained in recency-of-access order
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
        self.cons_hits = 0
        self.cons_misses = 0
        self.state_hits = 0
        self.state_misses = 0
        self.states_restored = 0
        self.states_evicted = 0
        self.cons_pruned = 0
        self.store_id_lookups = 0
        #: Low-water mark for :meth:`prune_cons` triggering (set by the
        #: engine's budget enforcement; see ``ExplorationEngine``).
        self._cons_floor = 0

    def cons(self, shape: Shape) -> Shape:
        """Return the canonical object for *shape* (hash-consing)."""
        canonical = self._cons.get(shape)
        if canonical is not None:
            self.cons_hits += 1
            return canonical
        self.cons_misses += 1
        self._cons[shape] = shape
        return shape

    def cons_tree(self, shape: Shape) -> Shape:
        """Hash-cons *shape* and every subtree of it, bottom-up.

        Used when a shape enters the engine from outside the incremental
        derivation path (store rows, worker shard hydration): the returned
        canonical object has canonical children all the way down, so equality
        checks against engine-derived shapes keep their identity
        short-circuit.
        """
        canonical = self._cons.get(shape)
        if canonical is not None:
            self.cons_hits += 1
            return canonical
        label, children = shape
        consed = (label, tuple(self.cons_tree(child) for child in children))
        self.cons_misses += 1
        self._cons[consed] = consed
        return consed

    def state_id(self, shape: Shape) -> tuple[StateId, bool]:
        """Intern a full-state shape; return ``(id, is_new)``.

        The resident tier answers first; when persisted non-resident rows
        exist, an unknown shape consults the store's reverse lookup and — on
        a hit — is restored resident under its persisted id.  Only a shape
        absent from both tiers gets a fresh id, so ids are bit-identical
        whether or not rows were hydrated or evicted in between.
        """
        return self.state_id_row(self.arena.intern_cons(shape))

    def state_id_row(self, row: RowId) -> tuple[StateId, bool]:
        """Intern a full-state shape given as an arena row; return
        ``(id, is_new)``.

        The wire-decode entry point: frames materialise their shape tables
        straight into arena rows, so the whole resident-tier lookup is one
        int-keyed dict probe.  The store fallback hands the row's cached
        digest and canonical encoding to the reverse lookup — no re-encode,
        no tuple materialisation for already-persisted shapes.
        """
        existing = self._ids.get(row)
        if existing is not None:
            self.state_hits += 1
            self._shapes.move_to_end(existing)
            return existing, False
        arena = self.arena
        if self._nonresident > 0 and self._store is not None:
            self.store_id_lookups += 1
            found = self._store.get_state_id(
                None, digest=arena.stable_hash(row), encoded=arena.encoded(row)
            )
            if found is not None:
                self._make_resident_row(found, row)
                self.state_hits += 1
                return found, False
        self.state_misses += 1
        new_id = self._next_id
        self._next_id += 1
        self._ids[row] = new_id
        self._shapes[new_id] = row
        if self._store is not None:
            self._store.put_shape(
                new_id, None, encoded=arena.encoded(row), digest=arena.stable_hash(row)
            )
        return new_id, True

    def _make_resident(self, state_id: StateId, shape: Shape) -> Shape:
        """Register a store row on the resident tier (shared restore path)."""
        canonical = self.cons_tree(shape)
        self._make_resident_row(state_id, self.arena.intern_cons(canonical))
        return canonical

    def _make_resident_row(self, state_id: StateId, row: RowId) -> None:
        if state_id not in self._shapes and self._nonresident > 0:
            self._nonresident -= 1
        self._ids[row] = state_id
        self._shapes[state_id] = row
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
        resident_persisted = sum(1 for sid in self._shapes if sid <= max_state_id)
        self._nonresident = max(0, row_count - resident_persisted)

    def restore(self, state_id: StateId, shape: Shape) -> None:
        """Re-intern a persisted shape under its recorded id (hydration).

        Unlike the historic bulk-hydration path this no longer requires
        dense, in-id-order restores: any persisted row may be restored at any
        time (the two-tier fallback does exactly that on first touch), and
        restoring an already-resident row is a harmless overwrite.  Restored
        rows are not written back to the store.
        """
        self._make_resident(state_id, shape)
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
            state_id, row = self._shapes.popitem(last=False)
            del self._ids[row]
            self._nonresident += 1
            evicted += 1
        self.states_evicted += evicted
        return evicted

    def prune_cons(self, keep: Iterable[Shape] = ()) -> int:
        """Rebuild the subtree hash-consing table from *keep* (typically the
        engine's resident shape-map values) and drop the droppable arena
        memos (tuple→row, row→tuple).

        Dropped entries cost nothing but sharing: a re-consed subtree is a
        fresh-but-equal tuple, every consumer compares shapes structurally,
        and the arena's row encodings — the ground truth for ids, digests
        and shapes — are untouched.  Returns the number of cons entries
        dropped.
        """
        before = len(self._cons)
        fresh: dict = {}
        for shape in keep:
            fresh[shape] = shape
        self._cons = fresh
        self._cons_floor = len(fresh)
        self.arena.drop_cons_cache()
        dropped = max(0, before - len(fresh))
        self.cons_pruned += dropped
        return dropped

    def cons_prune_due(self, floor: int = 4096) -> bool:
        """Whether the subtree cons table has grown enough (doubled since
        the last prune, and past *floor*) to be worth rebuilding."""
        return len(self._cons) > max(floor, 2 * self._cons_floor)

    def lookup(self, shape: Shape) -> Optional[StateId]:
        """The id of *shape* if it is resident, else ``None`` (the resident
        tier only; ``state_id`` is the store-consulting entry point)."""
        row = self.arena.find_cons(shape)
        if row is None:
            return None
        return self._ids.get(row)

    def shape_of(self, state_id: StateId) -> Shape:
        """The shape interned under *state_id* (restored from the store when
        not resident)."""
        row = self._shapes.get(state_id)
        if row is not None:
            self._shapes.move_to_end(state_id)
            return self.arena.cons_of(row)
        if self._store is not None and 0 <= state_id < self._next_id:
            stored = self._store.get_shape(state_id)
            if stored is not None:
                return self._make_resident(state_id, stored)
        raise IndexError(
            f"state id {state_id} is not interned (and not in the backing store)"
        )

    def stable_hash_of(self, state_id: StateId) -> int:
        """The :func:`~repro.io.serialization.stable_shape_hash` of the shape
        interned under *state_id*, served from the arena row's cached digest
        (restoring the row from the store when not resident)."""
        row = self._shapes.get(state_id)
        if row is None:
            self.shape_of(state_id)  # restores the row resident
            row = self._shapes[state_id]
        else:
            self._shapes.move_to_end(state_id)
        return self.arena.stable_hash(row)

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
        """Assigned ids — resident or not — exactly as before partial
        hydration existed."""
        return self._next_id

    def stats(self) -> dict:
        """Counter snapshot for :class:`AnalysisResult` stats."""
        return {
            "interned_states": self._next_id,
            "interned_subtrees": len(self._cons),
            "states_resident": len(self._shapes),
            "state_hits": self.state_hits,
            "state_misses": self.state_misses,
            "cons_hits": self.cons_hits,
            "cons_misses": self.cons_misses,
            "states_restored": self.states_restored,
            "states_restored_distinct": len(self._restored_ids),
            "states_evicted": self.states_evicted,
            "cons_pruned": self.cons_pruned,
            "store_id_lookups": self.store_id_lookups,
            **self.arena.stats(),
        }


class IncrementalShaper:
    """Computes successor shapes incrementally from per-state shape maps."""

    def __init__(self, interner: ShapeInterner) -> None:
        self._interner = interner
        self.nodes_rehashed = 0  # shape rebuilds actually performed
        self.nodes_full_equivalent = 0  # what full per-successor walks would cost

    def full_map(self, tree: LabelledTree) -> dict[int, Shape]:
        """``node_id -> consed subtree shape`` for every node of *tree*."""
        cons = self._interner.cons
        shape_map: dict[int, Shape] = {}

        def build(node: Node) -> Shape:
            children = sorted(build(child) for child in node.children)
            shape = cons((node.label, tuple(children)))
            shape_map[node.node_id] = shape
            return shape

        build(tree.root)
        self.nodes_rehashed += tree.size()
        self.nodes_full_equivalent += tree.size()
        return shape_map

    def successor(
        self,
        instance: Instance,
        shape_map: dict[int, Shape],
        update: Update,
    ) -> tuple[Instance, dict[int, Shape], Shape]:
        """Apply *update* to a copy of *instance* and derive the successor's
        shape map from the parent's.

        Returns ``(successor instance, successor shape map, root shape)``.
        Only the nodes on the path from the updated leaf to the root are
        re-hashed; every untouched subtree reuses the parent's consed shape.
        """
        successor = instance.copy()
        new_map = dict(shape_map)
        if isinstance(update, Addition):
            leaf = successor.add_field(successor.node(update.parent_id), update.label)
            new_map[leaf.node_id] = self._interner.cons((update.label, ()))
            dirty = leaf.parent
            self.nodes_rehashed += 1
        else:
            node = successor.node(update.node_id)
            dirty = node.parent
            successor.remove_field(node)
            del new_map[update.node_id]
        cons = self._interner.cons
        while dirty is not None:
            children = sorted(new_map[child.node_id] for child in dirty.children)
            new_map[dirty.node_id] = cons((dirty.label, tuple(children)))
            self.nodes_rehashed += 1
            dirty = dirty.parent
        self.nodes_full_equivalent += successor.size()
        return successor, new_map, new_map[successor.root.node_id]

    def successor_shape(
        self,
        instance: Instance,
        shape_map: dict[int, Shape],
        update: Update,
    ) -> Shape:
        """The root shape of ``apply(update)`` *without* materialising the
        successor instance.

        Equivalent to ``successor(...)[2]`` — the same consed shapes, built
        by the same root-to-update-path rebuild — but skipping the deep copy
        of the instance and the successor shape map.  Both the serial engine
        (every candidate, before it knows whether the successor is new) and
        the frontier workers (which ship shape-table references, never
        successor instances) use it; :meth:`successor` runs only when a
        successor's representative is actually needed.
        """
        cons = self._interner.cons
        if isinstance(update, Addition):
            dirty = instance.node(update.parent_id)
            extra: Optional[Shape] = cons((update.label, ()))
            removed_id = None
            self.nodes_rehashed += 1
        else:
            node = instance.node(update.node_id)
            dirty = node.parent
            extra = None
            removed_id = update.node_id
        new_shape: Optional[Shape] = None
        rebuilt = dirty
        while dirty is not None:
            children = [
                new_shape if child is rebuilt else shape_map[child.node_id]
                for child in dirty.children
                if child.node_id != removed_id
            ]
            if extra is not None:
                children.append(extra)
                extra = None
            new_shape = cons((dirty.label, tuple(sorted(children))))
            self.nodes_rehashed += 1
            rebuilt = dirty
            dirty = dirty.parent
        self.nodes_full_equivalent += instance.size() + (1 if removed_id is None else -1)
        assert new_shape is not None  # the dirty node always exists
        return new_shape

    def stats(self) -> dict:
        """Counter snapshot for :class:`AnalysisResult` stats."""
        saved = self.nodes_full_equivalent - self.nodes_rehashed
        return {
            "nodes_rehashed": self.nodes_rehashed,
            "nodes_full_walk_equivalent": self.nodes_full_equivalent,
            "nodes_saved": saved,
        }


def map_isomorphism(source: Node, target: Node) -> dict[int, int]:
    """An explicit isomorphism (``source node_id -> target node_id``) between
    the isomorphic trees rooted at *source* and *target*.

    Children are matched by sorted subtree shape; within a group of
    same-shape siblings any pairing is an isomorphism (they are related by an
    automorphism), so the first consistent one is returned.

    Raises:
        ValueError: when the trees are not isomorphic.
    """
    if _subtree_shape(source) != _subtree_shape(target):
        raise ValueError("cannot map between non-isomorphic trees")
    mapping: dict[int, int] = {}
    stack = [(source, target)]
    while stack:
        from_node, to_node = stack.pop()
        mapping[from_node.node_id] = to_node.node_id
        stack.extend(
            zip(
                sorted(from_node.children, key=_subtree_shape),
                sorted(to_node.children, key=_subtree_shape),
            )
        )
    return mapping
