"""The unified exploration engine.

:class:`ExplorationEngine` subsumes the two legacy explorers of
:mod:`repro.analysis.statespace` behind one stateful object that every
decision procedure can share:

* **state identity** — every subtree of an instance is hash-consed to an int
  subtree id by a :class:`~repro.engine.interning.ShapeInterner`, and each
  root subtree id to a dense state id, so bounded-exploration state keys are
  O(1)-comparable ints; a successor's root subtree id is derived from the
  parent's ``node id -> subtree id`` map by rewriting the one path the update
  changed (:class:`~repro.engine.interning.IncrementalShaper`);

* **guard memoization** — access-rule and completion-formula evaluations go
  through a :class:`~repro.engine.guards.GuardCache` shared by every
  exploration the engine runs, so a semi-soundness analysis (one reachability
  sweep plus one completability check per suspicious state) evaluates each
  guard once instead of once per sweep;

* **canonical representatives** — each interned state keeps one
  representative instance; expansions are memoized against it, so re-visiting
  a state in a later exploration replays the cached successor list without
  touching a single formula.  A state new to the interner records only its
  parent and the update that reached it; its representative is derived when
  first asked for, so states an exploration interns but never expands cost
  one dict entry;

* **pluggable frontiers** — exploration order is delegated to
  :mod:`repro.engine.strategies` (BFS / DFS / completion-guided best-first).

Explorations return an :class:`EngineGraph` (int-keyed); the legacy
:class:`~repro.analysis.statespace.StateGraph` API is available through
:meth:`EngineGraph.to_state_graph`, which the compatibility shims in
:mod:`repro.analysis.statespace` use.

Witness runs deserve a note: because representatives are canonical (shared
across explorations), the update recorded on a graph edge refers to node ids
of the *source state's representative*, which need not coincide with the ids
arising while replaying a run from the caller's start instance.
:meth:`EngineGraph.run_to` therefore translates each update through an
explicit isomorphism (:func:`~repro.engine.interning.map_isomorphism`) before
appending it, which keeps every extracted run replayable — and valid, since
guard values are isomorphism-invariant.

**Persistence and resume.**  The engine's working set can be backed by a
:class:`~repro.engine.store.StateStore` (``store=``).  With a persistent
backend (:class:`~repro.engine.store.SqliteStore`) every interned shape is
written through in batches, and so is one representative row per state:
the full instance (node ids included) for an exploration's start state, and
for every other state only its *origin* — the state that first interned it
and the update from there — from which any process re-derives the same
instance, node id for node id.  A derived representative is written in full
when it is evicted, so it reloads with one row read.
:meth:`ExplorationEngine.explore` checkpoints its
frontier every ``checkpoint_every`` expansions — so an interrupted
exploration (``KeyboardInterrupt`` or an explicit ``step_limit``) can be
picked up by a *fresh process* with ``explore(resume=True)`` and finish with
exactly the states, transitions and truncation flags of an uninterrupted
run.  The differential suite in ``tests/engine/test_store_parity.py`` pins
that equivalence against the in-memory engine for every benchgen family.
:meth:`ExplorationEngine.explore_depth1` slices the same way under a
``step_limit``, with a checkpoint of state masks
(``tests/engine/test_depth1_slices.py``).

Guard values stay in memory: a resumed process re-evaluates the guards it
probes, since running a compiled rule costs less than writing and restoring
its value.

**Bounded residency.**  Attaching to a populated store loads nothing
eagerly: shapes are pulled in on first touch through the interner's store
fallback, and representatives on first use — so memory tracks what a run
explores, not what the store holds.  A ``resident_budget``
additionally caps the resident working set (representatives, shape maps,
interned root shapes, memoized expansions), evicting least-recently-accessed
entries between expansions; everything evicted reloads or deterministically
recomputes from the store, so bounded runs are bit-identical to unbounded
ones (``tests/engine/test_residency.py``).  Note that a budget-bounded
graph stays store-dependent: keep the store open while reading shapes or
representatives off it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterator, Optional

from repro.core.canonical import (
    canonical_depth1_state,
    depth1_mask_state,
    depth1_state_mask,
    depth1_state_to_instance,
)
from repro.core.guarded_form import Addition, Deletion, GuardedForm, Update
from repro.core.instance import Instance
from repro.core.runs import Run
from repro.core.tree import Shape
from repro.engine.guards import GuardCache
from repro.engine.interning import (
    IncrementalShaper,
    ShapeInterner,
    StateId,
    map_isomorphism,
)
from repro.engine.store import (
    InMemoryStore,
    StateStore,
    depth1_run_key,
    exploration_run_key,
)
from repro.engine.strategies import FrontierStrategy, completion_distance, make_strategy
from repro.exceptions import AnalysisError, ExplorationInterrupted, StoreError
from repro.io.serialization import (
    decode_instance_with_ids,
    decode_representative_row,
    decode_update,
    encode_instance_with_ids,
    encode_origin,
    encode_update,
)
from repro.obs import default_telemetry

#: A memoized successor candidate:
#: (update, successor state id, is_addition, successor size, sibling copies
#: of the added label under the target node before the addition).
_Candidate = tuple


def enumerate_expansion(
    instance: Instance,
    shape_map: dict,
    guards: GuardCache,
    state_id: StateId,
    make_candidate: Callable,
) -> list:
    """Enumerate the successor candidates of one state, in canonical order.

    This is the *single* definition of the engine's expansion semantics —
    node traversal order, guard queries, candidate order — shared between the
    serial :meth:`ExplorationEngine._expand` and the frontier worker
    processes of :mod:`repro.engine.workers`.  The two callers differ only in
    ``make_candidate(update, is_addition, successor size, copies before)``:
    the serial engine interns the successor and records its state id, a
    worker encodes the successor for the coordinator to intern later.
    Keeping the enumeration in one place is what structurally guarantees the
    serial-vs-parallel bit-identity the differential suite pins.  The guard
    probes of a node come from the cache's plan for its schema label path
    (:meth:`~repro.engine.guards.GuardCache.plan`); *shape_map* maps each
    node id to its subtree id.
    """
    size = instance.size()
    candidates: list = []
    plan_of = guards.plan
    addition_allowed = guards.addition_allowed
    # pre-order, as Node.iter_subtree yields it, carrying each node's label
    # path down from its parent's
    stack = [(instance.root, ())]
    pop = stack.pop
    while stack:
        node, path = pop()
        node_shape = shape_map[node.node_id]
        children = node.children
        additions, deletion = plan_of(path)
        for probe in additions:
            if addition_allowed(state_id, node, probe, node_shape):
                label = probe[0]
                copies_before = 0
                for child in children:
                    if child.label == label:
                        copies_before += 1
                update: Update = Addition(node.node_id, label)
                candidates.append(make_candidate(update, True, size + 1, copies_before))
        if children:
            stack.extend([(child, path + (child.label,)) for child in children])
        elif deletion is not None:
            parent_shape = shape_map[node.parent.node_id]
            if guards.deletion_allowed(state_id, node, deletion, path, parent_shape):
                candidates.append(make_candidate(Deletion(node.node_id), False, size - 1, 0))
    return candidates


class EngineGraph:
    """The result of one bounded exploration: an int-keyed state graph.

    States are :data:`~repro.engine.interning.StateId` ints interned by the
    owning engine; representative instances, shapes and completion values are
    resolved through the engine so that explorations share them.
    """

    def __init__(
        self,
        engine: "ExplorationEngine",
        guarded_form: GuardedForm,
        initial_id: StateId,
        start_instance: Instance,
    ) -> None:
        self.engine = engine
        self.guarded_form = guarded_form
        self.initial_id = initial_id
        self.start_instance = start_instance
        self._states: set = {initial_id}
        self.transitions: dict = {}  # StateId -> list[(Update, StateId)]
        self.parents: dict = {}  # StateId -> (StateId, Update)
        self.truncated_by_states = False
        self.truncated_by_size = False
        self.truncated_by_copies = False
        self.skipped_successors = 0
        #: Whether the exploration returned early because ``stop_on_complete``
        #: found a complete state (distinct from truncation: nothing was
        #: *skipped*, the remaining frontier was simply not needed).
        self.stopped_on_complete = False
        #: Whether this graph continued from a persisted checkpoint.
        self.resumed = False

    # ------------------------------------------------------------------ #
    # state access
    # ------------------------------------------------------------------ #

    @property
    def states(self) -> set:
        """The explored state ids (a fresh set, like the legacy graphs)."""
        return set(self._states)

    @property
    def truncated(self) -> bool:
        """Whether any state or successor was skipped for any reason."""
        return self.truncated_by_states or self.truncated_by_size or self.truncated_by_copies

    def shape_of(self, state_id: StateId) -> Shape:
        """The interned shape of a state."""
        return self.engine.interner.shape_of(state_id)

    def representative(self, state_id: StateId) -> Instance:
        """The canonical representative instance (shared; do not mutate)."""
        return self.engine.representative(state_id)

    def instance_of(self, state_id: StateId) -> Instance:
        """A private copy of the representative instance of a state."""
        return self.engine.representative(state_id).copy()

    def iter_states(self) -> Iterator[tuple[StateId, Instance]]:
        """Iterate over (state id, representative) pairs."""
        for state_id in self._states:
            yield state_id, self.engine.representative(state_id)

    # ------------------------------------------------------------------ #
    # graph queries
    # ------------------------------------------------------------------ #

    def successors(self, state_id: StateId) -> list:
        """Outgoing ``(update, target id)`` edges of a state."""
        return self.transitions.get(state_id, [])

    def satisfying_states(self, predicate: Callable[[Instance], bool]) -> set:
        """States whose representative satisfies *predicate*."""
        return {
            state_id
            for state_id in self._states
            if predicate(self.engine.representative(state_id))
        }

    def complete_states(self) -> set:
        """States satisfying the completion formula (guard-cache backed)."""
        return self.engine.complete_ids(self)

    def backward_closure(self, targets: set) -> set:
        """States from which some state in *targets* is reachable within the
        explored graph."""
        predecessors: dict = {}
        for source, edges in self.transitions.items():
            for _, target in edges:
                predecessors.setdefault(target, set()).add(source)
        closure = set(targets)
        frontier = list(targets)
        while frontier:
            state = frontier.pop()
            for predecessor in predecessors.get(state, ()):
                if predecessor not in closure:
                    closure.add(predecessor)
                    frontier.append(predecessor)
        return closure

    # ------------------------------------------------------------------ #
    # witnesses
    # ------------------------------------------------------------------ #

    def run_to(self, target_id: StateId) -> Run:
        """A run from the exploration's start instance to *target_id*.

        The discovery edges along the parent chain reference node ids of the
        canonical representatives; each update is translated through an
        isomorphism onto the replayed instance, so the returned run is valid
        on the caller's start instance.
        """
        chain: list = []
        current = target_id
        while current != self.initial_id:
            parent, update = self.parents[current]
            chain.append((parent, update))
            current = parent
        chain.reverse()
        run = Run(self.guarded_form, [], start=self.start_instance.copy())
        replayed = self.start_instance.copy()
        engine = self.engine
        budget = engine.resident_budget
        for parent_id, update in chain:
            canonical = engine.representative(parent_id)
            iso = map_isomorphism(canonical.root, replayed.root)
            translated: Update
            if isinstance(update, Addition):
                translated = Addition(iso[update.parent_id], update.label)
            else:
                translated = Deletion(iso[update.node_id])
            run.updates.append(translated)
            replayed = self.guarded_form.apply_unchecked(replayed, translated, in_place=True)
            # each parent representative is needed exactly once here; a long
            # witness chain must not blow the resident budget
            if budget is not None and len(engine._reps) > budget:
                engine._enforce_budget()
        return run

    # ------------------------------------------------------------------ #
    # legacy view
    # ------------------------------------------------------------------ #

    def to_state_graph(self):
        """A legacy :class:`~repro.analysis.statespace.StateGraph` view.

        Keys are the interned shapes, so the view is a drop-in replacement for
        the output of the historic ``explore_bounded``; its ``run_to``
        delegates to :meth:`run_to` for isomorphism-safe witness extraction.
        """
        cls = _engine_state_graph_class()
        shape_of = self.engine.interner.shape_of
        graph = cls(
            guarded_form=self.guarded_form,
            initial_key=shape_of(self.initial_id),
            representatives={
                shape_of(state_id): self.engine.representative(state_id).copy()
                for state_id in self._states
            },
            transitions={
                shape_of(source): [(update, shape_of(target)) for update, target in edges]
                for source, edges in self.transitions.items()
            },
            parents={
                shape_of(child): (shape_of(parent), update)
                for child, (parent, update) in self.parents.items()
            },
            truncated_by_states=self.truncated_by_states,
            truncated_by_size=self.truncated_by_size,
            truncated_by_copies=self.truncated_by_copies,
            skipped_successors=self.skipped_successors,
        )
        graph._engine_graph = self
        graph._shape_to_id = {shape_of(state_id): state_id for state_id in self._states}
        return graph


def engine_for(
    guarded_form: GuardedForm,
    engine: Optional["ExplorationEngine"],
    frontier: Optional[str] = None,
    store: Optional[StateStore] = None,
    workers: int = 1,
    resident_budget: Optional[int] = None,
) -> "ExplorationEngine":
    """The engine to analyse *guarded_form* with: the caller's, or a fresh one.

    A *store* is only consulted when a fresh engine is built; a supplied
    engine keeps whatever store it was constructed with (and its own worker
    and residency configuration — *workers* and *resident_budget* are
    likewise ignored then).  ``workers > 1`` builds a
    :class:`~repro.engine.parallel.ParallelExplorationEngine`; the caller
    that triggered the construction is responsible for calling
    :meth:`ExplorationEngine.shutdown_workers` when done.

    Raises:
        AnalysisError: when the supplied engine was built for a different
            guarded form — its interned states, memoized expansions and
            completion cache would silently answer for the wrong form.
    """
    if engine is not None:
        if engine.guarded_form is not guarded_form:
            raise AnalysisError(
                "the supplied exploration engine is bound to guarded form "
                f"{engine.guarded_form.name!r}, not {guarded_form.name!r}; "
                "engines cache per-form state and cannot be shared across forms"
            )
        return engine
    if workers and workers > 1:
        from repro.engine.parallel import ParallelExplorationEngine

        return ParallelExplorationEngine(
            guarded_form,
            strategy=frontier or "bfs",
            store=store,
            workers=workers,
            resident_budget=resident_budget,
        )
    return ExplorationEngine(
        guarded_form,
        strategy=frontier or "bfs",
        store=store,
        resident_budget=resident_budget,
    )


_ENGINE_STATE_GRAPH_CLASS = None


def _engine_state_graph_class():
    """Lazily build the StateGraph subclass (avoids an import cycle with
    :mod:`repro.analysis.statespace`, whose shims import this module)."""
    global _ENGINE_STATE_GRAPH_CLASS
    if _ENGINE_STATE_GRAPH_CLASS is None:
        from repro.analysis.statespace import StateGraph

        class EngineStateGraph(StateGraph):
            """A legacy-shaped StateGraph whose witness extraction goes
            through the engine's isomorphism-translating ``run_to``."""

            _engine_graph: EngineGraph
            _shape_to_id: dict

            def run_to(self, key) -> Run:
                return self._engine_graph.run_to(self._shape_to_id[key])

        _ENGINE_STATE_GRAPH_CLASS = EngineStateGraph
    return _ENGINE_STATE_GRAPH_CLASS


class ExplorationEngine:
    """A reusable exploration engine for one guarded form.

    The engine owns the shape interner, guard cache, canonical state
    representatives and memoized expansions; every exploration it runs —
    bounded or depth-1, from any start instance, under any limits and any
    frontier strategy — shares them.  Analyses that perform several
    explorations of the same form (semi-soundness, CLI ``analyze``) should
    therefore construct one engine and reuse it.
    """

    def __init__(
        self,
        guarded_form: GuardedForm,
        limits=None,
        strategy: str = "bfs",
        store: Optional[StateStore] = None,
        checkpoint_every: int = 1000,
        resident_budget: Optional[int] = None,
        telemetry=None,
    ) -> None:
        self.guarded_form = guarded_form
        self.strategy = strategy
        self._limits = limits
        #: Telemetry recorder (``repro.obs``).  ``None`` resolves through
        #: :func:`~repro.obs.default_telemetry` — the innermost
        #: ``use_telemetry`` context, then ``REPRO_TRACE``, then the no-op
        #: default — so dispatcher-built engines inherit the CLI's recorder.
        self.telemetry = telemetry if telemetry is not None else default_telemetry()
        self.store = store if store is not None else InMemoryStore()
        self.store.telemetry = self.telemetry
        self.store.attach(guarded_form)
        store_cadence = getattr(self.store, "checkpoint_every", None)
        self.checkpoint_every = max(
            1, store_cadence if store_cadence is not None else checkpoint_every
        )
        if resident_budget is not None:
            if resident_budget < 1:
                raise AnalysisError("resident_budget must be a positive integer")
            if not self.store.persistent:
                raise AnalysisError(
                    "resident_budget needs a persistent store: without one "
                    "there is nowhere to evict resident state to"
                )
        #: Soft cap on resident per-state structures (representatives, shape
        #: maps, interned full-state shapes, memoized expansions).  Enforced
        #: between state expansions on a store-backed engine; ``None`` (the
        #: default) keeps everything resident.  Results are bit-identical
        #: either way — eviction only trades memory for store reads.
        self.resident_budget = resident_budget
        backing = self.store if self.store.persistent else None
        self.interner = ShapeInterner(store=backing)
        self.shaper = IncrementalShaper(self.interner)
        self.guards = GuardCache(guarded_form, telemetry=self.telemetry)
        #: StateId -> resident representative Instance, in recency-of-access
        #: order (front = coldest; eviction pops from the front).
        self._reps: OrderedDict = OrderedDict()
        #: StateId -> (parent StateId, Update) for states whose representative
        #: has not been derived yet (see :meth:`representative`).  A
        #: budget-bounded engine keeps origins in its store only.
        self._pending_reps: dict = {}
        #: Resident representatives a persistent engine derived, whose store
        #: row is still only an origin: written in full on eviction.
        self._reps_unwritten: set = set()
        self._shape_maps: dict = {}  # StateId -> {node_id: subtree id}
        self._expansions: dict = {}  # StateId -> (candidates, guard queries)
        #: depth-1 state mask -> ((kind, label, target mask) moves, guard
        #: queries); additions come in schema order, then deletions by
        #: label, the order of ``legacy_explore_depth1``
        self._d1_expansions: dict = {}
        #: (label, bit) of each root-child label, sorted by label
        self._d1_by_label = sorted(self.guards.d1_bits.items())
        self._scores: dict = {}  # bounded state id -> completion_distance
        self._d1_scores: dict = {}  # depth-1 state mask -> completion_distance
        self.expansions_computed = 0
        self.expansions_reused = 0
        self.heuristic_evaluations = 0
        self.explorations_resumed = 0
        self.reps_evicted = 0
        self.expansions_evicted = 0
        #: Shape rows the store held when this engine hydrated; the basis
        #: for the ``hydration_rows_skipped`` statistic.
        self._persisted_rows_at_attach = 0
        #: Whether the engine bound itself to the store's persisted state.
        #: Hydration is deferred to the first exploration and performed at
        #: most once per engine.
        self._hydrated = backing is None

    def _hydrate(self) -> None:
        """Bind the engine to its store's persisted state (lazily, once).

        Shapes are **not** bulk-restored: the interner is told the persisted
        id range and row count (:meth:`ShapeInterner.bind_persisted`), and
        individual rows are pulled in on first touch through the two-tier
        fallback, so attaching to a large store costs memory proportional to
        what the run actually explores.  Representatives are likewise fetched
        lazily by :meth:`representative`.

        The ``_hydrated`` flag is only set after binding succeeded: an
        exception (a store read error, Ctrl-C) leaves the engine un-hydrated,
        so the next exploration retries instead of exploring unbound.
        """
        if self._hydrated:
            return
        with self.telemetry.span("engine.hydrate"):
            max_id = self.store.max_state_id()
            if max_id is not None:
                rows = self.store.shape_row_count()
                self.interner.bind_persisted(max_id, rows)
                self._persisted_rows_at_attach = rows
        self._hydrated = True

    # ------------------------------------------------------------------ #
    # registry
    # ------------------------------------------------------------------ #

    def representative(self, state_id: StateId) -> Instance:
        """The canonical representative instance of a state (shared).

        Served from the resident dict (refreshing its recency).  Otherwise
        the state's origin — the state that first interned it and the
        update from there — comes from the in-process pending dict or the
        store, and is followed up to the nearest ancestor that is resident
        or has a full store row; the representatives on that path are then
        derived forward with :meth:`IncrementalShaper.successor`.  The
        derivation is deterministic, so node ids depend neither on when nor
        in which process a state is asked for.

        Raises:
            AnalysisError: the state is unknown to the engine and its store.
            StoreError: the store's origin chain is broken (an ancestor has
                no row, or an origin does not point at an earlier state).
            SerializationError: a representative row is malformed.
        """
        rep = self._reps.get(state_id)
        if rep is not None:
            self._reps.move_to_end(state_id)
            return rep
        # a loop, not recursion: origin chains grow with the exploration
        # (~0.6 x the state count on counter machines)
        chain: list = []
        current = state_id
        while rep is None:
            origin = self._pending_reps.get(current)
            if origin is None:
                row = self._stored_representative(current, state_id)
                if isinstance(row, Instance):
                    rep = self._reps[current] = row
                    break
                origin = row
            chain.append((current, origin))
            current = origin[0]
            rep = self._reps.get(current)
        if not chain:
            return rep
        shape_map = self._shape_map_of(current)
        unwritten = self._reps_unwritten if self.store.persistent else None
        for child_id, (_parent_id, update) in reversed(chain):
            rep, shape_map, _root = self.shaper.successor(rep, shape_map, update)
            self._reps[child_id] = rep
            self._shape_maps[child_id] = shape_map
            self._pending_reps.pop(child_id, None)
            if unwritten is not None:
                unwritten.add(child_id)
        return rep

    def _stored_representative(self, state_id: StateId, requested: StateId):
        """The store's row for *state_id*, decoded: its representative, or its
        ``(parent id, update)`` origin."""
        row = self.store.get_representative(state_id)
        if row is None:
            if state_id == requested:
                raise AnalysisError(
                    f"state {state_id} has no canonical representative (not "
                    "registered by this engine and absent from its store)"
                )
            raise StoreError(
                f"the origin chain of state {requested} reaches state "
                f"{state_id}, which has no representative row"
            )
        decoded = decode_representative_row(row, self.guarded_form.schema)
        if not isinstance(decoded, Instance) and decoded[0] >= state_id:
            # ids are assigned in discovery order, so a true origin is always
            # an earlier state; anything else could loop forever
            raise StoreError(
                f"the origin row of state {state_id} names state {decoded[0]}, "
                "not an earlier state"
            )
        return decoded

    def _record_origin(self, state_id: StateId, parent_id: StateId, update: Update) -> None:
        """Note how a newly interned state's representative is derived: in
        process (unless a resident budget bounds the engine) and, on a
        persistent engine, as the state's store row — a killed run resumes
        from it."""
        if self.resident_budget is None:
            self._pending_reps[state_id] = (parent_id, update)
        if self.store.persistent:
            self.store.put_representative(state_id, encode_origin(parent_id, update))

    def evict_representatives(self, keep: int = 0) -> int:
        """Drop resident representatives (and their shape maps) down to the
        *keep* most recently accessed.

        The policy is recency of access, not id order: the states most
        likely to be touched again are the ones an in-flight exploration
        accessed last (its frontier), while the lowest ids are the oldest,
        coldest states.  Only meaningful on a store-backed engine, where
        evicted states are transparently reloaded on demand; returns the
        number evicted.  The property suite uses this to show eviction never
        changes interner ids.
        """
        if not self.store.persistent:
            return 0
        evicted = 0
        while len(self._reps) > keep:
            self._evict_coldest()
            evicted += 1
        return evicted

    def _evict_coldest(self) -> StateId:
        """Drop the least recently accessed representative and its shape map,
        first writing it in full if its store row is only an origin."""
        state_id, rep = self._reps.popitem(last=False)
        self._shape_maps.pop(state_id, None)
        if state_id in self._reps_unwritten:
            self._reps_unwritten.discard(state_id)
            self.store.put_representative(state_id, encode_instance_with_ids(rep))
        self.reps_evicted += 1
        return state_id

    def _enforce_budget(self) -> None:
        """Evict least-recently-used resident state down to the budget.

        Called between whole state expansions, never mid-expansion, so
        nothing the current expansion still holds can disappear under it.
        Everything evicted is transparently recoverable: representatives
        (written back in full if derived) and full-state shapes reload from
        the store, shape maps and memoized
        expansions are recomputed deterministically (same representative,
        same cached guard values, same store-stable ids), so bounded-budget
        runs stay bit-identical to unbounded ones — the residency suite pins
        exactly that.
        """
        budget = self.resident_budget
        if budget is None or not self.store.persistent:
            return
        obs = self.telemetry
        # only an actual sweep (resident set over budget) earns a span;
        # the within-budget probe stays uninstrumented — it runs between
        # every pair of expansions
        sweeping = obs.enabled and len(self._reps) > budget
        sweep_started = obs.now() if sweeping else 0.0
        evicted_before = self.reps_evicted
        while len(self._reps) > budget:
            state_id = self._evict_coldest()
            if self._expansions.pop(state_id, None) is not None:
                self.expansions_evicted += 1
        self.interner.evict_states(keep=budget)
        if sweeping:
            obs.metrics.counter("eviction_sweeps").inc()
            obs.metrics.histogram("eviction_sweep_seconds").observe(
                obs.end_span(
                    "engine.evict", sweep_started, evicted=self.reps_evicted - evicted_before
                )
            )
        # the nested-tuple and encoding memos grow with every shape a store
        # row or shard asked for; the sid table itself is append-only
        self.interner.trim_memos()

    def _register(self, instance: Instance, shape_map=None) -> StateId:
        if shape_map is None:
            shape_map = self.shaper.full_map(instance)
        state_id, is_new = self.interner.state_id_row(shape_map[instance.root.node_id])
        if is_new:
            self._reps[state_id] = instance
            self._shape_maps[state_id] = shape_map
            if self.store.persistent:
                self.store.put_representative(state_id, encode_instance_with_ids(instance))
        return state_id

    def _shape_map_of(self, state_id: StateId) -> dict:
        """The node->shape map of a state's representative (rebuilt on demand
        for states reloaded from the store)."""
        shape_map = self._shape_maps.get(state_id)
        if shape_map is None:
            rep = self.representative(state_id)  # a pending state brings its map
            shape_map = self._shape_maps.get(state_id) or self.shaper.full_map(rep)
            self._shape_maps[state_id] = shape_map
        return shape_map

    def _default_limits(self):
        if self._limits is None:
            from repro.analysis.results import ExplorationLimits

            self._limits = ExplorationLimits()
        return self._limits

    # ------------------------------------------------------------------ #
    # frontier construction
    # ------------------------------------------------------------------ #

    def _score_bounded(self, state_id: StateId) -> int:
        score = self._scores.get(state_id)
        if score is None:
            score = completion_distance(
                self.representative(state_id).root, self.guarded_form.completion
            )
            self._scores[state_id] = score
            self.heuristic_evaluations += 1
        return score

    def _score_depth1(self, state: int) -> int:
        score = self._d1_scores.get(state)
        if score is None:
            materialised = depth1_state_to_instance(
                self.guarded_form.schema, depth1_mask_state(self.guards.d1_bits, state)
            )
            score = completion_distance(materialised.root, self.guarded_form.completion)
            self._d1_scores[state] = score
            self.heuristic_evaluations += 1
        return score

    def _make_frontier(self, strategy: Optional[str], depth1: bool = False) -> FrontierStrategy:
        name = strategy or self.strategy
        scorer = self._score_depth1 if depth1 else self._score_bounded
        return make_strategy(name, scorer)

    # ------------------------------------------------------------------ #
    # bounded exploration (arbitrary depth, isomorphism dedup)
    # ------------------------------------------------------------------ #

    def explore(
        self,
        start: Optional[Instance] = None,
        limits=None,
        strategy: Optional[str] = None,
        *,
        stop_on_complete: bool = False,
        resume: bool = False,
        step_limit: Optional[int] = None,
    ) -> EngineGraph:
        """Explore the reachable instances of the guarded form.

        States are deduplicated by interned shape; the supplied (or the
        engine's default) :class:`~repro.analysis.results.ExplorationLimits`
        bound the search exactly as in the legacy explorer, and the graph's
        truncation flags record which limit was hit.

        Args:
            stop_on_complete: return as soon as a state satisfying the
                completion formula is discovered, instead of exhausting the
                budget (the graph's ``stopped_on_complete`` flag records
                this).  The default — off — explores exhaustively, which the
                parity suites pin.
            resume: continue from the checkpoint a previous identical
                exploration (same start shape, limits, strategy and
                early-exit policy) left in the engine's store; ignored when
                no such checkpoint exists.
            step_limit: expand at most this many states in this call, then
                checkpoint and raise
                :class:`~repro.exceptions.ExplorationInterrupted`.

        A ``KeyboardInterrupt`` during the exploration also checkpoints
        before propagating, so a Ctrl-C'd CLI ``analyze --store`` run can be
        picked up with ``--resume``.
        """
        self._hydrate()
        limits = limits if limits is not None else self._default_limits()
        form = self.guarded_form
        start_instance = (start if start is not None else form.initial_instance()).copy()
        strategy_name = strategy or self.strategy
        run_key = exploration_run_key(
            start_instance.shape(), limits, strategy_name, stop_on_complete
        )
        checkpoint = self.store.load_checkpoint(run_key) if resume else None
        if checkpoint is not None:
            graph, frontier = self._restore_exploration(checkpoint, start_instance, strategy)
            self.explorations_resumed += 1
        else:
            initial_id = self._register(start_instance)
            graph = EngineGraph(self, form, initial_id, start_instance)
            frontier = self._make_frontier(strategy)
            frontier.push(initial_id)
            if stop_on_complete and self.guards.completion(
                initial_id, self.representative(initial_id).root
            ):
                graph.stopped_on_complete = True
                self._finish_exploration(run_key, graph)
                return graph
        if checkpoint is not None and checkpoint.get("stopped_on_complete"):
            return graph
        states = graph._states
        expanded_this_call = 0
        in_flight: Optional[StateId] = None
        obs = self.telemetry
        obs_enabled = obs.enabled
        explore_started = obs.now()
        try:
            while frontier:
                if step_limit is not None and expanded_this_call >= step_limit:
                    self._save_checkpoint(run_key, graph, frontier)
                    raise ExplorationInterrupted(
                        f"exploration paused after {expanded_this_call} expansions "
                        f"({len(states)} states, {len(frontier)} frontier entries); "
                        "resume with explore(resume=True)",
                        states_explored=len(states),
                        frontier_size=len(frontier),
                    )
                state_id = frontier.pop()
                if state_id in graph.transitions:
                    continue  # an interrupted commit can leave a duplicate queued
                in_flight = state_id
                # the expansion accumulates into locals and commits to the
                # graph at the end, so a KeyboardInterrupt mid-expansion
                # leaves the graph at a clean state boundary (the handler
                # requeues the popped state)
                edges: list = []
                discovered: list = []
                fresh: set = set()
                truncated_by_size = truncated_by_states = truncated_by_copies = False
                skipped = 0
                found_complete = False
                for update, succ_id, is_addition, succ_size, copies_before in self._expand_from(
                    state_id, frontier
                ):
                    if is_addition:
                        if not limits.allows_instance_size(succ_size):
                            truncated_by_size = True
                            skipped += 1
                            continue
                        if (
                            limits.max_sibling_copies is not None
                            and copies_before >= limits.max_sibling_copies
                        ):
                            truncated_by_copies = True
                            skipped += 1
                            continue
                    if succ_id not in states and succ_id not in fresh:
                        if len(states) + len(fresh) >= limits.max_states:
                            truncated_by_states = True
                            skipped += 1
                            continue
                        fresh.add(succ_id)
                        discovered.append((succ_id, update))
                        if stop_on_complete and self.guards.completion(
                            succ_id, self.representative(succ_id).root
                        ):
                            found_complete = True
                    edges.append((update, succ_id))
                # commit order matters under a mid-commit interrupt: a
                # successor entered into `states` last is either fully
                # registered or still discoverable by the re-expansion
                for succ_id, update in discovered:
                    graph.parents[succ_id] = (state_id, update)
                    frontier.push(succ_id)
                    states.add(succ_id)
                graph.truncated_by_size |= truncated_by_size
                graph.truncated_by_states |= truncated_by_states
                graph.truncated_by_copies |= truncated_by_copies
                graph.skipped_successors += skipped
                graph.transitions[state_id] = edges
                in_flight = None
                expanded_this_call += 1
                if self.resident_budget is not None:
                    self._enforce_budget()
                if found_complete:
                    graph.stopped_on_complete = True
                    break
                if expanded_this_call % self.checkpoint_every == 0:
                    if self.store.persistent:
                        self._save_checkpoint(run_key, graph, frontier)
                    if obs_enabled:
                        # periodic residency sample: eviction churn shows up
                        # as a time series, not just an end-of-run peak
                        obs.sample_rss(
                            reps_resident=len(self._reps),
                            states_resident=self.interner.resident,
                        )
        except KeyboardInterrupt:
            if in_flight is not None and in_flight not in graph.transitions:
                frontier.requeue(in_flight)  # re-expand it first on resume
            self._save_checkpoint(run_key, graph, frontier)
            self.store.flush()
            raise
        finally:
            if obs_enabled:
                obs.end_span(
                    "engine.explore",
                    explore_started,
                    strategy=strategy_name,
                    states=len(states),
                    expanded=expanded_this_call,
                )
                obs.sample_rss(
                    reps_resident=len(self._reps),
                    states_resident=self.interner.resident,
                )
                drained = self.guards.take_eval_seconds()
                if drained:
                    obs.metrics.counter("guard_eval_seconds").inc(drained)
        self._finish_exploration(run_key, graph)
        return graph

    def _expand_from(self, state_id: StateId, frontier) -> list:
        """Expansion hook giving subclasses sight of the live frontier.

        The serial engine expands one state at a time;
        :class:`~repro.engine.parallel.ParallelExplorationEngine` overrides
        this to prefetch candidate expansions for the whole pending frontier
        on worker processes before delegating to :meth:`_expand`.
        """
        del frontier
        return self._expand(state_id)

    def _expand(self, state_id: StateId) -> list:
        """All successor candidates of a state, memoized across explorations.

        Candidates are *unfiltered*: exploration limits are applied by the
        caller, so the memo stays valid whatever limits a later exploration
        uses.
        """
        memo = self._expansions.get(state_id)
        if memo is not None:
            candidates, guard_queries = memo
            self.guards.credit_reuse(guard_queries)
            self.expansions_reused += 1
            return candidates
        instance = self.representative(state_id)
        shape_map = self._shape_map_of(state_id)
        guards = self.guards
        queries_before = guards.hits + guards.misses

        def candidate(update: Update, is_addition: bool, succ_size: int, copies: int) -> tuple:
            return (
                update,
                self._successor_id(state_id, instance, shape_map, update),
                is_addition,
                succ_size,
                copies,
            )

        candidates = enumerate_expansion(instance, shape_map, guards, state_id, candidate)
        self._expansions[state_id] = (candidates, guards.hits + guards.misses - queries_before)
        self.expansions_computed += 1
        return candidates

    def _successor_id(
        self, parent_id: StateId, instance: Instance, shape_map: dict, update: Update
    ) -> StateId:
        # Derive the root sid alone (no instance copy, no successor sid map);
        # a fresh state only records its origin, since most are never
        # expanded — its representative is derived on first use.
        root = self.shaper.successor_shape(instance, shape_map, update)
        state_id, is_new = self.interner.state_id_row(root)
        if is_new:
            self._record_origin(state_id, parent_id, update)
        return state_id

    def complete_ids(self, graph: EngineGraph) -> set:
        """The states of *graph* satisfying the completion formula (cached)."""
        guards = self.guards
        budget = self.resident_budget
        complete: set = set()
        for state_id in graph.states:
            if guards.completion(state_id, self.representative(state_id).root):
                complete.add(state_id)
            # a completion sweep over a big graph would otherwise re-load
            # every evicted representative and keep it resident
            if budget is not None and len(self._reps) > budget:
                self._enforce_budget()
        return complete

    # ------------------------------------------------------------------ #
    # checkpointing (store-backed interruption and resume)
    # ------------------------------------------------------------------ #

    def _save_checkpoint(self, run_key: str, graph: EngineGraph, frontier) -> None:
        """Snapshot an in-flight exploration into the store.

        Checkpoints are only taken between whole state expansions, so the
        transitions recorded for every expanded state are complete; the
        frontier is saved in re-push order (see
        :meth:`~repro.engine.strategies.FrontierStrategy.pending`).
        """
        payload = {
            "version": 1,
            "done": not frontier,
            "initial_id": graph.initial_id,
            "start_instance": encode_instance_with_ids(graph.start_instance),
            "states": sorted(graph._states),
            "frontier": frontier.pending(),
            "transitions": [
                [source, [[encode_update(update), target] for update, target in edges]]
                for source, edges in graph.transitions.items()
            ],
            "parents": [
                [child, parent, encode_update(update)]
                for child, (parent, update) in graph.parents.items()
            ],
            "truncated_by_states": graph.truncated_by_states,
            "truncated_by_size": graph.truncated_by_size,
            "truncated_by_copies": graph.truncated_by_copies,
            "skipped_successors": graph.skipped_successors,
            "stopped_on_complete": graph.stopped_on_complete,
        }
        self.store.save_checkpoint(run_key, payload)

    def _restore_exploration(
        self, checkpoint: dict, start_instance: Instance, strategy: Optional[str]
    ) -> tuple[EngineGraph, FrontierStrategy]:
        """Rebuild the graph and frontier an interrupted exploration saved."""
        persisted_start = decode_instance_with_ids(
            checkpoint["start_instance"], self.guarded_form.schema
        )
        del start_instance  # isomorphic to the persisted one (same run key)
        graph = EngineGraph(
            self, self.guarded_form, checkpoint["initial_id"], persisted_start
        )
        graph._states = set(checkpoint["states"])
        # the checkpointed states are this run's working set: restore their
        # shapes now (partial hydration would otherwise leave states the
        # resumed run never re-pops unreadable once the store is closed).
        # NOT under a resident budget — a bounded engine must never
        # materialise the whole checkpointed set (its graphs are documented
        # store-dependent: keep the store open)
        if self.resident_budget is None:
            for state_id in graph._states:
                self.interner.shape_of(state_id)
        graph.transitions = {
            source: [(decode_update(update), target) for update, target in edges]
            for source, edges in checkpoint["transitions"]
        }
        graph.parents = {
            child: (parent, decode_update(update))
            for child, parent, update in checkpoint["parents"]
        }
        graph.truncated_by_states = checkpoint["truncated_by_states"]
        graph.truncated_by_size = checkpoint["truncated_by_size"]
        graph.truncated_by_copies = checkpoint["truncated_by_copies"]
        graph.skipped_successors = checkpoint["skipped_successors"]
        graph.stopped_on_complete = checkpoint.get("stopped_on_complete", False)
        graph.resumed = True
        frontier = self._make_frontier(strategy)
        for state_id in checkpoint["frontier"]:
            frontier.push(state_id)
        return graph, frontier

    def _finish_exploration(self, run_key: str, graph: EngineGraph) -> None:
        """Flush pending rows and mark the run's checkpoint as finished.

        A finished checkpoint is kept (marked ``done``) rather than deleted:
        resuming it later returns the completed graph immediately, which is
        what lets a re-run ``analyze --resume`` skip a finished sweep.
        """
        if not self.store.persistent and self.store.load_checkpoint(run_key) is None:
            return  # pure in-memory run that was never interrupted: no trace
        empty = self._make_frontier("bfs")
        self._save_checkpoint(run_key, graph, empty)
        self.store.flush()

    # ------------------------------------------------------------------ #
    # depth-1 exploration (canonical states as label bitmasks, Lemma 4.3)
    # ------------------------------------------------------------------ #

    def explore_depth1(
        self,
        start: Optional[Instance] = None,
        strategy: Optional[str] = None,
        *,
        stop_on_complete: bool = False,
        resume: bool = False,
        step_limit: Optional[int] = None,
    ):
        """Build the complete canonical-state graph of a depth-1 form.

        Canonical states are explored as ``int`` bitmasks over the schema's
        root-child labels (:attr:`GuardCache.d1_bits`), and returned as a
        :class:`~repro.analysis.statespace.Depth1MaskGraph`: the masks and
        their moves, on which the depth-1 procedures decide.  Its label-set
        API builds the :class:`~repro.analysis.statespace.Depth1StateGraph`
        only when first read.  The engine contributes guard memoization —
        support-projected, so the Theorem 5.1 SAT workloads share
        evaluations across exponentially many states — and the frontier
        strategy.

        Args:
            stop_on_complete: stop as soon as a discovered state satisfies
                the completion formula (the graph's ``stopped_on_complete``
                flag records this); off by default, which explores the whole
                reachable graph.
            resume: continue from the checkpoint an identical earlier call
                (same start state, strategy and early-exit policy) left in
                the engine's store; ignored when there is none.
            step_limit: expand at most this many states in this call, then
                checkpoint and raise
                :class:`~repro.exceptions.ExplorationInterrupted`.

        Raises:
            ValueError: when the schema has depth greater than 1.
        """
        self._hydrate()
        form = self.guarded_form
        if form.schema_depth() > 1:
            raise ValueError(
                "explore_depth1 only applies to depth-1 guarded forms; use "
                "explore_bounded for deeper schemas"
            )
        guards = self.guards
        start_instance = start if start is not None else form.initial_instance()
        initial = depth1_state_mask(guards.d1_bits, canonical_depth1_state(start_instance))
        strategy_name = strategy or self.strategy
        run_key = depth1_run_key(initial, strategy_name, stop_on_complete)
        checkpoint = self.store.load_checkpoint(run_key) if resume else None
        frontier = self._make_frontier(strategy, depth1=True)
        # mask -> None, in discovery order (after a resume: the checkpoint's
        # masks in ascending order, then the newly discovered ones)
        if checkpoint is not None:
            states = dict.fromkeys(checkpoint["states"])
            transitions = {
                source: [tuple(move) for move in moves]
                for source, moves in checkpoint["transitions"]
            }
            stopped = checkpoint["stopped_on_complete"]
            for state in checkpoint["frontier"]:
                frontier.push(state)
            self.explorations_resumed += 1
        else:
            states = {initial: None}
            transitions = {}
            frontier.push(initial)
            stopped = stop_on_complete and guards.d1_completion(initial)
        expanded = 0
        while frontier and not stopped:
            if step_limit is not None and expanded >= step_limit:
                self._save_depth1_checkpoint(run_key, initial, states, transitions, frontier, stopped)
                raise ExplorationInterrupted(
                    f"depth-1 exploration paused after {expanded} expansions "
                    f"({len(states)} states, {len(frontier)} frontier entries); "
                    "resume with explore_depth1(resume=True)",
                    states_explored=len(states),
                    frontier_size=len(frontier),
                )
            state = frontier.pop()
            if state in transitions:
                continue  # a state can be queued twice under non-FIFO frontiers
            moves = transitions[state] = self._expand_depth1(state)
            for _kind, _label, target in moves:
                if target not in states:
                    states[target] = None
                    frontier.push(target)
                    if stop_on_complete and guards.d1_completion(target):
                        stopped = True
            expanded += 1
        if checkpoint is not None and not checkpoint["done"]:
            # a sliced run: record it as finished, so that resuming it again
            # returns the whole graph
            empty = self._make_frontier("bfs")
            self._save_depth1_checkpoint(run_key, initial, states, transitions, empty, stopped)
        from repro.analysis.statespace import Depth1MaskGraph

        return Depth1MaskGraph(form, guards.d1_bits, initial, states, transitions, stopped)

    def _save_depth1_checkpoint(
        self, run_key: str, initial: int, states: dict, transitions: dict, frontier, stopped: bool
    ) -> None:
        """Snapshot an in-flight depth-1 exploration into the store: masks
        throughout, transitions in expansion order."""
        self.store.save_checkpoint(
            run_key,
            {
                "version": 1,
                "done": not frontier,
                "initial": initial,
                "states": sorted(states),
                "frontier": frontier.pending(),
                "transitions": [
                    [source, [list(move) for move in moves]]
                    for source, moves in transitions.items()
                ],
                "stopped_on_complete": stopped,
            },
        )

    def _expand_depth1(self, state: int) -> list:
        memo = self._d1_expansions.get(state)
        if memo is not None:
            moves, guard_queries = memo
            self.guards.credit_reuse(guard_queries)
            self.expansions_reused += 1
            return moves
        guards = self.guards
        queries_before = guards.hits + guards.misses
        addition_allowed = guards.d1_addition_allowed
        deletion_allowed = guards.d1_deletion_allowed
        moves: list = []
        for label, bit in guards.d1_bits.items():
            if addition_allowed(state, label) and not state & bit:
                moves.append(("add", label, state | bit))
        for label, bit in self._d1_by_label:
            if state & bit and deletion_allowed(state, label):
                moves.append(("del", label, state & ~bit))
        self._d1_expansions[state] = (moves, guards.hits + guards.misses - queries_before)
        self.expansions_computed += 1
        return moves

    # ------------------------------------------------------------------ #
    # worker lifecycle (no-op on the serial engine)
    # ------------------------------------------------------------------ #

    def shutdown_workers(self) -> None:
        """Release any worker processes held by this engine.

        The serial engine owns none; the parallel engine overrides this.
        Analyses that build an engine internally call it unconditionally, so
        it must stay safe (and idempotent) on every engine flavour.
        """

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #

    def stats_snapshot(self) -> dict:
        """All engine counters, flattened for ``AnalysisResult.stats``."""
        snapshot = dict(self.guards.stats())
        # wall time, so it stays out of the run-independent guard counters
        snapshot["guard_eval_seconds"] = round(self.guards.eval_seconds, 6)
        for key, value in self.interner.stats().items():
            snapshot[f"intern_{key}"] = value
        for key, value in self.shaper.stats().items():
            snapshot[f"shape_{key}"] = value
        snapshot["expansions_computed"] = self.expansions_computed
        snapshot["expansions_reused"] = self.expansions_reused
        snapshot["heuristic_evaluations"] = self.heuristic_evaluations
        snapshot["registered_states"] = len(self._reps) + len(self._pending_reps)
        snapshot["reps_pending"] = len(self._pending_reps)
        snapshot["frontier_strategy"] = self.strategy
        snapshot["explorations_resumed"] = self.explorations_resumed
        # residency: how much of the working set is actually in memory, and
        # how much of a populated store's shape table hydration pulled in
        snapshot["resident_budget"] = self.resident_budget
        snapshot["reps_resident"] = len(self._reps)
        snapshot["states_resident"] = self.interner.resident
        snapshot["reps_evicted"] = self.reps_evicted
        snapshot["expansions_evicted"] = self.expansions_evicted
        snapshot["hydration_rows_skipped"] = max(
            0, self._persisted_rows_at_attach - self.interner.states_restored_distinct
        )
        for key, value in self.store.stats().items():
            snapshot[f"store_{key}"] = value
        snapshot["telemetry_enabled"] = self.telemetry.enabled
        if self.telemetry.enabled:
            snapshot["obs"] = self.telemetry.snapshot()
        return snapshot
