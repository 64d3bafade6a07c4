"""State-space exploration: graph types and compatibility shims.

The actual exploration lives in :mod:`repro.engine` — a unified
:class:`~repro.engine.ExplorationEngine` with hash-consed shape interning
(state keys are O(1)-comparable ints, successor shapes are derived
incrementally from the parent shape plus the applied update), memoized guard
evaluation shared across every exploration on the same engine, and pluggable
frontier strategies (BFS / DFS / completion-guided).  This module keeps three
things:

* the graph types the rest of the library (and its tests) consume:
  :class:`Depth1MaskGraph`, the engine's depth-1 graph over label bitmasks,
  on which the depth-1 procedures decide (Lemma 4.3, the executable
  counterpart of Theorem 4.6 / Corollary 4.7); :class:`Depth1StateGraph`,
  the same graph over label sets, which the mask graph builds as a view on
  first read and the reference explorer builds directly; and
  :class:`StateGraph` for isomorphism-deduplicated bounded exploration of
  deeper forms (necessarily truncated in general — Theorem 4.1);

* the historic entry points :func:`explore_depth1` and
  :func:`explore_bounded`, now thin shims that run a fresh engine and return
  the same graphs as before;

* the original, straight-line explorers as :func:`legacy_explore_depth1` and
  :func:`legacy_explore_bounded` — kept as executable reference
  implementations that the engine parity tests compare against.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.analysis.results import ExplorationLimits
from repro.core.canonical import (
    canonical_depth1_state,
    depth1_mask_state,
    depth1_state_to_instance,
)
from repro.core.guarded_form import Addition, Deletion, GuardedForm, Update
from repro.core.instance import Instance
from repro.core.runs import Run
from repro.core.tree import Shape

#: A depth-1 canonical state: the set of labels present below the root.
Depth1State = frozenset


@dataclass(frozen=True)
class Depth1Transition:
    """A transition between depth-1 canonical states."""

    kind: str  # "add" or "del"
    label: str
    source: Depth1State
    target: Depth1State


@dataclass
class Depth1StateGraph:
    """The complete reachable canonical-state graph of a depth-1 guarded form,
    over label sets.

    The reference type: :func:`legacy_explore_depth1` builds it directly,
    and :class:`Depth1MaskGraph` builds one as its label-set view.
    """

    guarded_form: GuardedForm
    initial: Depth1State
    states: set = field(default_factory=set)
    transitions: dict = field(default_factory=dict)  # state -> list[Depth1Transition]
    #: whether the exploration stopped at the first complete state found
    #: (opt-in early exit) instead of building the whole graph
    stopped_on_complete: bool = False

    def successors(self, state: Depth1State) -> list[Depth1Transition]:
        """Outgoing transitions of *state*."""
        return self.transitions.get(state, [])

    def reachable_from(self, start: Depth1State) -> set:
        """All states reachable from *start* inside the graph."""
        seen = {start}
        frontier = deque([start])
        while frontier:
            state = frontier.popleft()
            for transition in self.successors(state):
                if transition.target not in seen:
                    seen.add(transition.target)
                    frontier.append(transition.target)
        return seen

    def backward_closure(self, targets: set) -> set:
        """All states from which some state in *targets* is reachable."""
        predecessors: dict[Depth1State, set] = {}
        for state, transitions in self.transitions.items():
            for transition in transitions:
                predecessors.setdefault(transition.target, set()).add(state)
        closure = set(targets)
        frontier = deque(targets)
        while frontier:
            state = frontier.popleft()
            for predecessor in predecessors.get(state, ()):
                if predecessor not in closure:
                    closure.add(predecessor)
                    frontier.append(predecessor)
        return closure

    def satisfying_states(self, predicate: Callable[[Instance], bool]) -> set:
        """States whose materialised instance satisfies *predicate*."""
        schema = self.guarded_form.schema
        return {
            state
            for state in self.states
            if predicate(depth1_state_to_instance(schema, state))
        }

    def path_to(self, target: Depth1State) -> Optional[list[Depth1Transition]]:
        """A shortest transition path from the initial state to *target*."""
        if target == self.initial:
            return []
        parents: dict[Depth1State, Depth1Transition] = {}
        frontier = deque([self.initial])
        seen = {self.initial}
        while frontier:
            state = frontier.popleft()
            for transition in self.successors(state):
                if transition.target in seen:
                    continue
                seen.add(transition.target)
                parents[transition.target] = transition
                if transition.target == target:
                    return self._unwind(parents, target)
                frontier.append(transition.target)
        return None

    def _unwind(self, parents: dict, target: Depth1State) -> list[Depth1Transition]:
        path: list[Depth1Transition] = []
        state = target
        while state != self.initial:
            transition = parents[state]
            path.append(transition)
            state = transition.source
        path.reverse()
        return path

    def run_to(self, target: Depth1State) -> Optional[Run]:
        """A run of the guarded form (started from the canonical initial
        instance) whose final instance has canonical state *target*."""
        path = self.path_to(target)
        if path is None:
            return None
        moves = [(transition.kind, transition.label) for transition in path]
        return depth1_run(self.guarded_form, self.initial, moves)


def depth1_run(guarded_form: GuardedForm, initial: Depth1State, moves) -> Run:
    """The run that starts from the canonical instance of *initial* and
    applies the ``(kind, label)`` *moves* in order."""
    start = depth1_state_to_instance(guarded_form.schema, initial)
    run = Run(guarded_form, [], start=start)
    current = start.copy()
    for kind, label in moves:
        if kind == "add":
            update: Update = Addition(current.root.node_id, label)
        else:
            node = next(child for child in current.root.children if child.label == label)
            update = Deletion(node.node_id)
        run.updates.append(update)
        current = guarded_form.apply_unchecked(current, update, in_place=True)
    return run


class Depth1MaskGraph:
    """The canonical-state graph of a depth-1 form over label bitmasks, as
    :meth:`~repro.engine.ExplorationEngine.explore_depth1` explores it.

    A state is the ``int`` mask of the labels below the root, over the
    schema's root-child bits (*bits*, :func:`~repro.core.canonical.depth1_label_bits`).
    *masks* holds every discovered state, in discovery order, and *moves*
    maps each expanded state to its ``(kind, label, target mask)`` moves, in
    expansion order; the engine shares these lists with its expansion memo,
    so they are read-only.  The depth-1 procedures decide on the masks alone
    (:meth:`reachable_masks`, :meth:`backward_closure_masks`,
    :meth:`run_to_mask`).

    The label-set API of :class:`Depth1StateGraph` (``initial``,
    ``states``, ``transitions``, ``successors``, ``reachable_from``,
    ``backward_closure``, ``path_to``, ``run_to``, ``satisfying_states``)
    reads a :class:`Depth1StateGraph` that is built on the first such read
    and reused after it (:attr:`label_graph`).
    """

    def __init__(
        self,
        guarded_form: GuardedForm,
        bits: dict,
        initial_mask: int,
        masks,
        moves: dict,
        stopped_on_complete: bool = False,
    ) -> None:
        self.guarded_form = guarded_form
        self.bits = bits
        self.initial_mask = initial_mask
        self.masks = masks
        self.moves = moves
        #: whether the exploration stopped at the first complete state found
        self.stopped_on_complete = stopped_on_complete
        self._label_graph: Optional[Depth1StateGraph] = None

    # ------------------------------------------------------------------ #
    # masks
    # ------------------------------------------------------------------ #

    def transition_count(self) -> int:
        """Total moves of the expanded states."""
        return sum(map(len, self.moves.values()))

    def reachable_masks(self, start: int) -> set:
        """All masks reachable from *start* inside the graph."""
        moves = self.moves
        seen = {start}
        frontier = [start]
        for state in frontier:  # grows as it is read
            for _kind, _label, target in moves.get(state, ()):
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return seen

    def backward_closure_masks(self, targets) -> set:
        """All masks from which some mask in *targets* is reachable."""
        predecessors = defaultdict(list)
        for source, moves in self.moves.items():
            for _kind, _label, target in moves:
                predecessors[target].append(source)
        closure = set(targets)
        frontier = list(closure)
        for state in frontier:  # grows as it is read
            for predecessor in predecessors.get(state, ()):
                if predecessor not in closure:
                    closure.add(predecessor)
                    frontier.append(predecessor)
        return closure

    def mask_path(self, target: int) -> Optional[list]:
        """The ``(kind, label)`` moves of a shortest path from the initial
        mask to *target*: the path :meth:`Depth1StateGraph.path_to` takes,
        since both search breadth-first in move order."""
        initial = self.initial_mask
        if target == initial:
            return []
        moves = self.moves
        parents = {initial: None}
        frontier = deque([initial])
        while frontier:
            state = frontier.popleft()
            for move in moves.get(state, ()):
                successor = move[2]
                if successor in parents:
                    continue
                parents[successor] = (state, move)
                if successor == target:
                    path = []
                    while successor != initial:
                        successor, (kind, label, _target) = parents[successor]
                        path.append((kind, label))
                    path.reverse()
                    return path
                frontier.append(successor)
        return None

    def run_to_mask(self, target: int) -> Optional[Run]:
        """:meth:`run_to` for the state with mask *target*."""
        path = self.mask_path(target)
        if path is None:
            return None
        return depth1_run(self.guarded_form, self.label_set(self.initial_mask), path)

    def first_by_labels(self, masks) -> int:
        """The mask among *masks* whose sorted label list is smallest: the
        depth-1 procedures' choice of witness and counterexample."""
        return min(masks, key=lambda mask: sorted(self.label_set(mask)))

    def label_set(self, mask: int) -> Depth1State:
        """The label set of *mask*."""
        return depth1_mask_state(self.bits, mask)

    # ------------------------------------------------------------------ #
    # the label-set view
    # ------------------------------------------------------------------ #

    @property
    def label_graph(self) -> Depth1StateGraph:
        """The graph over label sets, built on first read.

        States enter it in the order in which they first appear as
        transition targets, expanded states in expansion order, as
        ``legacy_explore_depth1`` adds them.
        """
        graph = self._label_graph
        if graph is None:
            bits = self.bits
            label_sets = {mask: depth1_mask_state(bits, mask) for mask in self.masks}
            graph = Depth1StateGraph(self.guarded_form, label_sets[self.initial_mask])
            graph.stopped_on_complete = self.stopped_on_complete
            graph_states = graph.states
            graph_states.add(graph.initial)
            for source, moves in self.moves.items():
                source_set = label_sets[source]
                edges = []
                for kind, label, target in moves:
                    target_set = label_sets[target]
                    graph_states.add(target_set)
                    edges.append(Depth1Transition(kind, label, source_set, target_set))
                graph.transitions[source_set] = edges
            self._label_graph = graph
        return graph

    @property
    def initial(self) -> Depth1State:
        return self.label_graph.initial

    @property
    def states(self) -> set:
        return self.label_graph.states

    @property
    def transitions(self) -> dict:
        return self.label_graph.transitions

    def successors(self, state: Depth1State) -> list[Depth1Transition]:
        return self.label_graph.successors(state)

    def reachable_from(self, start: Depth1State) -> set:
        return self.label_graph.reachable_from(start)

    def backward_closure(self, targets: set) -> set:
        return self.label_graph.backward_closure(targets)

    def satisfying_states(self, predicate: Callable[[Instance], bool]) -> set:
        return self.label_graph.satisfying_states(predicate)

    def path_to(self, target: Depth1State) -> Optional[list[Depth1Transition]]:
        return self.label_graph.path_to(target)

    def run_to(self, target: Depth1State) -> Optional[Run]:
        return self.label_graph.run_to(target)


def explore_depth1(guarded_form: GuardedForm, start: Optional[Instance] = None) -> Depth1MaskGraph:
    """Build the complete canonical-state graph of a depth-1 guarded form.

    Compatibility shim: runs a fresh :class:`~repro.engine.ExplorationEngine`.
    Analyses that explore the same form repeatedly should construct the
    engine themselves and reuse it, so guard evaluations are shared.

    Raises:
        ValueError: when the schema has depth greater than 1.
    """
    from repro.engine import ExplorationEngine

    return ExplorationEngine(guarded_form).explore_depth1(start=start)


def legacy_explore_depth1(
    guarded_form: GuardedForm, start: Optional[Instance] = None
) -> Depth1StateGraph:
    """Reference implementation of :func:`explore_depth1` (pre-engine).

    Kept for the engine parity tests; evaluates every guard formula from
    scratch and hard-codes BFS.
    """
    if guarded_form.schema_depth() > 1:
        raise ValueError(
            "explore_depth1 only applies to depth-1 guarded forms; use "
            "explore_bounded for deeper schemas"
        )
    schema = guarded_form.schema
    start_instance = start if start is not None else guarded_form.initial_instance()
    initial = canonical_depth1_state(start_instance)
    graph = Depth1StateGraph(guarded_form, initial)

    frontier = deque([initial])
    graph.states.add(initial)
    while frontier:
        state = frontier.popleft()
        instance = depth1_state_to_instance(schema, state)
        transitions: list[Depth1Transition] = []
        root = instance.root
        for schema_child in schema.root.children:
            label = schema_child.label
            if guarded_form.is_addition_allowed(instance, root, label):
                target = Depth1State(state | {label})
                if target != state:
                    transitions.append(Depth1Transition("add", label, state, target))
        for child in root.children:
            if guarded_form.is_deletion_allowed(instance, child):
                target = Depth1State(state - {child.label})
                transitions.append(Depth1Transition("del", child.label, state, target))
        graph.transitions[state] = transitions
        for transition in transitions:
            if transition.target not in graph.states:
                graph.states.add(transition.target)
                frontier.append(transition.target)
    return graph


# --------------------------------------------------------------------------- #
# bounded exploration for arbitrary depth
# --------------------------------------------------------------------------- #


@dataclass
class StateGraph:
    """A (possibly truncated) explicit-state graph over instance shapes.

    States are isomorphism classes of instances, keyed by
    :meth:`~repro.core.tree.LabelledTree.shape`; for each state a concrete
    representative instance is kept so formulas can be evaluated and runs can
    be reconstructed.
    """

    guarded_form: GuardedForm
    initial_key: Shape
    representatives: dict = field(default_factory=dict)  # Shape -> Instance
    transitions: dict = field(default_factory=dict)  # Shape -> list[(Update, Shape)]
    parents: dict = field(default_factory=dict)  # Shape -> (parent Shape, Update)
    truncated_by_states: bool = False
    truncated_by_size: bool = False
    truncated_by_copies: bool = False
    skipped_successors: int = 0

    @property
    def truncated(self) -> bool:
        """Whether any state or successor was skipped for any reason."""
        return self.truncated_by_states or self.truncated_by_size or self.truncated_by_copies

    @property
    def states(self) -> set:
        """All state keys in the graph."""
        return set(self.representatives)

    def instance_of(self, key: Shape) -> Instance:
        """The representative instance of a state."""
        return self.representatives[key].copy()

    def satisfying_states(self, predicate: Callable[[Instance], bool]) -> set:
        """States whose representative satisfies *predicate*."""
        return {
            key
            for key, instance in self.representatives.items()
            if predicate(instance)
        }

    def backward_closure(self, targets: set) -> set:
        """States from which some state in *targets* is reachable within the
        explored graph."""
        predecessors: dict[Shape, set] = {}
        for source, edges in self.transitions.items():
            for _, target in edges:
                predecessors.setdefault(target, set()).add(source)
        closure = set(targets)
        frontier = deque(targets)
        while frontier:
            state = frontier.popleft()
            for predecessor in predecessors.get(state, ()):
                if predecessor not in closure:
                    closure.add(predecessor)
                    frontier.append(predecessor)
        return closure

    def run_to(self, key: Shape) -> Run:
        """A run from the exploration's start instance to the state *key*."""
        updates: list[Update] = []
        current = key
        while current != self.initial_key:
            parent, update = self.parents[current]
            updates.append(update)
            current = parent
        updates.reverse()
        return Run(self.guarded_form, updates, start=self.representatives[self.initial_key].copy())

    def iter_states(self) -> Iterator[tuple[Shape, Instance]]:
        """Iterate over (key, representative) pairs."""
        return iter(self.representatives.items())


def explore_bounded(
    guarded_form: GuardedForm,
    start: Optional[Instance] = None,
    limits: Optional[ExplorationLimits] = None,
) -> StateGraph:
    """Bounded exploration of the reachable instances of a guarded form.

    States are deduplicated by isomorphism.  The exploration honours the
    supplied :class:`~repro.analysis.results.ExplorationLimits`; the returned
    graph's ``truncated`` flag is set when *any* state or successor was
    skipped, in which case the graph is an under-approximation of the
    reachable space.

    Compatibility shim: runs a fresh :class:`~repro.engine.ExplorationEngine`
    and returns its graph as a legacy :class:`StateGraph` (keys are shapes;
    the engine itself works on interned int state ids).
    """
    from repro.engine import ExplorationEngine

    return ExplorationEngine(guarded_form, limits=limits).explore(start=start).to_state_graph()


def legacy_explore_bounded(
    guarded_form: GuardedForm,
    start: Optional[Instance] = None,
    limits: Optional[ExplorationLimits] = None,
) -> StateGraph:
    """Reference implementation of :func:`explore_bounded` (pre-engine).

    Kept for the engine parity tests; recomputes every successor shape by a
    full tree walk and evaluates every guard formula from scratch.
    """
    limits = limits or ExplorationLimits()
    start_instance = start if start is not None else guarded_form.initial_instance()
    initial_key = start_instance.shape()
    graph = StateGraph(guarded_form, initial_key)
    graph.representatives[initial_key] = start_instance.copy()

    frontier = deque([initial_key])
    while frontier:
        key = frontier.popleft()
        instance = graph.representatives[key]
        edges: list[tuple[Update, Shape]] = []
        for update in guarded_form.enabled_updates(instance):
            if isinstance(update, Addition):
                if not limits.allows_instance_size(instance.size() + 1):
                    graph.truncated_by_size = True
                    graph.skipped_successors += 1
                    continue
                if limits.max_sibling_copies is not None:
                    parent = instance.node(update.parent_id)
                    copies = len(parent.children_with_label(update.label))
                    if copies >= limits.max_sibling_copies:
                        graph.truncated_by_copies = True
                        graph.skipped_successors += 1
                        continue
            successor = guarded_form.apply_unchecked(instance, update)
            successor_key = successor.shape()
            if successor_key not in graph.representatives:
                if len(graph.representatives) >= limits.max_states:
                    graph.truncated_by_states = True
                    graph.skipped_successors += 1
                    continue
                graph.representatives[successor_key] = successor
                graph.parents[successor_key] = (key, update)
                frontier.append(successor_key)
            edges.append((update, successor_key))
        graph.transitions[key] = edges
    return graph
