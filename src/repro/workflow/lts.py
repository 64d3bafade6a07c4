"""Labelled transition systems (the explicit form of an implied workflow).

An LTS has named states, labelled transitions, an initial state and a set of
accepting ("complete") states.  The workflow implied by a guarded form is
extracted into this representation by :mod:`repro.workflow.extraction`; the
correctness notions of :mod:`repro.workflow.soundness` are then ordinary
graph computations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, Optional

from repro.exceptions import AnalysisError

StateId = Hashable


@dataclass(frozen=True)
class Transition:
    """A labelled transition ``source --action--> target``."""

    source: StateId
    action: str
    target: StateId


@dataclass
class LabelledTransitionSystem:
    """A finite labelled transition system.

    Attributes:
        initial: the initial state.
        states: all states (automatically extended by :meth:`add_transition`).
        transitions: the transition list.
        accepting: the accepting / complete states.
        state_annotations: optional per-state payloads (e.g. the instance a
            state represents), kept out of equality comparisons.
    """

    initial: StateId
    states: set = field(default_factory=set)
    transitions: list[Transition] = field(default_factory=list)
    accepting: set = field(default_factory=set)
    state_annotations: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.states.add(self.initial)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def add_state(self, state: StateId, accepting: bool = False, annotation: object = None) -> None:
        """Add a state (idempotent)."""
        self.states.add(state)
        if accepting:
            self.accepting.add(state)
        if annotation is not None:
            self.state_annotations[state] = annotation

    def add_transition(self, source: StateId, action: str, target: StateId) -> Transition:
        """Add a transition, creating missing states."""
        self.states.add(source)
        self.states.add(target)
        transition = Transition(source, action, target)
        self.transitions.append(transition)
        return transition

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #

    def successors(self, state: StateId) -> list[Transition]:
        """Outgoing transitions of *state*."""
        return [t for t in self.transitions if t.source == state]

    def predecessors(self, state: StateId) -> list[Transition]:
        """Incoming transitions of *state*."""
        return [t for t in self.transitions if t.target == state]

    def actions(self) -> set:
        """The set of action labels."""
        return {t.action for t in self.transitions}

    def reachable(self, start: Optional[StateId] = None) -> set:
        """States reachable from *start* (default: the initial state)."""
        origin = self.initial if start is None else start
        outgoing = self._outgoing()
        seen = {origin}
        frontier = deque([origin])
        while frontier:
            state = frontier.popleft()
            for transition in outgoing.get(state, ()):
                if transition.target not in seen:
                    seen.add(transition.target)
                    frontier.append(transition.target)
        return seen

    def backward_reachable(self, targets: Iterable[StateId]) -> set:
        """States from which some state in *targets* is reachable."""
        reverse: dict[StateId, set] = {}
        for transition in self.transitions:
            reverse.setdefault(transition.target, set()).add(transition.source)
        closure = set(targets)
        frontier = deque(closure)
        while frontier:
            state = frontier.popleft()
            for source in reverse.get(state, ()):
                if source not in closure:
                    closure.add(source)
                    frontier.append(source)
        return closure

    def deadlock_states(self) -> set:
        """Reachable states without outgoing transitions that are not accepting."""
        outgoing = {t.source for t in self.transitions}
        return {
            state
            for state in self.reachable()
            if state not in outgoing and state not in self.accepting
        }

    def path_to(self, target: StateId) -> Optional[list[Transition]]:
        """A shortest path (as transitions) from the initial state to *target*."""
        if target == self.initial:
            return []
        outgoing = self._outgoing()
        parents: dict[StateId, Transition] = {}
        seen = {self.initial}
        frontier = deque([self.initial])
        while frontier:
            state = frontier.popleft()
            for transition in outgoing.get(state, ()):
                if transition.target in seen:
                    continue
                seen.add(transition.target)
                parents[transition.target] = transition
                if transition.target == target:
                    path = []
                    current = target
                    while current != self.initial:
                        step = parents[current]
                        path.append(step)
                        current = step.source
                    path.reverse()
                    return path
                frontier.append(transition.target)
        return None

    def trace_to(self, target: StateId) -> Optional[list[str]]:
        """The action sequence of :meth:`path_to`."""
        path = self.path_to(target)
        if path is None:
            return None
        return [transition.action for transition in path]

    def iter_traces(self, max_length: int) -> Iterator[list[str]]:
        """Enumerate action traces from the initial state up to *max_length*
        transitions (may repeat states; intended for small systems/tests)."""
        outgoing = self._outgoing()
        frontier: deque[tuple[StateId, list[str]]] = deque([(self.initial, [])])
        while frontier:
            state, trace = frontier.popleft()
            yield trace
            if len(trace) >= max_length:
                continue
            for transition in outgoing.get(state, ()):
                frontier.append((transition.target, trace + [transition.action]))

    def __len__(self) -> int:
        return len(self.states)

    def _outgoing(self) -> dict:
        """``source -> [transition, ...]`` in insertion order: the index the
        searches build once per query instead of rescanning per state."""
        outgoing: dict[StateId, list[Transition]] = {}
        for transition in self.transitions:
            outgoing.setdefault(transition.source, []).append(transition)
        return outgoing

    def validate(self) -> None:
        """Check internal consistency (accepting ⊆ states, transitions between
        known states)."""
        if not self.accepting <= self.states:
            raise AnalysisError("accepting states must be states of the LTS")
        for transition in self.transitions:
            if transition.source not in self.states or transition.target not in self.states:
                raise AnalysisError("transition endpoints must be states of the LTS")
