"""Unit tests for labelled transition systems."""

import random
from collections import deque

import pytest

from repro.exceptions import AnalysisError
from repro.workflow.lts import LabelledTransitionSystem, Transition


def diamond_lts() -> LabelledTransitionSystem:
    """start -> left/right -> done, plus an isolated trap state."""
    lts = LabelledTransitionSystem(initial="start")
    lts.add_transition("start", "go_left", "left")
    lts.add_transition("start", "go_right", "right")
    lts.add_transition("left", "finish", "done")
    lts.add_transition("right", "finish", "done")
    lts.add_state("done", accepting=True)
    lts.add_state("trap")
    lts.add_transition("start", "fall", "trap")
    return lts


class TestStructure:
    def test_states_and_actions(self):
        lts = diamond_lts()
        assert lts.states == {"start", "left", "right", "done", "trap"}
        assert lts.actions() == {"go_left", "go_right", "finish", "fall"}
        assert len(lts) == 5

    def test_successors_predecessors(self):
        lts = diamond_lts()
        assert {t.target for t in lts.successors("start")} == {"left", "right", "trap"}
        assert {t.source for t in lts.predecessors("done")} == {"left", "right"}

    def test_annotations(self):
        lts = LabelledTransitionSystem(initial="s")
        lts.add_state("s", annotation={"size": 3})
        assert lts.state_annotations["s"] == {"size": 3}

    def test_validate(self):
        lts = diamond_lts()
        lts.validate()
        lts.accepting.add("missing")
        with pytest.raises(AnalysisError):
            lts.validate()


class TestReachability:
    def test_reachable(self):
        lts = diamond_lts()
        assert lts.reachable() == {"start", "left", "right", "done", "trap"}
        assert lts.reachable("left") == {"left", "done"}

    def test_backward_reachable(self):
        lts = diamond_lts()
        closure = lts.backward_reachable({"done"})
        assert closure == {"done", "left", "right", "start"}

    def test_deadlock_states(self):
        lts = diamond_lts()
        assert lts.deadlock_states() == {"trap"}

    def test_unreachable_state_not_a_deadlock(self):
        lts = diamond_lts()
        lts.add_state("island")
        assert "island" not in lts.deadlock_states()


class TestPaths:
    def test_path_to(self):
        lts = diamond_lts()
        path = lts.path_to("done")
        assert path is not None
        assert len(path) == 2
        assert path[0].source == "start"
        assert path[-1].target == "done"

    def test_path_to_initial_is_empty(self):
        lts = diamond_lts()
        assert lts.path_to("start") == []

    def test_path_to_unreachable_is_none(self):
        lts = diamond_lts()
        lts.add_state("island")
        assert lts.path_to("island") is None

    def test_trace_to(self):
        lts = diamond_lts()
        trace = lts.trace_to("done")
        assert trace in (["go_left", "finish"], ["go_right", "finish"])

    def test_iter_traces(self):
        lts = diamond_lts()
        traces = list(lts.iter_traces(max_length=2))
        assert [] in traces
        assert ["go_left"] in traces
        assert ["go_left", "finish"] in traces

    def test_transition_is_value_object(self):
        assert Transition("a", "x", "b") == Transition("a", "x", "b")
        assert Transition("a", "x", "b") != Transition("a", "y", "b")


def scan_path_to(lts: LabelledTransitionSystem, target):
    """Reference: the breadth-first search that rescans every transition for
    each visited state (``successors``), which :meth:`path_to` must match."""
    if target == lts.initial:
        return []
    parents = {}
    seen = {lts.initial}
    frontier = deque([lts.initial])
    while frontier:
        state = frontier.popleft()
        for transition in lts.successors(state):
            if transition.target in seen:
                continue
            seen.add(transition.target)
            parents[transition.target] = transition
            if transition.target == target:
                path = []
                while target != lts.initial:
                    path.append(parents[target])
                    target = parents[target].source
                return path[::-1]
            frontier.append(transition.target)
    return None


def random_lts(seed: int) -> LabelledTransitionSystem:
    rng = random.Random(seed)
    states = rng.randint(1, 30)
    lts = LabelledTransitionSystem(initial=0)
    for state in range(states):
        lts.add_state(state)
    for _ in range(rng.randint(0, 3 * states)):
        lts.add_transition(
            rng.randrange(states), rng.choice("abc"), rng.randrange(states)
        )
    return lts


class CountingList(list):
    """A transition list that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class TestPathIndex:
    def test_paths_match_the_per_state_scan_on_the_diamond(self):
        lts = diamond_lts()
        lts.add_state("island")
        for state in lts.states:
            assert lts.path_to(state) == scan_path_to(lts, state)

    @pytest.mark.parametrize("seed", range(40))
    def test_paths_match_the_per_state_scan_on_random_systems(self, seed):
        lts = random_lts(seed)
        for state in lts.states:
            expected = scan_path_to(lts, state)
            assert lts.path_to(state) == expected
            assert lts.trace_to(state) == (
                None if expected is None else [t.action for t in expected]
            )

    def test_path_to_reads_the_transitions_once(self):
        lts = LabelledTransitionSystem(initial=0)
        for state in range(200):
            lts.add_transition(state, "next", state + 1)
        lts.transitions = CountingList(lts.transitions)
        assert len(lts.path_to(200)) == 200
        assert lts.transitions.iterations == 1
        lts.transitions.iterations = 0
        assert lts.trace_to(200) == ["next"] * 200
        assert lts.transitions.iterations == 1
