"""The depth-1 mask graph and its label-set view.

:meth:`~repro.engine.ExplorationEngine.explore_depth1` returns a
:class:`~repro.analysis.statespace.Depth1MaskGraph`; the depth-1 procedures
decide on its masks, and its label-set API builds a
:class:`~repro.analysis.statespace.Depth1StateGraph` on first read.  A
verdict with no witness and no counterexample converts no mask to a label
set at all; one with a witness converts only the candidate masks.
"""

import pytest

import repro.analysis.statespace as statespace
import repro.engine.engine as engine_module
from repro.analysis.completability import completability_depth1
from repro.analysis.semisoundness import semisoundness_depth1
from repro.analysis.statespace import Depth1StateGraph, explore_depth1, legacy_explore_depth1
from repro.benchgen.families import sat_completability_family, sat_semisoundness_family
from repro.core.canonical import depth1_state_to_instance
from repro.logic.dpll import is_satisfiable


def first_form(build, satisfiable: bool):
    """The first form of *build* (over seeds 0, 1, ...) whose CNF has the
    given satisfiability."""
    for seed in range(200):
        form, cnf = build(seed)
        if is_satisfiable(cnf) == satisfiable:
            return form
    raise AssertionError("no seed gave the wanted CNF")


def sat_form(satisfiable: bool):
    return first_form(
        lambda seed: sat_completability_family(5, clause_ratio=6.0, seed=seed), satisfiable
    )


def semisound_form(satisfiable: bool):
    return first_form(
        lambda seed: sat_semisoundness_family(4, clause_ratio=6.0, seed=seed), satisfiable
    )


@pytest.fixture
def label_conversions(monkeypatch):
    """Counts the mask-to-label-set conversions of the mask graph and the
    engine."""
    calls = []
    original = statespace.depth1_mask_state

    def counting(bits, mask):
        calls.append(mask)
        return original(bits, mask)

    monkeypatch.setattr(statespace, "depth1_mask_state", counting)
    monkeypatch.setattr(engine_module, "depth1_mask_state", counting)
    return calls


class TestLazyLabelView:
    def test_incompletable_verdict_builds_no_label_sets(self, label_conversions):
        result = completability_depth1(sat_form(satisfiable=False))
        assert result.answer is False
        assert result.stats["canonical_states"] > 1
        assert label_conversions == []

    def test_semisound_verdict_builds_no_label_sets(self, label_conversions):
        result = semisoundness_depth1(semisound_form(satisfiable=False))
        assert result.answer is True
        assert result.stats["reachable_states"] > 1
        assert label_conversions == []

    def test_witness_converts_only_the_candidate_masks(self, label_conversions):
        result = completability_depth1(sat_form(satisfiable=True))
        assert result.answer is True
        # each complete reachable mask once to pick the witness, then the
        # initial mask for the run's start instance
        assert len(label_conversions) == result.stats["complete_states"] + 1
        assert len(label_conversions) < result.stats["canonical_states"]

    def test_view_is_built_once_and_reused(self, label_conversions):
        graph = explore_depth1(sat_form(satisfiable=True))
        assert label_conversions == []
        states = graph.states
        assert len(label_conversions) == len(graph.masks)
        assert graph.states is states
        assert graph.transitions is graph.label_graph.transitions
        assert isinstance(graph.label_graph, Depth1StateGraph)
        assert graph.label_graph is graph.label_graph
        graph.reachable_from(graph.initial)
        assert len(label_conversions) == len(graph.masks)


class TestMaskQueries:
    def test_mask_queries_match_the_label_set_graph(self):
        form = semisound_form(satisfiable=True)
        graph = explore_depth1(form)
        legacy = legacy_explore_depth1(form)
        label_set = graph.label_set
        assert {label_set(mask) for mask in graph.masks} == legacy.states
        assert label_set(graph.initial_mask) == legacy.initial
        assert graph.transition_count() == sum(map(len, legacy.transitions.values()))
        reachable = graph.reachable_masks(graph.initial_mask)
        assert {label_set(mask) for mask in reachable} == legacy.reachable_from(legacy.initial)
        complete = [
            mask
            for mask in graph.masks
            if form.is_complete(depth1_state_to_instance(form.schema, label_set(mask)))
        ]
        closure = graph.backward_closure_masks(complete)
        assert {label_set(mask) for mask in closure} == legacy.backward_closure(
            {label_set(mask) for mask in complete}
        )
        for mask in graph.masks:
            path = graph.mask_path(mask)
            legacy_path = legacy.path_to(label_set(mask))
            assert path == [(step.kind, step.label) for step in legacy_path]
            assert graph.run_to_mask(mask).updates == legacy.run_to(label_set(mask)).updates
