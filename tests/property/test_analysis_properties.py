"""Property-based tests for the decision procedures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.completability import (
    completability_by_saturation,
    completability_depth1,
    decide_completability,
)
from repro.analysis.results import ExplorationLimits
from repro.analysis.semisoundness import semisoundness_depth1
from repro.analysis.statespace import explore_depth1, legacy_explore_depth1
from repro.benchgen.families import sat_completability_family, sat_semisoundness_family
from repro.benchgen.random_forms import random_depth1_guarded_form
from repro.core.canonical import canonical_depth1_state
from repro.core.runs import greedy_random_run

SETTINGS = settings(max_examples=40, deadline=None)

#: Limits that make the bounded explorer exhaustive on the depth-1 forms the
#: random generator produces (once sibling copies are factored out they have
#: at most 2^4 canonical states).
SMALL_LIMITS = ExplorationLimits(max_states=5_000, max_instance_nodes=10, max_sibling_copies=1)


@st.composite
def positive_forms(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    fields = draw(st.integers(min_value=2, max_value=4))
    return random_depth1_guarded_form(
        fields, seed=seed, positive_access=True, positive_completion=True
    )


@st.composite
def arbitrary_forms(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    fields = draw(st.integers(min_value=2, max_value=4))
    positive_access = draw(st.booleans())
    positive_completion = draw(st.booleans())
    return random_depth1_guarded_form(
        fields,
        seed=seed,
        positive_access=positive_access,
        positive_completion=positive_completion,
    )


class TestProcedureAgreement:
    @SETTINGS
    @given(form=positive_forms())
    def test_saturation_agrees_with_exact_search(self, form):
        """Theorem 5.5's polynomial procedure agrees with the exhaustive
        canonical-state search on the positive/positive fragment."""
        assert completability_by_saturation(form).answer == completability_depth1(form).answer

    @SETTINGS
    @given(form=arbitrary_forms())
    def test_dispatcher_agrees_with_exact_depth1_search(self, form):
        assert decide_completability(form).answer == completability_depth1(form).answer

    @SETTINGS
    @given(form=positive_forms())
    def test_saturation_witness_is_a_complete_run(self, form):
        result = completability_by_saturation(form)
        if result.answer:
            assert result.witness_run is not None
            assert result.witness_run.is_complete()


class TestSemanticRelationships:
    @SETTINGS
    @given(form=arbitrary_forms())
    def test_semisoundness_implies_completability(self, form):
        """Definition 3.14 quantifies over runs including the empty run, so a
        semi-sound form is in particular completable from its initial
        instance."""
        if semisoundness_depth1(form).answer:
            assert completability_depth1(form).answer

    @SETTINGS
    @given(form=arbitrary_forms())
    def test_incompletable_forms_are_not_semi_sound(self, form):
        if not completability_depth1(form).answer:
            assert semisoundness_depth1(form).answer is False

    @SETTINGS
    @given(form=arbitrary_forms(), seed=st.integers(min_value=0, max_value=1_000))
    def test_semisoundness_transfers_to_reachable_instances(self, form, seed):
        """If the form is semi-sound, completability holds from every instance
        visited by a random run."""
        if not semisoundness_depth1(form).answer:
            return
        run = greedy_random_run(form, max_steps=6, seed=seed)
        for instance in run.instances():
            assert completability_depth1(form, start=instance).answer

    @SETTINGS
    @given(form=arbitrary_forms(), seed=st.integers(min_value=0, max_value=1_000))
    def test_random_runs_stay_within_reachable_canonical_states(self, form, seed):
        graph = explore_depth1(form)
        reachable = graph.reachable_from(graph.initial)
        run = greedy_random_run(form, max_steps=6, seed=seed)
        for instance in run.instances():
            assert canonical_depth1_state(instance) in reachable

    @SETTINGS
    @given(form=arbitrary_forms())
    def test_witness_runs_are_valid_complete_runs(self, form):
        result = completability_depth1(form)
        if result.answer:
            assert result.witness_run is not None
            assert result.witness_run.is_complete()

    @SETTINGS
    @given(form=arbitrary_forms())
    def test_counterexamples_are_really_incompletable(self, form):
        result = semisoundness_depth1(form)
        if result.answer is False and result.counterexample is not None:
            check = completability_depth1(form, start=result.counterexample)
            assert check.answer is False


class TestBoundedExplorerConsistency:
    @SETTINGS
    @given(form=arbitrary_forms())
    def test_bounded_answers_never_contradict_the_exact_procedure(self, form):
        """Whenever the bounded explorer commits to an answer (which requires
        its exploration to have been exhaustive), it must agree with the exact
        depth-1 procedure; otherwise it must report undecided."""
        bounded = decide_completability(form, strategy="bounded", limits=SMALL_LIMITS)
        exact = completability_depth1(form)
        if bounded.decided:
            assert bounded.answer == exact.answer
        else:
            assert bounded.answer is None


def label_set_verdict(form, kind: str) -> dict:
    """The depth-1 verdict of *kind* computed on label sets over
    ``legacy_explore_depth1``: the reference the mask procedures match."""
    graph = legacy_explore_depth1(form)
    reachable = graph.reachable_from(graph.initial)
    complete = graph.satisfying_states(form.is_complete)
    transitions = sum(len(edges) for edges in graph.transitions.values())
    if kind == "completability":
        witnesses = sorted(reachable & complete, key=sorted)
        return {
            "answer": bool(witnesses),
            "run": graph.run_to(witnesses[0]).updates if witnesses else None,
            "counterexample": None,
            "stats": {
                "canonical_states": len(graph.states),
                "complete_states": len(witnesses),
                "transitions": transitions,
            },
        }
    stuck = sorted(reachable - graph.backward_closure(complete), key=sorted)
    return {
        "answer": not stuck,
        "run": graph.run_to(stuck[0]).updates if stuck else None,
        "counterexample": stuck[0] if stuck else None,
        "stats": {
            "canonical_states": len(graph.states),
            "transitions": transitions,
            "reachable_states": len(reachable),
            "incompletable_reachable_states": len(stuck),
        },
    }


def mask_verdict(form, kind: str) -> dict:
    """The same summary of the mask-based depth-1 procedure."""
    procedure = completability_depth1 if kind == "completability" else semisoundness_depth1
    result = procedure(form)
    counterexample = result.counterexample
    return {
        "answer": result.answer,
        "run": result.witness_run.updates if result.witness_run is not None else None,
        "counterexample": (
            canonical_depth1_state(counterexample) if counterexample is not None else None
        ),
        "stats": {key: value for key, value in result.stats.items() if key != "engine"},
    }


KINDS = ("completability", "semisoundness")

#: no pinned example budget: the default profile's locally, the raised
#: ``ci`` profile's in CI's property job
MASK_SETTINGS = settings(deadline=None)


class TestMaskProceduresMatchLabelSets:
    """The depth-1 procedures decide on state masks; on every form, for both
    problems and both verdicts, they give the answer, witness run,
    counterexample and counts a label-set computation on the reference
    explorer gives."""

    @MASK_SETTINGS
    @given(form=arbitrary_forms(), kind=st.sampled_from(KINDS))
    def test_random_forms(self, form, kind):
        assert mask_verdict(form, kind) == label_set_verdict(form, kind)

    @MASK_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        variables=st.integers(min_value=3, max_value=4),
        ratio=st.sampled_from([2.0, 4.3, 6.0]),
        kind=st.sampled_from(KINDS),
    )
    def test_sat_families(self, seed, variables, ratio, kind):
        family = sat_completability_family if kind == "completability" else sat_semisoundness_family
        form, _ = family(variables, clause_ratio=ratio, seed=seed)
        assert mask_verdict(form, kind) == label_set_verdict(form, kind)

    @pytest.mark.parametrize("kind", KINDS)
    def test_sat_families_cover_both_verdicts(self, kind):
        family = sat_completability_family if kind == "completability" else sat_semisoundness_family
        answers = set()
        for seed in range(12):
            form, _ = family(4, clause_ratio=6.0, seed=seed)
            verdict = mask_verdict(form, kind)
            assert verdict == label_set_verdict(form, kind)
            answers.add(verdict["answer"])
        assert answers == {True, False}
