"""Unit tests for workflow extraction from guarded forms."""

import pytest

from repro.analysis.results import ExplorationLimits
from repro.benchgen.families import sat_completability_family
from repro.engine import ExplorationEngine, SqliteStore
from repro.exceptions import ExplorationInterrupted
from repro.workflow.extraction import extract_workflow
from repro.workflow.soundness import analyse_workflow


class TestDepth1Extraction:
    def test_states_match_canonical_graph(self, tiny_form):
        lts = extract_workflow(tiny_form)
        assert len(lts) == 4
        assert lts.initial == "{}"
        assert "{a, b, c}" in lts.states

    def test_accepting_states(self, tiny_form):
        lts = extract_workflow(tiny_form)
        assert lts.accepting == {"{a, b, c}"}

    def test_actions_are_descriptive(self, tiny_form):
        lts = extract_workflow(tiny_form)
        assert "add a" in lts.actions()
        assert "delete b" in lts.actions()

    def test_meta_reports_exact_representation(self, tiny_form):
        lts = extract_workflow(tiny_form)
        meta = lts.state_annotations["__meta__"]
        assert meta["representation"] == "canonical"
        assert meta["truncated"] is False

    def test_annotations_carry_states(self, tiny_form):
        lts = extract_workflow(tiny_form)
        assert lts.state_annotations["{a}"] == frozenset({"a"})


class TestBoundedExtraction:
    def test_leave_application_workflow(self, leave_form):
        lts = extract_workflow(
            leave_form, limits=ExplorationLimits(max_states=10_000, max_instance_nodes=30)
        )
        assert len(lts) > 10
        assert lts.accepting
        meta = lts.state_annotations["__meta__"]
        assert meta["representation"] == "isomorphism"
        assert meta["truncated"] is False

    def test_initial_state_is_empty_form(self, leave_form):
        lts = extract_workflow(
            leave_form, limits=ExplorationLimits(max_states=10_000, max_instance_nodes=30)
        )
        assert lts.initial.endswith("{}")

    def test_analysis_of_extracted_workflow(self, leave_form, broken_rules_form):
        limits = ExplorationLimits(max_states=10_000, max_instance_nodes=30)
        good = analyse_workflow(extract_workflow(leave_form, limits=limits))
        assert good.semi_sound
        bad = analyse_workflow(extract_workflow(broken_rules_form, limits=limits))
        assert not bad.semi_sound
        assert bad.stuck_states

    def test_truncation_is_reported(self, leave_form_full):
        lts = extract_workflow(
            leave_form_full, limits=ExplorationLimits(max_states=40, max_instance_nodes=20)
        )
        assert lts.state_annotations["__meta__"]["truncated"]


class TestSlicedDepth1Extraction:
    """``step_limit`` and ``resume`` reach the depth-1 canonical search: a
    workflow extraction sliced as the pod slices a job (a fresh engine on a
    fresh store handle per slice) yields the LTS of an unsliced run."""

    def test_sliced_extraction_equals_the_unsliced_one(self, tmp_path):
        form = sat_completability_family(8, clause_ratio=4.3, seed=1)[0]
        reference = extract_workflow(form)
        path = tmp_path / "workflow.db"
        slices = 0
        while True:
            slices += 1
            assert slices < 500, "the sliced extraction never finished"
            store = SqliteStore(path)
            try:
                lts = extract_workflow(
                    form,
                    engine=ExplorationEngine(form, store=store),
                    resume=True,
                    step_limit=25,
                )
                break
            except ExplorationInterrupted:
                pass
            finally:
                store.close()
        assert slices > 1, "the step limit never interrupted; the test is vacuous"
        assert lts.initial == reference.initial
        assert lts.states == reference.states
        assert lts.accepting == reference.accepting
        assert sorted(lts.transitions, key=repr) == sorted(reference.transitions, key=repr)

    def test_step_limit_interrupts_a_depth1_extraction(self, tmp_path):
        form = sat_completability_family(8, clause_ratio=4.3, seed=1)[0]
        store = SqliteStore(tmp_path / "workflow.db")
        try:
            with pytest.raises(ExplorationInterrupted):
                extract_workflow(form, store=store, step_limit=25)
        finally:
            store.close()
