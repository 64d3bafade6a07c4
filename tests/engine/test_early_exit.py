"""The ``stop_on_complete`` early exit and the parity of its *default*.

The ROADMAP's goal-directed-exploration item adds an opt-in early return to
:meth:`ExplorationEngine.explore` and :meth:`ExplorationEngine.explore_depth1`;
these tests pin (a) that the default stays exhaustive — byte-for-byte the
same graphs as before the feature — and (b) that the opt-in never changes a
decision, only the effort.
"""

import pytest

from repro.analysis.completability import decide_completability
from repro.analysis.results import ExplorationLimits
from repro.analysis.statespace import legacy_explore_bounded
from repro.benchgen.families import (
    counter_machine_family,
    positive_deep_family,
    sat_completability_family,
)
from repro.engine import ExplorationEngine
from repro.fbwis.catalog import leave_application, leave_application_incompletable

LIMITS = ExplorationLimits(max_states=2_000, max_instance_nodes=16)


class TestDefaultIsExhaustive:
    @pytest.mark.parametrize(
        "form",
        [
            leave_application(single_period=True),
            counter_machine_family(2)[0],
            positive_deep_family(3, width=2),
        ],
        ids=["leave-application", "counter-machine", "positive-deep"],
    )
    def test_default_explore_matches_legacy_reference(self, form):
        graph = ExplorationEngine(form, limits=LIMITS).explore()
        assert graph.stopped_on_complete is False
        legacy = legacy_explore_bounded(form, limits=LIMITS)
        assert {graph.shape_of(s) for s in graph.states} == legacy.states
        assert graph.truncated == legacy.truncated
        assert graph.skipped_successors == legacy.skipped_successors

    def test_completability_default_still_explores_exhaustively(self):
        form = leave_application(single_period=True)
        result = decide_completability(form, limits=LIMITS)
        assert result.stats["stopped_on_complete"] is False
        assert result.stats["states_explored"] == len(
            legacy_explore_bounded(form, limits=LIMITS).states
        )


class TestOptInEarlyExit:
    def test_early_exit_explores_fewer_states_same_answer(self):
        form = leave_application(single_period=True)
        exhaustive = decide_completability(form, limits=LIMITS)
        early = decide_completability(form, limits=LIMITS, stop_on_complete=True)
        assert exhaustive.answer is True
        assert early.decided and early.answer is True
        assert early.stats["stopped_on_complete"] is True
        assert early.stats["states_explored"] < exhaustive.stats["states_explored"]
        assert early.witness_run is not None and early.witness_run.is_valid()
        assert form.is_complete(early.witness_run.final_instance())

    def test_early_exit_on_incompletable_form_changes_nothing(self):
        form = leave_application_incompletable(single_period=True)
        exhaustive = decide_completability(form, limits=LIMITS)
        early = decide_completability(form, limits=LIMITS, stop_on_complete=True)
        assert early.decided == exhaustive.decided
        assert early.answer == exhaustive.answer is False
        assert early.stats["stopped_on_complete"] is False
        assert early.stats["states_explored"] == exhaustive.stats["states_explored"]

    def test_complete_initial_state_returns_immediately(self):
        form = positive_deep_family(2, width=1)
        start = form.initial_instance().copy()
        node = start.root
        # build the completion path so the start instance is already complete
        while True:
            schema_node = form.schema.node_at(node.label_path())
            if not schema_node.children:
                break
            node = start.add_field(node, schema_node.children[0].label)
        assert form.is_complete(start)
        engine = ExplorationEngine(form)
        graph = engine.explore(start=start, stop_on_complete=True)
        assert graph.stopped_on_complete is True
        assert graph.states == {graph.initial_id}
        assert graph.transitions == {}

    def test_early_exit_graph_is_not_marked_truncated(self):
        form = leave_application(single_period=True)
        graph = ExplorationEngine(form, limits=LIMITS).explore(stop_on_complete=True)
        assert graph.stopped_on_complete is True
        assert not graph.truncated_by_states
        assert not graph.truncated_by_size


class TestDepth1EarlyExit:
    """The depth-1 canonical search honours ``stop_on_complete`` too, on the
    Theorem 5.1 SAT forms (completable iff the CNF is satisfiable)."""

    @pytest.mark.parametrize("seed, satisfiable", [(1, True), (2, False)])
    def test_same_answer_as_the_exhaustive_search(self, seed, satisfiable):
        form = sat_completability_family(8, clause_ratio=4.3, seed=seed)[0]
        exhaustive = decide_completability(form)
        early = decide_completability(form, stop_on_complete=True)
        assert exhaustive.procedure == early.procedure == "depth1_canonical_search"
        assert exhaustive.answer is early.answer is satisfiable
        assert early.stats["stopped_on_complete"] is satisfiable
        if satisfiable:
            assert early.stats["canonical_states"] < exhaustive.stats["canonical_states"]
            assert early.witness_run.is_valid()
            assert form.is_complete(early.witness_run.final_instance())
        else:
            assert early.stats["canonical_states"] == exhaustive.stats["canonical_states"]

    def test_both_call_sites_pass_the_flag(self):
        form = sat_completability_family(8, clause_ratio=4.3, seed=1)[0]
        for strategy in ("auto", "depth1"):
            result = decide_completability(form, strategy=strategy, stop_on_complete=True)
            assert result.stats["stopped_on_complete"] is True

    def test_default_stats_are_unchanged(self):
        form = sat_completability_family(8, clause_ratio=4.3, seed=1)[0]
        stats = decide_completability(form).stats
        assert list(stats) == ["canonical_states", "complete_states", "transitions", "engine"]

    def test_complete_initial_state_stops_before_expanding(self):
        form = sat_completability_family(8, clause_ratio=4.3, seed=1)[0]
        witness = decide_completability(form).witness_run.final_instance()
        engine = ExplorationEngine(form)
        graph = engine.explore_depth1(start=witness, stop_on_complete=True)
        assert graph.stopped_on_complete is True
        assert graph.states == {graph.initial}
        assert graph.transitions == {}
