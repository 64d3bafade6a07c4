"""Sliced depth-1 runs: ``step_limit`` and ``resume`` on the canonical search.

A depth-1 exploration that runs out of its step budget checkpoints its
visited state masks, frontier and transitions, and raises
:class:`~repro.exceptions.ExplorationInterrupted`; an identical call with
``resume`` continues it.  Every slice here runs in a fresh engine on a fresh
handle of the store, as the pod runs a job, and the finished run must equal
one that was never sliced.
"""

import pytest

from repro.analysis.completability import decide_completability
from repro.analysis.results import ExplorationLimits
from repro.analysis.semisoundness import decide_semisoundness
from repro.benchgen.families import sat_completability_family, sat_semisoundness_family
from repro.engine import ExplorationEngine, SqliteStore
from repro.exceptions import ExplorationInterrupted

#: name -> (form builder, procedure); the benchmark's depth-1 request forms
CASES = {
    "sat": (
        lambda: sat_completability_family(8, clause_ratio=4.3, seed=1)[0],
        decide_completability,
    ),
    "sat-semisound": (
        lambda: sat_semisoundness_family(5, clause_ratio=4.0, seed=1)[0],
        decide_semisoundness,
    ),
}


def summary(result) -> tuple:
    """What a sliced run must reproduce: the answer, the graph's size and
    the witness run (with the counterexample, if any)."""
    run = result.witness_run
    counterexample = result.counterexample
    return (
        result.answer,
        result.stats["canonical_states"],
        result.stats["transitions"],
        None if run is None else (run.start.shape(), tuple(run.updates)),
        None if counterexample is None else counterexample.shape(),
    )


def run_in_slices(path, run_slice) -> tuple:
    """Call *run_slice(store)* on a fresh store handle until it returns;
    the result and the number of slices taken."""
    slices = 0
    while True:
        slices += 1
        assert slices < 500, "the sliced run never finished"
        store = SqliteStore(path)
        try:
            return run_slice(store), slices
        except ExplorationInterrupted:
            pass
        finally:
            store.close()


@pytest.mark.parametrize("name", sorted(CASES))
def test_sliced_run_equals_the_unsliced_run(name, tmp_path):
    build, decide = CASES[name]
    form = build()
    reference = decide(form)
    result, slices = run_in_slices(
        tmp_path / "slices.db",
        lambda store: decide(
            form, engine=ExplorationEngine(form, store=store), resume=True, step_limit=7
        ),
    )
    assert slices > 1, "the step limit never interrupted; the test is vacuous"
    assert summary(result) == summary(reference)
    assert result.stats["engine"]["explorations_resumed"] == 1


def test_a_finished_sliced_run_resumes_to_its_whole_graph(tmp_path):
    form = CASES["sat"][0]()
    reference = ExplorationEngine(form).explore_depth1()
    path = tmp_path / "done.db"
    run_in_slices(
        path, lambda store: ExplorationEngine(form, store=store).explore_depth1(
            resume=True, step_limit=50
        )
    )
    store = SqliteStore(path)
    engine = ExplorationEngine(form, store=store)
    graph = engine.explore_depth1(resume=True, step_limit=1)
    store.close()
    assert engine.expansions_computed == 0
    assert graph.states == reference.states
    assert graph.transitions == reference.transitions


def test_depth1_and_bounded_checkpoints_share_a_store(tmp_path):
    """A depth-1 form explored both ways, sliced alternately on one store:
    neither run picks up the other's checkpoint."""
    form = CASES["sat"][0]()
    limits = ExplorationLimits(max_states=60)
    depth1_reference = ExplorationEngine(form).explore_depth1()
    bounded_reference = ExplorationEngine(form).explore(limits=limits)
    path = tmp_path / "shared.db"
    depth1_graph = bounded_graph = None
    slices = 0
    while depth1_graph is None or bounded_graph is None:
        slices += 1
        assert slices < 500, "the sliced runs never finished"
        store = SqliteStore(path)
        engine = ExplorationEngine(form, store=store)
        try:
            if depth1_graph is None:
                depth1_graph = engine.explore_depth1(resume=True, step_limit=9)
        except ExplorationInterrupted:
            pass
        try:
            if bounded_graph is None:
                bounded_graph = engine.explore(limits=limits, resume=True, step_limit=5)
        except ExplorationInterrupted:
            pass
        store.close()
    assert slices > 2
    assert depth1_graph.states == depth1_reference.states
    assert depth1_graph.transitions == depth1_reference.transitions
    assert bounded_graph.states == bounded_reference.states
    assert bounded_graph.transitions == bounded_reference.transitions


def test_an_interrupted_slice_is_committed_without_a_flush(tmp_path):
    """A depth-1 run writes only checkpoints, and each commits itself: a
    second handle on the file, opened while the interrupted slice's handle
    is still open and unflushed, resumes from it to the whole graph."""
    form = CASES["sat"][0]()
    reference = ExplorationEngine(form).explore_depth1()
    path = tmp_path / "live.db"
    first = SqliteStore(path)
    with pytest.raises(ExplorationInterrupted):
        ExplorationEngine(form, store=first).explore_depth1(resume=True, step_limit=7)
    second = SqliteStore(path)
    engine = ExplorationEngine(form, store=second)
    graph = engine.explore_depth1(resume=True)
    second.close()
    first.close()
    assert engine.stats_snapshot()["explorations_resumed"] == 1
    assert graph.states == reference.states
    assert graph.transitions == reference.transitions
