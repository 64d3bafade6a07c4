"""The depth-1 checkpoint format is pinned by a committed payload.

``fixtures/depth1_checkpoint_sat4.json`` holds a SAT completability form
(``sat_completability_family(4, seed=4)``), the run key of its default
depth-1 exploration, and the checkpoint that exploration saved when a
``step_limit`` of 5 interrupted it, as written by the mask-based engine
before its graph became a mask graph.  Saved into a fresh store, the
payload must resume to the same graph and verdict as a run that was never
sliced: a change to the payload's fields, or to what they mean, fails here.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.completability import decide_completability
from repro.engine import ExplorationEngine, InMemoryStore, SqliteStore
from repro.io.serialization import guarded_form_from_dict

FIXTURE = Path(__file__).parent / "fixtures" / "depth1_checkpoint_sat4.json"


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
def test_committed_checkpoint_resumes_to_the_unsliced_run(kind, tmp_path):
    fixture = json.loads(FIXTURE.read_text())
    form = guarded_form_from_dict(fixture["form"])
    checkpoint = fixture["checkpoint"]
    assert not checkpoint["done"]
    store = InMemoryStore() if kind == "memory" else SqliteStore(tmp_path / "fresh.db")
    store.save_checkpoint(fixture["run_key"], checkpoint)
    engine = ExplorationEngine(form, store=store)
    graph = engine.explore_depth1(resume=True)
    reference = ExplorationEngine(form).explore_depth1()
    assert engine.explorations_resumed == 1
    # only the states the checkpoint left unexpanded were expanded here
    assert engine.expansions_computed == len(reference.masks) - len(checkpoint["transitions"])
    assert graph.initial_mask == reference.initial_mask
    assert set(graph.masks) == set(reference.masks)
    assert graph.moves == reference.moves
    assert graph.states == reference.states
    assert graph.transitions == reference.transitions

    resumed = decide_completability(
        form, engine=ExplorationEngine(form, store=store), resume=True
    )
    unsliced = decide_completability(form)
    assert resumed.stats["engine"]["explorations_resumed"] == 1
    assert resumed.answer == unsliced.answer
    for key in ("canonical_states", "complete_states", "transitions"):
        assert resumed.stats[key] == unsliced.stats[key]
    if unsliced.witness_run is not None:
        assert resumed.witness_run.updates == unsliced.witness_run.updates
    store.close()
