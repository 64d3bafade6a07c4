"""Deferred representatives: an engine derives a state's representative
only when something asks for it, with or without a persistent store.

Two contracts:

* **parity** — a store-less exploration and a persistent-store exploration
  (which writes each new state's origin row, not its representative) agree
  exactly: transitions, the id-preserving encoding of every interned state's
  representative, and the witness runs;
* **the saving** — an exploration derives one representative per state it
  expands or probes, not one per state it interns, whether or not it is
  backed by a store.
"""

import pytest

from repro.analysis.results import ExplorationLimits
from repro.benchgen.families import (
    counter_machine_family,
    positive_deep_family,
    qsat_semisoundness_family,
)
from repro.engine import ExplorationEngine, SqliteStore
from repro.io.serialization import encode_instance_with_ids

#: Tight enough that every family interns states it never expands.
LIMITS = ExplorationLimits(max_states=100, max_instance_nodes=14)


def families():
    return [
        ("positive-deep", positive_deep_family(3, width=2)),
        ("counter-machine", counter_machine_family(5)[0]),
        ("qsat-semisoundness", qsat_semisoundness_family(1, seed=1)[0]),
    ]


@pytest.mark.parametrize("name,form", families(), ids=[n for n, _ in families()])
def test_deferred_and_eager_representatives_agree(tmp_path, name, form):
    deferred_engine = ExplorationEngine(form, limits=LIMITS)
    deferred = deferred_engine.explore()
    store = SqliteStore(tmp_path / f"{name}.db")
    stored_engine = ExplorationEngine(form, limits=LIMITS, store=store)
    stored = stored_engine.explore()
    try:
        assert deferred.states == stored.states
        assert deferred.transitions == stored.transitions
        assert len(deferred_engine.interner) == len(stored_engine.interner)
        assert deferred_engine.stats_snapshot()["reps_pending"] > 0
        # every interned id, in reverse order, so pending states are derived
        # long after (and in another order than) their discovery
        for state_id in reversed(range(len(deferred_engine.interner))):
            assert encode_instance_with_ids(
                deferred_engine.representative(state_id)
            ) == encode_instance_with_ids(stored_engine.representative(state_id))
        for state_id in sorted(deferred.states):
            assert deferred.run_to(state_id).updates == stored.run_to(state_id).updates
    finally:
        store.close()


def test_store_less_exploration_derives_one_representative_per_used_state():
    assert_one_derivation_per_used_state(
        ExplorationEngine(positive_deep_family(3, width=2), limits=LIMITS)
    )


def test_store_backed_exploration_derives_one_representative_per_used_state(tmp_path):
    store = SqliteStore(tmp_path / "deferred.db")
    try:
        assert_one_derivation_per_used_state(
            ExplorationEngine(positive_deep_family(3, width=2), limits=LIMITS, store=store)
        )
    finally:
        store.close()


def assert_one_derivation_per_used_state(engine):
    derived = []
    successor = engine.shaper.successor

    def counting_successor(instance, shape_map, update):
        derived.append(update)
        return successor(instance, shape_map, update)

    engine.shaper.successor = counting_successor
    graph = engine.explore()
    stats = engine.stats_snapshot()
    interned = len(engine.interner)
    expanded = len(graph.transitions)
    assert graph.truncated_by_states
    # the start state is registered from the caller's instance, every other
    # expanded state from its parent's representative
    assert len(derived) == expanded - 1
    assert stats["reps_resident"] == expanded
    assert stats["reps_pending"] == interned - expanded > 0
    assert stats["registered_states"] == interned

    probed = next(
        state_id for state_id in range(interned) if state_id not in graph.transitions
    )
    engine.representative(probed)
    engine.representative(probed)  # a second ask is served resident
    stats = engine.stats_snapshot()
    assert len(derived) == expanded
    assert stats["reps_resident"] == expanded + 1
    assert stats["reps_pending"] == interned - expanded - 1
    assert stats["registered_states"] == interned
