"""Coverage for representative eviction, the guided frontier, and
hydrate-once semantics — the engine corners the parity suites did not reach
(those exercised bfs/dfs only, and never evicted a representative).
"""

from repro.analysis.completability import decide_completability
from repro.analysis.results import ExplorationLimits
from repro.benchgen.families import (
    counter_machine_family,
    positive_deep_family,
    sat_completability_family,
)
from repro.engine import ExplorationEngine, ParallelExplorationEngine, SqliteStore
from repro.exceptions import ExplorationInterrupted
from repro.fbwis.catalog import leave_application

LIMITS = ExplorationLimits(max_states=2_000, max_instance_nodes=16)


def exact_edges(graph):
    return {
        source: [
            (
                type(update).__name__,
                getattr(update, "parent_id", None),
                getattr(update, "node_id", None),
                getattr(update, "label", None),
                target,
            )
            for update, target in edges
        ]
        for source, edges in graph.transitions.items()
    }


class TestEvictRepresentatives:
    def test_eviction_requires_a_persistent_store(self):
        engine = ExplorationEngine(leave_application(single_period=True), limits=LIMITS)
        engine.explore()
        assert engine.evict_representatives() == 0  # nowhere to reload from

    def test_evicted_states_reload_with_identical_node_ids(self, tmp_path):
        form = counter_machine_family(2)[0]
        engine = ExplorationEngine(form, limits=LIMITS, store=SqliteStore(tmp_path / "e.db"))
        graph = engine.explore()
        before = {
            state_id: [
                (node.node_id, node.label) for node in engine.representative(state_id).nodes()
            ]
            for state_id in graph.states
        }
        evicted = engine.evict_representatives(keep=0)
        assert evicted == len(before)
        assert not engine._reps and not engine._shape_maps
        after = {
            state_id: [
                (node.node_id, node.label) for node in engine.representative(state_id).nodes()
            ]
            for state_id in graph.states
        }
        assert after == before
        engine.store.close()

    def test_keep_retains_the_most_recently_accessed(self, tmp_path):
        """Eviction keeps the states touched last, not the lowest (oldest)
        ids — the oldest states are exactly the ones least likely to be
        re-popped by an in-flight exploration."""
        form = leave_application(single_period=True)
        engine = ExplorationEngine(form, limits=LIMITS, store=SqliteStore(tmp_path / "k.db"))
        engine.explore()
        resident = sorted(engine._reps)
        touched = [resident[0], resident[2], resident[4]]
        for state_id in touched:  # refresh recency of three old, cold states
            engine.representative(state_id)
        evicted = engine.evict_representatives(keep=3)
        assert evicted == len(resident) - 3
        assert sorted(engine._reps) == sorted(touched)
        engine.store.close()

    def test_exploration_after_eviction_is_unchanged(self, tmp_path):
        """Evicting between the reachability sweep and a re-exploration must
        not perturb ids, transitions or answers (shape maps are rebuilt on
        demand from the reloaded representatives)."""
        form = counter_machine_family(2)[0]
        reference_engine = ExplorationEngine(form, limits=LIMITS)
        reference = reference_engine.explore()
        reference_answer = decide_completability(form, limits=LIMITS, engine=reference_engine)

        engine = ExplorationEngine(form, limits=LIMITS, store=SqliteStore(tmp_path / "x.db"))
        engine.explore()
        engine.evict_representatives(keep=0)
        graph = engine.explore()  # replayed from memoized expansions
        assert graph.states == reference.states
        assert exact_edges(graph) == exact_edges(reference)
        answer = decide_completability(form, limits=LIMITS, engine=engine)
        assert answer.decided == reference_answer.decided
        assert answer.answer == reference_answer.answer
        engine.store.close()


class TestGuidedFrontier:
    def test_guided_store_parity(self, tmp_path):
        """Mirror of the bfs store-parity test under the guided strategy."""
        form = counter_machine_family(2)[0]
        memory = ExplorationEngine(form, limits=LIMITS, strategy="guided").explore()
        store = SqliteStore(tmp_path / "g.db")
        stored_engine = ExplorationEngine(form, limits=LIMITS, strategy="guided", store=store)
        stored = stored_engine.explore()
        assert stored.states == memory.states
        assert exact_edges(stored) == exact_edges(memory)
        assert stored.truncated == memory.truncated
        store.close()

    def test_guided_kill_and_resume_matches_uninterrupted(self, tmp_path):
        """The guided frontier's pending() contract holds in a real
        checkpoint/resume cycle, not just in the unit round-trip test."""
        form = counter_machine_family(2)[0]
        reference = ExplorationEngine(form, limits=LIMITS, strategy="guided").explore()
        path = tmp_path / "resume.db"
        graph = None
        rounds = 0
        while graph is None:
            rounds += 1
            assert rounds < 200, "resume loop failed to converge"
            engine = ExplorationEngine(
                form, limits=LIMITS, strategy="guided", store=SqliteStore(path)
            )
            try:
                graph = engine.explore(resume=True, step_limit=13)
            except ExplorationInterrupted:
                pass
            engine.store.close()
        assert rounds > 1, "step limit never interrupted; test is vacuous"
        assert graph.states == reference.states
        assert exact_edges(graph) == exact_edges(reference)

    def test_guided_stop_on_complete_finds_a_complete_state(self):
        form = leave_application(single_period=True)
        engine = ExplorationEngine(form, limits=LIMITS, strategy="guided")
        graph = engine.explore(stop_on_complete=True)
        assert graph.stopped_on_complete
        assert engine.heuristic_evaluations > 0  # the scorer actually ran
        complete = engine.complete_ids(graph)
        assert complete

    def test_guided_depth1_scores_stay_out_of_bounded_runs(self):
        """Depth-1 state masks and bounded state ids are both small ints: a
        guided depth-1 run must not leave scores a later guided bounded run
        on the same engine reads for its own states."""
        form = sat_completability_family(8, clause_ratio=4.3, seed=1)[0]
        limits = ExplorationLimits(max_states=120)
        engine = ExplorationEngine(form, strategy="guided")
        decide_completability(form, strategy="depth1", engine=engine)
        shared = decide_completability(form, strategy="bounded", limits=limits, engine=engine)
        fresh = decide_completability(
            form,
            strategy="bounded",
            limits=limits,
            engine=ExplorationEngine(form, strategy="guided"),
        )
        for result in (shared, fresh):
            assert result.answer is True
        assert shared.stats["states_explored"] == fresh.stats["states_explored"]
        assert shared.stats["transitions"] == fresh.stats["transitions"]
        assert shared.witness_run.updates == fresh.witness_run.updates

    def test_guided_parallel_matches_guided_serial(self):
        """Wave prefetching is strategy-agnostic: a guided parallel run is
        bit-identical to a guided serial run."""
        form = positive_deep_family(3, width=2)
        reference = ExplorationEngine(form, limits=LIMITS, strategy="guided").explore()
        engine = ParallelExplorationEngine(
            form, limits=LIMITS, strategy="guided", workers=2, min_wave=1
        )
        with engine:
            graph = engine.explore()
            assert engine.states_prefetched > 0
        assert graph.states == reference.states
        assert exact_edges(graph) == exact_edges(reference)
        assert graph.truncated_by_states == reference.truncated_by_states


class TestHydrateOnce:
    def test_hydration_is_lazy_and_happens_once(self, tmp_path):
        path = tmp_path / "h.db"
        form = counter_machine_family(2)[0]
        first = ExplorationEngine(form, limits=LIMITS, store=SqliteStore(path))
        first.explore()
        first.store.close()

        second = ExplorationEngine(form, limits=LIMITS, store=SqliteStore(path))
        assert len(second.interner) == 0  # attaching alone loads nothing
        second.explore()
        restored_states = second.interner.states_restored
        assert restored_states > 0
        # repeated explorations against the same engine must not re-scan the
        # store's shape table (the satellite fix this test pins)
        second.explore()
        second.explore(stop_on_complete=True)
        assert second.interner.states_restored == restored_states
        second.store.close()

    def test_depth1_exploration_also_hydrates_lazily(self, tmp_path):
        from repro.benchgen.families import positive_chain_family

        path = tmp_path / "d1.db"
        form = positive_chain_family(5)
        first = ExplorationEngine(form, store=SqliteStore(path))
        first_graph = first.explore_depth1()
        first.store.close()
        second = ExplorationEngine(form, store=SqliteStore(path))
        assert not second._hydrated  # attaching alone binds nothing
        graph = second.explore_depth1()
        assert second._hydrated
        assert graph.states == first_graph.states
        # a depth-1 run persists no shapes and no guard values: the second
        # engine evaluates every guard the first one did, once
        assert second.interner.states_restored == 0
        assert second.guards.misses == first.guards.misses
        second.explore_depth1()
        assert second.guards.misses == first.guards.misses
        second.store.close()
