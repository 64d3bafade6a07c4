"""SqliteStore-vs-in-memory differential suite.

A storage backend can silently corrupt canonical-representative sharing, so
every benchgen family is explored twice — once on a plain in-memory engine,
once on an engine backed by an on-disk :class:`SqliteStore` — and the graphs
must agree exactly: state sets, transitions, truncation flags and the
decision-procedure answers.  A kill-and-resume scenario (repeatedly
interrupted, each continuation in a *fresh* engine + store handle, standing
in for a fresh process) must converge to the same graph and stats as a single
uninterrupted run.
"""

import pytest

from repro.analysis.completability import decide_completability
from repro.analysis.results import ExplorationLimits
from repro.analysis.semisoundness import decide_semisoundness
from repro.benchgen.families import (
    counter_machine_family,
    deadlock_family,
    positive_chain_family,
    positive_deep_family,
    qsat_semisoundness_family,
    sat_completability_family,
    sat_semisoundness_family,
)
from repro.engine import ExplorationEngine, SqliteStore
from repro.exceptions import ExplorationInterrupted, StoreError
from repro.fbwis.catalog import leave_application
from repro.io.serialization import decode_origin, encode_instance_with_ids
from tests.engine.test_eviction_and_guided import exact_edges

BOUNDED_LIMITS = ExplorationLimits(max_states=2_000, max_instance_nodes=16)


def depth1_families():
    return [
        ("positive-chain", positive_chain_family(6)),
        ("sat-completability", sat_completability_family(5, seed=5)[0]),
        ("sat-semisoundness", sat_semisoundness_family(4, seed=4)[0]),
        ("deadlock", deadlock_family(2, seed=2)[0]),
    ]


def bounded_families():
    return [
        ("positive-deep", positive_deep_family(3, width=2)),
        ("counter-machine", counter_machine_family(2)[0]),
        ("qsat-semisoundness", qsat_semisoundness_family(1, seed=1)[0]),
        ("leave-application", leave_application(single_period=True)),
    ]


def depth1_transition_sets(graph):
    return {
        state: {(t.kind, t.label, t.target) for t in transitions}
        for state, transitions in graph.transitions.items()
    }


def shape_transition_triples(graph):
    return {
        (graph.shape_of(source), type(update).__name__, graph.shape_of(target))
        for source, edges in graph.transitions.items()
        for update, target in edges
    }


def truncation_profile(graph):
    return (
        graph.truncated_by_states,
        graph.truncated_by_size,
        graph.truncated_by_copies,
        graph.skipped_successors,
    )


class TestDepth1StoreParity:
    @pytest.mark.parametrize("name,form", depth1_families(), ids=lambda v: v if isinstance(v, str) else "")
    def test_graphs_and_answers_match(self, tmp_path, name, form):
        memory_graph = ExplorationEngine(form).explore_depth1()
        store = SqliteStore(tmp_path / f"{name}.db")
        stored_engine = ExplorationEngine(form, store=store)
        stored_graph = stored_engine.explore_depth1()
        assert stored_graph.states == memory_graph.states
        assert stored_graph.initial == memory_graph.initial
        assert depth1_transition_sets(stored_graph) == depth1_transition_sets(memory_graph)
        assert (
            decide_completability(form, engine=stored_engine).answer
            == decide_completability(form).answer
        )
        store.close()


class TestBoundedStoreParity:
    @pytest.mark.parametrize("name,form", bounded_families(), ids=lambda v: v if isinstance(v, str) else "")
    def test_graphs_flags_and_answers_match(self, tmp_path, name, form):
        memory_engine = ExplorationEngine(form, limits=BOUNDED_LIMITS)
        memory_graph = memory_engine.explore()
        store = SqliteStore(tmp_path / f"{name}.db")
        stored_engine = ExplorationEngine(form, limits=BOUNDED_LIMITS, store=store)
        stored_graph = stored_engine.explore()

        assert stored_graph.states == memory_graph.states
        assert {stored_graph.shape_of(s) for s in stored_graph.states} == {
            memory_graph.shape_of(s) for s in memory_graph.states
        }
        assert shape_transition_triples(stored_graph) == shape_transition_triples(memory_graph)
        assert truncation_profile(stored_graph) == truncation_profile(memory_graph)

        memory_answer = decide_completability(
            form, limits=BOUNDED_LIMITS, engine=memory_engine
        )
        stored_answer = decide_completability(
            form, limits=BOUNDED_LIMITS, engine=stored_engine
        )
        assert stored_answer.decided == memory_answer.decided
        assert stored_answer.answer == memory_answer.answer
        store.close()

    def test_semisoundness_answers_match(self, tmp_path):
        form = counter_machine_family(2)[0]
        memory = decide_semisoundness(form, limits=BOUNDED_LIMITS)
        store = SqliteStore(tmp_path / "semi.db")
        stored = decide_semisoundness(form, limits=BOUNDED_LIMITS, store=store)
        assert stored.decided == memory.decided
        assert stored.answer == memory.answer
        store.close()


class TestKillAndResume:
    @pytest.mark.parametrize(
        "name,form,step",
        [
            ("counter-machine", counter_machine_family(2)[0], 17),
            ("positive-deep", positive_deep_family(3, width=2), 40),
            ("leave-application", leave_application(single_period=True), 23),
        ],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_interrupted_resume_matches_uninterrupted(self, tmp_path, name, form, step):
        reference = ExplorationEngine(form, limits=BOUNDED_LIMITS).explore()

        path = tmp_path / f"{name}.db"
        graph = None
        rounds = 0
        while graph is None:
            rounds += 1
            assert rounds < 500, "resume loop failed to converge"
            # a fresh engine + store handle each round simulates a new process
            engine = ExplorationEngine(
                form, limits=BOUNDED_LIMITS, store=SqliteStore(path), checkpoint_every=7
            )
            try:
                graph = engine.explore(resume=True, step_limit=step)
            except ExplorationInterrupted:
                pass
            engine.store.close()
        assert rounds > 1, "step limit never interrupted; test is vacuous"

        final_engine = ExplorationEngine(form, limits=BOUNDED_LIMITS, store=SqliteStore(path))
        final = final_engine.explore(resume=True)
        for resumed in (graph, final):
            assert resumed.states == reference.states
            assert shape_transition_triples(resumed) == shape_transition_triples(reference)
            assert truncation_profile(resumed) == truncation_profile(reference)
        final_engine.store.close()

    def test_resumed_analysis_matches_uninterrupted_answer_and_stats(self, tmp_path):
        form = counter_machine_family(2)[0]
        uninterrupted = decide_completability(form, limits=BOUNDED_LIMITS)

        path = tmp_path / "analysis.db"
        first = ExplorationEngine(form, limits=BOUNDED_LIMITS, store=SqliteStore(path))
        with pytest.raises(ExplorationInterrupted):
            first.explore(step_limit=11)
        first.store.close()

        resumed = decide_completability(
            form, limits=BOUNDED_LIMITS, store=SqliteStore(path), resume=True
        )
        assert resumed.decided == uninterrupted.decided
        assert resumed.answer == uninterrupted.answer
        for key in (
            "states_explored",
            "truncated",
            "truncated_by_states",
            "truncated_by_size",
            "truncated_by_copies",
            "skipped_successors",
        ):
            assert resumed.stats[key] == uninterrupted.stats[key], key
        assert resumed.stats["resumed"] is True
        if uninterrupted.answer:
            assert resumed.witness_run is not None
            assert resumed.witness_run.is_valid()
            assert [type(u).__name__ for u in resumed.witness_run.updates] == [
                type(u).__name__ for u in uninterrupted.witness_run.updates
            ]

    @pytest.mark.parametrize("explode_at", [1, 5, 23])
    def test_keyboard_interrupt_mid_expansion_loses_nothing(self, tmp_path, explode_at):
        """A KeyboardInterrupt landing *inside* an expansion (the widest
        window in the loop) must requeue the popped state, so the resumed
        exploration still matches an uninterrupted run exactly — including
        the skipped-successor count."""
        form = counter_machine_family(2)[0]
        reference = ExplorationEngine(form, limits=BOUNDED_LIMITS).explore()

        path = tmp_path / "sigint.db"
        engine = ExplorationEngine(form, limits=BOUNDED_LIMITS, store=SqliteStore(path))
        real_expand = type(engine)._expand
        calls = {"n": 0}

        def exploding_expand(self, state_id):
            calls["n"] += 1
            if calls["n"] == explode_at:
                raise KeyboardInterrupt
            return real_expand(self, state_id)

        engine._expand = exploding_expand.__get__(engine)
        with pytest.raises(KeyboardInterrupt):
            engine.explore()
        engine.store.close()

        fresh = ExplorationEngine(form, limits=BOUNDED_LIMITS, store=SqliteStore(path))
        resumed = fresh.explore(resume=True)
        assert resumed.states == reference.states
        assert shape_transition_triples(resumed) == shape_transition_triples(reference)
        assert truncation_profile(resumed) == truncation_profile(reference)
        assert resumed.transitions.keys() == reference.transitions.keys()
        fresh.store.close()

    def test_witness_node_ids_identical_after_resume(self, tmp_path):
        """Representatives restored from the store keep their node ids, so
        even the node-id-level transition lists match an uninterrupted run."""
        form = counter_machine_family(2)[0]
        reference = ExplorationEngine(form, limits=BOUNDED_LIMITS).explore()

        path = tmp_path / "ids.db"
        first = ExplorationEngine(form, limits=BOUNDED_LIMITS, store=SqliteStore(path))
        with pytest.raises(ExplorationInterrupted):
            first.explore(step_limit=13)
        first.store.close()
        second = ExplorationEngine(form, limits=BOUNDED_LIMITS, store=SqliteStore(path))
        resumed = second.explore(resume=True)

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

        assert exact_edges(resumed) == exact_edges(reference)
        second.store.close()

    @pytest.mark.parametrize(
        "name,form",
        [
            ("positive-deep", positive_deep_family(3, width=2)),
            ("qsat-semisoundness", qsat_semisoundness_family(1, seed=1)[0]),
        ],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_witness_node_ids_identical_after_shared_store_resume(self, tmp_path, name, form):
        """A second exploration (B) on a shared store starts from a state of
        the first (A), so many of B's states were interned by A under other
        parents than B's graph records.  Interrupted and resumed in a fresh
        engine + store handle, B still matches an uninterrupted shared engine
        node id for node id: representatives derive from the parent that
        first interned a state, never from B's graph parent."""
        limits = ExplorationLimits(max_states=150, max_instance_nodes=16)
        reference_engine = ExplorationEngine(form, limits=limits)
        first = reference_engine.explore()
        start_id = max(first.states)
        start = first.instance_of(start_id)
        reference = reference_engine.explore(start=start)

        path = tmp_path / f"{name}-shared.db"
        engine = ExplorationEngine(form, limits=limits, store=SqliteStore(path))
        engine.explore()
        with pytest.raises(ExplorationInterrupted):
            engine.explore(start=start, step_limit=40)
        engine.store.close()

        store = SqliteStore(path)
        fresh = ExplorationEngine(form, limits=limits, store=store)
        resumed = fresh.explore(start=start, resume=True)
        try:
            assert resumed.resumed
            assert resumed.states == reference.states
            assert exact_edges(resumed) == exact_edges(reference)
            for state_id in sorted(reference.states):
                assert encode_instance_with_ids(
                    fresh.representative(state_id)
                ) == encode_instance_with_ids(reference_engine.representative(state_id))
            # the scenario is not vacuous: some origins are not graph parents
            interning_parents = {
                state_id: decode_origin(row)[0]
                for state_id in resumed.parents
                if (row := store.get_representative(state_id)).startswith("[")
            }
            assert any(
                interning_parents.get(state_id, parent) != parent
                for state_id, (parent, _update) in resumed.parents.items()
            )
        finally:
            store.close()


class TestStoreSafety:
    def test_store_refuses_a_different_form(self, tmp_path):
        path = tmp_path / "owned.db"
        ExplorationEngine(positive_chain_family(4), store=SqliteStore(path)).store.close()
        with pytest.raises(StoreError):
            ExplorationEngine(positive_chain_family(5), store=SqliteStore(path))

    def test_same_form_reattaches_cleanly(self, tmp_path):
        path = tmp_path / "owned.db"
        first = ExplorationEngine(positive_chain_family(4), store=SqliteStore(path))
        first.explore_depth1()
        first.store.close()
        second = ExplorationEngine(positive_chain_family(4), store=SqliteStore(path))
        assert len(second.interner) == 0 or second.guards.entries_restored >= 0
        second.store.close()

    def test_in_memory_step_limit_resume_without_database(self):
        """The extracted InMemoryStore still supports interrupt/resume within
        one engine, so the protocol is exercised even without sqlite."""
        form = counter_machine_family(2)[0]
        reference = ExplorationEngine(form, limits=BOUNDED_LIMITS).explore()
        engine = ExplorationEngine(form, limits=BOUNDED_LIMITS)
        with pytest.raises(ExplorationInterrupted):
            engine.explore(step_limit=19)
        resumed = engine.explore(resume=True)
        assert resumed.resumed is True
        assert resumed.states == reference.states
        assert shape_transition_triples(resumed) == shape_transition_triples(reference)
