"""Serial-vs-parallel differential suite.

The parallel engine's whole contract is that ``workers >= 2`` changes wall
time, never answers: for every benchgen family the explored graph must match
the serial engine's **bit-for-bit** — same dense state ids, same transitions
down to the node ids recorded in their updates, same truncation flags — and
every decision procedure must return the same verdict.  The suite mirrors
``tests/engine/test_store_parity.py``, with the store axis swapped for the
worker axis (and one test combining both).

Waves are forced small (``min_wave=1``) so even the tiny families actually
cross the process boundary; the tests assert ``states_prefetched > 0`` where
that matters so a silently-serial parallel engine cannot pass vacuously.
"""

import pytest

from repro.analysis.completability import decide_completability
from repro.analysis.invariants import always_holds
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
from repro.engine import (
    ExplorationEngine,
    ParallelExplorationEngine,
    SqliteStore,
    stable_shape_hash,
)
from repro.exceptions import AnalysisError, ExplorationInterrupted
from repro.fbwis.catalog import leave_application
from repro.workflow.extraction import extract_workflow

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


def parallel_engine(form, workers=2, **kwargs):
    kwargs.setdefault("limits", BOUNDED_LIMITS)
    kwargs.setdefault("min_wave", 1)
    return ParallelExplorationEngine(form, workers=workers, **kwargs)


def exact_edges(graph):
    """Transitions down to the node ids their updates reference."""
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


def truncation_profile(graph):
    return (
        graph.truncated_by_states,
        graph.truncated_by_size,
        graph.truncated_by_copies,
        graph.skipped_successors,
    )


class TestBoundedParallelParity:
    @pytest.mark.parametrize(
        "name,form", bounded_families(), ids=lambda v: v if isinstance(v, str) else ""
    )
    def test_graphs_are_bit_identical(self, name, form):
        reference = ExplorationEngine(form, limits=BOUNDED_LIMITS).explore()
        with parallel_engine(form) as engine:
            graph = engine.explore()
            assert engine.states_prefetched > 0, "workers never engaged"
            # the expansions crossed the process boundary as binary frames
            assert engine.wire_frames_received > 0
            assert engine.wire_bytes_received > 0
        assert graph.states == reference.states
        assert graph.initial_id == reference.initial_id
        assert exact_edges(graph) == exact_edges(reference)
        assert graph.parents == reference.parents
        assert truncation_profile(graph) == truncation_profile(reference)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_count_does_not_change_the_graph(self, workers):
        form = counter_machine_family(2)[0]
        reference = ExplorationEngine(form, limits=BOUNDED_LIMITS).explore()
        with parallel_engine(form, workers=workers) as engine:
            graph = engine.explore()
        assert graph.states == reference.states
        assert exact_edges(graph) == exact_edges(reference)

    def test_interner_matches_even_for_limit_filtered_candidates(self):
        """Serial interning assigns ids to successors a limit then skips;
        the parallel merge must do the same or later ids drift."""
        form = positive_deep_family(3, width=2)
        serial = ExplorationEngine(form, limits=BOUNDED_LIMITS)
        reference = serial.explore()
        assert reference.truncated  # the premise of this test
        with parallel_engine(form) as engine:
            engine.explore()
            assert len(engine.interner) == len(serial.interner)
            for state_id in range(len(serial.interner)):
                assert engine.interner.shape_of(state_id) == serial.interner.shape_of(
                    state_id
                )

    def test_stop_on_complete_parity(self):
        form = leave_application(single_period=True)
        reference = ExplorationEngine(form, limits=BOUNDED_LIMITS).explore(
            stop_on_complete=True
        )
        with parallel_engine(form) as engine:
            graph = engine.explore(stop_on_complete=True)
        assert graph.stopped_on_complete == reference.stopped_on_complete
        assert graph.states == reference.states
        assert exact_edges(graph) == exact_edges(reference)


class TestAnalysisAnswerParity:
    @pytest.mark.parametrize(
        "name,form",
        depth1_families() + bounded_families(),
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_completability_answers_match(self, name, form):
        serial = decide_completability(form, limits=BOUNDED_LIMITS)
        parallel = decide_completability(form, limits=BOUNDED_LIMITS, workers=2)
        assert parallel.decided == serial.decided
        assert parallel.answer == serial.answer
        if serial.witness_run is not None:
            assert parallel.witness_run is not None
            assert [type(u).__name__ for u in parallel.witness_run.updates] == [
                type(u).__name__ for u in serial.witness_run.updates
            ]

    @pytest.mark.parametrize(
        "name,form",
        depth1_families()[:2] + bounded_families()[:2],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_semisoundness_answers_match(self, name, form):
        serial = decide_semisoundness(form, limits=BOUNDED_LIMITS)
        parallel = decide_semisoundness(form, limits=BOUNDED_LIMITS, workers=2)
        assert parallel.decided == serial.decided
        assert parallel.answer == serial.answer

    def test_invariant_answers_match(self):
        form = leave_application(single_period=True)
        serial = always_holds(form, "¬(d[a ∧ r])", limits=BOUNDED_LIMITS)
        parallel = always_holds(form, "¬(d[a ∧ r])", limits=BOUNDED_LIMITS, workers=2)
        assert parallel.decided == serial.decided
        assert parallel.answer == serial.answer

    def test_extracted_workflows_match(self):
        form = counter_machine_family(2)[0]
        serial = extract_workflow(form, limits=BOUNDED_LIMITS)
        parallel = extract_workflow(form, limits=BOUNDED_LIMITS, workers=2)
        assert set(parallel.states) == set(serial.states)
        assert set(parallel.transitions) == set(serial.transitions)
        assert parallel.accepting == serial.accepting


class TestParallelStoreInterplay:
    def test_store_backed_parallel_run_matches_serial_memory_run(self, tmp_path):
        form = counter_machine_family(2)[0]
        reference = ExplorationEngine(form, limits=BOUNDED_LIMITS).explore()
        store = SqliteStore(tmp_path / "par.db")
        with parallel_engine(form, store=store) as engine:
            graph = engine.explore()
            assert engine.states_prefetched > 0
        store.close()
        assert graph.states == reference.states
        assert exact_edges(graph) == exact_edges(reference)

    def test_serial_checkpoint_resumes_on_the_parallel_engine(self, tmp_path):
        """Run keys ignore the worker count, so a serially interrupted
        exploration can be finished by a parallel engine (and vice versa)."""
        form = counter_machine_family(2)[0]
        reference = ExplorationEngine(form, limits=BOUNDED_LIMITS).explore()
        path = tmp_path / "resume.db"
        first = ExplorationEngine(form, limits=BOUNDED_LIMITS, store=SqliteStore(path))
        with pytest.raises(ExplorationInterrupted):
            first.explore(step_limit=11)
        first.store.close()
        store = SqliteStore(path)
        with parallel_engine(form, store=store) as engine:
            resumed = engine.explore(resume=True)
        store.close()
        assert resumed.resumed is True
        assert resumed.states == reference.states
        assert exact_edges(resumed) == exact_edges(reference)


class TestPoolMechanics:
    def test_workers_one_stays_fully_serial(self):
        form = counter_machine_family(2)[0]
        engine = ParallelExplorationEngine(form, limits=BOUNDED_LIMITS, workers=1)
        graph = engine.explore()
        assert engine.states_prefetched == 0
        assert engine._pool is None
        assert graph.states == ExplorationEngine(form, limits=BOUNDED_LIMITS).explore().states

    def test_min_wave_keeps_small_frontiers_serial(self):
        form = positive_chain_family(6)
        engine = ParallelExplorationEngine(
            form, limits=BOUNDED_LIMITS, workers=2, min_wave=10_000
        )
        with engine:
            engine.explore()
        assert engine.states_prefetched == 0
        assert engine._pool is None

    def test_shutdown_is_idempotent_and_pool_respawns(self):
        form = counter_machine_family(2)[0]
        reference = ExplorationEngine(form, limits=BOUNDED_LIMITS).explore()
        engine = parallel_engine(form)
        first = engine.explore()
        engine.shutdown_workers()
        engine.shutdown_workers()
        # a second exploration replays memoized expansions without a pool
        assert engine.explore().states == first.states
        assert engine._pool is None
        # ... and a fresh start instance respawns one on demand
        start = form.initial_instance()
        start.add_field(start.root, start.schema.root.children[0].label)
        graph = engine.explore(start=start)
        assert graph.states  # sanity: it explored something
        engine.shutdown_workers()
        assert first.states == reference.states

    def test_stale_wave_results_are_discarded(self):
        """An answer left over from an abandoned wave must not satisfy the
        collection of a later wave (results are matched by wave id, not just
        worker index)."""
        from repro.engine.wire import FrameEncoder, WireFrame
        from repro.engine.workers import WorkerPool
        from repro.io.serialization import encode_instance_with_ids

        form = positive_chain_family(4)
        pool = WorkerPool(form, workers=2)
        try:
            blob = encode_instance_with_ids(form.initial_instance())
            stale = FrameEncoder()
            stale.add_state(999, [], 0)
            pool._results.put((0, 999, stale.finish(), None))
            frames = pool.run_wave({0: [(7, blob)], 1: []})
            assert [WireFrame(frame).state_ids() for frame in frames] == [[7]]
        finally:
            pool.close()

    def test_interrupted_wave_tears_down_the_pool_and_resume_is_clean(self):
        """A KeyboardInterrupt mid-wave must not leave in-flight results that
        a resumed exploration could mistake for its own."""
        form = counter_machine_family(2)[0]
        reference = ExplorationEngine(form, limits=BOUNDED_LIMITS).explore()
        engine = parallel_engine(form)
        engine.spawn_workers()
        real_run_wave = engine._pool.run_wave
        calls = {"n": 0}

        def exploding_run_wave(batches):
            calls["n"] += 1
            if calls["n"] == 1:
                raise KeyboardInterrupt
            return real_run_wave(batches)

        engine._pool.run_wave = exploding_run_wave
        with pytest.raises(KeyboardInterrupt):
            engine.explore()
        assert engine._pool is None  # the failed wave reclaimed its pool
        resumed = engine.explore(resume=True)
        assert resumed.states == reference.states
        assert exact_edges(resumed) == exact_edges(reference)
        engine.shutdown_workers()

    def test_invalid_worker_count_is_rejected(self):
        form = positive_chain_family(4)
        with pytest.raises(AnalysisError):
            ParallelExplorationEngine(form, workers=0)

    def test_stable_shape_hash_is_deterministic_and_spreads(self):
        shapes = [
            ExplorationEngine(form, limits=BOUNDED_LIMITS).explore().shape_of(0)
            for _, form in bounded_families()
        ]
        assert [stable_shape_hash(s) for s in shapes] == [
            stable_shape_hash(s) for s in shapes
        ]
        # equal shapes hash equally regardless of tuple identity
        rebuilt = tuple(["r", tuple()])
        assert stable_shape_hash(("r", ())) == stable_shape_hash(rebuilt)


class TestWireProtocol:
    """The binary wire path: metrics consistency and volume vs the PR 3
    JSON-per-candidate encoding, re-run as a differential against serial."""

    def _legacy_bytes_per_candidate(self, engine):
        """PR 3's per-candidate encoding cost, measured on the serial
        engine's memoized expansions (the shared definition the benchmark
        gate uses too)."""
        from repro.engine.wire import pr3_encoding_cost

        total, count = pr3_encoding_cost(engine)
        return total / count if count else 0.0

    @pytest.mark.parametrize(
        "name,form", bounded_families(), ids=lambda v: v if isinstance(v, str) else ""
    )
    def test_wire_volume_drops_at_least_forty_percent(self, name, form):
        serial = ExplorationEngine(form, limits=BOUNDED_LIMITS)
        reference = serial.explore()
        with parallel_engine(form) as engine:
            graph = engine.explore()
            stats = engine.stats_snapshot()
        assert graph.states == reference.states  # differential rerun first
        assert exact_edges(graph) == exact_edges(reference)
        legacy = self._legacy_bytes_per_candidate(serial)
        assert stats["wire_shape_refs"] > 0
        assert stats["wire_bytes_per_candidate"] <= 0.6 * legacy, (
            f"wire codec ships {stats['wire_bytes_per_candidate']:.1f} B/candidate, "
            f"PR 3 encoding was {legacy:.1f} B/candidate"
        )

    def test_wire_stats_are_consistent(self):
        form = counter_machine_family(2)[0]
        with parallel_engine(form) as engine:
            engine.explore()
            stats = engine.stats_snapshot()
        assert stats["wire_frames_received"] > 0
        assert stats["wire_bytes_received"] > 0
        assert 0 < stats["wire_bytes_last_wave"] <= stats["wire_bytes_received"]
        assert stats["wire_shape_table_entries"] <= stats["wire_shape_refs"]
        assert 0.0 <= stats["wire_dedup_hit_rate"] <= 1.0
        assert stats["wire_decode_seconds"] >= 0.0
        assert stats["wire_bytes_per_candidate"] > 0

    def test_untouched_parallel_engine_reports_zeroed_wire_stats(self):
        form = positive_chain_family(4)
        engine = ParallelExplorationEngine(form, limits=BOUNDED_LIMITS, workers=1)
        engine.explore()
        stats = engine.stats_snapshot()
        assert stats["wire_frames_received"] == 0
        assert stats["wire_bytes_received"] == 0
        assert stats["wire_dedup_hit_rate"] == 0.0
        assert stats["wire_bytes_per_candidate"] is None
