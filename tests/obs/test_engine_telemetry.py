"""Telemetry threaded through the engine stack: spans, counters, parity.

Covers the tentpole contracts:

* the documented ``stats["engine"]`` counter set stays present and typed
  (the golden-key test tools build against);
* tracing changes nothing — serial and 2-worker explorations under a live
  recorder are bit-identical to untraced runs;
* the wire frame's optional telemetry section round-trips (and is absent
  — zero bytes — when telemetry is off);
* the store/guard/engine layers actually record their spans and metrics.
"""

import json
import tempfile
from pathlib import Path

import pytest

from repro.analysis.completability import decide_completability
from repro.analysis.results import ExplorationLimits
from repro.benchgen.families import positive_deep_family
from repro.engine import (
    ExplorationEngine,
    ParallelExplorationEngine,
    SqliteStore,
)
from repro.engine.wire import FrameEncoder, WireFormatError, WireFrame
from repro.fbwis.catalog import leave_application
from repro.obs import NO_TELEMETRY, Telemetry, use_telemetry

LIMITS = ExplorationLimits(max_states=400, max_instance_nodes=24)


def _exact_edges(graph):
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


#: The documented ``stats["engine"]`` counter contract: key -> required type
#: (tuples allow several).  Grouped by layer; removing or retyping any of
#: these is an API break for downstream dashboards, not a refactor.
GOLDEN_ENGINE_KEYS = {
    # guard cache
    "guard_cache_hits": int,
    "guard_cache_misses": int,
    "guard_cache_hit_rate": float,
    "guard_eval_seconds": float,
    "formula_evaluations": int,
    "formula_evaluations_saved": int,
    # interner / shapes
    "intern_interned_states": int,
    "intern_interned_subtrees": int,
    "intern_states_resident": int,
    # hydration / eviction / residency
    "hydration_rows_skipped": int,
    "reps_resident": int,
    "reps_pending": int,
    "registered_states": int,
    "reps_evicted": int,
    "states_resident": int,
    "resident_budget": (int, type(None)),
    "explorations_resumed": int,
    # store
    "store_backend": str,
    "store_checkpoint_saves": int,
    # telemetry
    "telemetry_enabled": bool,
}

GOLDEN_STORE_KEYS = {
    "store_rows_written": int,
    "store_rows_read": int,
    "store_flushes": int,
    "store_flush_seconds": float,
    "store_checkpoint_seconds": float,
    "store_migration_seconds": float,
}

GOLDEN_PARALLEL_KEYS = {
    "workers": int,
    "states_prefetched": int,
    "waves_dispatched": int,
    "expansions_adopted": int,
    "worker_guard_entries_merged": int,
    "worker_snapshots_merged": int,
    "wire_frames_received": int,
    "wire_bytes_received": int,
    "wire_bytes_per_candidate": (int, float, type(None)),
    "wire_dedup_hit_rate": (int, float),
    "wire_decode_seconds": float,
}


def _assert_keys(snapshot, contract):
    for key, expected in contract.items():
        assert key in snapshot, f"stats['engine'] lost documented key {key!r}"
        types = expected if isinstance(expected, tuple) else (expected,)
        assert isinstance(snapshot[key], types), (
            f"stats['engine'][{key!r}] is {type(snapshot[key]).__name__}, "
            f"expected {'/'.join(t.__name__ for t in types)}"
        )


class TestGoldenStatsKeys:
    def test_serial_engine_counter_set(self):
        form = leave_application(single_period=True)
        result = decide_completability(form, limits=LIMITS)
        _assert_keys(result.stats["engine"], GOLDEN_ENGINE_KEYS)

    def test_store_backed_counter_set(self):
        with tempfile.TemporaryDirectory() as tmp:
            store = SqliteStore(Path(tmp) / "s.db")
            engine = ExplorationEngine(
                leave_application(single_period=True), limits=LIMITS, store=store
            )
            engine.explore()
            snapshot = engine.stats_snapshot()
            store.close()
        _assert_keys(snapshot, GOLDEN_ENGINE_KEYS)
        _assert_keys(snapshot, GOLDEN_STORE_KEYS)

    def test_parallel_counter_set(self):
        engine = ParallelExplorationEngine(
            positive_deep_family(3, width=2), limits=LIMITS, workers=2
        )
        try:
            engine.explore()
            snapshot = engine.stats_snapshot()
        finally:
            engine.shutdown_workers()
        _assert_keys(snapshot, GOLDEN_ENGINE_KEYS)
        _assert_keys(snapshot, GOLDEN_PARALLEL_KEYS)

    def test_snapshot_is_json_safe(self):
        engine = ExplorationEngine(positive_deep_family(3, width=2), limits=LIMITS)
        engine.explore()
        json.dumps(engine.stats_snapshot())


class TestTracedBitIdentity:
    @pytest.fixture(scope="class")
    def reference(self):
        engine = ExplorationEngine(positive_deep_family(3, width=2), limits=LIMITS)
        graph = engine.explore()
        return graph.states, _exact_edges(graph)

    def test_traced_serial_identical(self, reference):
        states, edges = reference
        telemetry = Telemetry(process="test-serial")
        engine = ExplorationEngine(
            positive_deep_family(3, width=2), limits=LIMITS, telemetry=telemetry
        )
        graph = engine.explore()
        assert graph.states == states
        assert _exact_edges(graph) == edges
        names = {e.get("name") for e in telemetry.events()}
        assert "engine.explore" in names
        snapshot = engine.stats_snapshot()
        assert snapshot["telemetry_enabled"] is True
        assert snapshot["obs"]["process"] == "test-serial"
        assert snapshot["guard_eval_seconds"] > 0.0

    def test_traced_parallel_identical_and_merged(self, reference):
        states, edges = reference
        telemetry = Telemetry(process="coordinator")
        engine = ParallelExplorationEngine(
            positive_deep_family(3, width=2),
            limits=LIMITS,
            workers=2,
            telemetry=telemetry,
        )
        try:
            graph = engine.explore()
            snapshot = engine.stats_snapshot()
        finally:
            engine.shutdown_workers()
        assert graph.states == states
        assert _exact_edges(graph) == edges
        assert snapshot["worker_snapshots_merged"] > 0
        processes = {
            e["args"]["name"] for e in telemetry.events() if e.get("ph") == "M"
        }
        assert "coordinator" in processes
        assert any(p.startswith("frontier-worker-") for p in processes)
        span_names = {
            e["name"] for e in telemetry.events() if e.get("ph") == "X"
        }
        assert "engine.prefetch_wave" in span_names
        assert "worker.batch" in span_names
        metrics = telemetry.metrics.snapshot()
        assert any(k.startswith("guard_eval_seconds{worker=") for k in metrics)

    def test_untraced_engine_resolves_to_noop(self, no_env_telemetry):
        engine = ExplorationEngine(positive_deep_family(3, width=2), limits=LIMITS)
        assert engine.telemetry is NO_TELEMETRY

    def test_engine_inherits_use_telemetry_default(self):
        telemetry = Telemetry(process="ctx")
        with use_telemetry(telemetry):
            engine = ExplorationEngine(
                positive_deep_family(3, width=2), limits=LIMITS
            )
        assert engine.telemetry is telemetry


class TestWireTelemetrySection:
    def test_absent_section_is_zero_byte_and_none(self):
        encoder = FrameEncoder()
        frame = WireFrame(encoder.finish())
        assert frame.telemetry is None

    def test_payload_round_trips(self):
        encoder = FrameEncoder()
        payload = {
            "process": "frontier-worker-1",
            "pid": 4242,
            "events": [{"ph": "i", "name": "x", "ts": 1, "pid": 4242, "args": {}}],
            "metrics": [],
            "dropped": 0,
        }
        encoder.add_telemetry(payload)
        frame = WireFrame(encoder.finish())
        assert frame.telemetry == payload

    def test_malformed_section_rejected(self):
        encoder = FrameEncoder()
        encoder.add_telemetry(["k", "v"])  # a payload is a dict
        with pytest.raises(WireFormatError, match="telemetry"):
            WireFrame(encoder.finish())

    def test_truncated_section_rejected(self):
        encoder = FrameEncoder()
        encoder.add_telemetry({"k": "v"})
        data = encoder.finish()
        with pytest.raises(WireFormatError):
            WireFrame(data[: len(data) // 2])


class TestStoreInstrumentation:
    def test_flush_and_checkpoint_metrics(self):
        telemetry = Telemetry(process="store-test")
        with tempfile.TemporaryDirectory() as tmp:
            store = SqliteStore(Path(tmp) / "s.db", batch_size=16)
            engine = ExplorationEngine(
                leave_application(single_period=True),
                limits=LIMITS,
                store=store,
                telemetry=telemetry,
            )
            engine.explore()
            stats = store.stats()
            store.close()
        assert stats["flush_seconds"] >= 0.0
        assert stats["checkpoint_seconds"] >= 0.0
        assert stats["migration_seconds"] >= 0.0
        metrics = telemetry.metrics.snapshot()
        assert metrics["store_flush_seconds"]["count"] >= 1
        span_names = {e.get("name") for e in telemetry.events() if e.get("ph") == "X"}
        assert "store.flush" in span_names

    def test_store_times_accumulate_without_telemetry(self):
        with tempfile.TemporaryDirectory() as tmp:
            store = SqliteStore(Path(tmp) / "s.db", batch_size=16)
            engine = ExplorationEngine(
                leave_application(single_period=True), limits=LIMITS, store=store
            )
            engine.explore()
            stats = store.stats()
            store.close()
        # perf_counter timing is always on; only spans/histograms are gated
        assert stats["flush_seconds"] > 0.0


class TestEvictionInstrumentation:
    def test_eviction_sweeps_counted(self):
        telemetry = Telemetry(process="evict-test")
        with tempfile.TemporaryDirectory() as tmp:
            store = SqliteStore(Path(tmp) / "s.db")
            engine = ExplorationEngine(
                positive_deep_family(3, width=2),
                limits=LIMITS,
                store=store,
                resident_budget=16,
                telemetry=telemetry,
            )
            graph = engine.explore()
            store.close()
        assert len(graph.states) > 16
        metrics = telemetry.metrics.snapshot()
        assert metrics["eviction_sweeps"] > 0
        assert metrics["eviction_sweep_seconds"]["count"] > 0
        span_names = {e.get("name") for e in telemetry.events() if e.get("ph") == "X"}
        assert "engine.evict" in span_names
