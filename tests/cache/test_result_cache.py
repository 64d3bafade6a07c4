"""The cache tier must be a pure observer: bit-identical results, faster.

Three contracts, each differential against an uncached reference:

* **result memoization** — for every analysis surface, the wire body a warm
  ``results`` cache serves is byte-for-byte the cold body, and a run with no
  cache at all produces that same body;

* **cross-process sharing** — a second :class:`SqliteKV` handle on the same
  spec (standing in for a second process) answers from the first handle's
  flushed entries without re-running the analysis;

* **engine neutrality** — an ambient cache never changes a graph: serial
  and ``workers=2`` explorations are node-id-exact with the cache cold,
  warm, and absent.
"""

import json

import pytest

from repro.cache import MemoryKV, SqliteKV, use_cache
from repro.cache.runtime import reset_cache_runtime
from repro.engine import ExplorationEngine, ParallelExplorationEngine
from repro.analysis.results import ExplorationLimits
from repro.fbwis.catalog import leave_application
from repro.service import AnalysisRequest
from repro.service.dispatch import (
    result_cache_key,
    result_cache_probe,
    run_analysis_wire,
)
from repro.service.request import REQUEST_API_VERSION, request_to_wire

from tests.engine.test_eviction_and_guided import exact_edges

FORM_NAME = "leave-application-finite"

#: One request payload per analysis surface (small limits: speed).
SURFACES = {
    "completability": {"kind": "completability"},
    "semisoundness": {"kind": "semisoundness"},
    "invariant": {"kind": "invariant", "formula": "¬f ∨ s"},
    "reach": {"kind": "reach", "formula": "f"},
    "workflow": {"kind": "workflow"},
}


def payload(kind: str) -> dict:
    wire = {"api": REQUEST_API_VERSION, "form": FORM_NAME, "max_states": 2_000}
    wire.update(SURFACES[kind])
    return wire


@pytest.fixture(autouse=True)
def isolated_cache_runtime(monkeypatch):
    """Each test owns its ambient cache: the cached CI leg's ``REPRO_CACHE``
    must not leak warm results into these differential baselines."""
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    reset_cache_runtime()
    yield
    reset_cache_runtime()


def canonical(body: dict) -> bytes:
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


class TestResultMemoization:
    @pytest.mark.parametrize("kind", sorted(SURFACES))
    def test_warm_body_is_bit_identical_to_cold_and_uncached(self, kind):
        status, uncached = run_analysis_wire(payload(kind))
        assert status == 200

        kv = MemoryKV()
        with use_cache(kv):
            status, cold = run_analysis_wire(payload(kind))
            assert status == 200
            status, warm = run_analysis_wire(payload(kind))
            assert status == 200

        assert canonical(cold) == canonical(uncached)
        assert canonical(warm) == canonical(uncached)
        counters = kv.stats()["namespaces"]["results"]
        assert counters["hits"] == 1  # the second run really was served
        assert counters["puts"] == 1  # and the warm hit did not re-store

    def test_different_requests_do_not_alias(self):
        kv = MemoryKV()
        with use_cache(kv):
            _, completability = run_analysis_wire(payload("completability"))
            _, semisoundness = run_analysis_wire(payload("semisoundness"))
            tighter = dict(payload("completability"), max_states=1_000)
            _, bounded = run_analysis_wire(tighter)
        assert completability["problem"] != semisoundness["problem"]
        assert bounded["stats"]["limits"]["max_states"] == 1_000
        assert kv.stats()["namespaces"]["results"]["hits"] == 0

    def test_execution_knobs_share_one_entry(self):
        """Workers and budget shape *how* a result is computed, never what
        it is — so they are excluded from the cache key."""
        base = AnalysisRequest(form=FORM_NAME, kind="completability")
        tweaked = AnalysisRequest(
            form=FORM_NAME, kind="completability", workers=2, budget_kb=512
        )
        assert result_cache_key(base) == result_cache_key(tweaked)

    def test_uncacheable_requests_bypass_the_cache(self, tmp_path):
        stored = AnalysisRequest(
            form=FORM_NAME, kind="completability", store=str(tmp_path / "s.db")
        )
        stepped = AnalysisRequest(
            form=FORM_NAME, kind="completability", step_limit=100
        )
        assert result_cache_key(stored) is None
        assert result_cache_key(stepped) is None
        kv = MemoryKV()
        with use_cache(kv):
            assert result_cache_probe(stored) == (None, None)
        assert kv.stats()["namespaces"]["results"]["misses"] == 0

    def test_corrupt_cache_entry_falls_back_to_a_real_run(self):
        kv = MemoryKV()
        with use_cache(kv):
            _, cold = run_analysis_wire(payload("completability"))
            for key, _value in list(kv.scan("results")):
                kv.put("results", key, b"not json at all")
            _, recomputed = run_analysis_wire(payload("completability"))
        assert canonical(recomputed) == canonical(cold)


class TestCrossProcessSharing:
    def test_second_handle_serves_the_first_handles_results(self, tmp_path):
        spec = str(tmp_path / "shared.db")
        first = SqliteKV(spec)
        with use_cache(first):
            _, cold = run_analysis_wire(payload("invariant"))
        first.close()  # flushes — the "first process" exits

        reset_cache_runtime()
        second = SqliteKV(spec)
        with use_cache(second):
            _, warm = run_analysis_wire(payload("invariant"))
        counters = second.stats()["namespaces"]["results"]
        second.close()

        assert canonical(warm) == canonical(cold)
        assert counters["hits"] == 1
        assert counters["puts"] == 0


class TestEngineBitIdentity:
    LIMITS = ExplorationLimits(max_states=2_000, max_instance_nodes=24)

    def form(self):
        return leave_application()

    def test_serial_graphs_identical_cold_warm_absent(self):
        reference = ExplorationEngine(self.form(), limits=self.LIMITS).explore()
        kv = MemoryKV()
        with use_cache(kv):
            cold = ExplorationEngine(self.form(), limits=self.LIMITS).explore()
            warm_engine = ExplorationEngine(self.form(), limits=self.LIMITS)
            warm = warm_engine.explore()
            run_analysis_wire(payload("completability"))
            run_analysis_wire(payload("completability"))
        assert exact_edges(cold) == exact_edges(reference)
        assert exact_edges(warm) == exact_edges(reference)
        # the cache really engaged: the warm wire call was a results hit
        assert kv.stats()["namespaces"]["results"]["hits"] == 1

    def test_stats_are_cache_neutral(self):
        uncached_engine = ExplorationEngine(self.form(), limits=self.LIMITS)
        uncached_engine.explore()
        kv = MemoryKV()
        with use_cache(kv):
            ExplorationEngine(self.form(), limits=self.LIMITS).explore()
            warm_engine = ExplorationEngine(self.form(), limits=self.LIMITS)
            warm_engine.explore()
        assert warm_engine.guards.stats() == uncached_engine.guards.stats()

    def test_parallel_graphs_identical_with_shared_cache(self, tmp_path):
        reference = ExplorationEngine(self.form(), limits=self.LIMITS).explore()
        kv = SqliteKV(str(tmp_path / "workers.db"))
        with use_cache(kv):
            engine = ParallelExplorationEngine(
                self.form(), limits=self.LIMITS, workers=2
            )
            try:
                graph = engine.explore()
            finally:
                engine.shutdown_workers()
        kv.close()
        assert exact_edges(graph) == exact_edges(reference)


def test_request_fingerprint_is_stable_across_processes():
    """The cache key must not depend on dict order or process hash seeds."""
    request = AnalysisRequest(form=FORM_NAME, kind="reach", formula="f")
    key = result_cache_key(request)
    assert key is not None
    rebuilt = AnalysisRequest(**{
        field: getattr(request, field)
        for field in ("form", "kind", "formula")
    })
    assert result_cache_key(rebuilt) == key
    assert request_to_wire(request) == request_to_wire(rebuilt)


#: A fixed inline form (the single-period leave application, written out)
#: and the fingerprint and result-cache keys that earlier builds computed
#: for it.  Engine stores record the fingerprint and KV result entries are
#: stored under the keys, so both must keep matching across releases.
GOLDEN_FORM = {
    "name": "leave application (single period)",
    "schema": {
        "a": {"d": {}, "n": {}, "p": {"b": {}, "e": {}}},
        "d": {"a": {}, "r": {"r": {}}},
        "f": {},
        "s": {},
    },
    "rules": {
        "a": ["¬a", "¬a"],
        "a/d": ["¬../s ∧ ¬d", "¬../s"],
        "a/n": ["¬../s ∧ ¬n", "¬../s"],
        "a/p": ["¬../s ∧ ¬p", "¬../s"],
        "a/p/b": ["¬../../s ∧ ¬b", "¬../../s"],
        "a/p/e": ["¬../../s ∧ ¬e", "¬../../s"],
        "d": ["s ∧ ¬d", "¬f"],
        "d/a": ["¬(a ∨ r)", "¬../f"],
        "d/r": ["¬(a ∨ r)", "¬../f"],
        "d/r/r": ["¬r", "¬../../f"],
        "f": ["d[a ∨ r] ∧ ¬f", "¬f"],
        "s": ["¬s ∧ a[n ∧ d ∧ p] ∧ ¬a/p[¬b ∨ ¬e]", "¬s"],
    },
    "initial_instance": {"label": "r", "children": []},
    "completion": "f",
}
GOLDEN_FINGERPRINT = "4d58be06bb84e85bb9b5d8bc288331324af1441a5fea5d90a05f695c0d35795b"


def test_fingerprint_and_cache_keys_of_a_fixed_form_are_pinned():
    from repro.catalog import resolve_form
    from repro.io.serialization import form_fingerprint, guarded_form_from_dict

    assert form_fingerprint(guarded_form_from_dict(GOLDEN_FORM)) == GOLDEN_FINGERPRINT
    # resolved twice: the second is the memoised form and its kept digest
    for _ in range(2):
        assert form_fingerprint(resolve_form(GOLDEN_FORM)) == GOLDEN_FINGERPRINT
        completability = AnalysisRequest(form=GOLDEN_FORM, kind="completability")
        assert result_cache_key(completability) == (
            f"{GOLDEN_FINGERPRINT}|"
            "1d7f1bf4b2bfb00e98ef845ffa56dce47a54ffdd09eac86414d7ed8882286591"
        ).encode("ascii")
        reach = AnalysisRequest(
            form=GOLDEN_FORM, kind="reach", formula="s", max_states=500
        )
        assert result_cache_key(reach) == (
            f"{GOLDEN_FINGERPRINT}|"
            "1d1d58fa7673d22af17f7016f82c4b4fbfaa7c5ec520b5b4ccaba449b514897b"
        ).encode("ascii")
