"""Engine benchmark harness: measure the rows no other benchmark covers,
write ``BENCH_engine.json`` and (with ``--check``) gate on regressions.

``perfbench/`` times every analysis from request to verdict, and the tier-1
suite pins the engine's parity contracts (engine vs legacy, serial vs
parallel, traced vs untraced, HTTP vs library).  This harness keeps the
rows neither of them measures:

* ``bounded-store`` — exploration through a fresh and a re-attached
  ``SqliteStore`` against the same exploration in memory;
* ``bounded-attach`` — a budget-bounded attach to a large store;
* ``telemetry`` — the overhead of enabled telemetry;
* ``result-cache`` — warm cache hits against cold analyses;
* ``campaign-corpus`` — the forms ``repro campaign promote`` committed under
  ``benchmarks/campaign_corpus/``.

Each row's function says what it checks.  Each row runs in a fresh
``spawn`` process, so its ``peak_rss_kb`` is its own.  Each timed leg runs
:data:`REPEATS` times, interleaved with the row's other legs; the row
reports the min, quartiles and median of its seconds, and states/sec from
the fastest run.  A fixed interpreter pass is timed before and after every
timed run (:func:`host_speed`, as perfbench's ``SpeedGauge`` does), and each
run's seconds are also scaled to the reference speed of that pass: the
row's ``host_speed`` lists the readings, and its
``reference_states_per_second`` is states over the median scaled seconds.
The report's ``host`` block records where it was measured.

Without ``--quick`` the per-test timings of every ``bench_*.py`` module are
also collected through ``pytest-benchmark``'s JSON output (minutes).

Usage::

    PYTHONPATH=src python benchmarks/run_all.py --quick          # engine rows only
    PYTHONPATH=src python benchmarks/run_all.py                  # plus the sweep
    PYTHONPATH=src python benchmarks/run_all.py -k completability
    PYTHONPATH=src python benchmarks/run_all.py --check          # gate vs baseline
    PYTHONPATH=src python benchmarks/run_all.py --smoke          # CI: --quick + --check

Regression gate: ``--check`` compares the fresh report against the committed
``BENCH_engine.json`` (override with ``--baseline``).  It always fails on a
broken deterministic verdict, a limit the constants below set, a campaign
row that needs more formula evaluations than ``--threshold`` allows, or a
baseline row the run no longer measures.  A drop of
``reference_states_per_second`` beyond ``--threshold`` (default 25%) is
gated only against a baseline whose ``host`` block equals this one:
throughput measured on another machine says nothing about this change, and
scaling by the host's speed cancels the drift of a shared host between the
baseline and the run.
``--smoke`` scales the attach store down from 100k to 20k states.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
CORPUS_MANIFEST = BENCH_DIR / "campaign_corpus" / "manifest.json"

#: Runs of each timed leg.  Legs of one row alternate, and every other round
#: runs them in reverse order, so drift over the row hits each leg alike.
REPEATS = 5

#: Ceiling on the fraction of a prebuilt store's shape table a
#: budget-bounded attach may hydrate.
ATTACH_HYDRATION_CEILING = 0.50

#: Resident budget of the bounded attach, in states.
ATTACH_BUDGET = 1024

#: Required speedup of a warm result-cache hit over the cold analysis.  The
#: warm path is one KV read and a JSON decode, so 10x is conservative.
CACHE_SPEEDUP_FLOOR = 10.0

#: Ceiling on the overhead of enabled telemetry, gated on the lower quartile
#: of the per-pair overheads: a gate that fails then has most pairs above it.
TELEMETRY_OVERHEAD_CEILING = 0.05

#: Duration of one calibration pass at the reference speed (perfbench's).
REFERENCE_PASS_SECONDS = 200e-6

#: Timed calibration passes per reading; the reading is their median.
CALIBRATION_PASSES = 3


# --------------------------------------------------------------------------- #
# measurement helpers
# --------------------------------------------------------------------------- #


def _calibration_pass() -> int:
    """Fixed interpreter work shaped like the engine's: tuple keys, dict
    probes and inserts, list growth (perfbench's pass)."""
    table: dict = {}
    sizes = []
    for i in range(600):
        key = ("n", i & 63, (i >> 6,))
        node = table.get(key)
        if node is None:
            node = table[key] = [i]
        node.append(i)
        sizes.append(len(node))
    return sum(sizes)


def host_speed() -> float:
    """The host's current interpreter speed as a multiple of the reference
    speed: above 1 is faster than the reference."""
    _calibration_pass()  # warm: the timed passes must not pay first-touch costs
    passes = []
    for _ in range(CALIBRATION_PASSES):
        started = time.perf_counter()
        _calibration_pass()
        passes.append(time.perf_counter() - started)
    return REFERENCE_PASS_SECONDS / statistics.median(passes)


class Run(NamedTuple):
    """One timed run of a leg."""

    seconds: float
    #: host speed readings just before and just after the run
    readings: tuple
    #: what the leg's *keep* made of its result
    result: object

    @property
    def reference_seconds(self) -> float:
        """The run's seconds at the reference speed, taking the mean pass
        time of the two readings as the host's speed over the run."""
        before, after = self.readings
        return self.seconds * 2 / (1 / before + 1 / after)


def interleaved(legs: dict, keep=lambda result: result) -> dict:
    """Run each zero-argument leg of *legs* :data:`REPEATS` times,
    round-robin, reversing the order on odd rounds.  Returns
    ``{leg: [Run]}`` in run order, so the i-th entries of two legs form one
    pair.  The host's speed is read before and after every timed run.

    Each leg first runs once untimed, so no timed run pays for lazy set-up.
    *keep* reduces a result to what the row needs, outside the timed
    region, and the result itself is dropped before the next run: a live
    graph from an earlier run makes the cyclic collector slow the next
    exploration by about 40%.  The garbage of earlier runs is collected before each run for
    the same reason.
    """
    runs: dict = {name: [] for name in legs}
    order = list(legs)
    for leg in legs.values():
        leg()
    for round_index in range(REPEATS):
        for name in order if round_index % 2 == 0 else reversed(order):
            gc.collect()
            before = host_speed()
            started = time.perf_counter()
            result = legs[name]()
            elapsed = time.perf_counter() - started
            runs[name].append(Run(elapsed, (before, host_speed()), keep(result)))
            del result
    return runs


def spread(samples) -> dict:
    """Min, quartiles and median of *samples*."""
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {
        "min": round(min(samples), 6),
        "q1": round(q1, 6),
        "median": round(median, 6),
        "q3": round(q3, 6),
    }


def leg_seconds(runs: list) -> dict:
    """The spread of one leg's run times."""
    return spread([run.seconds for run in runs])


def timed_fields(states: int, runs: list) -> dict:
    """A row's ``seconds`` spread and its states/sec in its fastest run
    (other load on the host only ever slows a run down), the same at the
    reference speed over the median scaled run, and the speed readings."""
    seconds = leg_seconds(runs)
    reference = spread([run.reference_seconds for run in runs])
    return {
        "seconds": seconds,
        "states_per_second": round(states / seconds["min"], 1),
        "reference_seconds": reference,
        "reference_states_per_second": round(states / reference["median"], 1),
        "host_speed": [[round(reading, 3) for reading in run.readings] for run in runs],
    }


def graph_digest(graph) -> tuple:
    """A graph's state count and a hash of its state ids and node-id-exact
    transitions: runs of one process are bit-identical when these agree."""
    edges = tuple(
        (
            source,
            tuple(
                (
                    type(update).__name__,
                    getattr(update, "parent_id", None),
                    getattr(update, "node_id", None),
                    getattr(update, "label", None),
                    target,
                )
                for update, target in targets
            ),
        )
        for source, targets in sorted(graph.transitions.items())
    )
    return len(graph.states), hash((frozenset(graph.states), edges))


def agree(runs: dict) -> bool:
    """Whether every timed run of every leg kept the same graph digest, as
    the first item of its kept result."""
    return len({run.result[0] for leg in runs.values() for run in leg}) == 1


def host_block() -> dict:
    """Where a report was measured; throughput is compared only between
    reports whose blocks are equal."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def _peak_rss_kb() -> "int | None":
    """This process's peak resident set size, in KiB."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX host
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS, KiB on Linux
        peak //= 1024
    return peak


def _relative_series(samples) -> list:
    """Gauge ``[monotonic_ts, value]`` samples rebased to t=0 seconds."""
    if not samples:
        return []
    origin = samples[0][0]
    return [[round(ts - origin, 3), value] for ts, value in samples]


def _measure_row(measure, *args) -> dict:
    row = measure(*args)
    row["peak_rss_kb"] = _peak_rss_kb()
    return row


def in_fresh_process(measure, *args) -> dict:
    """``measure(*args)`` in a new spawned interpreter, so the row's peak RSS
    and heap are its own, not those of the rows measured before it."""
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(_measure_row, (measure, *args))


def _deep_form_and_limits():
    """The bounded reference workload of the store and telemetry rows."""
    from repro.analysis.results import ExplorationLimits
    from repro.benchgen.families import positive_deep_family

    return (
        positive_deep_family(4, width=2),
        ExplorationLimits(max_states=2_500, max_instance_nodes=24),
    )


# --------------------------------------------------------------------------- #
# rows
# --------------------------------------------------------------------------- #


def measure_store_backed() -> dict:
    """Fresh-store and re-attached explorations against the in-memory one.

    The ``store`` leg opens a new ``SqliteStore`` each run and writes every
    row, as the pod does for each job; ``reattach`` explores the store its
    own untimed first run filled; ``memory`` has no store.
    ``store_vs_memory`` is the median time ratio of the first to the last.
    Every run must be bit-identical with every other.
    """
    from repro.engine import ExplorationEngine, SqliteStore

    form, limits = _deep_form_and_limits()
    with tempfile.TemporaryDirectory() as tmp:
        fresh_paths = (Path(tmp) / f"fresh-{index}.db" for index in range(REPEATS + 1))
        attach_path = Path(tmp) / "attach.db"

        def explore(path=None):
            store = SqliteStore(path) if path else None
            try:
                engine = ExplorationEngine(form, limits=limits, store=store)
                return engine.explore(), engine.stats_snapshot()
            finally:
                if store is not None:
                    store.close()

        runs = interleaved(
            {
                "store": lambda: explore(next(fresh_paths)),
                "reattach": lambda: explore(attach_path),
                "memory": explore,
            },
            keep=lambda result: (graph_digest(result[0]), result[1]),
        )
    states = runs["memory"][0].result[0][0]
    store_stats = runs["store"][-1].result[1]
    row = {
        "workload": "A+,phi+,k positive deep (d=4) [sqlite store]",
        "kind": "bounded-store",
        "states": states,
        **timed_fields(states, runs["store"]),
        "reattach_seconds": leg_seconds(runs["reattach"]),
        "memory_seconds": leg_seconds(runs["memory"]),
        "store_rows_written": store_stats["store_rows_written"],
        "store_flushes": store_stats["store_flushes"],
        "reattach_store_rows_read": runs["reattach"][-1].result[1]["store_rows_read"],
        "checks": {"store_matches_memory": agree(runs)},
    }
    row["store_vs_memory"] = round(
        row["seconds"]["median"] / row["memory_seconds"]["median"], 3
    )
    row["reattach_vs_memory"] = round(
        row["reattach_seconds"]["median"] / row["memory_seconds"]["median"], 3
    )
    return row


def measure_residency_attach(attach_states: int) -> dict:
    """Build a large store, then attach to it with a small resident budget.

    The build (unbounded residency) is setup and timed once.  Then the
    ``unbounded`` and the :data:`ATTACH_BUDGET`-bounded attach, under limits
    that touch only a slice of the table, alternate.  The bounded attach runs
    under a metrics recorder, so the row ships its RSS time series.  Every
    run must be bit-identical with every other, and the bounded
    attach must hydrate less than :data:`ATTACH_HYDRATION_CEILING` of the
    shape table and end within its budget.
    """
    from repro.analysis.results import ExplorationLimits
    from repro.benchgen.families import positive_deep_family
    from repro.engine import ExplorationEngine, SqliteStore
    from repro.obs import Telemetry

    form = positive_deep_family(4, width=2)
    build_limits = ExplorationLimits(max_states=attach_states, max_instance_nodes=28)
    touch_limits = ExplorationLimits(
        max_states=max(2_000, attach_states // 25), max_instance_nodes=28
    )

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "attach.db"
        build_store = SqliteStore(path, batch_size=4096)
        started = time.perf_counter()
        build_graph = ExplorationEngine(form, limits=build_limits, store=build_store).explore()
        build_elapsed = time.perf_counter() - started
        table_rows = build_store.shape_row_count()
        build_store.close()
        build_states = len(build_graph.states)
        del build_graph

        def attach(budget):
            store = SqliteStore(path)
            telemetry = Telemetry(process="bench-attach")
            try:
                engine = ExplorationEngine(
                    form,
                    limits=touch_limits,
                    store=store,
                    resident_budget=budget,
                    telemetry=telemetry,
                )
                return (
                    engine.explore(),
                    engine.stats_snapshot(),
                    telemetry.snapshot()["metrics"],
                )
            finally:
                store.close()

        runs = interleaved(
            {"unbounded": lambda: attach(None), "bounded": lambda: attach(ATTACH_BUDGET)},
            keep=lambda result: (graph_digest(result[0]), *result[1:]),
        )

    (states, _), stats, metrics = runs["bounded"][-1].result
    restored = stats["intern_states_restored_distinct"]
    return {
        "workload": (
            f"A+,phi+,k positive deep (d=4) "
            f"[store attach n={attach_states} budget={ATTACH_BUDGET}]"
        ),
        "kind": "bounded-attach",
        "resident_budget": ATTACH_BUDGET,
        "build_states": build_states,
        "build_seconds": round(build_elapsed, 6),
        "table_rows": table_rows,
        "states": states,
        **timed_fields(states, runs["bounded"]),
        "unbounded_seconds": leg_seconds(runs["unbounded"]),
        "states_resident": stats["states_resident"],
        "reps_resident": stats["reps_resident"],
        "reps_evicted": stats["reps_evicted"],
        "hydration_rows_skipped": stats["hydration_rows_skipped"],
        "hydration_rows_restored": restored,
        "hydration_fraction_restored": round(restored / table_rows, 4) if table_rows else None,
        "store_id_lookups": stats["store_id_lookups"],
        "rss_series_kb": _relative_series(metrics.get("rss_kb_series", [])),
        "eviction_sweeps": metrics.get("eviction_sweeps", 0),
        "checks": {"budget_matches_unbounded": agree(runs)},
    }


def measure_telemetry(trace_path: "str | None" = None) -> dict:
    """Overhead of enabled telemetry on a serial exploration.

    The ``disabled`` and ``enabled`` legs alternate, and which one runs
    first alternates with them.  Each round's pair ratio cancels drift that
    spans the pair; the overhead is the median pair ratio minus one, with
    its quartiles, and the lower quartile must stay under
    :data:`TELEMETRY_OVERHEAD_CEILING`.  Every run must be bit-identical
    with every other.  With *trace_path*, the last traced run's Chrome
    trace-event file is written there.
    """
    from repro.engine import ExplorationEngine
    from repro.obs import NO_TELEMETRY, Telemetry

    form, limits = _deep_form_and_limits()

    def explore(telemetry):
        engine = ExplorationEngine(form, limits=limits, telemetry=telemetry)
        return engine.explore(), telemetry

    runs = interleaved(
        {
            "disabled": lambda: explore(NO_TELEMETRY),
            "enabled": lambda: explore(Telemetry(process="bench-serial")),
        },
        keep=lambda result: (graph_digest(result[0]), result[1]),
    )
    overheads = spread(
        [
            enabled.seconds / disabled.seconds - 1.0
            for disabled, enabled in zip(runs["disabled"], runs["enabled"])
        ]
    )
    telemetry = runs["enabled"][-1].result[1]
    if trace_path:
        count = telemetry.write_chrome_trace(trace_path)
        print(f"[run_all] wrote {count} trace event(s) to {trace_path}", flush=True)
    states = runs["disabled"][0].result[0][0]
    return {
        "workload": "A+,phi+,k positive deep (d=4) [telemetry]",
        "kind": "telemetry",
        "states": states,
        **timed_fields(states, runs["enabled"]),
        "disabled_seconds": leg_seconds(runs["disabled"]),
        "telemetry_overhead_fraction": overheads["median"],
        "telemetry_overhead_q1": overheads["q1"],
        "telemetry_overhead_q3": overheads["q3"],
        "trace_events": len(telemetry.events()),
        "rss_series_kb": _relative_series(
            telemetry.snapshot()["metrics"].get("rss_kb_series", [])
        ),
        "checks": {"traced_matches_untraced": agree(runs)},
    }


def measure_cache() -> dict:
    """The memoized analysis-result cache: warm-hit speedup, bit-identity.

    The ``cold`` leg empties the result namespace of one ``SqliteKV`` (the
    ``--cache DIR`` backend) and analyses; the ``warm`` leg repeats the
    request, which the preceding cold run published.  Every body must be
    byte-identical, and the median warm hit at least
    :data:`CACHE_SPEEDUP_FLOOR` times faster than the median cold run.
    """
    from repro.cache import SqliteKV, use_cache
    from repro.service.dispatch import run_analysis_wire
    from repro.service.request import REQUEST_API_VERSION

    payload = {
        "api": REQUEST_API_VERSION,
        "form": "leave-application",
        "kind": "completability",
        "max_states": 3_000,
    }

    with tempfile.TemporaryDirectory() as tmp:
        kv = SqliteKV(str(Path(tmp) / "cache.db"))

        def analyse(clear: bool):
            if clear:
                for key, _ in list(kv.scan("results")):
                    kv.delete("results", key)
            status, body = run_analysis_wire(dict(payload))
            if status != 200:
                raise RuntimeError(f"cache row analysis failed: {status} {body}")
            return json.dumps(body, sort_keys=True)

        with use_cache(kv):
            runs = interleaved({"cold": lambda: analyse(True), "warm": lambda: analyse(False)})
        hits = kv.stats()["namespaces"]["results"]["hits"]
        kv.close()

    cold_body = runs["cold"][0].result
    identical = all(run.result == cold_body for run in runs["cold"] + runs["warm"])
    states = json.loads(cold_body)["stats"]["states_explored"]
    row = {
        "workload": "memoized result cache [leave application]",
        "kind": "result-cache",
        "states": states,
        **timed_fields(states, runs["cold"]),
        "warm_hit_seconds": leg_seconds(runs["warm"]),
        "cache_result_hits": hits,
        "checks": {"warm_matches_cold": identical},
    }
    row["cache_warm_speedup"] = round(
        row["seconds"]["median"] / row["warm_hit_seconds"]["median"], 1
    )
    return row


def measure_campaign_corpus(entry: dict, max_states: int) -> dict:
    """Explore one committed campaign-corpus workload.

    The corpus holds the hardest agreeing instances ``repro campaign
    promote`` mined out of scenario campaigns.  The form is explored under
    the campaign's own state cap; the row checks state-set parity with the
    legacy explorer and that the explored state/transition counts still
    match the manifest, since a mined workload that changes size means the
    generator or the engine drifted.
    """
    from repro.analysis.results import ExplorationLimits
    from repro.analysis.statespace import legacy_explore_bounded, legacy_explore_depth1
    from repro.engine import ExplorationEngine
    from repro.io.serialization import load_guarded_form

    form = load_guarded_form(CORPUS_MANIFEST.parent / entry["file"])
    limits = ExplorationLimits(max_states=max_states, max_instance_nodes=40)
    depth1 = entry["kind"] == "depth1"

    def explore():
        engine = ExplorationEngine(form, limits=limits)
        graph = engine.explore_depth1() if depth1 else engine.explore()
        return graph, engine.stats_snapshot()

    runs = interleaved({"explore": explore})
    graph, stats = runs["explore"][-1].result
    if depth1:
        parity = graph.states == legacy_explore_depth1(form).states
    else:
        parity = {graph.shape_of(s) for s in graph.states} == legacy_explore_bounded(
            form, limits=limits
        ).states
    states = len(graph.states)
    transitions = sum(len(edges) for edges in graph.transitions.values())
    return {
        "workload": f"campaign-corpus {entry['family']} seed={entry['seed']}",
        "kind": "campaign-corpus",
        "family": entry["family"],
        "seed": entry["seed"],
        "states": states,
        "transitions": transitions,
        **timed_fields(states, runs["explore"]),
        "guard_cache_hit_rate": stats["guard_cache_hit_rate"],
        "formula_evaluations": stats["formula_evaluations"],
        "checks": {
            "legacy_parity": parity,
            "matches_manifest": (states, transitions) == (entry["states"], entry["transitions"]),
        },
    }


def measure_engine(attach_states: int, trace_path: "str | None") -> list:
    """Every row, each measured in its own process."""
    rows = [
        in_fresh_process(measure_store_backed),
        in_fresh_process(measure_residency_attach, attach_states),
        in_fresh_process(measure_telemetry, trace_path),
        in_fresh_process(measure_cache),
    ]
    if CORPUS_MANIFEST.exists():
        manifest = json.loads(CORPUS_MANIFEST.read_text(encoding="utf-8"))
        max_states = manifest.get("max_states") or 400
        for entry in manifest["workloads"]:
            rows.append(in_fresh_process(measure_campaign_corpus, entry, max_states))
    return rows


# --------------------------------------------------------------------------- #
# regression gate
# --------------------------------------------------------------------------- #


def same_host(report: dict, baseline: dict) -> bool:
    """Whether *baseline* was measured on a host like this report's."""
    return baseline.get("host") is not None and baseline.get("host") == report.get("host")


def check_regressions(report: dict, baseline: dict, threshold: float) -> list[str]:
    """Compare *report* against the parsed *baseline*; return the failures.

    On the fresh report alone, on any host: a false entry in a row's
    ``checks``, and the hydration, resident-budget, telemetry-overhead and
    cache-speedup limits.  Against the baseline, on any host: a baseline row
    the report does not measure (unless the report measures that row's kind
    under another name: an attach store of another size, a re-promoted
    corpus) and formula evaluations grown beyond *threshold*.  Against a
    baseline from the same host only: states/sec at the reference speed
    (``reference_states_per_second``) dropped beyond *threshold*.  Campaign
    rows finish in milliseconds, so their states/sec is never gated.
    """
    failures: list[str] = []
    current = {row["workload"]: row for row in report["engine"]["workloads"]}
    for name, fresh in current.items():
        for check, passed in fresh.get("checks", {}).items():
            if not passed:
                failures.append(f"workload {name!r} failed its {check} check")
        fraction = fresh.get("hydration_fraction_restored")
        if fraction is not None and fraction >= ATTACH_HYDRATION_CEILING:
            failures.append(
                f"workload {name!r} hydrated {fraction:.1%} of the shape table; a "
                f"budget-bounded attach must stay below {ATTACH_HYDRATION_CEILING:.0%}"
            )
        budget = fresh.get("resident_budget")
        for field in ("states_resident", "reps_resident"):
            value = fresh.get(field)
            if budget and value is not None and value > budget:
                failures.append(
                    f"workload {name!r} finished with {field}={value}, above its "
                    f"resident budget of {budget}"
                )
        overhead = fresh.get("telemetry_overhead_q1")
        if overhead is not None and overhead > TELEMETRY_OVERHEAD_CEILING:
            failures.append(
                f"workload {name!r} pays {overhead:.1%} (lower quartile of the pairs) "
                f"for enabled telemetry; the ceiling is {TELEMETRY_OVERHEAD_CEILING:.0%}"
            )
        speedup = fresh.get("cache_warm_speedup")
        if speedup is not None and speedup < CACHE_SPEEDUP_FLOOR:
            failures.append(
                f"workload {name!r} answered a warm cache hit only {speedup:.1f}x "
                f"faster than the cold run; the floor is {CACHE_SPEEDUP_FLOOR:.0f}x"
            )

    gate_speed = same_host(report, baseline)
    measured_kinds = {row.get("kind") for row in current.values()}
    for old in baseline.get("engine", {}).get("workloads", []):
        name = old["workload"]
        fresh = current.get(name)
        if fresh is None:
            if old.get("kind") not in measured_kinds:
                failures.append(f"workload {name!r} present in baseline but not measured")
            continue
        old_evals = old.get("formula_evaluations")
        new_evals = fresh.get("formula_evaluations")
        if old_evals and new_evals and new_evals > old_evals * (1.0 + threshold):
            failures.append(
                f"workload {name!r} now needs {new_evals} formula evaluations vs "
                f"baseline {old_evals} (allowed ceiling {old_evals * (1.0 + threshold):.1f})"
            )
        if not gate_speed or fresh.get("kind") == "campaign-corpus":
            continue
        old_sps = old.get("reference_states_per_second")
        new_sps = fresh.get("reference_states_per_second")
        if old_sps and new_sps and new_sps < old_sps * (1.0 - threshold):
            failures.append(
                f"workload {name!r} regressed: {new_sps} states/s at reference "
                f"speed vs baseline {old_sps} (allowed floor "
                f"{old_sps * (1.0 - threshold):.1f})"
            )
    return failures


# --------------------------------------------------------------------------- #
# pytest-benchmark sweep
# --------------------------------------------------------------------------- #


def run_pytest_benchmarks(keyword: str | None) -> dict:
    """Run each ``bench_*.py`` under pytest-benchmark, collect its JSON."""
    modules = sorted(p for p in BENCH_DIR.glob("bench_*.py"))
    collected: dict = {}
    for module in modules:
        with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
            json_path = Path(handle.name)
        command = [sys.executable, "-m", "pytest", str(module), "-q", "--benchmark-json", str(json_path)]
        if keyword:
            command.extend(["-k", keyword])
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        print(f"[run_all] {module.name} ...", flush=True)
        proc = subprocess.run(
            command, cwd=BENCH_DIR, capture_output=True, text=True, env=env
        )
        entry: dict = {"exit_code": proc.returncode}
        try:
            payload = json.loads(json_path.read_text(encoding="utf-8"))
            entry["benchmarks"] = [
                {
                    "name": bench["name"],
                    "group": bench.get("group"),
                    "mean_seconds": bench["stats"]["mean"],
                    "stddev_seconds": bench["stats"]["stddev"],
                    "rounds": bench["stats"]["rounds"],
                    "ops_per_second": bench["stats"]["ops"],
                }
                for bench in payload.get("benchmarks", [])
            ]
        except (OSError, json.JSONDecodeError, KeyError):
            entry["benchmarks"] = []
            entry["stderr_tail"] = proc.stderr[-2000:]
        finally:
            json_path.unlink(missing_ok=True)
        collected[module.name] = entry
    return collected


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="skip the pytest-benchmark sweep; only measure the engine rows",
    )
    parser.add_argument("-k", dest="keyword", default=None, help="pytest -k filter for the sweep")
    parser.add_argument(
        "-o",
        "--output",
        default=str(REPO_ROOT / "BENCH_engine.json"),
        help="where to write the consolidated JSON (default: BENCH_engine.json)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the baseline and exit non-zero on a failed "
        "check, or on a host-speed-scaled states/sec regression beyond "
        "--threshold against a baseline from this host",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: engine rows only (implies --quick) on a 20k-state "
        "attach store, plus the regression check (implies --check)",
    )
    parser.add_argument(
        "--baseline",
        default=str(REPO_ROOT / "BENCH_engine.json"),
        help="baseline JSON for --check (default: the committed BENCH_engine.json)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed fractional regression of states/sec at reference "
        "speed before --check fails (default: 0.25, i.e. >25%% slower fails)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write the telemetry row's traced exploration as a Chrome "
        "trace-event file to PATH (Perfetto-loadable)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.quick = True
        args.check = True

    sys.path.insert(0, str(REPO_ROOT / "src"))
    # read the baseline up front: the default output path overwrites it
    baseline_path = Path(args.baseline)
    baseline = None
    if args.check and baseline_path.exists():
        try:
            baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            print(f"[run_all] cannot parse baseline {baseline_path}: {exc}", file=sys.stderr)
            return 1

    report = {
        "schema": "bench-engine/11",
        "generated_by": "benchmarks/run_all.py",
        "quick": args.quick,
        "host": host_block(),
        "engine": {
            "workloads": measure_engine(
                20_000 if args.smoke else 100_000, args.trace
            )
        },
    }
    if not args.quick:
        report["pytest_benchmarks"] = run_pytest_benchmarks(args.keyword)

    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"[run_all] wrote {output}")
    for row in report["engine"]["workloads"]:
        seconds = row["seconds"]
        checks = " ".join(f"{name}={passed}" for name, passed in row["checks"].items())
        print(
            f"[run_all]   {row['workload']}: {row['states']} states, "
            f"{row['states_per_second']} states/s (min {seconds['min']}s, median "
            f"{seconds['median']}s, q1-q3 {seconds['q1']}-{seconds['q3']}s), "
            f"{row['reference_states_per_second']} states/s at reference speed, "
            f"peak RSS {row['peak_rss_kb']} KB, {checks}"
        )

    if args.check:
        if baseline is None:
            print(f"[run_all] --check: no baseline at {baseline_path}; nothing to compare")
            return 0
        if not same_host(report, baseline):
            print(
                f"[run_all] --check: baseline host {baseline.get('host')} is not "
                f"this host {report['host']}; states/sec is not gated"
            )
        failures = check_regressions(report, baseline, args.threshold)
        if failures:
            for failure in failures:
                print(f"[run_all] REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(
            f"[run_all] regression check passed "
            f"(threshold {args.threshold:.0%} vs {baseline_path})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
