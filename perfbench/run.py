"""Request-to-verdict benchmark of the guarded-forms analyser.

Run from the repository root; the package is imported from ``src/``, and
the first run compiles the analyser's optional C codec (when cffi and a C
compiler are present) into ``.perfbench_build/``::

    python3 perfbench/run.py --workload bounded --seed 3 --seconds 15 --trace 0

Each workload is a closed loop with one client: the next analysis request is
sent as soon as the previous verdict arrives.  The requests cycle through a
pool generated from the seed (``workloads.py``).  A request is an
``analysis-request/1`` wire payload with its guarded form inlined; its
answer is an ``analysis-result/1`` verdict, checked against an independent
oracle.  No recorded traffic backs the mixes: the families are the paper's
reductions at sizes that let a 15-second run answer fifty requests or
more, and the request settings are the programs' defaults except where a
workload names them.

``depth1``
    depth-1 forms through the library wire boundary (``run_analysis_wire``):
    canonical-state search and the support-projected guard cache.
``bounded``
    deeper forms through the same boundary: bounded exploration,
    successor-shape derivation, interning and subtree/state-keyed guards.
``parallel``
    the bounded nested-document and QSAT forms with two frontier worker
    processes, a per-request sqlite store, a 64-state resident budget, a
    200-state exploration budget and a shared sqlite KV cache: worker pool
    start-up, worker waves, wire-frame decoding, adoption,
    the guard KV tier shared across requests and the shape KV tier in front
    of the store.  The store keeps the result cache out of the way.
``service``
    the bounded forms submitted over HTTP to a pod server process
    (``pod.py``: ``repro serve`` with its shipped settings: two job workers,
    2000-state slices, no cache); every job runs on its own sqlite store,
    and the client polls at the client's default interval, 0.2 s.  The
    latency is taken from the submission to the moment the pod finishes
    the job (its ``finished_at``), so the poll interval, a client setting,
    does not quantise it.
``cached``
    a pool of depth-1 and bounded requests answered by the memoized result
    cache (an sqlite KV) that set-up fills; the other workloads bypass it.

Host speed.  On a shared virtual machine the interpreter's speed drifts by
up to a half within seconds, as other tenants' load comes and goes.  Right
before and right after each request the client times a fixed interpreter
pass of dict, tuple and list work (:class:`SpeedGauge`, the median of three
passes), and the request's latency is scaled by the ratio of the reference
pass time, :data:`REFERENCE_PASS_SECONDS`, to the mean of the two readings.
Times are therefore "milliseconds at the reference speed": on a host where
the pass takes the reference time they equal wall time, and a change to the
analyser moves them in the same proportion as wall time.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics:
median and 80th-percentile request-to-verdict latency, verdicts per second
of client time, peak RSS (of the client, or of the pod server if larger),
and set-up time — the median of five set-ups, each of which builds the
pool, starts the system and answers every pool request once.  With
``--trace 1`` the per-layer ledger (``ledger.py``) is installed for the
measured window, in the client and in the pod server, and the line reports
each layer's self time and calls per verdict instead, with the ledger's own
overhead and the hit rate of each KV namespace.  For a span
timeline, use the analyser's own telemetry (``REPRO_TRACE=PATH``,
``repro serve --trace PATH``); the benchmark clears ``REPRO_TRACE``, since
recording spans changes the cost measured.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
CODEC_CACHE = ROOT / ".perfbench_build" / "codec"

WORKLOADS = ("depth1", "bounded", "parallel", "service", "cached")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_ROUNDS = 5

#: The service workload's pod server process, and how long a job may take.
POD_SCRIPT = Path(__file__).resolve().parent / "pod.py"
JOB_TIMEOUT_SECONDS = 60.0

#: Duration of one calibration pass at the reference speed.
REFERENCE_PASS_SECONDS = 200e-6
#: Timed passes per reading of the gauge; the reading is their median.
CALIBRATION_PASSES = 3

#: Ledger layers, in call order from request to verdict.
LAYERS = (
    "request_decode",
    "form_resolve",
    "analysis",
    "engine_init",
    "explore",
    "enumerate",
    "prefetch",
    "worker_spawn",
    "worker_wait",
    "wire_decode",
    "adopt",
    "guard",
    "formula_eval",
    "successor",
    "intern",
    "checkpoint",
    "store_io",
    "kv",
    "result_encode",
    "result_cache",
    "job_queue",
    "http_server",
    "http_client",
    "poll_wait",
)

#: Layers whose call counts are reported too (work done, per verdict).
COUNTED_LAYERS = (
    "guard", "formula_eval", "successor", "intern", "store_io", "kv", "worker_wait", "http_client"
)

#: KV namespaces whose hit rates are reported.
KV_NAMESPACES = ("results", "guards", "shapes")

#: Ledger roots: their self time is the unattributed rest.
ROOT_LAYERS = ("request", "job")


def _calibration_pass() -> int:
    """Fixed interpreter work shaped like the analyser's: tuple keys, dict
    probes and inserts, list growth."""
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


class SpeedGauge:
    """Reads the host's current interpreter speed relative to the reference."""

    def read(self) -> float:
        """The current speed as a multiple of the reference speed."""
        _calibration_pass()  # warm: the timed passes must not pay first-touch costs
        passes = []
        for _ in range(CALIBRATION_PASSES):
            started = time.perf_counter()
            _calibration_pass()
            passes.append(time.perf_counter() - started)
        return REFERENCE_PASS_SECONDS / statistics.median(passes)


def speed_between(before: float, after: float) -> float:
    """The speed over an interval, from readings at its ends: the mean pass
    time of the two readings against the reference."""
    return 2 / (1 / before + 1 / after)


@dataclass
class Tally:
    """What the client saw in the measured window; times at reference speed."""

    latencies: list = field(default_factory=list)
    speeds: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    queue_waits: list = field(default_factory=list)
    job_runs: list = field(default_factory=list)


def verdict_matches(entry, status: int, body: dict) -> bool:
    return status == 200 and body.get("decided") is True and body.get("answer") is entry.expected


class LibrarySystem:
    """The in-process wire boundary, without a cache (depth1, bounded)."""

    def __init__(self, pool, work: Path, round_index: int, traced: bool) -> None:
        from repro.service.dispatch import run_analysis_wire

        del work, round_index, traced
        self.pool = pool
        self._run = run_analysis_wire

    def answer(self, index: int):
        status, body = self._run(self.pool[index].payload)
        return status, body, None

    def check(self, index: int, status: int, body: dict) -> bool:
        return verdict_matches(self.pool[index], status, body)

    def cache_counters(self) -> dict:
        """Hits and misses of each KV namespace so far."""
        return {}

    def open_window(self) -> None:
        """The measured window starts now."""

    def close(self, ledger=None) -> None:
        """Stop the system; add what it traced in other processes to *ledger*."""


class KVSystem(LibrarySystem):
    """The wire boundary with a fresh sqlite KV cache as the ambient cache."""

    def __init__(self, pool, work: Path, round_index: int, traced: bool) -> None:
        from repro.cache import SqliteKV, use_cache

        super().__init__(pool, work, round_index, traced)
        self.kv = SqliteKV(str(work / f"cache-{round_index}.sqlite"))
        self._use_cache = use_cache

    def answer(self, index: int):
        with self._use_cache(self.kv):
            return super().answer(index)

    def cache_counters(self) -> dict:
        namespaces = self.kv.stats()["namespaces"]
        return {
            name: (namespaces[name]["hits"], namespaces[name]["misses"])
            for name in KV_NAMESPACES
        }

    def close(self, ledger=None) -> None:
        self.kv.close()


class ParallelSystem(KVSystem):
    """Worker-pool requests on per-request stores behind a shared KV (parallel).

    Every request gets a new store (kept until the run's scratch directory
    is removed); a request with a store is never answered from the result
    cache, so the guard and shape KV tiers do the sharing.
    """

    def __init__(self, pool, work: Path, round_index: int, traced: bool) -> None:
        super().__init__(pool, work, round_index, traced)
        self._stores = work / f"stores-{round_index}"
        self._stores.mkdir()
        self._sent = 0

    def answer(self, index: int):
        self._sent += 1
        store = self._stores / f"request-{self._sent}.sqlite"
        payload = {**self.pool[index].payload, "store": str(store)}
        with self._use_cache(self.kv):
            status, body = self._run(payload)
        return status, body, None


class CachedSystem(KVSystem):
    """The wire boundary behind a result cache on an sqlite KV (cached).

    The set-up's first pass over the pool fills the cache; every later answer
    must be byte-identical to that cold one.
    """

    def __init__(self, pool, work: Path, round_index: int, traced: bool) -> None:
        super().__init__(pool, work, round_index, traced)
        self._cold: dict = {}

    def check(self, index: int, status: int, body: dict) -> bool:
        encoded = json.dumps(body, sort_keys=True)
        cold = self._cold.setdefault(index, encoded)
        return super().check(index, status, body) and encoded == cold


class ServiceSystem(LibrarySystem):
    """A pod server process (``pod.py``) answering over HTTP (service)."""

    def __init__(self, pool, work: Path, round_index: int, traced: bool) -> None:
        from repro.service import ServiceClient, request_from_wire

        super().__init__(pool, work, round_index, traced)
        self.requests = [request_from_wire(entry.payload) for entry in pool]
        self._ledger_path = work / f"pod-{round_index}-ledger.json" if traced else None
        command = [sys.executable, str(POD_SCRIPT), str(work / f"pod-{round_index}")]
        if self._ledger_path is not None:
            command.append(str(self._ledger_path))
        self.process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        banner = self.process.stdout.readline()
        port = re.search(r"http://[^\s:]+:(\d+)", banner)
        if port is None:
            self.close()
            raise RuntimeError(f"the pod server did not start: {banner!r}")
        self.client = ServiceClient(f"http://127.0.0.1:{port.group(1)}")

    def answer(self, index: int):
        job_id = self.client.submit(self.requests[index])["job_id"]
        job = self.client.wait(job_id, timeout=JOB_TIMEOUT_SECONDS)
        return 200, self.client.result(job_id), job

    def open_window(self) -> None:
        if self._ledger_path is not None:
            self.process.send_signal(signal.SIGUSR1)
            self.process.stdout.readline()  # the pod's "ledger reset" line

    def close(self, ledger=None) -> None:
        self.process.terminate()
        try:
            self.process.communicate(timeout=JOB_TIMEOUT_SECONDS)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        if ledger is not None and self._ledger_path is not None:
            ledger.absorb(self._ledger_path)


SYSTEMS = {
    "depth1": LibrarySystem,
    "bounded": LibrarySystem,
    "parallel": ParallelSystem,
    "service": ServiceSystem,
    "cached": CachedSystem,
}


def set_up(workload: str, seed: int, work: Path, gauge: SpeedGauge, traced: bool):
    """Build the pool, start the system and answer each request once.

    Done :data:`SETUP_ROUNDS` times from scratch; the last system is kept
    for the measured window.  Returns it with the request order, each
    set-up's duration at reference speed and the number of wrong verdicts.
    """
    from workloads import pool_and_order

    system = None
    durations = []
    wrong = 0
    for round_index in range(SETUP_ROUNDS):
        if system is not None:
            system.close()
        before = gauge.read()
        started = time.perf_counter()
        pool, order = pool_and_order(workload, seed)
        system = SYSTEMS[workload](pool, work, round_index, traced)
        try:
            for index in order:
                status, body, _job = system.answer(index)
                wrong += not system.check(index, status, body)
        except BaseException:
            system.close()
            raise
        elapsed = time.perf_counter() - started
        durations.append(elapsed * speed_between(before, gauge.read()))
    return system, order, durations, wrong


def drive(system, order, seconds: float, send, gauge: SpeedGauge) -> Tally:
    """Send the requests in *order*, round and round, until *seconds* pass."""
    tally = Tally()
    deadline = time.perf_counter() + seconds
    before = gauge.read()
    for index in itertools.cycle(order):
        tally.attempted += 1
        sent_wall = time.time()  # the pod stamps its jobs with this clock
        sent = time.perf_counter()
        try:
            status, body, job = send(index)
        except Exception as error:  # noqa: BLE001 — a failed request is counted
            tally.failed += 1
            print(f"perfbench: request {index} failed: {error!r}", file=sys.stderr)
        else:
            latency = time.perf_counter() - sent
            after = gauge.read()
            speed = speed_between(before, after)
            before = after
            if job is not None:  # until the pod had the verdict
                latency = job["finished_at"] - sent_wall
            if system.check(index, status, body):
                tally.latencies.append(latency * speed)
                tally.speeds.append(speed)
                if job is not None:
                    tally.queue_waits.append(job["started_at"] - job["submitted_at"])
                    tally.job_runs.append(job["finished_at"] - job["started_at"])
            else:
                tally.failed += 1
                tally.wrong += 1
                print(f"perfbench: wrong verdict for request {index}", file=sys.stderr)
        if time.perf_counter() >= deadline:
            return tally


def peak_rss_kb() -> int:
    """Peak resident set of this process or of the largest finished child
    (the service workload's pod server), whichever is larger."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )


def _median_ms(values: list) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def end_to_end_metrics(tally: Tally, setups: list) -> dict:
    latencies_ms = [latency * 1e3 for latency in tally.latencies]
    # the 80th percentile: the highest with ten samples beyond it in the
    # workloads with the fewest verdicts per run (parallel, service: ~50)
    tail = (
        statistics.quantiles(latencies_ms, n=10)[7]
        if len(latencies_ms) > 1
        else latencies_ms[0]
    )
    return {
        "verdict_p50_ms": (statistics.median(latencies_ms), "ms"),
        "verdict_p80_ms": (tail, "ms"),
        "verdicts_per_s": (1e3 * len(latencies_ms) / sum(latencies_ms), "1/s"),
        "peak_rss_mb": (peak_rss_kb() / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def per_layer_metrics(ledger, tally: Tally, kv_lookups: dict) -> dict:
    """Per-verdict self time and calls of each layer, times at reference speed
    (the ledger's wall times scaled by the run's median host speed), and the
    hit rate of each KV namespace in the measured window."""
    speed = statistics.median(tally.speeds)
    verdicts = len(tally.latencies)
    per_verdict_ms = 1e3 * speed / verdicts
    self_seconds = ledger.self_seconds
    metrics = {f"{layer}_ms": (self_seconds[layer] * per_verdict_ms, "ms") for layer in LAYERS}
    unattributed = sum(self_seconds[layer] for layer in ROOT_LAYERS)
    metrics["unattributed_ms"] = (unattributed * per_verdict_ms, "ms")
    # inside the roots, whatever no layer's self time holds is the wrappers' own
    total_seconds = ledger.total_seconds
    overhead = sum(total_seconds[layer] for layer in ROOT_LAYERS) - sum(self_seconds.values())
    metrics["ledger_overhead_ms"] = (overhead * per_verdict_ms, "ms")
    calls = ledger.calls
    for layer in COUNTED_LAYERS:
        metrics[f"{layer}_calls"] = (calls[layer] / verdicts, "count")
    for namespace in KV_NAMESPACES:
        hits, misses = kv_lookups.get(namespace, (0, 0))
        rate = hits / (hits + misses) if hits + misses else 0.0
        metrics[f"{namespace}_kv_hit_rate"] = (rate, "ratio")
    metrics["queue_wait_ms"] = (_median_ms(tally.queue_waits) * speed, "ms")
    metrics["job_run_ms"] = (_median_ms(tally.job_runs) * speed, "ms")
    metrics["traced_p50_ms"] = (_median_ms(tally.latencies), "ms")
    metrics["host_speed"] = (speed, "ratio")
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    from ledger import Ledger, install

    gauge = SpeedGauge()
    system, order, setups, setup_wrong = set_up(workload, seed, work, gauge, trace)
    ledger = Ledger() if trace else None
    try:
        before = system.cache_counters()
        send = system.answer
        if ledger is not None:
            install(ledger)
            send = ledger.timed("request", system.answer)
        system.open_window()
        try:
            tally = drive(system, order, seconds, send, gauge)
        finally:
            if ledger is not None:
                ledger.restore()
        after = system.cache_counters()
    finally:
        system.close(ledger)
    if not tally.latencies:
        raise RuntimeError("no request was answered in the measured window")
    if trace:
        kv_lookups = {
            name: (hits - before[name][0], misses - before[name][1])
            for name, (hits, misses) in after.items()
        }
        metrics = per_layer_metrics(ledger, tally, kv_lookups)
    else:
        metrics = end_to_end_metrics(tally, setups)
    return {
        "correct": setup_wrong == 0 and tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the analyser sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the workloads choose their own cache and tracing; ambient settings
    # would change what is measured
    for variable in ("REPRO_CACHE", "REPRO_TRACE", "REPRO_PURE"):
        os.environ.pop(variable, None)
    # the optional C codec (arena hashes, wire frames) is compiled on first
    # import; keep that build inside the checkout instead of ~/.cache
    os.environ["REPRO_CODEC_CACHE"] = str(CODEC_CACHE)
    # one CPU for the client, the pod server it starts and the speed gauge:
    # the vCPUs of a shared host drift independently, so the gauge must time
    # the CPU that does the work
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    os.environ["TMPDIR"] = str(work)  # the program's temporary files too
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
