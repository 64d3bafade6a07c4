"""Per-layer cost ledger: self time and call counts of wrapped entry points.

With ``--trace 1`` the benchmark wraps the entry points of each layer of the
analyser (request codec, form resolution, engine, guard cache, formula
evaluation, successor derivation, interning, sqlite store, KV cache, worker
pool, wire frames, job queue, HTTP) in timers.  A wrapper charges its
callee's wall time to its layer *minus* the whole duration of nested wrapped
calls, their bookkeeping included, so each layer reports its own self time
and the ledger's cost lands in no layer.  The benchmark's per-request wrapper
and the pod's per-job wrapper are *roots*: their self time is what no layer
claimed, the unattributed rest, and their inclusive time minus every layer's
self time is the ledger's own overhead.

Counters are kept per thread, without a lock, and summed when read.  Span
timelines are not recorded here: the analyser's own telemetry
(``REPRO_TRACE``, ``repro serve --trace``) writes those.

Nothing here runs until :func:`install` is called, so ``--trace 0`` runs
measure the unmodified program.
"""

from __future__ import annotations

import inspect
import json
import threading
import time
from collections import Counter
from functools import wraps
from pathlib import Path


class _Tally:
    """One thread's open calls and totals."""

    def __init__(self) -> None:
        self.stack: list = []  # per open call: inclusive time of its wrapped children
        self.self_seconds: dict = {}
        self.total_seconds: dict = {}
        self.calls: dict = {}


class Ledger:
    """Thread-aware self-time accounting over wrapped callables."""

    def __init__(self) -> None:
        self._tallies: list = []
        self._absorbed = {"self_seconds": Counter(), "total_seconds": Counter(), "calls": Counter()}
        self._lock = threading.Lock()  # only taken when a thread first records
        self._local = threading.local()
        self._patches: list = []

    def _tally(self) -> _Tally:
        try:
            return self._local.tally
        except AttributeError:
            tally = self._local.tally = _Tally()
            with self._lock:
                self._tallies.append(tally)
            return tally

    def _summed(self, name: str) -> Counter:
        total = Counter(self._absorbed[name])
        for tally in list(self._tallies):
            total.update(dict(getattr(tally, name)))
        return total

    @property
    def self_seconds(self) -> Counter:
        return self._summed("self_seconds")

    @property
    def total_seconds(self) -> Counter:
        return self._summed("total_seconds")

    @property
    def calls(self) -> Counter:
        return self._summed("calls")

    def timed(self, layer: str, function):
        """*function* wrapped so that its self time is charged to *layer*."""
        clock = time.perf_counter
        tally_of = self._tally

        @wraps(function)
        def wrapper(*args, **kwargs):
            entered = clock()
            tally = tally_of()
            stack = tally.stack
            stack.append(0.0)
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                finished = clock()
                elapsed = finished - started
                nested = stack.pop()
                self_seconds = tally.self_seconds
                self_seconds[layer] = self_seconds.get(layer, 0.0) + elapsed - nested
                total_seconds = tally.total_seconds
                total_seconds[layer] = total_seconds.get(layer, 0.0) + elapsed
                calls = tally.calls
                calls[layer] = calls.get(layer, 0) + 1
                if stack:
                    # the caller's self time excludes this call and its
                    # bookkeeping, which is read off the clock last
                    stack[-1] += clock() - entered

        return wrapper

    def patch(self, owner, name: str, layer: str) -> None:
        """Replace ``owner.name`` (a module or class attribute of its own, not
        an inherited one) by its timed wrapper until :meth:`restore`."""
        original = vars(owner)[name]
        setattr(owner, name, self.timed(layer, original))
        self._patches.append((owner, name, original))

    def restore(self) -> None:
        """Put every patched callable back, newest first."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def reset(self) -> None:
        """Forget the totals recorded so far (the measured window starts);
        calls still open keep their stack entries."""
        for tally in list(self._tallies):
            tally.self_seconds.clear()
            tally.total_seconds.clear()
            tally.calls.clear()

    def dump(self, path: Path) -> None:
        """Write the totals for another process to :meth:`absorb`."""
        totals = {name: self._summed(name) for name in self._absorbed}
        path.write_text(json.dumps(totals), encoding="utf-8")

    def absorb(self, path: Path) -> None:
        """Add another process's :meth:`dump` to this ledger."""
        other = json.loads(path.read_text(encoding="utf-8"))
        for name, counter in self._absorbed.items():
            counter.update(other[name])


def install(ledger: Ledger) -> None:
    """Wrap the entry points of every layer of the analyser.

    A function imported into another module (``from x import f``) is looked
    up there, so it is patched in each module that calls it.  Worker
    processes forked by the parallel engine inherit the wrappers, but their
    totals stay in those processes: the coordinator sees their work, and
    the wrappers' cost there, as ``worker_wait``.
    """
    from repro.cache.kv import KVCache
    from repro.cache.kv_sqlite import SqliteKV
    from repro.engine import guards as guards_module
    from repro.engine.engine import ExplorationEngine
    from repro.engine.guards import GuardCache
    from repro.engine.interning import IncrementalShaper, ShapeInterner
    from repro.engine.parallel import ParallelExplorationEngine
    from repro.engine.store import SqliteStore
    from repro.engine.wire import WireFrame
    from repro.engine.workers import WorkerPool
    from repro.service import dispatch, server
    from repro.service.client import ServiceClient
    from repro.service.jobs import JobStore

    for module in (dispatch, server):
        ledger.patch(module, "request_from_wire", "request_decode")
        ledger.patch(module, "run_analysis", "analysis")
        ledger.patch(module, "result_to_wire", "result_encode")
        ledger.patch(module, "result_cache_probe", "result_cache")
        ledger.patch(module, "result_cache_store", "result_cache")
    ledger.patch(dispatch, "resolve_form", "form_resolve")
    ledger.patch(dispatch, "open_store", "store_io")

    ledger.patch(ExplorationEngine, "__init__", "engine_init")
    ledger.patch(ParallelExplorationEngine, "__init__", "engine_init")
    for name in ("explore", "explore_depth1"):
        ledger.patch(ExplorationEngine, name, "explore")
    for name in ("_expand", "_expand_depth1"):
        ledger.patch(ExplorationEngine, name, "enumerate")
    for name in ("_save_checkpoint", "_restore_exploration"):
        ledger.patch(ExplorationEngine, name, "checkpoint")

    ledger.patch(ParallelExplorationEngine, "_prefetch", "prefetch")
    ledger.patch(ParallelExplorationEngine, "_adopt", "adopt")
    ledger.patch(WorkerPool, "__init__", "worker_spawn")
    ledger.patch(WorkerPool, "close", "worker_spawn")
    ledger.patch(WorkerPool, "run_wave", "worker_wait")
    for name in ("__init__", "shape_rows", "expansion"):
        ledger.patch(WireFrame, name, "wire_decode")

    for name in (
        "addition_allowed",
        "deletion_allowed",
        "completion",
        "d1_addition_allowed",
        "d1_deletion_allowed",
        "d1_completion",
    ):
        ledger.patch(GuardCache, name, "guard")
    ledger.patch(guards_module, "evaluate", "formula_eval")

    for name in ("successor_shape", "successor", "full_map"):
        ledger.patch(IncrementalShaper, name, "successor")
    for name in ("state_id", "state_id_row", "cons", "cons_tree"):
        ledger.patch(ShapeInterner, name, "intern")

    for name in (
        "attach",
        "flush",
        "close",
        "put_shape",
        "get_shape",
        "get_state_id",
        "put_representative",
        "get_representative",
        "put_guard",
        "load_guards_raw",
        "save_checkpoint",
        "load_checkpoint",
        "clear_checkpoint",
    ):
        ledger.patch(SqliteStore, name, "store_io")

    for name in ("get", "put", "mget"):
        ledger.patch(KVCache, name, "kv")
    for name in ("mput", "flush", "close"):
        ledger.patch(SqliteKV, name, "kv")

    for name, value in list(vars(JobStore).items()):
        if inspect.isfunction(value) and not name.startswith("_"):
            ledger.patch(JobStore, name, "job_queue")
    ledger.patch(server._PodHandler, "_route", "http_server")
    ledger.patch(server.PodServer, "_run_job", "job")
    ledger.patch(ServiceClient, "_call", "http_client")
    ledger.patch(ServiceClient, "wait", "poll_wait")
