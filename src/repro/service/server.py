"""The analysis pod server: stdlib HTTP front, worker threads, admission.

Zero dependencies beyond the standard library: a
:class:`http.server.ThreadingHTTPServer` front end accepts
``analysis-request/1`` payloads, a durable :class:`~repro.service.jobs.JobStore`
queues them, and a small pool of worker threads drains the queue under
declared-budget admission control
(:class:`~repro.service.admission.AdmissionController`).

Jobs run *slice-wise*: each worker executes
:func:`~repro.service.dispatch.run_analysis` with a bounded ``step_limit``
against a per-job engine store under the server's ``--store-dir``, so the
exploration checkpoints and raises
:class:`~repro.exceptions.ExplorationInterrupted` every few thousand states.
Between slices the worker observes cancellation, stall eviction and server
shutdown, then resumes from the checkpoint — the same ``--resume`` machinery
the CLI uses, which earlier PRs pinned bit-identical to uninterrupted runs.
That one mechanism therefore gives cooperative cancellation, eviction,
graceful shutdown *and* crash recovery (``JobStore.recover`` re-queues jobs
a killed server left running; their next slice resumes the checkpoint).
A store the pod named itself (``<job_id>.store.sqlite``) is deleted once its
job is done, failed or cancelled, and at startup for terminal jobs a killed
server left it behind for; stores a request names are the caller's to keep.

Telemetry: the server owns a :class:`~repro.obs.tracing.Telemetry` recorder;
HTTP requests record spans, and each job slice runs under its own recorder
whose payload is absorbed into the server's afterwards
(:meth:`~repro.obs.tracing.Telemetry.merge_remote` — the same delta
semantics frontier workers use to ship counters to the coordinator), so
``/metricsz`` exports one merged view and ``--trace`` writes one merged
Chrome trace on shutdown.
"""

from __future__ import annotations

import json
import re
import threading
import time
from contextlib import suppress
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional
from urllib.parse import urlparse

from repro.cache import default_cache, open_kv, use_cache
from repro.catalog import FORM_MEMO
from repro.exceptions import (
    AdmissionError,
    EvictionError,
    ExplorationInterrupted,
    JobNotReadyError,
    RequestError,
    UnknownJobError,
)
from repro.obs import publish_cache_stats
from repro.obs.tracing import Telemetry, use_telemetry
from repro.service.admission import AdmissionController, StallDetector, request_family
from repro.service.dispatch import (
    result_cache_probe,
    result_cache_store,
    result_to_wire,
    run_analysis,
)
from repro.service.errors import error_payload, http_status
from repro.service.jobs import JobStore
from repro.service.request import request_from_wire, request_to_wire


@dataclass(frozen=True)
class ServerConfig:
    """Everything ``repro serve`` configures.

    Attributes:
        store_dir: directory owning the job queue (``jobs.sqlite``) and the
            per-job engine stores — the pod's entire durable state.
        host / port: bind address (port ``0`` picks an ephemeral port; the
            bound port is on :attr:`PodServer.port`).
        capacity_kb / overcommit: admission ceiling — the sum of admitted
            jobs' declared budgets stays within ``capacity_kb * overcommit``.
        default_budget_kb: budget accounted for jobs that declare none.
        workers: job worker threads (concurrent running jobs).
        slice_steps: states explored per slice for jobs that set no
            ``step_limit`` of their own.
        max_queue: queued-job cap; submissions beyond it are rejected (429).
        max_evictions: stall evictions tolerated before a job fails.
        stall_multiple / stall_floor_seconds: the family-median stall
            detector's knobs (see :mod:`repro.service.admission`).
        trace_path: write the server's merged Chrome trace here on shutdown.
        cache: spec of the shared cache of memoized results (``repro serve
            --cache DIR|URL``; see :func:`repro.cache.open_kv`).  When unset,
            the ambient ``REPRO_CACHE`` cache — if any — is used instead.
    """

    store_dir: str
    host: str = "127.0.0.1"
    port: int = 0
    capacity_kb: int = 262_144
    overcommit: float = 1.0
    default_budget_kb: int = 65_536
    workers: int = 2
    slice_steps: int = 2_000
    max_queue: int = 64
    max_evictions: int = 3
    stall_multiple: float = 8.0
    stall_floor_seconds: float = 2.0
    trace_path: Optional[str] = None
    cache: Optional[str] = None


class PodServer:
    """The pod: HTTP front end, durable queue, admission, worker pool."""

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.store_dir = Path(config.store_dir)
        self.store_dir.mkdir(parents=True, exist_ok=True)
        self.jobs = JobStore(self.store_dir / "jobs.sqlite")
        self.admission = AdmissionController(
            config.capacity_kb, config.overcommit, config.default_budget_kb
        )
        self.stalls = StallDetector(
            multiple=config.stall_multiple, floor_seconds=config.stall_floor_seconds
        )
        self.telemetry = Telemetry(process="pod-server")
        #: Shared cache of memoized results: the configured spec, or
        #: whatever ``REPRO_CACHE`` resolves to, or ``None`` (no caching).
        self.cache = open_kv(config.cache) if config.cache else default_cache()
        recovered = self.jobs.recover()
        if recovered:
            self.telemetry.instant("server.recovered_jobs", count=recovered)
            self.telemetry.metrics.counter("service.jobs.recovered").inc(recovered)
        # a server killed between a job's end and its store's removal
        # leaves the store behind; names of no job are caller-named stores
        for path in self.store_dir.glob("*.store.sqlite"):
            with suppress(UnknownJobError):
                self._remove_job_store(self.jobs.get(path.name.removesuffix(".store.sqlite")))
        self._admit_lock = threading.Lock()
        self._telemetry_lock = threading.Lock()
        self._running_lock = threading.Lock()
        #: job_id -> (family, monotonic time of last observed progress)
        self._running: dict = {}
        self._evict_requested: set = set()
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._threads: "list[threading.Thread]" = []
        self.port: Optional[int] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Bind the HTTP server and start the worker and watchdog threads."""
        handler = type(
            "PodHandler", (_PodHandler,), {"pod": self, "timeout": SOCKET_TIMEOUT_SECONDS}
        )
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), handler
        )
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._threads = [
            threading.Thread(
                target=self._httpd.serve_forever,
                kwargs={"poll_interval": 0.1},
                name="pod-http",
                daemon=True,
            ),
            threading.Thread(target=self._watchdog_loop, name="pod-watchdog", daemon=True),
        ]
        for index in range(self.config.workers):
            self._threads.append(
                threading.Thread(
                    target=self._worker_loop,
                    args=(f"job-worker-{index}",),
                    name=f"pod-worker-{index}",
                    daemon=True,
                )
            )
        for thread in self._threads:
            thread.start()
        self.telemetry.instant(
            "server.started", port=self.port, workers=self.config.workers
        )

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until :meth:`shutdown` is requested (CLI foreground mode)."""
        return self._stop.wait(timeout)

    def request_shutdown(self) -> None:
        """Signal shutdown from any thread (e.g. a SIGTERM handler)."""
        self._stop.set()
        self._wake.set()

    def shutdown(self) -> None:
        """Stop accepting, let workers finish their slice, flush telemetry.

        Running jobs are re-queued at their next slice boundary (their
        checkpoints are on disk), so a restarted server resumes them.
        """
        self.request_shutdown()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=10.0)
        self.telemetry.instant("server.stopped")
        if self.config.trace_path:
            self.telemetry.write_chrome_trace(self.config.trace_path)
        if self.cache is not None:
            if self.config.cache:
                self.cache.close()  # ours: flush and release the connection
            else:
                self.cache.flush()  # ambient (REPRO_CACHE): others may share it
        self.jobs.close()

    # ------------------------------------------------------------------ #
    # request routing (socket-free; the HTTP handler and tests share it)
    # ------------------------------------------------------------------ #

    def handle(self, method: str, path: str, payload: object) -> "tuple[int, dict]":
        """Route one request; returns ``(status, json_body)``, never raises."""
        try:
            if method == "POST" and path == "/v1/jobs":
                return self._submit(payload)
            if method == "GET" and path == "/healthz":
                return self._healthz()
            if method == "GET" and path == "/metricsz":
                return self._metricsz()
            if method == "GET" and path == "/v1/jobs":
                return 200, {"jobs": [job.to_wire() for job in self.jobs.jobs()]}
            if path.startswith("/v1/jobs/"):
                rest = path[len("/v1/jobs/") :]
                if method == "GET" and rest.endswith("/result"):
                    return self._result(rest[: -len("/result")])
                if method == "POST" and rest.endswith("/cancel"):
                    return self._cancel(rest[: -len("/cancel")])
                if method == "GET" and "/" not in rest:
                    return 200, {"job": self.jobs.get(rest).to_wire()}
            return 404, {
                "error": {
                    "code": "not-found",
                    "message": f"no route for {method} {path}",
                    "retryable": False,
                }
            }
        except Exception as error:  # noqa: BLE001 — HTTP edge encodes, never raises
            return http_status(error), error_payload(error)

    def _submit(self, payload: object) -> "tuple[int, dict]":
        request = request_from_wire(payload)
        if request.store is not None:
            _check_store_name(request.store)
        budget = self.admission.effective_budget_kb(request)
        self.admission.check_submittable(budget)
        if self.jobs.queue_length() >= self.config.max_queue:
            raise AdmissionError(
                f"queue is full ({self.config.max_queue} jobs waiting); "
                "retry after some finish"
            )
        record = self.jobs.submit(request_to_wire(request), budget)
        self.telemetry.metrics.counter("service.jobs.submitted", kind=request.kind).inc()
        self.telemetry.instant("job.submitted", job=record.job_id, kind=request.kind)
        self._wake.set()
        return 202, {"job": record.to_wire()}

    def _result(self, job_id: str) -> "tuple[int, dict]":
        record = self.jobs.get(job_id)
        if record.state == "done":
            return 200, {"job": record.to_wire(), "result": record.result}
        if record.state == "failed":
            body = dict(record.error or {"error": {
                "code": "internal", "message": "job failed", "retryable": False,
            }})
            body["job"] = record.to_wire()
            return record.error_status or 500, body
        if record.state == "cancelled":
            return 410, {
                "error": {
                    "code": "cancelled",
                    "message": f"{job_id} was cancelled",
                    "retryable": False,
                },
                "job": record.to_wire(),
            }
        raise JobNotReadyError(
            f"{job_id} is {record.state}; poll again once it is terminal"
        )

    def _cancel(self, job_id: str) -> "tuple[int, dict]":
        record = self.jobs.cancel(job_id)
        self._remove_job_store(record)  # a queued job may hold an evicted run's store
        self.telemetry.instant("job.cancel_requested", job=job_id)
        self._wake.set()
        return 200, {"job": record.to_wire()}

    def _healthz(self) -> "tuple[int, dict]":
        return 200, {
            "ok": True,
            "jobs": self.jobs.counts(),
            "admitted_kb": self.jobs.admitted_budget_kb(),
            "admittable_kb": self.admission.admittable_kb,
            "workers": self.config.workers,
        }

    def _metricsz(self) -> "tuple[int, dict]":
        cache_stats = self.cache.stats() if self.cache is not None else None
        with self._telemetry_lock:
            self.telemetry.sample_rss()
            if cache_stats is not None:
                # labeled series (cache_hits{namespace=guards}, ...) beside
                # the raw per-namespace block below
                publish_cache_stats(self.telemetry.metrics, cache_stats)
            snapshot = self.telemetry.metrics.snapshot(include_series=False)
        body = {
            "metrics": snapshot,
            "jobs": self.jobs.counts(),
            "admitted_kb": self.jobs.admitted_budget_kb(),
            "admittable_kb": self.admission.admittable_kb,
            "stall_families": self.stalls.snapshot(),
            "form_memo": FORM_MEMO.stats(),
        }
        if cache_stats is not None:
            body["cache"] = cache_stats
        return 200, body

    # ------------------------------------------------------------------ #
    # workers
    # ------------------------------------------------------------------ #

    def _worker_loop(self, label: str) -> None:
        while not self._stop.is_set():
            job = self._admit_next()
            if job is None:
                self._wake.wait(timeout=0.05)
                self._wake.clear()
                continue
            self._run_job(job, label)

    def _admit_next(self):
        """Claim the head-of-line job iff its budget fits right now.

        Head-of-line only: a big job at the front blocks smaller later ones
        rather than being starved by them, and "never both resident" for two
        over-capacity jobs follows directly — the second stays queued until
        the first's budget is released.
        """
        with self._admit_lock:
            head = self.jobs.head_of_line()
            if head is None:
                return None
            admitted = self.jobs.admitted_budget_kb()
            if not self.admission.can_admit(head.budget_kb, admitted):
                return None
            job = self.jobs.claim_next()
            if job is not None:
                self.telemetry.metrics.counter("service.jobs.admitted").inc()
                self.telemetry.metrics.gauge("service.admitted_kb").set(
                    admitted + job.budget_kb
                )
            return job

    def _run_job(self, job, label: str) -> None:
        try:
            request = request_from_wire(job.request)
        except RequestError as error:
            self.jobs.fail(job.job_id, error_payload(error), http_status(error))
            return
        family = request_family(request)
        # a memoized identical submission needs no worker slices at all: the
        # key is the *original* request's (the slice/store rewrites below
        # are execution detail), and the stored body is byte-exact what a
        # cold run of this job announced
        try:
            with use_cache(self.cache):
                key, cached = result_cache_probe(request)  # resolves the form
        except Exception as error:  # noqa: BLE001 — job faults become payloads
            self._fail(job.job_id, error)
            return
        if cached is not None:
            self.jobs.finish(job.job_id, cached)
            self.telemetry.metrics.counter("service.jobs.done", kind=request.kind).inc()
            self.telemetry.metrics.counter(
                "service.result_cache.hits", kind=request.kind
            ).inc()
            self.telemetry.instant("job.done", job=job.job_id, cached=True)
            self._wake.set()
            return
        store_name = request.store if request.store is not None else job.job_id
        store_path = self.store_dir / f"{store_name}.store.sqlite"
        slice_steps = request.step_limit or self.config.slice_steps
        base = request.replace(store=str(store_path), step_limit=slice_steps)
        # a first slice resumes when the job explored before (eviction,
        # crash recovery) or the caller asked to continue an earlier store
        resume = request.resume or job.evictions > 0 or job.states_explored > 0
        recorder = Telemetry(process=f"{label}:{job.job_id}")
        self._note_running(job.job_id, family)
        self.telemetry.instant("job.started", job=job.job_id, family=family)
        try:
            while True:
                record = self.jobs.get(job.job_id)
                if record.cancel_requested:
                    self.jobs.mark_cancelled(job.job_id)
                    self.telemetry.instant("job.cancelled", job=job.job_id)
                    return
                if self._take_evict_flag(job.job_id):
                    self._evict(job.job_id, family)
                    return
                if self._stop.is_set():
                    self.jobs.requeue(job.job_id)
                    return
                started = time.monotonic()
                try:
                    with use_telemetry(recorder):
                        result = run_analysis(base.replace(resume=resume))
                except ExplorationInterrupted as pause:
                    self.stalls.record(family, time.monotonic() - started)
                    self.jobs.update_progress(job.job_id, pause.states_explored)
                    self._touch_progress(job.job_id)
                    self.telemetry.metrics.counter(
                        "service.job.slices", kind=request.kind
                    ).inc()
                    resume = True
                    continue
                except Exception as error:  # noqa: BLE001 — job faults become payloads
                    self._fail(job.job_id, error)
                    return
                self.stalls.record(family, time.monotonic() - started)
                body = result_to_wire(result)
                with use_cache(self.cache):
                    result_cache_store(key, body)
                self.jobs.finish(job.job_id, body)
                self.telemetry.metrics.counter(
                    "service.jobs.done", kind=request.kind
                ).inc()
                self.telemetry.instant("job.done", job=job.job_id)
                return
        finally:
            self._forget_running(job.job_id)
            self._absorb(recorder)
            self._remove_job_store(self.jobs.get(job.job_id))
            self._wake.set()

    def _fail(self, job_id: str, error: Exception) -> None:
        self.jobs.fail(job_id, error_payload(error), http_status(error))
        self.telemetry.metrics.counter("service.jobs.failed").inc()
        self.telemetry.instant(
            "job.failed", job=job_id, code=error_payload(error)["error"]["code"]
        )

    def _evict(self, job_id: str, family: str) -> None:
        record = self.jobs.get(job_id)
        if record.evictions + 1 > self.config.max_evictions:
            error = EvictionError(
                f"{job_id} ({family}) was evicted as stalled "
                f"{record.evictions + 1} times, above the pod's tolerance of "
                f"{self.config.max_evictions}"
            )
            self.jobs.fail(job_id, error_payload(error), http_status(error))
        else:
            self.jobs.requeue(job_id, evicted=True)
        self.telemetry.metrics.counter("service.jobs.evicted").inc()
        self.telemetry.instant("job.evicted", job=job_id, family=family)

    def _remove_job_store(self, record) -> None:
        """Delete a terminal job's pod-named store with its WAL side files.
        A requeued job keeps its store to resume from; a store the request
        named is the caller's."""
        if record.terminal and record.request.get("store") is None:
            for suffix in ("", "-wal", "-shm"):
                (self.store_dir / f"{record.job_id}.store.sqlite{suffix}").unlink(missing_ok=True)

    # ------------------------------------------------------------------ #
    # stall watchdog
    # ------------------------------------------------------------------ #

    def _watchdog_loop(self) -> None:
        while not self._stop.wait(timeout=0.2):
            now = time.monotonic()
            with self._running_lock:
                running = list(self._running.items())
            for job_id, (family, last_progress) in running:
                if self.stalls.is_stalled(family, now - last_progress):
                    with self._running_lock:
                        self._evict_requested.add(job_id)

    def _note_running(self, job_id: str, family: str) -> None:
        with self._running_lock:
            self._running[job_id] = (family, time.monotonic())
            self._evict_requested.discard(job_id)

    def _touch_progress(self, job_id: str) -> None:
        with self._running_lock:
            if job_id in self._running:
                family = self._running[job_id][0]
                self._running[job_id] = (family, time.monotonic())

    def _forget_running(self, job_id: str) -> None:
        with self._running_lock:
            self._running.pop(job_id, None)
            self._evict_requested.discard(job_id)

    def _take_evict_flag(self, job_id: str) -> bool:
        with self._running_lock:
            if job_id in self._evict_requested:
                self._evict_requested.discard(job_id)
                return True
            return False

    def _absorb(self, recorder: Telemetry) -> None:
        with self._telemetry_lock:
            self.telemetry.merge_remote(recorder.export_payload(drain=True))


#: The names of the pod's own job stores: ``job-<digits>``, one per job id.
_JOB_STORE_NAME = re.compile(r"job-[0-9]+")


def _check_store_name(name: str) -> None:
    """Service store references are bare names under ``--store-dir``, never
    paths — a submitted job must not escape the pod's state directory — and
    never a pod job id, whose store the pod deletes when that job ends."""
    if "/" in name or "\\" in name or name in (".", "..") or name.startswith("."):
        raise RequestError(
            f"store {name!r} is not a plain store name; the service resolves "
            "stores under its own --store-dir"
        )
    if _JOB_STORE_NAME.fullmatch(name):
        raise RequestError(
            f"store {name!r} is named like a pod job id; the pod owns and "
            "deletes the stores of its jobs"
        )


#: Largest request body the pod accepts, in bytes.  A longer declared
#: ``Content-Length`` is refused with 413 before any of the body is read.
MAX_REQUEST_BYTES = 1 << 20

#: Seconds a connection may sit idle mid-request (or between keep-alive
#: requests) before the pod drops it, so a client that stops sending
#: cannot hold a server thread forever.
SOCKET_TIMEOUT_SECONDS = 30.0


class _PodHandler(BaseHTTPRequestHandler):
    """Thin socket adapter over :meth:`PodServer.handle`."""

    pod: PodServer  # bound by PodServer.start() on a per-server subclass
    server_version = "repro-pod/1"
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler contract
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._route("POST")

    def _route(self, method: str) -> None:
        path = urlparse(self.path).path
        payload: object = None
        if method == "POST":
            header = self.headers.get("Content-Length", "0").strip()
            if not (header.isascii() and header.isdigit()):
                # the body's extent is unknown, so the connection cannot be
                # reused for another request
                self.close_connection = True
                self._refuse(
                    400, "bad-request", f"Content-Length {header!r} is not a byte count"
                )
                return
            length = int(header)
            if length > MAX_REQUEST_BYTES:
                self.close_connection = True  # the body is left unread
                self._refuse(
                    413,
                    "payload-too-large",
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_REQUEST_BYTES}-byte limit",
                )
                return
            raw = self.rfile.read(length) if length else b""
            if raw:
                try:
                    payload = json.loads(raw.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    self._refuse(400, "bad-request", "request body is not valid JSON")
                    return
        with self.pod.telemetry.span(f"http.{method}", path=path):
            status, body = self.pod.handle(method, path, payload)
        self._respond(status, body)

    def _refuse(self, status: int, code: str, message: str) -> None:
        self._respond(
            status, {"error": {"code": code, "message": message, "retryable": False}}
        )

    def _respond(self, status: int, body: dict) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass  # requests are recorded as telemetry spans, not stderr lines
