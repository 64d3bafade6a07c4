"""Pod server end-to-end: HTTP parity, admission, cancel, crash recovery.

The routing tests drive :meth:`PodServer.handle` socket-free on an
*unstarted* server (no worker threads: submitted jobs stay queued, which
makes queue states deterministic).  The live tests bind a real
:class:`~http.server.ThreadingHTTPServer` on an ephemeral port and talk to
it through :class:`~repro.service.client.ServiceClient` — the same path the
CLI uses.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.benchgen.families import sat_completability_family
from repro.io.serialization import guarded_form_to_dict
from repro.service import (
    AnalysisRequest,
    PodServer,
    ServerConfig,
    ServiceClient,
    request_to_wire,
)
from repro.service.client import ServiceRemoteError
from repro.service.dispatch import result_to_wire, run_analysis
from repro.service.jobs import JobStore

#: Parity-gated fields: the HTTP result must match the library result on
#: these exactly (wire stats also carry non-semantic fields like
#: ``resumed``, which legitimately differ for sliced service runs).
PARITY_FIELDS = ("problem", "decided", "answer", "procedure")
PARITY_STATS = ("states_explored", "transitions", "truncated")


def parity_view(result_wire: dict) -> dict:
    view = {field: result_wire[field] for field in PARITY_FIELDS}
    view.update(
        {key: result_wire["stats"].get(key) for key in PARITY_STATS}
    )
    return view


def wait_until(predicate, timeout=60.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def submit_payload(**overrides) -> dict:
    defaults = {"form": "leave-application-finite", "kind": "completability"}
    defaults.update(overrides)
    return request_to_wire(AnalysisRequest(**defaults))


@pytest.fixture
def idle_pod(tmp_path):
    """An unstarted pod: full routing, durable queue, no workers."""
    server = PodServer(
        ServerConfig(
            store_dir=str(tmp_path / "pod"),
            max_queue=2,
            capacity_kb=1000,
            default_budget_kb=100,
        )
    )
    yield server
    server.jobs.close()


def live_pod(tmp_path, **overrides):
    # each pod gets its own result cache so an ambient REPRO_CACHE (the
    # cached CI leg) cannot leak warm results across tests
    defaults = {
        "store_dir": str(tmp_path / "pod"),
        "port": 0,
        "workers": 2,
        "cache": str(tmp_path / "kv"),
    }
    defaults.update(overrides)
    server = PodServer(ServerConfig(**defaults))
    server.start()
    return server, ServiceClient(f"http://127.0.0.1:{server.port}")


class TestRouting:
    def test_submit_queues(self, idle_pod):
        status, body = idle_pod.handle("POST", "/v1/jobs", submit_payload())
        assert status == 202
        assert body["job"]["state"] == "queued"
        assert body["job"]["job_id"] == "job-000001"

    def test_unknown_route(self, idle_pod):
        status, body = idle_pod.handle("GET", "/v2/nope", None)
        assert status == 404
        assert body["error"]["code"] == "not-found"

    def test_unknown_job(self, idle_pod):
        status, body = idle_pod.handle("GET", "/v1/jobs/job-000042", None)
        assert status == 404
        assert body["error"]["code"] == "unknown-job"

    def test_result_of_live_job_is_not_ready(self, idle_pod):
        idle_pod.handle("POST", "/v1/jobs", submit_payload())
        status, body = idle_pod.handle("GET", "/v1/jobs/job-000001/result", None)
        assert status == 409
        assert body["error"]["code"] == "not-ready"
        assert body["error"]["retryable"] is True

    def test_malformed_request_is_bad_request(self, idle_pod):
        status, body = idle_pod.handle("POST", "/v1/jobs", {"api": "nope"})
        assert status == 400
        assert body["error"]["code"] == "bad-request"

    def test_store_name_may_not_escape_the_pod(self, idle_pod):
        for name in ("../escape", "a/b", ".hidden", "..", "job-000002"):
            payload = submit_payload(store=name)
            status, body = idle_pod.handle("POST", "/v1/jobs", payload)
            assert status == 400, name
            assert body["error"]["code"] == "bad-request"

    def test_never_fitting_budget_rejected_at_submit(self, idle_pod):
        status, body = idle_pod.handle(
            "POST", "/v1/jobs", submit_payload(budget_kb=1001)
        )
        assert status == 429
        assert body["error"]["code"] == "admission-rejected"
        assert body["error"]["retryable"] is True

    def test_queue_full_rejected(self, idle_pod):
        for _ in range(2):
            status, _ = idle_pod.handle(
                "POST", "/v1/jobs", submit_payload(budget_kb=10)
            )
            assert status == 202
        status, body = idle_pod.handle(
            "POST", "/v1/jobs", submit_payload(budget_kb=10)
        )
        assert status == 429
        assert "queue is full" in body["error"]["message"]

    def test_cancel_queued_job(self, idle_pod):
        idle_pod.handle("POST", "/v1/jobs", submit_payload())
        status, body = idle_pod.handle("POST", "/v1/jobs/job-000001/cancel", None)
        assert status == 200
        assert body["job"]["state"] == "cancelled"
        status, body = idle_pod.handle("GET", "/v1/jobs/job-000001/result", None)
        assert status == 410
        assert body["error"]["code"] == "cancelled"

    def test_listing_and_health(self, idle_pod):
        idle_pod.handle("POST", "/v1/jobs", submit_payload())
        status, body = idle_pod.handle("GET", "/v1/jobs", None)
        assert status == 200
        assert [job["job_id"] for job in body["jobs"]] == ["job-000001"]
        status, body = idle_pod.handle("GET", "/healthz", None)
        assert status == 200
        assert body["ok"] is True
        assert body["jobs"]["queued"] == 1
        assert body["admittable_kb"] == 1000


class TestEvictionBookkeeping:
    def test_evictions_requeue_then_fail(self, tmp_path):
        server = PodServer(
            ServerConfig(store_dir=str(tmp_path / "pod"), max_evictions=1)
        )
        try:
            server.handle("POST", "/v1/jobs", submit_payload())
            server.jobs.claim_next()
            server._evict("job-000001", "completability:x")
            record = server.jobs.get("job-000001")
            assert record.state == "queued"
            assert record.evictions == 1
            server.jobs.claim_next()
            server._evict("job-000001", "completability:x")
            record = server.jobs.get("job-000001")
            assert record.state == "failed"
            assert record.error["error"]["code"] == "evicted"
            assert record.error["error"]["retryable"] is True
        finally:
            server.jobs.close()


class TestLiveServer:
    def test_http_result_matches_library_call(self, tmp_path):
        server, client = live_pod(tmp_path)
        try:
            request = AnalysisRequest(
                form="leave-application-finite", kind="completability"
            )
            job = client.submit(request)
            final = client.wait(job["job_id"])
            assert final["state"] == "done"
            via_http = client.result(job["job_id"])
            via_library = result_to_wire(run_analysis(request))
            assert parity_view(via_http) == parity_view(via_library)
            assert via_http["answer"] is True
            assert via_http["stats"]["states_explored"] == 29
            assert via_http["stats"]["transitions"] == 94
        finally:
            server.shutdown()

    def test_concurrent_submissions_all_converge(self, tmp_path):
        server, client = live_pod(tmp_path)
        expectations = {
            "leave-application-finite": True,
            "leave-application-incompletable": False,
            "tax-declaration": True,
            "bench-positive-chain": True,
        }
        try:
            jobs = {
                name: client.submit(AnalysisRequest(form=name, kind="completability"))
                for name in expectations
            }
            for name, job in jobs.items():
                final = client.wait(job["job_id"])
                assert final["state"] == "done", name
                assert client.result(job["job_id"])["answer"] is expectations[name]
        finally:
            server.shutdown()

    def test_two_over_capacity_jobs_are_never_both_resident(self, tmp_path):
        # two workers, but 600 + 600 > 1000: admission must serialise them
        server, client = live_pod(
            tmp_path, workers=2, capacity_kb=1000, slice_steps=50
        )
        try:
            request = AnalysisRequest(
                form="leave-application",
                kind="completability",
                max_states=300,
                budget_kb=600,
            )
            first = client.submit(request)
            second = client.submit(request)
            ids = (first["job_id"], second["job_id"])
            overlap = []

            def finished():
                states = {job_id: server.jobs.get(job_id).state for job_id in ids}
                if list(states.values()).count("running") > 1:
                    overlap.append(states)
                return all(state == "done" for state in states.values())

            assert wait_until(finished, interval=0.002)
            assert not overlap, f"both jobs resident: {overlap}"
            assert server.jobs.admitted_budget_kb() == 0
            results = [client.result(job_id) for job_id in ids]
            assert parity_view(results[0]) == parity_view(results[1])
        finally:
            server.shutdown()

    def test_cooperative_cancel_of_running_job(self, tmp_path):
        server, client = live_pod(tmp_path, workers=1, slice_steps=25)
        try:
            job = client.submit(
                AnalysisRequest(
                    form="leave-application", kind="completability", max_states=5000
                )
            )
            job_id = job["job_id"]
            assert wait_until(
                lambda: server.jobs.get(job_id).state == "running"
                and server.jobs.get(job_id).states_explored > 0
            )
            client.cancel(job_id)
            assert wait_until(lambda: server.jobs.get(job_id).state == "cancelled")
            with pytest.raises(ServiceRemoteError) as info:
                client.result(job_id)
            assert info.value.code == "cancelled"
            assert info.value.http_status == 410
        finally:
            server.shutdown()

    def test_cooperative_cancel_of_running_depth1_job(self, tmp_path):
        # a 4096-state canonical search in 25-state slices: the pod sees
        # its progress between slices and cancels it there
        form, _cnf = sat_completability_family(12, clause_ratio=4.3, seed=3)
        server, client = live_pod(tmp_path, workers=1, slice_steps=25)
        try:
            job = client.submit(
                AnalysisRequest(form=guarded_form_to_dict(form), kind="completability")
            )
            job_id = job["job_id"]
            assert wait_until(
                lambda: server.jobs.get(job_id).state == "running"
                and server.jobs.get(job_id).states_explored > 0
            )
            client.cancel(job_id)
            assert wait_until(lambda: server.jobs.get(job_id).state == "cancelled")
            assert server.jobs.get(job_id).states_explored < 2**12
            with pytest.raises(ServiceRemoteError) as info:
                client.result(job_id)
            assert info.value.code == "cancelled"
        finally:
            server.shutdown()

    def test_failed_job_result_carries_taxonomy_error(self, tmp_path):
        server, client = live_pod(tmp_path)
        try:
            # the strategy check fires inside the worker, not at submission
            job = client.submit(
                AnalysisRequest(
                    form="leave-application-finite",
                    kind="workflow",
                    strategy="bounded",
                )
            )
            final = client.wait(job["job_id"])
            assert final["state"] == "failed"
            with pytest.raises(ServiceRemoteError) as info:
                client.result(job["job_id"])
            assert info.value.code == "bad-request"
            assert info.value.http_status == 400
        finally:
            server.shutdown()

    def test_malformed_inline_form_fails_its_job_and_the_worker_goes_on(self, tmp_path):
        """With a result cache the worker resolves the form to key the
        probe; a form that does not decode fails that job with its typed
        error, and the same worker then runs the next job."""
        server, client = live_pod(tmp_path, workers=1)
        try:
            form = guarded_form_to_dict(sat_completability_family(3, seed=1)[0])
            form["completion"] = "((("
            bad = client.submit(AnalysisRequest(form=form, kind="completability"))
            assert client.wait(bad["job_id"], timeout=30)["state"] == "failed"
            with pytest.raises(ServiceRemoteError) as info:
                client.result(bad["job_id"])
            assert info.value.code == "malformed-form"
            good = client.submit(
                AnalysisRequest(form="leave-application-finite", kind="completability")
            )
            assert client.wait(good["job_id"], timeout=30)["state"] == "done"
        finally:
            server.shutdown()

    def test_graceful_restart_resumes_and_converges(self, tmp_path):
        request = AnalysisRequest(
            form="leave-application", kind="completability", max_states=400
        )
        server, client = live_pod(tmp_path, workers=1, slice_steps=50)
        job_id = None
        try:
            job_id = client.submit(request)["job_id"]
            assert wait_until(
                lambda: server.jobs.get(job_id).states_explored > 0, interval=0.002
            )
        finally:
            server.shutdown()  # workers requeue at the slice boundary
        interrupted = JobStore(Path(tmp_path / "pod") / "jobs.sqlite")
        try:
            record = interrupted.get(job_id)
            assert record.state == "queued"
            assert 0 < record.states_explored < 400
        finally:
            interrupted.close()
        server, client = live_pod(tmp_path, workers=1, slice_steps=50)
        try:
            final = client.wait(job_id)
            assert final["state"] == "done"
            resumed = client.result(job_id)
            fresh = result_to_wire(run_analysis(request))
            assert parity_view(resumed) == parity_view(fresh)
            assert resumed["stats"]["states_explored"] == 400
        finally:
            server.shutdown()

    def test_metricsz_exports_job_telemetry(self, tmp_path):
        server, client = live_pod(tmp_path, workers=1, slice_steps=10)
        try:
            job = client.submit(
                AnalysisRequest(
                    form="leave-application-finite", kind="completability"
                )
            )
            client.wait(job["job_id"])
            payload = client.metrics()
            metrics = payload["metrics"]
            names = set(metrics)
            assert any(name.startswith("service.jobs.submitted") for name in names)
            assert any(name.startswith("service.jobs.done") for name in names)
            # worker-recorder slices were absorbed into the server view
            assert any(name.startswith("service.job.slices") for name in names)
            assert payload["jobs"]["done"] == 1
            assert "completability:leave-application-finite" in payload[
                "stall_families"
            ]
            memo = payload["form_memo"]
            assert set(memo) == {"hits", "misses", "entries", "capacity"}
            assert 0 <= memo["entries"] <= memo["capacity"]
            # an inline form is decoded once; its repeat is a memo hit
            inline = guarded_form_to_dict(sat_completability_family(3, seed=2)[0])
            for _ in range(2):
                job = client.submit(AnalysisRequest(form=inline, kind="completability"))
                client.wait(job["job_id"])
            after = client.metrics()["form_memo"]
            assert after["misses"] - memo["misses"] <= 1
            assert after["hits"] > memo["hits"]
            health = client.health()
            assert health["ok"] is True
        finally:
            server.shutdown()


class TestCrashRecovery:
    """kill -9 a real ``repro serve`` process mid-job; a restart converges."""

    def test_killed_server_recovers_on_restart(self, tmp_path):
        store_dir = tmp_path / "pod"
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--store-dir",
                str(store_dir),
                "--port",
                "0",
                "--job-workers",
                "1",
                "--slice-steps",
                "40",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "pod server listening on http://" in banner
            port = int(banner.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            client = ServiceClient(f"http://127.0.0.1:{port}")
            request = AnalysisRequest(
                form="leave-application", kind="completability", max_states=600
            )
            job_id = client.submit(request)["job_id"]
            assert wait_until(
                lambda: client.status(job_id)["states_explored"] > 0, interval=0.01
            )
        finally:
            proc.kill()  # SIGKILL: no slice boundary, no graceful requeue
            proc.wait(timeout=10)
        server, client = live_pod(
            tmp_path, workers=1, slice_steps=40, store_dir=str(store_dir)
        )
        try:
            # the dead server left the job 'running'; recovery re-queued it
            assert server.jobs.get(job_id).state in ("queued", "running", "done")
            final = client.wait(job_id)
            assert final["state"] == "done"
            recovered = client.result(job_id)
            fresh = result_to_wire(run_analysis(request))
            assert parity_view(recovered) == parity_view(fresh)
            assert recovered["stats"]["states_explored"] == 600
        finally:
            server.shutdown()


def job_store_files(store_dir) -> "list[str]":
    return sorted(path.name for path in Path(store_dir).glob("*.store.sqlite*"))


class TestJobStoreLifecycle:
    """The pod deletes the engine stores it named once their jobs end; it
    keeps caller-named stores and the stores of requeued jobs."""

    def test_finished_jobs_leave_no_job_stores(self, tmp_path):
        server, client = live_pod(tmp_path, workers=2, slice_steps=10)
        try:
            # distinct requests, so none is answered from the result cache
            # without running (and opening its store)
            jobs = [
                client.submit(
                    AnalysisRequest(
                        form="leave-application-finite",
                        kind="completability",
                        max_states=100 + index,
                    )
                )
                for index in range(20)
            ]
            for job in jobs:
                assert client.wait(job["job_id"])["state"] == "done"
        finally:
            server.shutdown()
        assert job_store_files(tmp_path / "pod") == []

    def test_caller_named_store_survives_and_resumes(self, tmp_path):
        request = AnalysisRequest(
            form="leave-application",
            kind="completability",
            max_states=400,
            store="kept",
        )
        server, client = live_pod(tmp_path, workers=1, slice_steps=50)
        try:
            first = client.submit(request)
            assert client.wait(first["job_id"])["state"] == "done"
            assert "kept.store.sqlite" in job_store_files(tmp_path / "pod")
            again = client.submit(request.replace(resume=True))
            assert client.wait(again["job_id"])["state"] == "done"
            resumed = client.result(again["job_id"])
        finally:
            server.shutdown()
        fresh = result_to_wire(run_analysis(request.replace(store=None)))
        assert parity_view(resumed) == parity_view(fresh)
        assert resumed["stats"]["resumed"] is True
        assert resumed["stats"]["engine"]["store_rows_read"] > 0
        assert "kept.store.sqlite" in job_store_files(tmp_path / "pod")

    def test_evicted_job_keeps_its_store_and_converges(self, tmp_path):
        request = AnalysisRequest(
            form="leave-application", kind="completability", max_states=400
        )
        server = PodServer(
            ServerConfig(
                store_dir=str(tmp_path / "pod"),
                slice_steps=50,
                cache=str(tmp_path / "kv"),
            )
        )
        evicted = []
        touch = server._touch_progress

        def touch_then_evict(job_id):
            # stall-evict the job after its first slice, as the watchdog would
            touch(job_id)
            if not evicted:
                evicted.append(job_id)
                server._evict_requested.add(job_id)

        server._touch_progress = touch_then_evict
        try:
            job_id = server.handle("POST", "/v1/jobs", request_to_wire(request))[1][
                "job"
            ]["job_id"]
            server._run_job(server.jobs.claim_next(), "test")
            record = server.jobs.get(job_id)
            assert (record.state, record.evictions) == ("queued", 1)
            assert 0 < record.states_explored < 400
            assert job_store_files(tmp_path / "pod") != []
            server._run_job(server.jobs.claim_next(), "test")
            record = server.jobs.get(job_id)
            assert record.state == "done"
        finally:
            server.jobs.close()
        fresh = result_to_wire(run_analysis(request))
        assert parity_view(record.result) == parity_view(fresh)
        assert record.result["stats"]["states_explored"] == 400
        assert job_store_files(tmp_path / "pod") == []

    def test_startup_removes_orphaned_stores_of_terminal_jobs(self, tmp_path):
        store_dir = tmp_path / "pod"
        store_dir.mkdir()
        jobs = JobStore(store_dir / "jobs.sqlite")
        try:
            done = jobs.submit(submit_payload(), 100).job_id
            jobs.claim_next()
            jobs.finish(done, {"answer": True})
            named = jobs.submit(submit_payload(store="mine"), 100).job_id
            jobs.claim_next()
            jobs.finish(named, {"answer": True})
            queued = jobs.submit(submit_payload(), 100).job_id
        finally:
            jobs.close()
        for name in (done, queued, "mine"):
            for suffix in ("", "-wal", "-shm"):
                (store_dir / f"{name}.store.sqlite{suffix}").write_bytes(b"")
        server = PodServer(ServerConfig(store_dir=str(store_dir)))
        server.jobs.close()
        assert job_store_files(store_dir) == sorted(
            f"{name}.store.sqlite{suffix}"
            for name in (queued, "mine")
            for suffix in ("", "-wal", "-shm")
        )
