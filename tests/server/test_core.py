"""ServerCore routing, job lifecycle, rate limiting and artifact serving.

Everything here drives :meth:`ServerCore.handle` directly — no sockets, no
framework — which is the point of the framework-agnostic core: the full
endpoint surface is testable in dependency-free environments.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

import repro.server.queue as queue_module
from repro.backend import active_backend, using_backend
from repro.server import JobState, RateLimiter, ServerConfig, ServerCore
from repro.server.schemas import parse_sweep_spec, spec_fingerprint
from repro.store import ExperimentStore, LeaseBoard


@pytest.fixture
def store(tmp_path):
    return ExperimentStore(tmp_path / "store")


@pytest.fixture
def config():
    # workers=1 keeps unit-level jobs in-process; rate limiting off by
    # default (the dedicated tests below bring their own limiter).
    return ServerConfig(job_workers=1, rate_limit=0)


@pytest.fixture
def core(store, config):
    core = ServerCore(store, config)
    yield core
    core.queue.close(wait=True)


def decode(response):
    return json.loads(response.body.decode("utf-8"))


def wait_done(core, job_id, timeout=120.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        job = core.queue.get(job_id)
        if job.state in (JobState.DONE, JobState.FAILED):
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


class TestRouting:
    def test_healthz_reports_store_and_job_counts(self, core):
        response = core.handle("GET", "/healthz")
        assert response.status == 200
        document = decode(response)
        assert document["status"] == "ok"
        assert document["jobs"] == {"queued": 0, "running": 0, "done": 0, "failed": 0}

    def test_unknown_route_is_a_json_404(self, core):
        response = core.handle("GET", "/nope")
        assert response.status == 404
        assert "no route" in decode(response)["error"]

    def test_wrong_method_is_a_404(self, core):
        assert core.handle("POST", "/healthz").status == 404
        assert core.handle("GET", "/sweeps").status == 404

    def test_invalid_json_body_is_a_400(self, core):
        response = core.handle("POST", "/sweeps", b"{not json")
        assert response.status == 400
        assert "not valid JSON" in decode(response)["error"]

    def test_invalid_spec_is_a_400_with_the_validation_message(self, core):
        response = core.handle("POST", "/sweeps", b'{"experiments": ["nope"]}')
        assert response.status == 400
        assert "unknown experiment" in decode(response)["error"]

    def test_oversized_body_is_rejected(self, core):
        response = core.handle("POST", "/sweeps", b" " * (65 * 1024))
        assert response.status == 413

    def test_unavailable_backend_is_a_400_with_the_install_hint(self, core, without_numba):
        """A sweep naming an uninstalled optional backend is a client error
        carrying the pip extra — never a job accepted only to fail later."""
        response = core.handle("POST", "/sweeps", b'{"backend": "compiled"}')
        assert response.status == 400
        error = decode(response)["error"]
        assert "unavailable" in error and "repro[compiled]" in error
        document = decode(core.handle("GET", "/healthz"))
        assert document["jobs"]["queued"] == 0 and document["jobs"]["running"] == 0

    def test_unknown_job_is_a_404(self, core):
        assert core.handle("GET", "/jobs/deadbeef").status == 404
        assert core.handle("GET", "/jobs/deadbeef/report").status == 404


class TestJobLifecycle:
    SPEC = b'{"experiments": ["table1"], "workers": 1}'

    def test_post_runs_the_job_and_serves_the_report(self, core):
        response = core.handle("POST", "/sweeps", self.SPEC)
        assert response.status == 202
        document = decode(response)
        job_id = document["job"]
        assert document["deduplicated"] is False
        wait_done(core, job_id)
        status = decode(core.handle("GET", f"/jobs/{job_id}"))
        assert status["status"] == "done"
        assert status["launches"] == 1
        report = core.handle("GET", f"/jobs/{job_id}/report")
        assert report.status == 200
        body = json.loads(report.body.decode("utf-8"))
        assert "table1" in body["experiments"]

    def test_duplicate_post_dedupes_to_the_same_job(self, core):
        first = decode(core.handle("POST", "/sweeps", self.SPEC))
        wait_done(core, first["job"])
        second = core.handle("POST", "/sweeps", self.SPEC)
        assert second.status == 200
        document = decode(second)
        assert document["job"] == first["job"]
        assert document["deduplicated"] is True
        assert document["launches"] == 1

    def test_report_before_completion_is_a_409(self, core, store, config):
        # A hand-planted queued job: the report endpoint must refuse, not 500.
        from repro.server.schemas import parse_sweep_spec, spec_fingerprint
        from repro.server.queue import Job

        spec = parse_sweep_spec({"experiments": ["table1"]}, config)
        job = Job(
            id=spec_fingerprint(spec), spec=spec, state=JobState.QUEUED, created=0.0
        )
        core.queue._jobs[job.id] = job
        response = core.handle("GET", f"/jobs/{job.id}/report")
        assert response.status == 409
        assert "poll" in decode(response)["error"]

    def test_failed_job_surfaces_the_error_and_relaunches_on_resubmit(
        self, core, monkeypatch
    ):
        calls = []

        def explode(spec, store):
            calls.append(spec)
            raise RuntimeError("boom")

        # _run resolves execute_sweep as a queue-module global at call time,
        # so patching the module attribute reroutes every launch.
        monkeypatch.setattr(queue_module, "execute_sweep", explode)
        document = decode(core.handle("POST", "/sweeps", self.SPEC))
        job = wait_done(core, document["job"])
        assert job.state is JobState.FAILED
        assert "boom" in job.error
        assert core.handle("GET", f"/jobs/{job.id}/report").status == 409
        # Resubmitting a failed spec relaunches instead of caching the fault.
        retry = decode(core.handle("POST", "/sweeps", self.SPEC))
        assert retry["job"] == job.id
        wait_done(core, job.id)
        assert len(calls) == 2

    @pytest.mark.parametrize("workers, nshards", [(1, None), (2, 8)])
    def test_only_a_parallel_job_reports_shard_progress(
        self, core, monkeypatch, workers, nshards
    ):
        """A serial job leases no shards, so its document carries no progress."""
        started, release = threading.Event(), threading.Event()

        def hold(spec, store):
            started.set()
            release.wait(timeout=60)
            return "{}\n"

        monkeypatch.setattr(queue_module, "execute_sweep", hold)
        spec = json.dumps({"experiments": ["table1"], "workers": workers}).encode()
        job_id = decode(core.handle("POST", "/sweeps", spec))["job"]
        try:
            assert started.wait(timeout=60)
            running = decode(core.handle("GET", f"/jobs/{job_id}"))
        finally:
            release.set()
        wait_done(core, job_id)
        done = decode(core.handle("GET", f"/jobs/{job_id}"))
        assert running["status"] == "running" and done["status"] == "done"
        assert running.get("progress", {}).get("nshards") == nshards
        assert done.get("progress", {}).get("nshards") == nshards

    def test_restarted_service_recognizes_a_stored_report(self, store, config):
        core = ServerCore(store, config)
        try:
            document = decode(core.handle("POST", "/sweeps", self.SPEC))
            wait_done(core, document["job"])
        finally:
            core.queue.close(wait=True)
        reborn = ServerCore(store, config)
        try:
            again = decode(reborn.handle("POST", "/sweeps", self.SPEC))
            assert again["job"] == document["job"]
            assert again["status"] == "done"
            assert again["launches"] == 0  # never launched: the store had it
            report = reborn.handle("GET", f"/jobs/{document['job']}/report")
            assert report.status == 200
        finally:
            reborn.queue.close(wait=True)


class TestJobBackends:
    """Each job's backend scope stays in its own thread."""

    @staticmethod
    def post(core, payload):
        return decode(core.handle("POST", "/sweeps", json.dumps(payload).encode()))

    def test_running_job_backend_does_not_leak_into_request_parsing(
        self, core, config, monkeypatch
    ):
        """A spec with no backend parses under the default while a numpy32
        job holds its scope, so it gets the job id it gets when idle."""
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        started, release = threading.Event(), threading.Event()

        def hold_scope(spec, store):
            with using_backend(spec.backend):
                started.set()
                release.wait(timeout=60)
            return "{}\n"

        monkeypatch.setattr(queue_module, "execute_sweep", hold_scope)
        payload = {"experiments": ["fig8"], "workers": 1}
        idle_id = spec_fingerprint(parse_sweep_spec(payload, config))
        try:
            self.post(core, {"experiments": ["table1"], "backend": "numpy32", "workers": 1})
            assert started.wait(timeout=60)
            document = self.post(core, payload)
        finally:
            release.set()
        assert document["job"] == idle_id
        assert core.queue.get(idle_id).spec.backend == "numpy64"

    def test_jobs_on_different_backends_overlap(self, store, monkeypatch):
        """Two jobs naming different backends run at the same time, each
        under its own backend."""
        barrier = threading.Barrier(2, timeout=10)
        seen = {}

        def meet_inside_scope(spec, store):
            with using_backend(spec.backend):
                barrier.wait()  # both jobs are inside their scopes
                seen[spec.backend] = active_backend().name
            return "{}\n"

        monkeypatch.setattr(queue_module, "execute_sweep", meet_inside_scope)
        core = ServerCore(store, ServerConfig(job_workers=1, rate_limit=0, max_concurrent_jobs=2))
        try:
            ids = [
                self.post(core, {"experiments": ["table1"], "backend": name, "workers": 1})["job"]
                for name in ("numpy64", "numpy32")
            ]
            jobs = [wait_done(core, job_id) for job_id in ids]
        finally:
            core.queue.close(wait=True)
        assert [job.state for job in jobs] == [JobState.DONE, JobState.DONE], [j.error for j in jobs]
        assert seen == {"numpy64": "numpy64", "numpy32": "numpy32"}


class TestJobNamespace:
    @pytest.mark.parametrize(
        "payload",
        [
            {"workers": 2},
            {"workers": 2, "arrays": [32], "trials": 2},
            {"workers": 2, "experiments": ["fig6", "robustness"], "arrays": [64], "trials": 3},
            {"workers": 2, "backend": "numpy32"},
        ],
        ids=["full-suite", "arrays", "subset", "numpy32-full-suite"],
    )
    def test_job_namespace_is_the_namespace_the_run_leases_under(
        self, payload, store, monkeypatch
    ):
        """GET /jobs/{id} reads shard progress from ``job_namespace(spec)``;
        the run itself must lease under that very namespace."""
        import repro.parallel as parallel_module

        class Captured(Exception):
            pass

        computed = []
        plan_namespace = parallel_module.plan_namespace

        def capture(*args, **kwargs):
            computed.append(plan_namespace(*args, **kwargs))
            raise Captured  # stop before any worker spawns

        monkeypatch.setattr(parallel_module, "plan_namespace", capture)
        spec = parse_sweep_spec(payload)
        with pytest.raises(Captured):
            queue_module.execute_sweep(spec, store)
        assert computed == [queue_module.job_namespace(spec)[0]]


class TestRateLimit:
    def test_third_burst_request_is_a_429_with_retry_after(self, store):
        config = ServerConfig(job_workers=1, rate_limit=60, rate_burst=2)
        clock = [1000.0]
        limiter = RateLimiter(60, 2, clock=lambda: clock[0])
        core = ServerCore(store, config, limiter=limiter)
        try:
            # Invalid bodies still spend tokens (cheap rejection is the point),
            # so no actual sweep ever launches in this test.
            assert core.handle("POST", "/sweeps", b"{bad", client="a").status == 400
            assert core.handle("POST", "/sweeps", b"{bad", client="a").status == 400
            limited = core.handle("POST", "/sweeps", b"{bad", client="a")
            assert limited.status == 429
            assert int(limited.headers["Retry-After"]) >= 1
            # Another client is unaffected; the same client recovers with time.
            assert core.handle("POST", "/sweeps", b"{bad", client="b").status == 400
            clock[0] += 2.0
            assert core.handle("POST", "/sweeps", b"{bad", client="a").status == 400
        finally:
            core.queue.close(wait=True)


class TestArtifacts:
    def test_index_and_fetch_round_trip(self, core, store):
        store.put("table1/row", "ab" * 16, {"value": 7})
        index = decode(core.handle("GET", "/artifacts"))
        assert len(index["artifacts"]) == 1
        entry = index["artifacts"][0]
        assert entry["kind"] == "table1/row"
        response = core.handle(
            "GET", f"/artifacts/{entry['kind']}/{entry['fingerprint']}"
        )
        assert response.status == 200
        wrapper = json.loads(response.body.decode("utf-8"))
        assert wrapper["payload"] == {"value": 7}
        assert wrapper["checksum"]

    def test_unknown_artifact_is_a_404(self, core):
        assert core.handle("GET", "/artifacts/table1/row/none").status == 404

    def test_traversal_attempts_collapse_to_misses(self, core):
        response = core.handle("GET", "/artifacts/../../etc/passwd")
        assert response.status == 404


class TestWorkersEndpoint:
    def test_namespace_state_is_rendered_as_json(self, core, store):
        board = LeaseBoard(store.root, "ns-http")
        board.claim(3, "worker-a")
        board.mark_done(1, "worker-a")
        board.beat("worker-a", computed=5)
        document = decode(core.handle("GET", "/workers"))
        namespace = document["namespaces"][0]
        assert namespace["namespace"] == "ns-http"
        assert namespace["shards_done"] == [1]
        [lease] = namespace["leases"]
        assert lease["shard"] == 3 and lease["owner"] == "worker-a"
        assert 0.0 <= lease["age"] < 60.0 and lease["torn"] is False
        assert namespace["heartbeats"][0]["owner"] == "worker-a"
        assert namespace["heartbeats"][0]["stale"] is False
