"""The service core: ``(method, path, body) -> response``.

Every endpoint lives here, behind one :meth:`ServerCore.handle` entry, so the
stdlib HTTP front-end (:mod:`repro.server.app`) is a thin byte-pipe and the
full endpoint surface is testable without sockets.

Endpoints::

    GET  /healthz                      liveness + store/queue counters
    GET  /workers                      `repro workers status` as JSON
    POST /sweeps                       validated spec -> job id (deduplicated)
    GET  /jobs/{id}                    lifecycle state + shard-level progress
    GET  /jobs/{id}/report             report bytes == `repro report --json`
    GET  /artifacts                    content-addressed store index
    GET  /artifacts/{kind}/{fp}        one raw store artifact (wrapper JSON)

Responses are JSON; report and artifact bodies are served as the exact bytes
the store holds (no re-serialization — byte-identity is the contract).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from ..parallel import collect_workers_status
from ..store import HEARTBEAT_STALE_S, ExperimentStore
from .config import ServerConfig
from .queue import Job, JobQueue, JobState
from .ratelimit import RateLimiter
from .schemas import SweepSpecError, parse_sweep_spec

__all__ = ["Response", "ServerCore"]

#: Request bodies past this size are rejected before JSON decoding.
MAX_BODY_BYTES = 64 * 1024


@dataclass
class Response:
    """One HTTP response."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)


def _json_response(status: int, document: Any) -> Response:
    return Response(
        status=status,
        body=(json.dumps(document, indent=2) + "\n").encode("utf-8"),
    )


def _error(status: int, message: str, **extra: Any) -> Response:
    return _json_response(status, {"error": message, **extra})


class ServerCore:
    """The experiment service's routes over one store, queue and limiter."""

    def __init__(
        self,
        store: ExperimentStore,
        config: Optional[ServerConfig] = None,
        queue: Optional[JobQueue] = None,
        limiter: Optional[RateLimiter] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.store = store
        self.config = config or ServerConfig()
        self.clock = clock
        self.queue = queue or JobQueue(store, self.config, clock=clock)
        self.limiter = limiter or RateLimiter(
            self.config.rate_limit, self.config.rate_burst, clock=clock
        )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle(
        self, method: str, path: str, body: Optional[bytes] = None, client: str = "-"
    ) -> Response:
        """Route one request; never raises — every failure is a JSON error."""
        method = method.upper()
        parts = [part for part in path.split("/") if part]
        try:
            if parts == ["healthz"] and method == "GET":
                return self._healthz()
            if parts == ["workers"] and method == "GET":
                return self._workers()
            if parts == ["sweeps"] and method == "POST":
                return self._post_sweep(body, client)
            if len(parts) == 2 and parts[0] == "jobs" and method == "GET":
                return self._job_status(parts[1])
            if (
                len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] == "report"
                and method == "GET"
            ):
                return self._job_report(parts[1])
            if parts == ["artifacts"] and method == "GET":
                return self._artifact_index()
            if len(parts) >= 3 and parts[0] == "artifacts" and method == "GET":
                return self._artifact(parts[1:-1], parts[-1])
            return _error(404, f"no route for {method} {path}")
        except Exception as error:  # pragma: no cover - defensive backstop
            return _error(500, f"{type(error).__name__}: {error}")

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def _healthz(self) -> Response:
        jobs = self.queue.jobs()
        states = {state.value: 0 for state in JobState}
        for job in jobs:
            states[job.state.value] += 1
        return _json_response(
            200,
            {
                "status": "ok",
                "store": str(self.store.root),
                "jobs": states,
                "config": {
                    "job_workers": self.config.job_workers,
                    "max_concurrent_jobs": self.config.max_concurrent_jobs,
                    "rate_limit_per_minute": self.config.rate_limit,
                },
            },
        )

    def _workers(self) -> Response:
        statuses = collect_workers_status(self.store)
        now = self.clock()
        return _json_response(
            200,
            {
                "namespaces": [
                    {
                        "namespace": status.namespace,
                        "plan": status.plan,
                        "nshards": status.nshards,
                        "shards_done": status.done,
                        "leases": [
                            {
                                "shard": shard,
                                "owner": info.owner if info else None,
                                "age": round(now - info.acquired, 3) if info else None,
                                "torn": info is None,
                            }
                            for shard, info in status.leases
                        ],
                        "heartbeats": [
                            {
                                "owner": beat.owner,
                                "age": round(beat.age(now), 3),
                                "stale": beat.age(now) > HEARTBEAT_STALE_S,
                                "info": beat.info,
                            }
                            for beat in status.heartbeats
                        ],
                    }
                    for status in statuses
                ]
            },
        )

    def _post_sweep(self, body: Optional[bytes], client: str) -> Response:
        allowed, retry_after = self.limiter.check(client)
        if not allowed:
            response = _error(
                429, "sweep submission rate limit exceeded", retry_after=retry_after
            )
            response.headers["Retry-After"] = str(max(1, int(retry_after + 0.999)))
            return response
        if body and len(body) > MAX_BODY_BYTES:
            return _error(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError) as error:
            return _error(400, f"request body is not valid JSON: {error}")
        try:
            spec = parse_sweep_spec(payload, self.config)
        except SweepSpecError as error:
            return _error(400, str(error))
        job, created = self.queue.submit(spec)
        return _json_response(
            202 if created else 200, self._job_document(job, created=created)
        )

    def _job_status(self, job_id: str) -> Response:
        job = self.queue.get(job_id)
        if job is None:
            return _error(404, f"unknown job {job_id!r}")
        return _json_response(200, self._job_document(job))

    def _job_report(self, job_id: str) -> Response:
        job = self.queue.get(job_id)
        if job is None:
            return _error(404, f"unknown job {job_id!r}")
        if job.state is JobState.FAILED:
            return _error(409, f"job {job_id} failed: {job.error}")
        report = self.queue.report_bytes(job_id)
        if report is None:
            return _error(
                409,
                f"job {job_id} is {job.state.value}; poll GET /jobs/{job_id} "
                "until it is done",
            )
        return Response(status=200, body=report)

    def _artifact_index(self) -> Response:
        entries = self.store.ls()
        return _json_response(
            200,
            {
                "store": str(self.store.root),
                "artifacts": [
                    {
                        "kind": entry.kind,
                        "fingerprint": entry.fingerprint,
                        "size_bytes": entry.size_bytes,
                        "stale": entry.stale,
                    }
                    for entry in entries
                ],
            },
        )

    def _artifact(self, kind_parts: Tuple[str, ...], fingerprint: str) -> Response:
        """One raw artifact byte-for-byte as the store holds it.

        ``kind`` may span path segments (``table1/row``); the fingerprint is
        the final segment.  The store's own path sanitizer builds the path,
        so traversal attempts collapse to harmless token characters.
        """
        kind = "/".join(kind_parts)
        token = fingerprint.removesuffix(".json")
        try:
            raw = self.store.path_for(kind, token).read_bytes()
        except OSError:
            return _error(404, f"no artifact {kind}/{token}")
        return Response(status=200, body=raw, content_type="application/json")

    # ------------------------------------------------------------------
    # Documents
    # ------------------------------------------------------------------
    def _job_document(self, job: Job, created: Optional[bool] = None) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "job": job.id,
            "status": job.state.value,
            "spec": {
                "experiments": list(job.spec.experiments),
                "arrays": list(job.spec.arrays) if job.spec.arrays else None,
                "trials": job.spec.trials,
                "backend": job.spec.backend,
                "workers": job.spec.workers,
            },
            "launches": job.launches,
            "created": job.created,
            "started": job.started,
            "finished": job.finished,
        }
        if created is not None:
            document["deduplicated"] = not created
        if job.error is not None:
            document["error"] = job.error
        if job.state is JobState.DONE:
            document["report"] = f"/jobs/{job.id}/report"
        progress = self.queue.progress(job)
        if progress is not None:
            document["progress"] = progress
        return document
