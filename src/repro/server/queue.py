"""Async job queue: one deduplicated sweep computation per canonical spec.

``submit`` keys every job by its spec fingerprint, so any number of clients
posting the same sweep share one :class:`Job` — the first submission
schedules the computation on a bounded thread pool (each job then fans out
into worker *processes* via :func:`repro.parallel.run_experiments_parallel`
when its spec asks for ``workers > 1``), later submissions just read the
same job.  The finished report text is persisted in the content-addressed
store under the job id, which buys two properties for free:

* ``GET /jobs/{id}/report`` is a store read — byte-identical across
  requests, across jobs, and across service restarts sharing the store;
* a restarted service (or a second service instance on the same store)
  recognizes an already-computed spec at submission time and marks the job
  done without launching anything.

Jobs overlap whatever execution backend they name: each job opens its own
``using_backend`` scope in its own thread, and scopes are per-thread, so
neither another job nor a concurrent request parse sees it.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..engine.sweep import run_experiments
from ..experiments.runner import ExperimentSuite, results_to_json, suite_overrides
from ..parallel import collect_workers_status, default_shard_count, plan_namespace
from ..store import HEARTBEAT_STALE_S, ExperimentStore
from .config import ServerConfig
from .schemas import SweepSpec, spec_fingerprint

__all__ = ["REPORT_KIND", "Job", "JobState", "JobQueue", "execute_sweep"]

#: Store artifact kind the finished report text is persisted under.
REPORT_KIND = "server/report"


class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass
class Job:
    """One deduplicated sweep computation and its lifecycle record."""

    id: str
    spec: SweepSpec
    state: JobState
    created: float
    started: Optional[float] = None
    finished: Optional[float] = None
    error: Optional[str] = None
    #: Lease namespace of the parallel run (shard-level progress source).
    namespace: Optional[str] = None
    nshards: Optional[int] = None
    #: How many times the computation actually launched — the dedup proof:
    #: N submissions of one spec must leave this at 1 (0 when the store
    #: already held the report).
    launches: int = 0


def job_namespace(spec: SweepSpec) -> Tuple[str, int]:
    """The lease namespace and shard count the spec's parallel run will use.

    Both this and the run derive the per-experiment overrides from
    :func:`~repro.experiments.runner.suite_overrides`, so they land on one
    namespace.
    """
    nshards = default_shard_count(spec.workers)
    return (
        plan_namespace(
            spec.experiments,
            suite_overrides(spec.experiments, spec.arrays, spec.trials),
            nshards,
            spec.backend,
        ),
        nshards,
    )


def execute_sweep(spec: SweepSpec, store: ExperimentStore) -> str:
    """Compute one spec's report text — the exact bytes the CLI would emit.

    One :func:`~repro.engine.sweep.run_experiments` call over the store, the
    call behind ``repro report``, rendered as
    :func:`~repro.experiments.runner.suite_to_json` renders it and
    serialized with the CLI's own dump settings — so a full-suite job's
    report and the CLI's ``--json`` file are one byte sequence.  A subset
    spec keeps the same document shape with only the selected experiments
    (and no suite-level headline, which needs the full figure set).
    """
    results = run_experiments(
        spec.experiments,
        suite_overrides(spec.experiments, spec.arrays, spec.trials),
        store=store,
        backend=spec.backend,
        workers=spec.workers,
    )
    headline = ExperimentSuite(**results).headline_summary() if spec.is_full_suite else None
    return json.dumps(results_to_json(results, headline), indent=2) + "\n"


class JobQueue:
    """Deduplicating sweep scheduler over one store and a bounded pool."""

    def __init__(
        self,
        store: ExperimentStore,
        config: Optional[ServerConfig] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.store = store
        self.config = config or ServerConfig()
        self.clock = clock
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_concurrent_jobs,
            thread_name_prefix="repro-sweep",
        )

    # ------------------------------------------------------------------
    # Submission / lookup
    # ------------------------------------------------------------------
    def submit(self, spec: SweepSpec) -> Tuple[Job, bool]:
        """Register a spec; ``(job, created)`` where created=False is a dedup hit.

        A failed job is the only kind a resubmission relaunches — serving a
        cached traceback forever would make one transient fault permanent.
        """
        job_id = spec_fingerprint(spec)
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None and job.state is not JobState.FAILED:
                return job, False
            relaunch = job is not None
            if job is None:
                job = Job(id=job_id, spec=spec, state=JobState.QUEUED, created=self.clock())
                if spec.workers > 1:
                    # Only a parallel run leases shards; a serial one has no progress to show.
                    job.namespace, job.nshards = job_namespace(spec)
                self._jobs[job_id] = job
            else:
                job.state = JobState.QUEUED
                job.error = None
            if self.store.contains(REPORT_KIND, job_id):
                # A previous service run on this store (same salt) already
                # computed the spec: done without launching anything.
                job.state = JobState.DONE
                job.finished = job.finished or job.created
                return job, not relaunch
            self._executor.submit(self._run, job)
            return job, not relaunch

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def report_bytes(self, job_id: str) -> Optional[bytes]:
        """The finished report, straight from the content-addressed store."""
        payload = self.store.get(REPORT_KIND, job_id)
        if not isinstance(payload, dict) or not isinstance(payload.get("report"), str):
            return None
        return payload["report"].encode("utf-8")

    def progress(self, job: Job) -> Optional[Dict[str, Any]]:
        """Shard-level progress from the run's lease namespace, while it exists.

        Read through :func:`repro.parallel.collect_workers_status`, and a
        heartbeat with no beat for over ``HEARTBEAT_STALE_S`` is stale, as
        ``repro workers status`` and ``GET /workers`` judge it.  The
        namespace is purged when the run ends, so a done job reports every
        shard complete without consulting it.
        """
        if job.nshards is None or job.namespace is None:
            return None
        if job.state is JobState.DONE:
            return {"shards_done": job.nshards, "nshards": job.nshards}
        statuses = collect_workers_status(self.store, job.namespace)
        now = self.clock()
        return {
            "shards_done": sum(len(status.done) for status in statuses),
            "nshards": job.nshards,
            "namespace": job.namespace,
            "workers": [
                {
                    "owner": beat.owner,
                    "heartbeat_age": round(beat.age(now), 3),
                    "stale": beat.age(now) > HEARTBEAT_STALE_S,
                }
                for status in statuses
                for beat in status.heartbeats
            ],
        }

    def close(self, wait: bool = True) -> None:
        self._executor.shutdown(wait=wait)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run(self, job: Job) -> None:
        job.state = JobState.RUNNING
        job.started = self.clock()
        job.launches += 1
        try:
            text = execute_sweep(job.spec, self.store)
            self.store.put(
                REPORT_KIND,
                job.id,
                {"report": text},
                meta={"experiments": list(job.spec.experiments)},
            )
            job.state = JobState.DONE
        except Exception as error:  # surfaced through GET /jobs/{id}
            job.error = f"{type(error).__name__}: {error}"
            job.state = JobState.FAILED
        finally:
            job.finished = self.clock()
