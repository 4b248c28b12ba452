"""Process-parallel sweep execution with store-shard work stealing.

The sweep runner of :mod:`repro.engine.sweep` executes one experiment grid in
a single process; :mod:`repro.parallel` scales it across worker *processes*.
The design composes three existing mechanisms instead of inventing a new
execution path:

* the grid is partitioned into ``4 x N`` **fingerprint-hash shards** — the
  same pure-function ownership ``repro report --shard K/N`` uses, so a
  shard's cell set is identical no matter which process computes it;
* ``N`` workers **claim shards dynamically** through the claim files of
  :mod:`repro.store.leases` (work stealing: a fast worker drains the
  queue), and every computed cell is persisted through the
  content-addressed :class:`~repro.store.ExperimentStore` — cells already
  present are skipped, so warm or partially-warm runs only compute the delta.
  The calling process is worker 0 and spawns the other ``N - 1``; a spawned
  worker leaves as soon as no shard is claimable, while the caller stays
  until every shard is done, freeing and re-claiming the shards of a
  SIGKILLed worker as soon as it sees the worker gone;
* the caller **assembles** the finished grid through the ordinary warm-store
  path, which is byte-identical to a cold serial run by the store's headline
  contract — therefore ``--workers 4`` output is byte-identical to
  ``--workers 1`` under every registered backend.

Workers are ``spawn``-safe: a worker inherits nothing but a picklable
:class:`WorkerSpec` (store root, experiment names, overrides, backend *name*,
lease namespace), re-imports :mod:`repro.experiments` to repopulate the
registry, and resolves its backend from the inherited spec.  The store
shares cells, not SVDs: each worker's process-local
:class:`~repro.engine.cache.DecompositionCache` computes the decompositions
its own cells need.

The worker count resolves like the backend: an explicit ``workers=`` argument
beats the CLI's ``--workers`` (which passes explicitly), which beats
``$REPRO_WORKERS``, which defaults to 1 (serial, no processes spawned).
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import signal
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from .backend import Backend, active_backend
from .engine.sweep import ShardStats, experiment_registry
from .store import (
    HEARTBEAT_STALE_S,
    ExperimentStore,
    HeartbeatInfo,
    LeaseBoard,
    LeaseInfo,
    canonicalize,
    experiment_fingerprint,
)

__all__ = [
    "WORKERS_ENV_VAR",
    "DEFAULT_SHARDS_PER_WORKER",
    "WorkerSpec",
    "WorkerStats",
    "NamespaceStatus",
    "resolve_workers",
    "default_shard_count",
    "plan_namespace",
    "run_cells_parallel",
    "run_experiments_parallel",
    "collect_workers_status",
    "format_workers_status",
]

#: Environment variable naming the default worker-process count.
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: Shard oversubscription factor: more shards than workers keeps the
#: work-stealing queue fine-grained enough that one slow shard cannot leave
#: the other workers idle for long.
DEFAULT_SHARDS_PER_WORKER = 4

#: How long the caller, with no shard claimable, waits at most between scans
#: (it wakes early when a spawned worker exits).
_POLL_INTERVAL = 0.1


def resolve_workers(spec: Optional[int] = None) -> int:
    """Resolve a worker count: explicit argument > ``$REPRO_WORKERS`` > 1."""
    if spec is None:
        env = os.environ.get(WORKERS_ENV_VAR)
        if not env:
            return 1
        try:
            spec = int(env)
        except ValueError as error:
            raise ValueError(
                f"${WORKERS_ENV_VAR} must be an integer worker count, got {env!r}"
            ) from error
    workers = int(spec)
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


def default_shard_count(workers: int) -> int:
    """How many fingerprint-hash shards a ``workers``-process sweep uses."""
    return max(workers, 1) * DEFAULT_SHARDS_PER_WORKER


def plan_namespace(
    names: Sequence[str],
    overrides: Mapping[str, Mapping[str, Any]],
    nshards: int,
    backend: Union[str, Backend, None] = None,
) -> str:
    """The lease namespace of one (experiments, overrides, shards, backend) plan.

    Fingerprinted with the active salt *and* the explicit backend spec, so two
    sweeps whose grids differ — or whose workers execute under different
    backends — can never mistake each other's lease/done markers for their
    own.  The same plan rerun after a crash resolves to the same namespace,
    which is what lets the rerun skip completed shards.
    """
    config = {
        "names": list(names),
        "overrides": {
            name: {
                key: _namespace_token(value)
                for key, value in dict(overrides.get(name, {})).items()
            }
            for name in names
        },
        "nshards": nshards,
        "backend": _backend_name(backend),
    }
    return "sweep-" + experiment_fingerprint("parallel/plan", config)[:16]


def _namespace_token(value: Any) -> Any:
    """A canonicalizable stand-in for one override value.

    Most override values (tuples, numbers, strings, dataclasses) fingerprint
    directly; anything the canonical form rejects — e.g. a custom
    ``EnergyModel`` instance — is reduced to a digest of its pickle bytes,
    which is stable across the reruns of one plan (what namespace resumption
    needs) without requiring every harness argument to be canonical.
    """
    try:
        canonicalize(value)
        return value
    except TypeError:
        import hashlib
        import pickle

        digest = hashlib.blake2b(
            pickle.dumps(value, protocol=4), digest_size=16
        ).hexdigest()
        return {"__pickled__": f"{type(value).__name__}:{digest}"}


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a spawned worker needs, picklable by construction."""

    worker_id: int
    store_root: str
    namespace: str
    nshards: int
    names: Tuple[str, ...]
    overrides: Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...]
    backend: Optional[str] = None
    #: A token of the run, shared by its workers: server jobs run on threads
    #: of one process, so a pid alone does not tell two runs' worker 0 apart.
    run: str = ""

    def experiment_overrides(self, name: str) -> Dict[str, Any]:
        for experiment, items in self.overrides:
            if experiment == name:
                return dict(items)
        return {}

    def owner(self, pid: int) -> str:
        """The claim owner id of this worker when it runs as process ``pid``."""
        return f"worker-{self.worker_id}-pid{pid}-{self.run}"


@dataclass
class WorkerStats:
    """What one worker did (worker 0 is the calling process)."""

    worker_id: int
    shards: List[int] = field(default_factory=list)
    #: Shards worker 0 re-claimed after freeing a SIGKILLed worker's claims.
    stolen: int = 0
    computed: int = 0
    resumed: int = 0
    #: These three are always 0 (workers share no SVDs, and no live claim
    #: is ever taken over); kept because perfbench reads them.
    svd_store_hits: int = 0
    lost_races: int = 0
    abandoned: int = 0


def _freeze_overrides(
    names: Sequence[str], overrides: Mapping[str, Mapping[str, Any]]
) -> Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...]:
    return tuple(
        (name, tuple(sorted(dict(overrides.get(name, {})).items())))
        for name in names
    )


def _scan_order(nshards: int, worker_id: int) -> List[int]:
    """Shards 1..N rotated by worker id, so workers start claiming apart."""
    offset = (worker_id * DEFAULT_SHARDS_PER_WORKER) % max(nshards, 1)
    order = list(range(1, nshards + 1))
    return order[offset:] + order[:offset]


def _worker_main(
    spec: WorkerSpec, watch: Optional["_SpawnedWorkers"] = None
) -> WorkerStats:
    """One worker: claim shards, compute their cells, mark them done.

    Top-level by necessity — the ``spawn`` start method pickles the function
    reference and the spec, nothing else.  The worker re-imports
    :mod:`repro.experiments` (self-registration repopulates the registry in
    the fresh interpreter) and resolves its backend from the spec.

    A spawned worker (``watch`` is None) leaves as soon as no shard is
    claimable, or once its caller is gone: a caller killed outright leaves
    its namespace to be purged by the next run of the plan, and a claim
    taken after that purge would belong to no run.  The calling process
    runs worker 0 with ``watch``, its view of the spawned workers: it waits
    on them between experiments and whenever no shard is claimable, and
    stays until every shard is done.  A cell that raises keeps its shard
    claimed until the run's teardown purges the namespace: it would fail
    the same way in any worker.
    """
    import repro.experiments  # noqa: F401  (registry population, required under spawn)

    from .backend import using_backend

    store = ExperimentStore(spec.store_root)
    board = LeaseBoard(store.root, spec.namespace)
    owner = spec.owner(os.getpid())
    stats = WorkerStats(worker_id=spec.worker_id)
    registry = experiment_registry()
    caller = multiprocessing.parent_process() if watch is None else None

    def beat() -> None:
        board.beat(
            owner,
            worker_id=spec.worker_id,
            shards=list(stats.shards),
            stolen=stats.stolen,
            computed=stats.computed,
            resumed=stats.resumed,
        )

    beat()
    with using_backend(spec.backend):
        while caller is None or caller.is_alive():
            claimed: Optional[int] = None
            for shard in _scan_order(spec.nshards, spec.worker_id):
                if board.claim(shard, owner):
                    claimed = shard
                    if watch is not None and shard in watch.freed:
                        stats.stolen += 1
                    break
            if claimed is None:
                if watch is None or board.all_done(spec.nshards):
                    break
                beat()  # idle, but alive: keep the liveness record fresh
                watch.wait(True)
                continue
            beat()
            for name in spec.names:
                result = registry[name].run(
                    store=store,
                    shard=(claimed, spec.nshards),
                    **spec.experiment_overrides(name),
                )
                if isinstance(result, ShardStats):
                    stats.computed += result.computed
                    stats.resumed += result.resumed
                beat()
                if watch is not None:
                    watch.wait(False)
            board.mark_done(claimed, owner)
            stats.shards.append(claimed)
            beat()
    return stats


def _failure(worker_id: int) -> str:
    """The worker and traceback of the exception being handled, as the run reports them."""
    return f"worker {worker_id} (pid {os.getpid()}):\n{traceback.format_exc()}"


def _worker_entry(spec: WorkerSpec, results: "multiprocessing.SimpleQueue") -> None:
    """Send the parent this worker's stats, or its formatted traceback."""
    try:
        outcome: Union[WorkerStats, str] = _worker_main(spec)
    except Exception:
        outcome = _failure(spec.worker_id)
    results.put(outcome)


def _backend_name(backend: Union[str, Backend, None]) -> Optional[str]:
    """Reduce a backend spec to the registered name a spawned worker resolves."""
    if backend is None or isinstance(backend, str):
        return backend
    return backend.name


def _pinned_backend_name(backend: Union[str, Backend, None]) -> str:
    """The backend name worker processes must execute under.

    ``None`` pins the *active* backend rather than staying unresolved: the
    CLI's global ``--backend`` installs a ``using_backend`` scope and passes
    ``backend=None`` downstream, and an open scope does not cross a process
    boundary — an unpinned spec would silently fall back to the workers'
    environment default, computing (and salting) every cell under the wrong
    backend while the parent assembles under the right one.
    """
    return _backend_name(backend) or active_backend().name


def run_cells_parallel(
    names: Sequence[str],
    overrides: Mapping[str, Mapping[str, Any]],
    store: ExperimentStore,
    workers: int,
    nshards: Optional[int] = None,
    backend: Union[str, Backend, None] = None,
) -> List[WorkerStats]:
    """Compute every grid cell of the named experiments with ``workers`` workers.

    The calling process is worker 0: it spawns ``workers - 1`` processes and
    computes shards alongside them.  Nothing is assembled — the cells land in
    ``store`` (the warm-assembly pass afterwards is what
    :func:`run_experiments_parallel` adds).  The run succeeds when **every
    shard carries a completion marker**, not when every worker survives: a
    spawned worker SIGKILLed mid-shard (the OOM killer, ``kill -9``) merely
    forfeits its claims, which the caller frees once it sees the worker
    gone, then re-claims the shard and recomputes only the cells the store
    does not already hold.  A cell that *raises*, in any worker, fails the
    run instead, with that worker's traceback, and so does a spawned worker
    that dies any other way (Ctrl-C reaches the spawned workers but not a
    server job's thread); the spawned workers are then stopped.

    The run owns its lease namespace: it purges the namespace before it
    starts (clearing what a run killed outright left behind) and again when
    it ends, whether it succeeds or fails.  A rerun therefore resumes from
    the cells the store holds, not from completion markers.

    The caller looks at its spawned workers between the experiments of a
    shard and whenever it is idle, so a spawned worker's failure fails the
    run within one shard-experiment of the caller's (one experiment's cells
    of one shard), while the other workers go on computing until then.
    """
    workers = resolve_workers(workers)
    nshards = nshards if nshards is not None else default_shard_count(workers)
    if nshards < 1:
        raise ValueError(f"shard count must be >= 1, got {nshards}")
    backend_name = _pinned_backend_name(backend)
    namespace = plan_namespace(names, overrides, nshards, backend_name)
    board = LeaseBoard(store.root, namespace)
    board.purge()  # what a run of this plan killed outright left behind
    # Publish the plan manifest before spawning so `repro workers status`
    # can tell an operator what this namespace is running and how far the
    # done markers have progressed.
    board.write_plan(
        {
            "names": list(names),
            "nshards": nshards,
            "backend": backend_name,
            "workers": workers,
            "started": time.time(),
        }
    )
    run = os.urandom(4).hex()
    specs = [
        WorkerSpec(
            worker_id=worker_id,
            store_root=str(store.root),
            namespace=namespace,
            nshards=nshards,
            names=tuple(names),
            overrides=_freeze_overrides(names, overrides),
            backend=backend_name,
            run=run,
        )
        for worker_id in range(workers)
    ]
    spawned = _SpawnedWorkers(specs[1:], board)
    try:
        spawned.start()
        try:
            own = _worker_main(specs[0], spawned)
        except _WorkerFailed:
            raise
        except Exception:
            raise RuntimeError(f"parallel sweep failed in {_failure(0)}") from None
        spawned.join()
    finally:
        spawned.stop()
        board.purge()
    return sorted([own, *spawned.stats.values()], key=lambda stats: stats.worker_id)


class _WorkerFailed(RuntimeError):
    """A spawned worker failed: a cell raised, or it died without a SIGKILL."""


class _SpawnedWorkers:
    """The processes a parallel run spawns, as worker 0 watches them."""

    def __init__(self, specs: Sequence[WorkerSpec], board: LeaseBoard) -> None:
        self.specs = {spec.worker_id: spec for spec in specs}
        self.board = board
        self.processes: Dict[int, "multiprocessing.Process"] = {}
        self.stats: Dict[int, WorkerStats] = {}
        #: Workers SIGKILLed, their claims already freed.
        self.killed: Set[int] = set()
        #: The shards those claims held.
        self.freed: Set[int] = set()

    def start(self) -> None:
        if not self.specs:
            return
        context = multiprocessing.get_context("spawn")
        self.results: "multiprocessing.SimpleQueue" = context.SimpleQueue()
        for worker_id, spec in self.specs.items():
            process = context.Process(
                target=_worker_entry, args=(spec, self.results), daemon=False
            )
            process.start()
            self.processes[worker_id] = process

    def wait(self, idle: bool) -> None:
        """Worker 0's wait: poll between experiments, block while idle.

        Idle, it blocks until a spawned worker exits or the poll interval
        passes.  Either way it raises a worker's traceback.  A worker that
        exited without sending stats or traceback was SIGKILLed, or died of
        something else, such as a Ctrl-C.  A SIGKILL comes from outside (the
        OOM killer, ``kill -9``), so the worker's claims are freed and its
        shards are claimable at once.  Any other silent exit fails the run.
        """
        if not self.processes:
            if idle:
                time.sleep(_POLL_INTERVAL)
            return
        silent = _collect_worker_results(
            self.processes, self.results, self.stats, _POLL_INTERVAL if idle else 0.0
        )
        for worker_id in sorted(set(silent) - self.killed):
            process = self.processes[worker_id]
            if process.exitcode != -signal.SIGKILL:
                raise _WorkerFailed(
                    f"parallel sweep incomplete: worker {worker_id} (pid {process.pid}) "
                    f"exited with code {process.exitcode} before finishing; rerunning "
                    "resumes from the materialized cells"
                )
            self.killed.add(worker_id)
            owner = self.specs[worker_id].owner(process.pid)
            self.freed.update(self.board.release_dead(owner))

    def join(self) -> None:
        """Wait for every spawned worker to exit, then gather the last stats."""
        while any(process.exitcode is None for process in self.processes.values()):
            self.wait(True)
        self.wait(False)

    def stop(self) -> None:
        """Terminate the workers still running and join every one."""
        for process in self.processes.values():
            if process.is_alive():
                process.terminate()
            process.join()


def _collect_worker_results(
    processes: Mapping[int, "multiprocessing.Process"],
    results: "multiprocessing.SimpleQueue",
    collected: Dict[int, WorkerStats],
    timeout: float,
) -> List[int]:
    """Wait up to ``timeout`` for a worker to exit; gather what the workers sent.

    Each worker sends its stats, kept in ``collected`` by worker id, or, when
    a cell raised, its formatted traceback, which is raised here at once.
    Returns the ids of the workers that exited without sending either.
    Module-level for tests: the interrupt-teardown battery injects a
    KeyboardInterrupt here.
    """
    from multiprocessing.connection import wait  # only parallel runs pay its import

    running = [process.sentinel for process in processes.values() if process.exitcode is None]
    if running and timeout > 0:
        wait(running, timeout=timeout)
    elif timeout > 0:
        time.sleep(timeout)
    # Who has exited is read before the queue: an exited worker's message is
    # already in the pipe, so a worker missing from the drain sent none.
    exited = [worker_id for worker_id, process in processes.items() if process.exitcode is not None]
    while not results.empty():
        outcome = results.get()
        if isinstance(outcome, str):
            raise _WorkerFailed(f"parallel sweep failed in {outcome}")
        collected[outcome.worker_id] = outcome
    return [worker_id for worker_id in exited if worker_id not in collected]


def run_experiments_parallel(
    names: Sequence[str],
    overrides: Optional[Mapping[str, Mapping[str, Any]]] = None,
    store: Optional[ExperimentStore] = None,
    workers: Optional[int] = None,
    nshards: Optional[int] = None,
    backend: Union[str, Backend, None] = None,
) -> Dict[str, Any]:
    """Process-parallel equivalent of :func:`repro.engine.sweep.run_experiments`.

    Binds each experiment's science parameters (``overrides``) and builds
    its grid here, so a bad parameter raises its own exception in the
    caller before any worker spawns.  Then computes every grid cell with
    :func:`run_cells_parallel` and assembles the results through the
    ordinary warm-store path — a pure decode pass, byte-identical to a
    serial run.  Without a ``store`` an ephemeral one is created for the run
    and removed afterwards (the workers still need a shared medium; the
    caller just doesn't keep it).
    """
    registry = experiment_registry()
    unknown = [name for name in names if name not in registry]
    if unknown:
        raise KeyError(f"unknown experiments {unknown}; registered: {sorted(registry)}")
    overrides = overrides or {}
    for name in names:
        spec = registry[name]
        spec.grid(**spec.params(**overrides.get(name, {})))

    ephemeral_root: Optional[str] = None
    if store is None:
        ephemeral_root = tempfile.mkdtemp(prefix="repro-parallel-")
        store = ExperimentStore(ephemeral_root)
    try:
        run_cells_parallel(
            names,
            overrides,
            store,
            workers=resolve_workers(workers),
            nshards=nshards,
            backend=backend,
        )
        # Warm assembly: every cell is materialized, so this pass decodes
        # instead of computing.  workers=1 runs every experiment serially,
        # which prevents recursion.
        from .engine.sweep import run_experiments

        return run_experiments(names, overrides, store=store, backend=backend, workers=1)
    finally:
        if ephemeral_root is not None:
            shutil.rmtree(ephemeral_root, ignore_errors=True)


# ----------------------------------------------------------------------
# Observability: `repro workers status`
# ----------------------------------------------------------------------
@dataclass
class NamespaceStatus:
    """Everything `repro workers status` knows about one lease namespace."""

    namespace: str
    plan: Optional[Dict[str, Any]]
    nshards: Optional[int]
    done: List[int]
    leases: List[Tuple[int, Optional[LeaseInfo]]]
    heartbeats: List[HeartbeatInfo]


def collect_workers_status(
    store: ExperimentStore, namespace: Optional[str] = None
) -> List[NamespaceStatus]:
    """The live claim/heartbeat/progress state of every namespace in a store.

    Scans ``<root>/leases/``; a run purges its namespace when it ends, so
    anything listed is in flight or was left by a run killed outright.  The
    shard total comes from the plan manifest when present, else from the
    highest shard index any marker mentions.
    """
    leases_root = store.root / "leases"
    statuses: List[NamespaceStatus] = []
    if not leases_root.is_dir():
        return statuses
    for child in sorted(leases_root.iterdir()):
        if not child.is_dir() or (namespace is not None and child.name != namespace):
            continue
        board = LeaseBoard(store.root, child.name)
        plan = board.read_plan()
        done = board.done_shards()
        live = board.live_leases()
        nshards: Optional[int] = None
        if plan is not None and isinstance(plan.get("nshards"), int):
            nshards = plan["nshards"]
        elif done or live:
            nshards = max([*done, *(shard for shard, _ in live)])
        statuses.append(
            NamespaceStatus(
                namespace=child.name,
                plan=plan,
                nshards=nshards,
                done=done,
                leases=live,
                heartbeats=board.heartbeats(),
            )
        )
    return statuses


def format_workers_status(
    statuses: Sequence[NamespaceStatus], now: Optional[float] = None
) -> str:
    """Render namespace progress, shard claims and worker heartbeats."""
    now = time.time() if now is None else now
    if not statuses:
        return "no active lease namespaces (every run purges its markers when it ends)"
    lines: List[str] = [f"{len(statuses)} active namespace(s)"]
    for status in statuses:
        total = f"/{status.nshards}" if status.nshards is not None else ""
        lines.append(
            f"namespace {status.namespace} — {len(status.done)}{total} shards done, "
            f"{len(status.leases)} leased"
        )
        if status.plan:
            names = ",".join(status.plan.get("names", [])) or "?"
            lines.append(
                f"  plan: experiments {names}"
                f" · backend {status.plan.get('backend', '?')}"
                f" · workers {status.plan.get('workers', '?')}"
            )
        for shard, info in status.leases:
            if info is None:
                lines.append(f"  shard {shard:3d}  torn lease (claimant died mid-write)")
            else:
                lines.append(
                    f"  shard {shard:3d}  leased by {info.owner}"
                    f"  claimed {now - info.acquired:6.1f}s ago"
                )
        for beat in status.heartbeats:
            info = beat.info
            # A live worker beats between experiments and while idle; a
            # record older than HEARTBEAT_STALE_S belongs to a dead (or
            # wedged) worker.
            stale = (
                f"  STALE (no beat for {beat.age(now):.0f}s > {HEARTBEAT_STALE_S:.0f}s)"
                if beat.age(now) > HEARTBEAT_STALE_S
                else ""
            )
            lines.append(
                f"  {beat.owner}  heartbeat {beat.age(now):6.1f}s ago"
                f"  host {info.get('host', '?')}"
                f"  shards done {len(info.get('shards', []))}"
                f"  computed {info.get('computed', '?')}"
                + stale
            )
    return "\n".join(lines)
