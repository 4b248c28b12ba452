"""Process-parallel sweep execution with store-shard work stealing.

The sweep runner of :mod:`repro.engine.sweep` executes one experiment grid in
a single process; :mod:`repro.parallel` scales it across worker *processes*.
The design composes three existing mechanisms instead of inventing a new
execution path:

* the grid is partitioned into ``N`` **fingerprint-hash shards** — the same
  pure-function ownership ``repro report --shard K/N`` uses, so a shard's
  cell set is identical no matter which process computes it;
* workers **claim shards dynamically** through the crash-safe lease protocol
  of :mod:`repro.store.leases` (work stealing: a fast worker drains the queue,
  a shard whose worker died is re-claimed after its lease expires), and every
  computed cell is persisted through the content-addressed
  :class:`~repro.store.ExperimentStore` — cells already present are skipped,
  so warm or partially-warm runs only compute the delta;
* the parent **assembles** the finished grid through the ordinary warm-store
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
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .backend import Backend, active_backend
from .engine.sweep import ShardStats, experiment_registry
from .store import (
    DEFAULT_LEASE_TTL,
    ExperimentStore,
    HeartbeatInfo,
    LeaseBoard,
    LeaseInfo,
    canonicalize,
    experiment_fingerprint,
    resolve_lease_ttl,
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

#: How long an idle worker sleeps between scans for claimable shards (and the
#: waiting parent at most between checks for a failed worker).
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
    lease_ttl: float
    names: Tuple[str, ...]
    overrides: Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...]
    backend: Optional[str] = None
    driver: Optional[str] = None

    def experiment_overrides(self, name: str) -> Dict[str, Any]:
        for experiment, items in self.overrides:
            if experiment == name:
                return dict(items)
        return {}


@dataclass
class WorkerStats:
    """What one worker process did (returned to the parent)."""

    worker_id: int
    shards: List[int] = field(default_factory=list)
    stolen: int = 0
    computed: int = 0
    resumed: int = 0
    #: Always 0 (workers share no SVDs); kept because perfbench reads it.
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


def _worker_main(spec: WorkerSpec) -> WorkerStats:
    """One worker process: claim shards, compute their cells, mark them done.

    Top-level by necessity — the ``spawn`` start method pickles the function
    reference and the spec, nothing else.  The worker re-imports
    :mod:`repro.experiments` (self-registration repopulates the registry in
    the fresh interpreter) and resolves its backend from the spec.
    """
    import repro.experiments  # noqa: F401  (registry population, required under spawn)

    from .backend import using_backend

    store = ExperimentStore(spec.store_root, driver=spec.driver)
    board = LeaseBoard(
        store.root, spec.namespace, ttl=spec.lease_ttl, driver=store.driver
    )
    owner = f"worker-{spec.worker_id}-pid{os.getpid()}"
    stats = WorkerStats(worker_id=spec.worker_id)
    registry = experiment_registry()

    def beat() -> None:
        board.beat(
            owner,
            worker_id=spec.worker_id,
            shards=list(stats.shards),
            stolen=stats.stolen,
            computed=stats.computed,
            resumed=stats.resumed,
            abandoned=stats.abandoned,
            **board.counters(),
        )

    beat()
    with using_backend(spec.backend):
        while True:
            claimed: Optional[int] = None
            for shard in _scan_order(spec.nshards, spec.worker_id):
                if board.is_done(shard):
                    continue
                vacancy_was_held = board.read(shard) is not None
                if board.claim(shard, owner):
                    claimed = shard
                    if vacancy_was_held:
                        stats.stolen += 1
                    break
            if claimed is None:
                if board.all_done(spec.nshards):
                    break
                beat()  # idle, but alive: keep the liveness record fresh
                time.sleep(_POLL_INTERVAL)
                continue
            beat()
            abandoned = False
            for name in spec.names:
                try:
                    result = registry[name].run(
                        store=store,
                        shard=(claimed, spec.nshards),
                        **spec.experiment_overrides(name),
                    )
                except Exception:
                    # A raising cell fails the same way on every retry:
                    # hand the shard back and let the parent report the
                    # error now, instead of siblings stealing the shard
                    # after the lease TTL only to fail again.
                    board.release(claimed, owner)
                    raise
                if isinstance(result, ShardStats):
                    stats.computed += result.computed
                    stats.resumed += result.resumed
                # A renewal between experiments keeps a long shard from
                # expiring under its own worker.  A fenced refusal means
                # the lease was stolen (this worker stalled past the
                # TTL): ownership is gone for good, so the shard must be
                # abandoned — the thief recomputes only the cells the
                # store does not already hold, and writing our done
                # marker for work the thief now owns would be a lie.
                if not board.renew(claimed, owner):
                    stats.abandoned += 1
                    abandoned = True
                    break
                beat()
            if not abandoned:
                board.mark_done(claimed, owner)
                stats.shards.append(claimed)
            beat()
    stats.lost_races = board.lost_races
    return stats


def _worker_entry(spec: WorkerSpec, results: "multiprocessing.SimpleQueue") -> None:
    """Send the parent this worker's stats, or its formatted traceback."""
    try:
        outcome: Union[WorkerStats, str] = _worker_main(spec)
    except Exception:
        outcome = f"worker {spec.worker_id} (pid {os.getpid()}):\n{traceback.format_exc()}"
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
    lease_ttl: Optional[float] = None,
) -> List[WorkerStats]:
    """Compute every grid cell of the named experiments with worker processes.

    Nothing is assembled — the cells land in ``store`` (the warm-assembly
    pass afterwards is what :func:`run_experiments_parallel` adds).  The run
    succeeds when **every shard carries a completion marker**, not when every
    worker survives: a worker killed mid-shard merely forfeits its lease, and
    a surviving sibling re-claims the shard after the TTL and recomputes only
    the cells the store does not already hold.  When shards remain undone
    (e.g. every worker died) this raises — and a rerun resumes from the done
    markers and the materialized cells.  A cell that *raises* in a worker
    fails the run at once instead, with that worker's traceback, and the
    other workers are stopped.
    """
    workers = resolve_workers(workers)
    nshards = nshards if nshards is not None else default_shard_count(workers)
    if nshards < 1:
        raise ValueError(f"shard count must be >= 1, got {nshards}")
    ttl = resolve_lease_ttl(lease_ttl)
    backend_name = _pinned_backend_name(backend)
    namespace = plan_namespace(names, overrides, nshards, backend_name)
    # Publish the plan manifest before spawning so `repro workers status`
    # can tell an operator what this namespace is running and how far the
    # done markers have progressed.
    plan_board = LeaseBoard(store.root, namespace, ttl=ttl, driver=store.driver)
    plan_board.write_plan(
        {
            "names": list(names),
            "nshards": nshards,
            "backend": backend_name,
            "workers": workers,
            "lease_ttl": ttl,
            "driver": store.driver.name,
            "started": time.time(),
        }
    )
    specs = [
        WorkerSpec(
            worker_id=worker_id,
            store_root=str(store.root),
            namespace=namespace,
            nshards=nshards,
            lease_ttl=ttl,
            names=tuple(names),
            overrides=_freeze_overrides(names, overrides),
            backend=backend_name,
            driver=store.driver.name,
        )
        for worker_id in range(workers)
    ]
    context = multiprocessing.get_context("spawn")
    results: "multiprocessing.SimpleQueue" = context.SimpleQueue()
    processes = [
        context.Process(target=_worker_entry, args=(spec, results), daemon=False)
        for spec in specs
    ]
    for process in processes:
        process.start()
    collected: List[WorkerStats] = []
    interrupted = False
    try:
        collected = _collect_worker_results(processes, results)
    except BaseException:
        # A failed worker, Ctrl-C (or any parent-side failure) is about to
        # terminate workers that never got to release their leases.
        interrupted = True
        raise
    finally:
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join()
        if interrupted:
            # Fast-expire whatever the terminated workers still held, so an
            # immediate rerun claims those shards instead of stalling a
            # full TTL before it may steal them.
            _expire_abandoned_leases(
                LeaseBoard(store.root, namespace, ttl=ttl, driver=store.driver)
            )
    board = LeaseBoard(store.root, namespace, ttl=ttl, driver=store.driver)
    undone = board.pending(nshards)
    if undone:
        exit_codes = {p.pid: p.exitcode for p in processes}
        raise RuntimeError(
            f"parallel sweep incomplete: shards {undone} of {nshards} never "
            f"completed (worker exit codes {exit_codes}); rerunning resumes "
            "from the completion markers and the materialized cells"
        )
    board.purge()
    return sorted(collected, key=lambda stats: stats.worker_id)


def _collect_worker_results(
    processes: Sequence["multiprocessing.Process"],
    results: "multiprocessing.SimpleQueue",
) -> List[WorkerStats]:
    """Drain the workers' stats until every worker has exited.

    A worker whose shard raised sends its formatted traceback instead, and
    the first one is raised here at once.  Module-level for tests: the
    interrupt-teardown battery injects a KeyboardInterrupt here.
    """
    from multiprocessing.connection import wait  # only parallel runs pay its import

    collected: List[WorkerStats] = []
    while True:
        running = [process for process in processes if process.is_alive()]
        while not results.empty():
            outcome = results.get()
            if isinstance(outcome, str):
                raise RuntimeError(f"parallel sweep failed in {outcome}")
            collected.append(outcome)
        if not running:
            return collected
        wait([process.sentinel for process in running], timeout=_POLL_INTERVAL)


def _expire_abandoned_leases(board: LeaseBoard) -> int:
    """Fast-expire every live lease of a namespace whose workers are dead.

    Part of the parent's interrupt teardown: the workers were just
    terminated, so their leases can only stall a rerun.  Expiry is a nudge,
    not a revocation — the lease keeps its owner and fence token in place,
    so a worker that somehow survived simply re-extends it on its next
    (fenced, still-valid) renewal, while a genuinely dead worker's shard is
    immediately claimable.  Returns how many leases were expired.
    """
    expired = 0
    for shard, _ in board.live_leases():
        if board.expire_lease(shard):
            expired += 1
    return expired


def run_experiments_parallel(
    names: Sequence[str],
    overrides: Optional[Mapping[str, Mapping[str, Any]]] = None,
    store: Optional[ExperimentStore] = None,
    workers: Optional[int] = None,
    nshards: Optional[int] = None,
    backend: Union[str, Backend, None] = None,
    lease_ttl: Optional[float] = None,
) -> Dict[str, Any]:
    """Process-parallel equivalent of :func:`repro.engine.sweep.run_experiments`.

    Computes every grid cell with :func:`run_cells_parallel`, then assembles
    the results through the ordinary warm-store path — a pure decode pass,
    byte-identical to a serial run.  Without a ``store`` an ephemeral one is
    created for the run and removed afterwards (the workers still need a
    shared medium; the caller just doesn't keep it).

    ``overrides`` may carry the ``store`` under experiment keys (the runner's
    convention); any embedded store/shard/workers keys are stripped from what
    the workers receive — the workers get the shared store and their claimed
    shard explicitly, and must never recurse into parallel execution.
    """
    registry = experiment_registry()
    unknown = [name for name in names if name not in registry]
    if unknown:
        raise KeyError(f"unknown experiments {unknown}; registered: {sorted(registry)}")
    overrides = overrides or {}
    worker_overrides: Dict[str, Dict[str, Any]] = {}
    for name in names:
        cleaned = dict(overrides.get(name, {}))
        embedded = cleaned.pop("store", None)
        if cleaned.pop("shard", None) is not None:
            raise ValueError(
                "sharded overrides cannot be combined with process-parallel "
                "execution; drop the shard and let the workers partition"
            )
        cleaned.pop("workers", None)
        if store is None and embedded is not None:
            store = embedded
        worker_overrides[name] = cleaned

    ephemeral_root: Optional[str] = None
    if store is None:
        ephemeral_root = tempfile.mkdtemp(prefix="repro-parallel-")
        store = ExperimentStore(ephemeral_root)
    try:
        run_cells_parallel(
            names,
            worker_overrides,
            store,
            workers=resolve_workers(workers),
            nshards=nshards,
            backend=backend,
            lease_ttl=lease_ttl,
        )
        # Warm assembly: every cell is materialized, so this pass decodes
        # instead of computing.  workers=1 runs every experiment serially,
        # which prevents recursion.
        from .engine.sweep import run_experiments

        assembly_overrides = {
            name: {**worker_overrides[name], "store": store} for name in names
        }
        return run_experiments(
            names=names,
            overrides=assembly_overrides,
            backend=backend,
            workers=1,
        )
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
    #: Lease TTL the namespace runs under (plan manifest, else the default) —
    #: the yardstick a heartbeat's age is judged stale against.
    ttl: float = DEFAULT_LEASE_TTL


def collect_workers_status(
    store: ExperimentStore, namespace: Optional[str] = None
) -> List[NamespaceStatus]:
    """The live lease/heartbeat/progress state of every namespace in a store.

    Scans ``<root>/leases/``; a namespace that finished successfully was
    purged, so anything listed is either in flight or abandoned.  The shard
    total comes from the plan manifest when present, else from the highest
    shard index any marker mentions.
    """
    leases_root = store.root / "leases"
    statuses: List[NamespaceStatus] = []
    for child in store.driver.listdir(leases_root):
        if not child.is_dir() or (namespace is not None and child.name != namespace):
            continue
        board = LeaseBoard(store.root, child.name, driver=store.driver)
        plan = board.read_plan()
        done = board.done_shards()
        live = board.live_leases()
        nshards: Optional[int] = None
        if plan is not None and isinstance(plan.get("nshards"), int):
            nshards = plan["nshards"]
        elif done or live:
            nshards = max([*done, *(shard for shard, _ in live)])
        ttl = board.ttl
        if plan is not None and isinstance(plan.get("lease_ttl"), (int, float)):
            ttl = float(plan["lease_ttl"])
        statuses.append(
            NamespaceStatus(
                namespace=child.name,
                plan=plan,
                nshards=nshards,
                done=done,
                leases=live,
                heartbeats=board.heartbeats(),
                ttl=ttl,
            )
        )
    return statuses


def format_workers_status(
    statuses: Sequence[NamespaceStatus], now: Optional[float] = None
) -> str:
    """Render namespace progress, live leases and worker heartbeats."""
    now = time.time() if now is None else now
    if not statuses:
        return "no active lease namespaces (finished sweeps purge their markers)"
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
                f" · driver {status.plan.get('driver', 'local')}"
                f" · ttl {status.plan.get('lease_ttl', '?')}s"
            )
        for shard, info in status.leases:
            if info is None:
                lines.append(f"  shard {shard:3d}  torn lease (claimant died mid-write)")
                continue
            remaining = info.expires - now
            state = (
                f"expires in {remaining:6.1f}s"
                if remaining > 0
                else f"EXPIRED {-remaining:.1f}s ago (reclaimable)"
            )
            lines.append(
                f"  shard {shard:3d}  leased by {info.owner}  {state}"
                f"  token {info.token[:8] or '-'}"
            )
        for beat in status.heartbeats:
            info = beat.info
            counters = " ".join(
                f"{key} {info[key]}"
                for key in ("claims", "steals", "lost_races", "abandoned")
                if key in info
            )
            shards_done = info.get("shards", [])
            # A worker renews its heartbeat at least once per lease TTL; a
            # record older than that belongs to a dead (or wedged) worker.
            stale = (
                f"  STALE (no beat for {beat.age(now):.0f}s > ttl {status.ttl:.0f}s)"
                if beat.age(now) > status.ttl
                else ""
            )
            lines.append(
                (
                    f"  {beat.owner}  heartbeat {beat.age(now):6.1f}s ago"
                    f"  host {info.get('host', '?')}"
                    f"  shards done {len(shards_done)}"
                    f"  computed {info.get('computed', '?')}"
                    f"  {counters}"
                ).rstrip()
                + stale
            )
        totals = {
            key: sum(int(beat.info.get(key, 0)) for beat in status.heartbeats)
            for key in ("claims", "steals", "lost_races", "abandoned")
        }
        if status.heartbeats:
            lines.append(
                "  totals: "
                + " · ".join(f"{key.replace('_', ' ')} {value}" for key, value in totals.items())
            )
    return "\n".join(lines)
