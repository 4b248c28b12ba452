"""Process-parallel sweep execution: equivalence, accounting, crash recovery.

The headline contract: ``--workers N`` produces output byte-identical to
``--workers 1`` (the workers only *compute cells into the store*; assembly is
the ordinary warm path), resumes for free from a partially-warm store, and
survives worker death: the calling process, worker 0, frees a killed
worker's claims and re-claims its shards.  A run purges its lease namespace
when it starts and when it ends, so no claim outlives it.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.engine.sweep import run_experiments
from repro.experiments.runner import SUITE_EXPERIMENTS, run_all, suite_to_json
from repro.parallel import (
    WORKERS_ENV_VAR,
    WorkerStats,
    _scan_order,
    default_shard_count,
    plan_namespace,
    resolve_workers,
    run_cells_parallel,
    run_experiments_parallel,
)
from repro.imc.energy import EnergyModel
from repro.store import HEARTBEAT_STALE_S, ExperimentStore, LeaseBoard

RESTRICTED_OVERRIDES = {
    "fig6": {"array_sizes": (32,)},
    "robustness": {"trials": 2},
    "layer_families": {"trials": 2},
}


class PoisonedEnergyModel(EnergyModel):
    """Raises for 64x64 arrays: a cell failure only a worker process reaches.

    Module-level so spawned workers can unpickle it from the run's overrides.
    """

    def im2col_energy(self, geometry, array):
        if array.rows == 64:
            raise ValueError("poisoned cell: 64x64 array")
        return super().im2col_energy(geometry, array)


class KillingEnergyModel(EnergyModel):
    """SIGKILLs a spawned worker at its first cell; stalls worker 0 until then.

    Worker 0 (the calling process) holds its shard while it waits, so the
    spawned worker is sure to claim another shard before it dies.
    Module-level so spawned workers can unpickle it from the run's overrides.
    """

    signum = signal.SIGKILL

    def im2col_energy(self, geometry, array):
        if multiprocessing.parent_process() is not None:
            os.kill(os.getpid(), self.signum)
        deadline = time.monotonic() + 60.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.02)
        return super().im2col_energy(geometry, array)


class InterruptedEnergyModel(KillingEnergyModel):
    """Sends a spawned worker a Ctrl-C's SIGINT at its first cell instead."""

    signum = signal.SIGINT


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert resolve_workers() == 1

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "8")
        assert resolve_workers(2) == 2

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert resolve_workers() == 3

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers()

    @pytest.mark.parametrize("count", [0, -2])
    def test_non_positive_rejected(self, count):
        with pytest.raises(ValueError, match=">= 1"):
            resolve_workers(count)


class TestPlanShape:
    def test_shard_count_oversubscribes_workers(self):
        assert default_shard_count(4) > 4
        assert default_shard_count(1) >= 1

    def test_scan_order_is_a_permutation_with_distinct_starts(self):
        orders = [_scan_order(8, worker) for worker in range(3)]
        for order in orders:
            assert sorted(order) == list(range(1, 9))
        assert len({order[0] for order in orders}) > 1

    def test_namespace_is_stable_for_identical_plans(self):
        a = plan_namespace(["table1"], {"table1": {"networks": ("resnet20",)}}, 8)
        b = plan_namespace(["table1"], {"table1": {"networks": ("resnet20",)}}, 8)
        assert a == b

    @pytest.mark.parametrize(
        "other",
        [
            (["table1"], {"table1": {"networks": ("wrn16_4",)}}, 8, None),
            (["fig7"], {}, 8, None),
            (["table1"], {"table1": {"networks": ("resnet20",)}}, 4, None),
            (["table1"], {"table1": {"networks": ("resnet20",)}}, 8, "numpy32"),
        ],
    )
    def test_namespace_distinguishes_plans(self, other):
        base = plan_namespace(["table1"], {"table1": {"networks": ("resnet20",)}}, 8)
        assert plan_namespace(*other) != base

    def test_namespace_accepts_non_canonical_override_values(self):
        """A pickled stand-in keeps e.g. a custom EnergyModel fingerprintable."""
        from repro.imc.energy import EnergyModel

        first = plan_namespace(["fig7"], {"fig7": {"model": EnergyModel()}}, 8)
        second = plan_namespace(["fig7"], {"fig7": {"model": EnergyModel()}}, 8)
        bare = plan_namespace(["fig7"], {}, 8)
        assert first == second, "identical models must resolve to one namespace"
        assert first != bare


@pytest.fixture
def no_spawn(monkeypatch):
    """Fail the test if a parallel run gets as far as spawning workers."""

    def spawn(*args, **kwargs):
        raise AssertionError("no worker may spawn for an invalid sweep")

    monkeypatch.setattr("repro.parallel.run_cells_parallel", spawn)


class TestGuards:
    def test_embedded_shard_override_rejected(self, tmp_path, no_spawn):
        """Overrides carry science parameters only: a shard in them is the
        harness's own TypeError, raised in the caller before any spawn."""
        store = ExperimentStore(tmp_path / "store")
        with pytest.raises(TypeError, match="unexpected keyword argument 'shard'"):
            run_experiments_parallel(
                ["table1"], {"table1": {"shard": (1, 2)}}, store=store, workers=2
            )

    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(KeyError, match="unknown experiments"):
            run_experiments_parallel(["nope"], {}, workers=2)

    @pytest.mark.parametrize(
        "harness, overrides, error",
        [
            ("robustness", {"trials": 0}, ValueError),
            ("robustness", {"scenarios": ("no_such_scenario",)}, KeyError),
            ("layer_families", {"trials": 0}, ValueError),
            ("layer_families", {"families": ("no_such_family",)}, ValueError),
        ],
    )
    def test_invalid_parameters_fail_in_the_parent_before_any_spawn(
        self, harness, overrides, error, monkeypatch
    ):
        from repro.engine.sweep import experiment_registry

        def spawn(*args, **kwargs):
            raise AssertionError("no worker may spawn for an invalid sweep")

        monkeypatch.setattr("repro.parallel.run_cells_parallel", spawn)
        with pytest.raises(error):
            experiment_registry()[harness].run(workers=2, **overrides)

    @pytest.mark.parametrize(
        "harness, overrides, error",
        [
            ("robustness", {"trials": 0}, ValueError),
            ("robustness", {"scenarios": ("no_such_scenario",)}, KeyError),
            ("layer_families", {"trials": 0}, ValueError),
            ("layer_families", {"families": ("no_such_family",)}, ValueError),
        ],
    )
    def test_invalid_parameters_fail_in_the_caller_through_run_experiments(
        self, harness, overrides, error, no_spawn
    ):
        """Every parallel entry raises the serial run's exception, in the caller."""
        with pytest.raises(error):
            run_experiments([harness], {harness: overrides}, workers=2)

    def test_run_all_with_invalid_trials_fails_in_the_caller(self, no_spawn):
        with pytest.raises(ValueError, match="trials must be positive"):
            run_all(robustness_trials=0, workers=2)

    def test_default_energy_model_is_not_shipped_to_workers(self, monkeypatch):
        """Workers build their own default EnergyModel; only a custom one travels."""
        from repro.experiments.fig7 import run_fig7

        class Captured(Exception):
            pass

        shipped = []

        def capture(names, overrides, **kwargs):
            shipped.append(overrides)
            raise Captured  # stop before any worker spawns

        monkeypatch.setattr("repro.parallel.run_experiments_parallel", capture)
        with pytest.raises(Captured):
            run_fig7(array_sizes=(32,), workers=2)
        assert shipped == [{"fig7": {"array_sizes": (32,)}}]

    def test_run_experiments_ignores_workers_for_sharded_overrides(self, tmp_path, monkeypatch):
        """$REPRO_WORKERS must not re-partition an explicit --shard slice."""
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        store = ExperimentStore(tmp_path / "store")
        results = run_experiments(
            names=["fig7"],
            overrides={"fig7": {"array_sizes": (32,)}},
            store=store,
            shard=(1, 2),
        )
        # A ShardStats summary, not an assembled figure: the serial shard path ran.
        assert results["fig7"].shard == (1, 2)


@pytest.fixture(scope="module")
def serial_reference():
    """The restricted suite, serial and storeless — the byte-identity oracle."""
    suite = run_all(include_fig6_arrays=(32,), robustness_trials=2)
    return json.dumps(suite_to_json(suite))


@pytest.fixture(scope="module")
def parallel_cells(tmp_path_factory):
    """One two-worker cell-computation pass into a fresh store."""
    root = tmp_path_factory.mktemp("parallel") / "store"
    store = ExperimentStore(root)
    stats = run_cells_parallel(
        SUITE_EXPERIMENTS, RESTRICTED_OVERRIDES, store, workers=2, nshards=6
    )
    return store, stats


class TestParallelExecution:
    def test_every_cell_computed_exactly_once_cold(self, parallel_cells):
        store, stats = parallel_cells
        assert sum(len(stat.shards) for stat in stats) == 6
        assert sum(stat.computed for stat in stats) > 0
        assert sum(stat.resumed for stat in stats) == 0
        assert "svd" not in {entry.kind for entry in store.ls()}, "SVDs must not spill"

    def test_leases_are_purged_after_success(self, parallel_cells):
        store, _ = parallel_cells
        assert not list((store.root / "leases").glob("*"))

    def test_warm_assembly_is_byte_identical_to_serial(
        self, parallel_cells, serial_reference
    ):
        store, _ = parallel_cells
        results = run_experiments_parallel(
            SUITE_EXPERIMENTS, RESTRICTED_OVERRIDES, store=store, workers=2
        )
        suite = run_all(
            include_fig6_arrays=(32,), robustness_trials=2, store=store, workers=1
        )
        assert json.dumps(suite_to_json(suite)) == serial_reference
        assert set(results) == set(SUITE_EXPERIMENTS)

    def test_second_parallel_run_resumes_everything(self, parallel_cells):
        store, _ = parallel_cells
        stats = run_cells_parallel(
            SUITE_EXPERIMENTS, RESTRICTED_OVERRIDES, store, workers=2, nshards=6
        )
        assert sum(stat.computed for stat in stats) == 0
        assert sum(stat.resumed for stat in stats) > 0

    def test_ephemeral_store_run_matches_serial(self, serial_reference):
        suite = run_all(include_fig6_arrays=(32,), robustness_trials=2, workers=2)
        assert json.dumps(suite_to_json(suite)) == serial_reference


class TestBackendPinning:
    def test_cli_scoped_backend_reaches_the_workers(self, tmp_path, capsys):
        """`--backend numpy32 --workers 2` must compute cells under numpy32.

        The CLI installs its backend as an ambient using_backend scope and
        passes backend=None downstream; scopes do not cross process
        boundaries, so the executor pins the *active* backend name into the
        worker specs.  Regression: unpinned workers computed (and salted)
        every cell under the default backend, and the numpy32 assembly pass
        missed all of them.
        """
        from repro.cli import main

        store_root = tmp_path / "store"
        assert main([
            "--store", str(store_root), "--backend", "numpy32",
            "report", "--arrays", "32", "--trials", "2", "--workers", "2",
        ]) == 0
        capsys.readouterr()
        wrappers = [json.loads(path.read_text()) for path in store_root.rglob("*.json")]
        assert wrappers, "the workers must have materialized grid cells"
        assert all(w["salt"].endswith("+float32") for w in wrappers), (
            "every cell must carry the numpy32 precision salt"
        )

    def test_env_workers_do_not_reject_an_explicit_shard(self, tmp_path, capsys, monkeypatch):
        """A fleet-wide $REPRO_WORKERS default must not break --shard K/N."""
        from repro.cli import main

        monkeypatch.setenv(WORKERS_ENV_VAR, "4")
        assert main([
            "--store", str(tmp_path / "store"),
            "report", "--arrays", "32", "--trials", "2", "--shard", "1/2",
        ]) == 0
        assert "shard 1/2" in capsys.readouterr().out


class TestCrashRecovery:
    def test_expired_lease_of_a_dead_worker_is_stolen_and_completed(self, tmp_path):
        """The claims of a caller killed outright must not wedge the rerun.

        Simulates the CLI process of a parallel run SIGKILLed mid-sweep:
        every shard of the plan still carries its claim, and none is done.
        The rerun purges the namespace when it starts, so it computes every
        shard at once.  Regression: the rerun sat idle until the orphaned
        claims' 120 s lease TTL ran out.
        """
        store = ExperimentStore(tmp_path / "store")
        names = ["fig7"]
        overrides = {"fig7": {"array_sizes": (32, 64)}}
        nshards = 4
        # run_cells_parallel pins the unresolved backend to the active one
        # before deriving the namespace; mirror that here.
        namespace = plan_namespace(names, overrides, nshards, "numpy64")
        board = LeaseBoard(store.root, namespace)
        for shard in range(1, nshards + 1):
            assert board.claim(shard, "dead-worker")

        started = time.monotonic()
        stats = run_cells_parallel(names, overrides, store, workers=1, nshards=nshards)
        assert time.monotonic() - started < 15.0, "the orphaned claims were waited out"
        assert sum(len(stat.shards) for stat in stats) == nshards
        assert not board.directory.exists(), "the run purges its namespace"

    def test_a_spawned_worker_whose_caller_died_claims_nothing(self, tmp_path, monkeypatch):
        """An orphan of a caller killed outright must not claim in its rerun.

        The rerun purges the namespace when it starts; a claim the orphan
        took after that would belong to no run and, were the orphan killed
        too, would hold its shard for good.
        """
        from repro.parallel import WorkerSpec, _worker_main

        class DeadCaller:
            def is_alive(self):
                return False

        monkeypatch.setattr(multiprocessing, "parent_process", DeadCaller)
        spec = WorkerSpec(
            worker_id=1,
            store_root=str(tmp_path / "store"),
            namespace="orphan",
            nshards=2,
            names=("fig7",),
            overrides=(("fig7", (("array_sizes", (32,)),)),),
        )
        stats = _worker_main(spec)
        assert stats.shards == [] and stats.computed == 0
        assert LeaseBoard(spec.store_root, "orphan").live_leases() == []

    def test_killed_worker_run_recovers_end_to_end(self, tmp_path):
        """SIGKILL one worker of a live CLI run; the report must still emerge.

        The calling process frees and re-claims the dead worker's shards as
        soon as it sees the worker gone; should the first invocation fail
        anyway, the rerun resumes from the cells in the store — both paths
        must end in a report byte-identical to the serial reference.
        """
        repo_root = Path(__file__).resolve().parents[2]
        env = {**os.environ, "PYTHONPATH": str(repo_root / "src")}
        env.pop(WORKERS_ENV_VAR, None)
        base = [
            sys.executable, "-m", "repro", "--store", str(tmp_path / "store"),
            "report", "--arrays", "32", "--trials", "2",
        ]
        reference = tmp_path / "reference.json"
        subprocess.run(
            [*base, "--json", str(reference), "--workers", "1"],
            check=True, env=env, cwd=repo_root, capture_output=True,
        )
        subprocess.run(
            ["rm", "-rf", str(tmp_path / "store")], check=True
        )

        target = tmp_path / "parallel.json"
        victim_run = subprocess.Popen(
            [*base, "--json", str(target), "--workers", "2"],
            env=env, cwd=repo_root,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        victim = self._wait_for_spawned_worker(victim_run.pid, timeout=60.0)
        if victim is not None:
            os.kill(victim, signal.SIGKILL)
        first_rc = victim_run.wait(timeout=300)

        if first_rc != 0 or not target.exists():
            rerun = subprocess.run(
                [*base, "--json", str(target), "--workers", "2"],
                env=env, cwd=repo_root, capture_output=True,
            )
            assert rerun.returncode == 0, rerun.stderr.decode()
        assert target.read_bytes() == reference.read_bytes()

    @staticmethod
    def _wait_for_spawned_worker(parent_pid: int, timeout: float):
        """The pid of a spawned worker child of ``parent_pid``, or None.

        Identified by the multiprocessing spawn bootstrap in the command line
        (the resource tracker is explicitly excluded — killing it would not
        exercise lease recovery).
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for entry in Path("/proc").iterdir():
                if not entry.name.isdigit():
                    continue
                try:
                    stat = (entry / "stat").read_text()
                    ppid = int(stat.rsplit(")", 1)[1].split()[1])
                    if ppid != parent_pid:
                        continue
                    cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ")
                except (OSError, ValueError, IndexError):
                    continue
                if b"spawn_main" in cmdline and b"resource_tracker" not in cmdline:
                    return int(entry.name)
            time.sleep(0.05)
        return None

    def test_killed_worker_shard_is_reclaimed_without_waiting_out_the_ttl(
        self, tmp_path, monkeypatch
    ):
        """A SIGKILLed worker's shard must not wait for its claim to go.

        Regression: the dead worker's lease pinned its shard for the full TTL
        before a sibling could steal it, and with no sibling left the run
        failed as incomplete.  Worker 0 now sees the worker exit without a
        word, frees its claims and re-claims the shard itself.
        """
        monkeypatch.setattr(LeaseBoard, "purge", lambda self: None)
        store = ExperimentStore(tmp_path / "store")
        started = time.monotonic()
        stats = run_cells_parallel(
            ["fig7"],
            {"fig7": {"array_sizes": (32, 64, 128), "model": KillingEnergyModel()}},
            store,
            workers=2,
        )
        assert time.monotonic() - started < 60.0, "the dead worker's claim was waited out"
        assert [stat.worker_id for stat in stats] == [0], "the killed worker sent nothing"
        assert stats[0].stolen >= 1
        namespace = next((store.root / "leases").iterdir()).name
        assert LeaseBoard(store.root, namespace).pending(default_shard_count(2)) == []

    def test_an_interrupted_worker_fails_a_run_on_a_thread_at_once(self, tmp_path):
        """Ctrl-C stops the spawned workers, not a job thread's worker 0.

        Regression: worker 0 took every worker that exited without a word
        for a killed one and re-claimed its shards, so a server job, whose
        thread no KeyboardInterrupt reaches, went on computing alone after
        Ctrl-C.  Only a SIGKILL hands the shards over; any other silent exit
        fails the run.
        """
        store = ExperimentStore(tmp_path / "store")
        outcome = []

        def job():
            try:
                run_cells_parallel(
                    ["fig7"],
                    {"fig7": {"array_sizes": (32, 64, 128), "model": InterruptedEnergyModel()}},
                    store,
                    workers=2,
                )
            except RuntimeError as error:
                outcome.append(str(error))
            else:
                outcome.append(None)

        started = time.monotonic()
        thread = threading.Thread(target=job)
        thread.start()
        thread.join(timeout=60.0)
        assert not thread.is_alive() and time.monotonic() - started < 15.0
        [message] = outcome
        assert message is not None, "worker 0 computed the interrupted worker's shards"
        assert message.startswith("parallel sweep incomplete: worker 1 (pid ")
        assert "exited with code 1 before finishing" in message
        assert message.endswith("rerunning resumes from the materialized cells")
        assert not list((store.root / "leases").glob("*")), "the failed run purges its claims"

    @staticmethod
    def _owners(store, processes):
        """The lease board and the owner ids of worker 0 and spawned worker 1."""
        namespace = next((store.root / "leases").iterdir()).name
        board = LeaseBoard(store.root, namespace)
        parent = next(
            beat.owner for beat in board.heartbeats() if beat.info["pid"] == os.getpid()
        )
        run = parent.rsplit("-", 1)[1]
        return board, parent, f"worker-1-pid{processes[1].pid}-{run}"

    def test_interrupt_teardown_expires_abandoned_leases(self, tmp_path, monkeypatch):
        """Ctrl-C in the parent must not leave claims stalling a rerun.

        Regression: the parent terminated its workers on KeyboardInterrupt
        without touching their leases, so an immediate rerun had to sit out
        up to a full TTL before it could steal the orphaned shards.  The
        teardown now purges the namespace, so no claim of worker 0 or of its
        spawned worker survives it.
        """
        store = ExperimentStore(tmp_path / "store")
        held = []

        def interrupt(processes, results, collected, timeout):
            # The operator hits Ctrl-C while worker 0 is mid-shard and its
            # spawned worker holds a shard of its own.
            board, parent, child = self._owners(store, processes)
            held.extend(
                (board.namespace, shard, parent)
                for shard, info in board.live_leases()
                if info is not None and info.owner == parent
            )
            for shard in range(1, 5):
                if board.claim(shard, child):
                    held.append((board.namespace, shard, child))
                    break
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.parallel._collect_worker_results", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_cells_parallel(
                ["fig7"], {"fig7": {"array_sizes": (32,)}}, store, workers=2, nshards=4
            )
        assert {owner.split("-")[1] for _, _, owner in held} == {"0", "1"}, (
            "worker 0 and its spawned worker must each have held a shard"
        )
        assert not list((store.root / "leases").glob("*")), (
            "no claim may outlive the interrupt teardown"
        )
        for namespace, shard, _ in held:
            assert LeaseBoard(store.root, namespace).claim(shard, "rerun-worker")


class TestFailFast:
    def test_raising_cell_fails_the_run_at_once_with_the_original_error(self, tmp_path):
        """One raising cell must fail the run at once, with its own error.

        Regression: the failing worker kept its lease, its siblings idled
        until the (default 120 s) TTL expired, stole the shard, failed the
        same way, and the parent finally reported a misleading "incomplete
        ... rerunning resumes" with the real error only in worker stderr.
        """
        from repro.experiments.fig7 import run_fig7

        store = ExperimentStore(tmp_path / "store")
        started = time.monotonic()
        with pytest.raises(RuntimeError) as failure:
            run_fig7(
                networks=("resnet20",),
                array_sizes=(32, 64, 128),
                model=PoisonedEnergyModel(),
                store=store,
                workers=2,
            )
        assert time.monotonic() - started < 15.0
        message = str(failure.value)
        assert "ValueError: poisoned cell: 64x64 array" in message
        assert "rerunning resumes" not in message
        # The failed run leaves no claim to stall a rerun.
        assert not list((store.root / "leases").glob("*"))

    def test_raising_cell_in_worker_0_fails_like_a_spawned_worker(self, tmp_path):
        """The calling process computes cells too, and fails the same way.

        With one shard, worker 0 (the calling process) claims it before the
        spawned worker is up, so the poisoned cell raises in the caller.
        """
        store = ExperimentStore(tmp_path / "store")
        started = time.monotonic()
        with pytest.raises(RuntimeError) as failure:
            run_cells_parallel(
                ["fig7"],
                {"fig7": {
                    "networks": ("resnet20",),
                    "array_sizes": (32, 64, 128),
                    "model": PoisonedEnergyModel(),
                }},
                store,
                workers=2,
                nshards=1,
            )
        assert time.monotonic() - started < 15.0
        message = str(failure.value)
        assert message.startswith(f"parallel sweep failed in worker 0 (pid {os.getpid()}):\n")
        assert "ValueError: poisoned cell: 64x64 array" in message
        assert "rerunning resumes" not in message
        assert not list((store.root / "leases").glob("*"))


class TestObservability:
    """Heartbeats, the plan manifest, and the workers-status view."""

    def test_run_leaves_plan_and_heartbeats_until_purge(self, tmp_path, monkeypatch):
        from repro.parallel import collect_workers_status, format_workers_status

        # Keep the namespace's markers alive past the run so the status
        # view can be asserted against real worker output.
        monkeypatch.setattr(LeaseBoard, "purge", lambda self: None)
        store = ExperimentStore(tmp_path / "store")
        stats = run_cells_parallel(
            ["fig7"], {"fig7": {"array_sizes": (32,)}}, store, workers=2, nshards=4
        )
        statuses = collect_workers_status(store)
        assert len(statuses) == 1
        status = statuses[0]
        assert status.plan is not None
        assert status.plan["names"] == ["fig7"]
        assert status.plan["workers"] == 2
        assert status.nshards == 4
        assert len(status.done) == 4, "every shard must carry a done marker"
        owners = sorted(beat.owner for beat in status.heartbeats)
        assert len(owners) == 2
        assert owners[0].startswith("worker-0") and owners[1].startswith("worker-1")
        for beat in status.heartbeats:
            assert beat.info["pid"] > 0
            assert "computed" in beat.info
        text = format_workers_status(statuses)
        assert "4/4 shards done" in text
        assert "worker-0" in text and "worker-1" in text
        assert sum(stat.computed for stat in stats) > 0

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_the_caller_is_worker_0_and_spawns_the_rest(self, workers, tmp_path, monkeypatch):
        """``--workers N`` starts N - 1 processes; the caller computes as worker 0."""
        from multiprocessing.context import SpawnProcess

        from repro.parallel import collect_workers_status

        spawned = []
        start = SpawnProcess.start

        def counting_start(process):
            spawned.append(process)
            start(process)

        monkeypatch.setattr(SpawnProcess, "start", counting_start)
        monkeypatch.setattr(LeaseBoard, "purge", lambda self: None)
        store = ExperimentStore(tmp_path / "store")
        stats = run_cells_parallel(
            ["fig7"], {"fig7": {"array_sizes": (32,)}}, store, workers=workers, nshards=4
        )
        assert len(spawned) == workers - 1
        assert [stat.worker_id for stat in stats] == list(range(workers))
        pids = [os.getpid(), *(process.pid for process in spawned)]
        beats = {
            beat.info["worker_id"]: beat.info["pid"]
            for status in collect_workers_status(store)
            for beat in status.heartbeats
        }
        assert beats == dict(enumerate(pids))

    def test_worker_stats_carry_race_accounting(self):
        stats = WorkerStats(worker_id=0, shards=[1], computed=2)
        assert stats.lost_races == 0 and stats.abandoned == 0

    def test_status_flags_heartbeats_older_than_the_lease_ttl(self, tmp_path):
        """A record with no beat for over ``HEARTBEAT_STALE_S`` (the old
        lease TTL's default) belongs to a dead worker.

        Regression: heartbeat files were never aged, so `repro workers
        status` showed long-dead workers indistinguishably from live ones.
        """
        from repro.parallel import collect_workers_status, format_workers_status

        store = ExperimentStore(tmp_path / "store")
        board = LeaseBoard(store.root, "ns-stale")
        board.write_plan({"names": ["fig7"], "nshards": 4})
        board.beat("worker-0-gone")
        statuses = collect_workers_status(store)
        now = time.time()
        fresh = format_workers_status(statuses, now=now + HEARTBEAT_STALE_S - 5.0)
        assert "STALE" not in fresh
        aged = format_workers_status(statuses, now=now + HEARTBEAT_STALE_S + 5.0)
        assert "STALE (no beat for" in aged and "> 120s)" in aged
