"""Claim-protocol correctness: single-winner claims, release, completion.

The invariants the process-parallel executor stands on (see
``src/repro/store/leases.py``):

* concurrent claimants of one vacant shard never both win;
* a claim, readable or torn, holds its shard until its owner releases it
  or ``release_dead`` frees it — claims never expire;
* completion markers are permanent: a done shard is never claimable again.

The hypothesis suite drives randomized claim/release/done schedules against
a model of the one owner; the thread and fork batteries race *real*
claimants through the same filesystem arbitration the production workers use.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store.leases import HEARTBEAT_STALE_S, LeaseBoard


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def board(tmp_path, clock):
    return LeaseBoard(tmp_path / "store", "unit", clock=clock)


class TestClaimLifecycle:
    def test_vacant_shard_is_claimable_once(self, board):
        assert board.claim(1, "alice")
        assert not board.claim(1, "bob")
        info = board.read(1)
        assert info.owner == "alice" and info.shard == 1

    def test_release_makes_the_shard_claimable_again(self, board):
        assert board.claim(1, "alice")
        board.release(1, "alice")
        assert board.claim(1, "bob")

    def test_release_by_non_owner_is_a_noop(self, board):
        assert board.claim(1, "alice")
        board.release(1, "bob")
        assert board.read(1).owner == "alice"

    def test_claim_never_expires(self, board, clock):
        assert board.claim(2, "alice")
        clock.advance(1e6)
        assert not board.claim(2, "bob")
        assert board.read(2).owner == "alice"
        assert board.read(2).acquired == 1000.0

    def test_torn_claim_holds_its_shard(self, board, clock):
        """A claimant killed between its create and its payload write."""
        path = board.lease_path(7)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("")  # unreadable: no owner to release it
        old = clock() - 1e6
        os.utime(path, (old, old))
        assert not board.claim(7, "bob")
        assert board.read(7) is None
        assert board.live_leases() == [(7, None)]

    def test_done_shard_is_never_claimable(self, board, clock):
        assert board.claim(5, "alice")
        board.mark_done(5, "alice")
        assert board.is_done(5)
        assert not board.claim(5, "bob")
        clock.advance(1e6)
        assert not board.claim(5, "bob")
        # mark_done released the lease file; only the done marker remains.
        assert board.read(5) is None

    def test_pending_and_all_done(self, board):
        assert board.pending(3) == [1, 2, 3]
        board.claim(2, "alice")
        board.mark_done(2, "alice")
        assert board.pending(3) == [1, 3]
        for shard in (1, 3):
            board.claim(shard, "alice")
            board.mark_done(shard, "alice")
        assert board.all_done(3)

    def test_purge_removes_all_markers(self, board):
        board.claim(1, "alice")
        board.mark_done(1, "alice")
        board.purge()
        assert not board.directory.exists()
        assert not board.is_done(1)
        assert board.claim(1, "bob"), "a purge frees every shard"

    def test_namespaces_are_isolated(self, tmp_path, clock):
        one = LeaseBoard(tmp_path / "store", "plan-a", clock=clock)
        two = LeaseBoard(tmp_path / "store", "plan-b", clock=clock)
        assert one.claim(1, "alice")
        assert two.claim(1, "bob")
        one.mark_done(1, "alice")
        assert not two.is_done(1)


# ----------------------------------------------------------------------
# Hypothesis: randomized schedules against the single-winner model
# ----------------------------------------------------------------------
OWNERS = ("w0", "w1", "w2", "w3")


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.sampled_from(("claim", "release", "done")), st.sampled_from(OWNERS)),
        max_size=40,
    )
)
def test_schedules_never_admit_two_live_owners(tmp_path_factory, steps):
    """Model-based check: whatever the schedule, at most one claim is live.

    The model tracks who must own the claim and whether the shard is done;
    claim results and the claim on disk must match it exactly.
    """
    root = tmp_path_factory.mktemp("hyp")
    board = LeaseBoard(root / "store", "hyp", clock=FakeClock())
    owner_of_record = None
    done = False
    for action, owner in steps:
        if action == "claim":
            won = board.claim(1, owner)
            if owner_of_record is None and not done:
                assert won, "a vacant, unfinished slot must be claimable"
                owner_of_record = owner
            else:
                assert not won, "a held or finished slot must never be claimed"
        elif action == "release":
            board.release(1, owner)
            if owner_of_record == owner:
                owner_of_record = None
        else:
            board.mark_done(1, owner)
            done = True
            if owner_of_record == owner:
                owner_of_record = None
        holder = board.read(1)
        assert (holder.owner if holder else None) == owner_of_record


@settings(max_examples=15, deadline=None)
@given(claimants=st.integers(min_value=2, max_value=8))
def test_concurrent_claimants_never_both_win(tmp_path_factory, claimants):
    """Racing threads on a vacant shard — through the real filesystem
    arbitration, the exclusive create — yield exactly one winner."""
    root = tmp_path_factory.mktemp("race")
    board = LeaseBoard(root / "store", "race", clock=FakeClock())
    with ThreadPoolExecutor(max_workers=claimants) as pool:
        wins = list(pool.map(lambda i: board.claim(1, f"claimant-{i}"), range(claimants)))
    assert sum(wins) == 1
    winner = board.read(1)
    assert winner is not None and winner.owner == f"claimant-{wins.index(True)}"


# ----------------------------------------------------------------------
# Real multi-process races (the production arbitration end to end)
# ----------------------------------------------------------------------
def _claim_once(root: str, shard: int, owner: str, barrier, results) -> None:
    board = LeaseBoard(root, "mp")
    barrier.wait()
    results.put((owner, board.claim(shard, owner)))


@pytest.fixture
def mp_context():
    # fork keeps the children on the test process's sys.path (src layout).
    return multiprocessing.get_context("fork")


class TestMultiProcessClaims:
    @pytest.mark.parametrize("processes", [2, 4])
    def test_exactly_one_process_wins_a_vacant_shard(self, tmp_path, mp_context, processes):
        barrier = mp_context.Barrier(processes)
        results = mp_context.Queue()
        workers = [
            mp_context.Process(
                target=_claim_once,
                args=(str(tmp_path / "store"), 1, f"proc-{index}", barrier, results),
            )
            for index in range(processes)
        ]
        for proc in workers:
            proc.start()
        outcomes = [results.get(timeout=60) for _ in workers]
        for proc in workers:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        assert sum(won for _, won in outcomes) == 1
        board = LeaseBoard(tmp_path / "store", "mp")
        winner = board.read(1)
        assert winner is not None
        assert (winner.owner, True) in outcomes


def _churn_worker(root: str, nshards: int, rounds: int, owner: str, barrier, results) -> None:
    """Claim/compute/release churn over every shard, recording mutual-exclusion
    violations via an O_EXCL critical-section marker next to each shard."""
    board = LeaseBoard(root, "churn")
    violations = 0
    wins = 0
    barrier.wait()
    for round_no in range(rounds):
        for shard in range(nshards):
            if not board.claim(shard, owner):
                continue
            wins += 1
            marker = board.directory / f"shard-{shard}.busy"
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                violations += 1
            else:
                os.close(fd)
                if board.read(shard).owner != owner:
                    violations += 1  # a held claim must stay the holder's
                os.unlink(marker)
            board.release(shard, owner)
    results.put((owner, wins, violations))


class TestMultiProcessStress:
    def test_churn_never_admits_two_holders(self, tmp_path, mp_context):
        """Four processes churn claim/release over four shards; the O_EXCL
        busy-marker proves at most one holder per shard at any time, and
        every held claim reads back as its holder's."""
        nprocs, nshards, rounds = 4, 4, 15
        barrier = mp_context.Barrier(nprocs)
        results = mp_context.Queue()
        workers = [
            mp_context.Process(
                target=_churn_worker,
                args=(str(tmp_path / "store"), nshards, rounds, f"proc-{index}", barrier, results),
            )
            for index in range(nprocs)
        ]
        for proc in workers:
            proc.start()
        outcomes = [results.get(timeout=120) for _ in workers]
        for proc in workers:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        assert sum(violations for _, _, violations in outcomes) == 0
        assert sum(wins for _, wins, _ in outcomes) > 0, "the churn must make progress"


class TestStoreIntegration:
    def test_store_clear_removes_lease_state(self, tmp_path):
        from repro.store import ExperimentStore

        store = ExperimentStore(tmp_path / "store")
        store.put("k", "ab" * 16, {"v": 1})
        board = LeaseBoard(store.root, "plan")
        board.claim(1, "alice")
        board.mark_done(2, "alice")
        store.clear()
        assert not (store.root / "leases").exists()
        assert store.get("k", "ab" * 16) is None


class TestReleaseDead:
    """Worker 0 frees the claims of a spawned worker it saw SIGKILLed."""

    def test_frees_the_dead_owners_claims_and_keeps_the_others(self, board):
        assert board.claim(1, "worker-1-dead")
        assert board.claim(2, "worker-2-live")
        assert board.claim(3, "worker-1-dead")
        assert board.release_dead("worker-1-dead") == [1, 3]
        assert [(shard, info.owner) for shard, info in board.live_leases()] == [
            (2, "worker-2-live")
        ]
        assert board.claim(1, "worker-0") and board.claim(3, "worker-0")

    def test_frees_torn_claims(self, board):
        torn = board.lease_path(4)
        torn.parent.mkdir(parents=True, exist_ok=True)
        torn.write_text("{")
        assert board.claim(5, "worker-2-live")
        assert board.release_dead("worker-1-dead") == [4]
        assert not torn.exists()
        assert board.read(5).owner == "worker-2-live"
        assert board.claim(4, "worker-0")

    def test_leaves_done_markers_alone(self, board):
        assert board.claim(6, "worker-1-dead")
        board.mark_done(6, "worker-1-dead")
        assert board.release_dead("worker-1-dead") == []
        assert board.is_done(6) and not board.claim(6, "worker-0")


class TestHeartbeatPruning:
    """Records older than ``HEARTBEAT_STALE_S`` (the "ttl" of the test names,
    the old lease TTL's default) are pruned; younger ones survive."""

    def test_stale_records_pruned_fresh_ones_kept(self, board, clock):
        board.beat("old-worker", computed=3)
        clock.advance(HEARTBEAT_STALE_S + 1.0)
        board.beat("live-worker", computed=5)
        assert board.prune_heartbeats() == 1
        assert [beat.owner for beat in board.heartbeats()] == ["live-worker"]

    def test_records_younger_than_the_ttl_survive(self, board, clock):
        board.beat("w")
        clock.advance(HEARTBEAT_STALE_S - 1.0)
        assert board.prune_heartbeats() == 0
        assert [beat.owner for beat in board.heartbeats()] == ["w"]

    def test_explicit_max_age_overrides_the_ttl(self, board, clock):
        board.beat("w")
        clock.advance(10.0)
        assert board.prune_heartbeats(max_age=5.0) == 1
        assert board.heartbeats() == []

    def test_torn_record_is_judged_by_file_mtime(self, board, clock):
        board.directory.mkdir(parents=True, exist_ok=True)
        torn = board.heartbeat_path("torn")
        torn.write_text("{not json")
        old = clock.now - HEARTBEAT_STALE_S - 1.0
        os.utime(torn, (old, old))
        assert board.prune_heartbeats() == 1
        assert not torn.exists()
