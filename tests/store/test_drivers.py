"""Tests for the filesystem recipes under the store and the leases.

Every correctness argument of the store and of the lease protocol rests on
three recipes: :func:`repro.store.store.atomic_write_bytes` publishes a
complete file under its final name (tmp + fsync + rename), while
:func:`repro.store.leases.create_exclusive` (``O_CREAT | O_EXCL``) and the
``mkdir`` lock of :func:`repro.store.leases.acquire_lock` each admit exactly
one of any number of racing callers.
"""
from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from threading import Barrier

from repro.store import atomic_write_bytes
from repro.store.leases import LeaseBoard, acquire_lock, create_exclusive, release_lock


class TestAtomicWrite:
    def test_round_trip_leaves_no_temporaries(self, tmp_path):
        path = tmp_path / "a" / "b.json"
        atomic_write_bytes(path, b"old")
        atomic_write_bytes(path, b"payload")
        assert path.read_bytes() == b"payload"
        assert [p.name for p in path.parent.iterdir()] == ["b.json"]


class TestCreateExclusive:
    def test_single_winner(self, tmp_path):
        path = tmp_path / "slot"
        assert create_exclusive(path, b"first")
        assert not create_exclusive(path, b"second")
        assert path.read_bytes() == b"first"

    def test_concurrent_creates_have_one_winner(self, tmp_path):
        """Barrier-synced racers on the create that arbitrates every fresh claim."""
        target = tmp_path / "slot"
        racers = 8
        barrier = Barrier(racers)

        def create(index: int) -> bool:
            barrier.wait()
            return create_exclusive(target, f"racer-{index}".encode())

        with ThreadPoolExecutor(max_workers=racers) as pool:
            wins = list(pool.map(create, range(racers)))
        assert sum(wins) == 1
        winner = wins.index(True)
        assert target.read_bytes() == f"racer-{winner}".encode()
        assert [p.name for p in tmp_path.iterdir()] == ["slot"]


class TestLock:
    def test_lock_is_exclusive_until_released(self, tmp_path):
        lock = tmp_path / "shard-0.mutex"
        assert acquire_lock(lock)
        assert not acquire_lock(lock)
        release_lock(lock)
        assert acquire_lock(lock)


class TestLeaseBoard:
    def test_full_lease_lifecycle(self, tmp_path):
        board = LeaseBoard(tmp_path / "store", "plan", ttl=30.0)
        assert board.claim(1, "alice")
        assert not board.claim(1, "bob")
        assert board.renew(1, "alice")
        board.mark_done(1, "alice")
        assert board.is_done(1)
        assert not board.claim(1, "bob")
        lease = json.loads(board.done_path(1).read_text())
        assert lease["owner"] == "alice"
