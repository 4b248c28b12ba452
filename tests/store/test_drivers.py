"""Tests for the filesystem recipes under the store and the leases.

Every correctness argument of the store and of the lease protocol rests on
two recipes: :func:`repro.store.store.atomic_write_bytes` publishes a
complete file under its final name (tmp + fsync + rename), and
:func:`repro.store.leases.create_exclusive` (``O_CREAT | O_EXCL``) admits
exactly one of any number of racing callers.
"""
from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from threading import Barrier

from repro.store import atomic_write_bytes
from repro.store.leases import LeaseBoard, create_exclusive


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


class TestLeaseBoard:
    def test_full_lease_lifecycle(self, tmp_path):
        board = LeaseBoard(tmp_path / "store", "plan")
        assert board.claim(1, "alice")
        assert not board.claim(1, "bob")
        claim = json.loads(board.lease_path(1).read_text())
        assert set(claim) == {"shard", "owner", "acquired"}
        board.mark_done(1, "alice")
        assert board.is_done(1)
        assert not board.lease_path(1).exists()
        assert not board.claim(1, "bob")
        done = json.loads(board.done_path(1).read_text())
        assert done["owner"] == "alice"
