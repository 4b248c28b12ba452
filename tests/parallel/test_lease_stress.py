"""Repetition stress battery for the exclusive claim of a vacant shard.

A two-winner claim race only ever surfaced intermittently — a thread had
to act inside another thread's claim window — so this module races claims
on one shard in a loop that CI can run hundreds of times per job.

``REPRO_LEASE_STRESS_ROUNDS`` scales the repetition count (default 20
for local runs; the dedicated CI job raises it to 200).  Every round
must produce *exactly one* winner: two winners would let two workers
compute one shard, zero would leave it unclaimed.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from threading import Barrier

import pytest

from repro.store.leases import LeaseBoard

ROUNDS = int(os.environ.get("REPRO_LEASE_STRESS_ROUNDS", "20"))
CLAIMANTS = 16


def _race_one_round(root, namespace: str) -> int:
    """Race CLAIMANTS threads at a single vacant shard; return the win count."""
    barrier = Barrier(CLAIMANTS)

    def claimant(index: int) -> bool:
        board = LeaseBoard(root, namespace)
        barrier.wait()
        return board.claim(0, f"claimant-{index}")

    with ThreadPoolExecutor(max_workers=CLAIMANTS) as pool:
        wins = list(pool.map(claimant, range(CLAIMANTS)))
    return sum(wins)


@pytest.mark.parametrize("slot", ["vacant"])
def test_repeated_claim_races_have_exactly_one_winner(tmp_path, slot):
    for round_no in range(ROUNDS):
        wins = _race_one_round(tmp_path / "store", f"stress-{slot}-{round_no}")
        assert wins == 1, (
            f"round {round_no}: {wins} winners "
            f"({'two winners' if wins > 1 else 'no winner'})"
        )
