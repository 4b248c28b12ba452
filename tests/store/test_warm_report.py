"""Cold-vs-warm integration: the full suite through ``main()`` twice.

The store's headline contract: a warm rerun of ``repro report --json`` (i)
computes nothing — every artifact in the store is untouched byte-for-byte —
and (ii) emits byte-identical text and JSON to the cold run.  The sharded
variant must compose: shards 1..N into one store, then an un-sharded warm
assembly, equals a direct cold run with no store at all.

The sweeps are restricted (``--arrays 32 --trials 2``) to keep the suite's
runtime in check; the full-sweep equivalence is pinned by the golden-report
warm pass (``tests/golden``) and measured by ``benchmarks/kernel_timings.py``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.cli import main

REPORT_ARGS = ["report", "--arrays", "32", "--trials", "2"]


def run_report(tmp_path: Path, store: Path, tag: str, capsys, extra=()):
    target = tmp_path / f"{tag}.json"
    start = time.perf_counter()
    exit_code = main(["--store", str(store), *REPORT_ARGS, *extra, "--json", str(target)])
    elapsed = time.perf_counter() - start
    text = capsys.readouterr().out
    assert exit_code == 0
    return target.read_bytes(), text, elapsed


def store_inventory(store: Path):
    """Every artifact with its exact (size, mtime_ns) — recomputes are visible."""
    return {
        str(path.relative_to(store)): (path.stat().st_size, path.stat().st_mtime_ns)
        for path in sorted(store.rglob("*"))
        if path.is_file()
    }


class TestColdVersusWarm:
    def test_warm_run_hits_the_store_and_is_byte_identical(self, tmp_path, capsys):
        store = tmp_path / "store"
        cold_json, cold_text, cold_time = run_report(tmp_path, store, "cold", capsys)
        inventory = store_inventory(store)
        assert inventory, "cold run must materialize artifacts"
        # Only cells persist: the SVDs stay in the process that computed them.
        assert all(name.startswith("v1/") and name.endswith(".json") for name in inventory)
        assert not (store / "v1" / "svd").exists()

        warm_json, warm_text, warm_time = run_report(tmp_path, store, "warm", capsys)
        assert warm_json == cold_json
        assert warm_text == cold_text
        # Nothing was recomputed: every artifact byte and timestamp is untouched.
        assert store_inventory(store) == inventory
        # Not a 5x assertion (CI timing is noisy; the benchmark emitter pins
        # the ratio) — but a warm assembly must at least beat the cold sweep.
        assert warm_time < cold_time

    def test_corrupt_artifact_is_recomputed_not_served(self, tmp_path, capsys):
        store = tmp_path / "store"
        cold_json, _, _ = run_report(tmp_path, store, "cold", capsys)
        victims = [path for path in store.rglob("*.json") if "table1" in str(path)]
        victim = victims[0]
        data = victim.read_bytes()
        victim.write_bytes(data[: len(data) // 2])

        warm_json, _, _ = run_report(tmp_path, store, "warm", capsys)
        assert warm_json == cold_json
        # The victim was recomputed and re-persisted, valid again.
        wrapper = json.loads(victim.read_text())
        assert wrapper["payload"]


class TestShardedExecution:
    @pytest.fixture(scope="class")
    def direct_cold_json(self, tmp_path_factory):
        """A storeless cold run — the reference the sharded path must match."""
        target = tmp_path_factory.mktemp("direct") / "direct.json"
        assert main([*REPORT_ARGS, "--json", str(target)]) == 0
        return target.read_bytes()

    def test_shards_compose_into_a_byte_identical_report(
        self, tmp_path, capsys, direct_cold_json
    ):
        store = tmp_path / "store"
        for shard in ("1/2", "2/2"):
            assert main(["--store", str(store), *REPORT_ARGS, "--shard", shard]) == 0
            summary = capsys.readouterr().out
            assert f"shard {shard}" in summary

        warm_json, _, _ = run_report(tmp_path, store, "assembled", capsys)
        assert warm_json == direct_cold_json

    def test_interrupted_shard_resumes_without_recomputation(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["--store", str(store), *REPORT_ARGS, "--shard", "1/2"]) == 0
        capsys.readouterr()
        inventory = store_inventory(store)

        # Simulate an interruption that lost one completed cell.
        victim = sorted(
            path for path in store.rglob("*.json")
            if "robustness" in str(path) or "table1" in str(path)
        )[0]
        victim.unlink()

        assert main(["--store", str(store), *REPORT_ARGS, "--shard", "1/2"]) == 0
        second = capsys.readouterr().out
        # Exactly the lost cell was recomputed; every other artifact's bytes
        # and timestamps are untouched.
        assert "shard total: computed 1, resumed" in second
        after = store_inventory(store)
        recomputed = {
            key for key in after if key not in inventory or after[key] != inventory[key]
        }
        assert recomputed == {str(victim.relative_to(store))}

    def test_shard_requires_a_store(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        with pytest.raises(SystemExit):
            main([*REPORT_ARGS, "--shard", "1/2"])
        capsys.readouterr()

    def test_invalid_shard_spec_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["--store", str(tmp_path / "s"), *REPORT_ARGS, "--shard", "3/2"])
        capsys.readouterr()

    def test_shard_rejects_json_instead_of_silently_skipping_it(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        with pytest.raises(SystemExit):
            main([
                "--store", str(tmp_path / "s"), *REPORT_ARGS,
                "--shard", "1/2", "--json", str(target),
            ])
        capsys.readouterr()
        assert not target.exists()
