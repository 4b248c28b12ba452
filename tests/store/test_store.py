"""ExperimentStore behavior: round-trips, validation, corruption, maintenance."""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.store import STORE_SCHEMA_VERSION, ExperimentStore, open_store
from repro.store.fingerprint import SALT_ENV_VAR
from repro.store.store import STORE_ENV_VAR

FP = "ab" * 16


@pytest.fixture
def store(tmp_path) -> ExperimentStore:
    return ExperimentStore(tmp_path / "store")


class TestJsonArtifacts:
    def test_round_trip(self, store):
        payload = {"rows": [1, 2.5, "x"], "nested": {"a": None, "b": True}}
        store.put("table1/row", FP, payload)
        assert store.get("table1/row", FP) == payload
        assert store.hits == 1 and store.puts == 1

    def test_miss_on_absent_key(self, store):
        assert store.get("table1/row", FP) is None
        assert store.misses == 1

    def test_contains_is_cheap_existence(self, store):
        assert not store.contains("k", FP)
        store.put("k", FP, {"v": 1})
        assert store.contains("k", FP)

    def test_kinds_partition_the_namespace(self, store):
        store.put("a", FP, {"v": 1})
        store.put("b", FP, {"v": 2})
        assert store.get("a", FP) == {"v": 1}
        assert store.get("b", FP) == {"v": 2}

    def test_put_overwrites_atomically(self, store):
        store.put("k", FP, {"v": 1})
        store.put("k", FP, {"v": 2})
        assert store.get("k", FP) == {"v": 2}

    def test_no_temporary_files_left_behind(self, store):
        for index in range(5):
            store.put("k", FP, {"v": index})
        leftovers = [p for p in store.root.rglob("*") if ".tmp-" in p.name]
        assert leftovers == []


class TestCorruptionDetection:
    """A damaged artifact must be treated as a miss, never served."""

    def test_truncated_artifact_is_a_miss_and_dropped(self, store):
        path = store.put("k", FP, {"rows": list(range(100))})
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert store.get("k", FP) is None
        assert store.corrupt_dropped == 1
        assert not path.exists()
        # The caller recomputes and the key works again.
        store.put("k", FP, {"rows": [1]})
        assert store.get("k", FP) == {"rows": [1]}

    def test_bit_flip_in_payload_fails_the_checksum(self, store):
        path = store.put("k", FP, {"value": 12345})
        wrapper = json.loads(path.read_text())
        wrapper["payload"]["value"] = 54321
        path.write_text(json.dumps(wrapper))
        assert store.get("k", FP) is None
        assert store.corrupt_dropped == 1

    def test_wrong_schema_version_is_a_miss(self, store):
        path = store.put("k", FP, {"v": 1})
        wrapper = json.loads(path.read_text())
        wrapper["schema"] = STORE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(wrapper))
        assert store.get("k", FP) is None

    def test_fingerprint_mismatch_is_a_miss(self, store):
        path = store.put("k", FP, {"v": 1})
        other = "cd" * 16
        target = store.path_for("k", other)
        target.parent.mkdir(parents=True, exist_ok=True)
        path.rename(target)
        assert store.get("k", other) is None

    def test_non_json_garbage_is_a_miss(self, store):
        path = store.path_for("k", FP)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"\x00\x01not json")
        assert store.get("k", FP) is None


class TestMaintenance:
    def test_ls_lists_every_artifact(self, store):
        store.put("table1/row", FP, {"v": 1})
        store.put("fig6/panel", "cd" * 16, {"v": 2})
        entries = store.ls()
        assert len(entries) == 2
        assert {entry.kind for entry in entries} == {"table1/row", "fig6/panel"}
        assert all(not entry.stale for entry in entries)

    def test_ls_flags_exactly_what_gc_removes(self, store, rng):
        """``ls`` and ``gc`` judge an artifact by one rule.

        Regression: ``ls`` listed a cell whose payload was edited as fresh,
        which ``gc`` then removed, and listed an SVD spill written by older
        versions as fresh, which ``gc`` kept.
        """
        store.put("table1/row", FP, {"v": 1})
        edited = store.put("fig6/panel", "cd" * 16, {"v": 2})
        wrapper = json.loads(edited.read_text())
        wrapper["payload"] = {"v": 3}
        edited.write_text(json.dumps(wrapper))
        spill = store.version_root / "svd" / "ef" / f"{'ef' * 16}_8x6_float64.npz"
        spill.parent.mkdir(parents=True)
        np.savez(spill, __schema__=np.int64(STORE_SCHEMA_VERSION), u=rng.standard_normal((8, 6)))

        assert {entry.path for entry in store.ls() if entry.stale} == {edited, spill}
        stats = store.gc()
        assert stats.removed == 2 and stats.kept == 1
        assert not edited.exists() and not spill.exists()
        assert store.get("table1/row", FP) == {"v": 1}

    def test_gc_keeps_valid_artifacts(self, store):
        store.put("k", FP, {"v": 1})
        stats = store.gc()
        assert stats.kept == 1 and stats.removed == 0
        assert store.get("k", FP) == {"v": 1}

    def test_gc_removes_corrupt_and_temporary_files(self, store):
        path = store.put("k", FP, {"v": 1})
        data = path.read_bytes()
        path.write_bytes(data[:10])
        tmp = path.with_name(path.name + ".tmp-123-dead")
        tmp.write_bytes(b"partial")
        stats = store.gc()
        assert stats.removed == 2
        assert not path.exists() and not tmp.exists()

    def test_gc_removes_stale_salt_artifacts(self, store, monkeypatch):
        store.put("k", FP, {"v": 1})
        monkeypatch.setenv(SALT_ENV_VAR, "new-code-version")
        stats = store.gc()
        assert stats.removed == 1 and stats.kept == 0

    def test_gc_removes_old_layout_versions(self, store):
        old = store.root / "v0" / "k"
        old.mkdir(parents=True)
        (old / "stale.json").write_text("{}")
        store.put("k", FP, {"v": 1})
        stats = store.gc()
        assert stats.removed >= 1
        assert not (store.root / "v0").exists()
        assert store.get("k", FP) == {"v": 1}

    def test_gc_prunes_stale_heartbeats_per_namespace_ttl(self, store):
        """gc drops dead workers' heartbeat records: those with no beat for
        over ``HEARTBEAT_STALE_S``, in every namespace.

        Regression: heartbeat files were never pruned, so the workers of
        every run killed outright haunted `repro workers status` forever.
        """
        import os

        from repro.store import HEARTBEAT_STALE_S, LeaseBoard

        board = LeaseBoard(store.root, "crashed-run")
        board.write_plan({"names": ["fig7"], "nshards": 4})
        board.beat("worker-0-dead")
        board.beat("worker-1-live")
        dead = board.heartbeat_path("worker-0-dead")
        stale_at = time.time() - HEARTBEAT_STALE_S - 60.0
        os.utime(dead, (stale_at, stale_at))
        # Age the record's own beat field too (pruning reads it first).
        record = json.loads(dead.read_text())
        record["beat"] = stale_at
        dead.write_text(json.dumps(record))

        stats = store.gc()
        assert stats.heartbeats_pruned == 1
        assert not dead.exists()
        assert board.heartbeat_path("worker-1-live").exists()

    def test_gc_removes_namespaces_left_empty_by_pruning(self, store):
        from repro.store import LeaseBoard

        board = LeaseBoard(store.root, "long-gone")
        board.beat("worker-0")
        record_path = board.heartbeat_path("worker-0")
        record = json.loads(record_path.read_text())
        record["beat"] = time.time() - 3600.0
        record_path.write_text(json.dumps(record))

        stats = store.gc()
        assert stats.heartbeats_pruned == 1
        assert not board.directory.exists()

    def test_clear_removes_everything(self, store):
        store.put("a", FP, {"v": 1})
        store.put("b", "cd" * 16, {"v": 2})
        assert store.clear() == 2
        assert store.get("a", FP) is None

    def test_clear_and_gc_never_touch_unrelated_data(self, store):
        """--store may point at a shared directory; only v<digits> trees are ours."""
        store.root.mkdir(parents=True, exist_ok=True)
        venv = store.root / "venv"                      # starts with "v", not a layout tree
        (venv / "bin").mkdir(parents=True)
        (venv / "bin" / "python").write_text("#!fake")
        stray = store.root / "notes.txt"
        stray.write_text("unrelated")
        store.put("a", FP, {"v": 1})

        store.gc()
        assert (venv / "bin" / "python").exists() and stray.exists()
        store.clear()
        assert (venv / "bin" / "python").exists() and stray.exists()
        assert not store.version_root.exists()

    def test_stats_by_kind(self, store):
        store.put("a", FP, {"v": 1})
        store.put("a", "cd" * 16, {"v": 2})
        totals = store.stats()
        count, size = totals["a"]
        assert count == 2 and size > 0


class TestOpenStore:
    def test_explicit_root(self, tmp_path):
        store = open_store(str(tmp_path / "s"))
        assert store is not None and store.root == tmp_path / "s"

    def test_environment_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "env-store"))
        store = open_store()
        assert store is not None and store.root == tmp_path / "env-store"

    def test_disabled_without_configuration(self, monkeypatch):
        monkeypatch.delenv(STORE_ENV_VAR, raising=False)
        assert open_store() is None
