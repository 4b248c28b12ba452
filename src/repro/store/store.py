"""Content-addressed on-disk artifact store for experiment results.

Layout (all under one root directory, e.g. ``~/.cache/repro-store`` or the
CLI's ``--store DIR``)::

    <root>/v1/<kind>/<fp[:2]>/<fp>.json     sweep-cell results (wrapped JSON)

``v1`` is the on-disk schema version (:data:`STORE_SCHEMA_VERSION`); a future
layout change bumps it and :meth:`ExperimentStore.gc` collects the old trees.
``kind`` names the artifact family (``table1/row``, ``fig6/panel``, …) and
``fp`` is the canonical fingerprint of the producing configuration
(:mod:`repro.store.fingerprint`).

Correctness properties the test battery pins:

* **Atomicity** — artifacts are written to a same-directory temporary file,
  fsynced, then ``os.replace``-d into place, so concurrent writers racing on
  one key leave exactly one valid artifact (the last rename wins) and a
  reader never observes a partial write under the final name.
* **Self-validation** — every JSON artifact wraps its payload with the schema
  version, kind, fingerprint and a blake2b checksum; :meth:`get` verifies all
  four and treats any mismatch (truncation, bit-rot, schema drift) as a miss,
  dropping the corrupt file so the caller recomputes instead of being served
  garbage.
* **Invalidation** — fingerprints embed the code-version salt, so intentional
  numeric changes simply stop matching old artifacts.  ``ls`` flags as stale
  exactly what ``gc`` removes: stale-salt, stale-schema and corrupt JSON, and
  any file that is not a JSON artifact (such as the SVD factors older
  versions spilled); ``gc`` also removes leftover temporary files, and
  ``clear`` removes everything.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, FrozenSet, Iterator, List, Mapping, Optional, Tuple

from .fingerprint import active_salt, valid_salts

__all__ = [
    "STORE_SCHEMA_VERSION",
    "STORE_ENV_VAR",
    "ArtifactInfo",
    "GcStats",
    "ExperimentStore",
    "atomic_write_bytes",
    "default_store_root",
    "open_store",
]

#: On-disk layout version; bump on any wrapper/layout change.
STORE_SCHEMA_VERSION = 1

#: Environment variable naming the default store root.
STORE_ENV_VAR = "REPRO_STORE"

_KIND_SANITIZER = re.compile(r"[^A-Za-z0-9._-]+")
_TOKEN_SANITIZER = re.compile(r"[^A-Za-z0-9._x-]+")


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Publish ``data`` at ``path`` atomically (tmp + fsync + rename).

    The one durability recipe every store-adjacent writer shares (artifacts,
    lease/done markers, heartbeats): a same-directory uniquely-named
    temporary file, fsynced, then ``os.replace``-d into place, so racing
    writers leave exactly one valid file and a reader never observes a
    partial write under the final name.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}-{os.urandom(4).hex()}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            try:
                tmp.unlink()
            except OSError:
                pass


def default_store_root() -> Optional[str]:
    """The store root named by ``REPRO_STORE``, if any."""
    return os.environ.get(STORE_ENV_VAR) or None


def open_store(root: Optional[str] = None) -> Optional["ExperimentStore"]:
    """Open the store at ``root`` (or the environment default); None disables caching."""
    root = root or default_store_root()
    return ExperimentStore(root) if root else None


@dataclass(frozen=True)
class ArtifactInfo:
    """One artifact as listed by :meth:`ExperimentStore.ls`."""

    kind: str
    fingerprint: str
    path: Path
    size_bytes: int
    mtime: float
    salt: Optional[str]
    stale: bool


@dataclass
class GcStats:
    """What one :meth:`ExperimentStore.gc` pass removed."""

    removed: int = 0
    freed_bytes: int = 0
    kept: int = 0
    #: Stale worker heartbeat records dropped from lease namespaces.
    heartbeats_pruned: int = 0


def _payload_checksum(payload: Any) -> str:
    data = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(data.encode("utf-8"), digest_size=16).hexdigest()


def _read_artifact(
    path: Path, salts: FrozenSet[str]
) -> Tuple[Optional[Dict[str, Any]], bool]:
    """One artifact file's wrapper (None when unreadable) and whether it is stale.

    The one rule :meth:`ExperimentStore.ls` reports and
    :meth:`ExperimentStore.gc` enforces: an artifact is fresh only when it is a
    JSON wrapper of the current schema, under one of ``salts``, whose payload
    matches its checksum.
    """
    if path.suffix != ".json":
        return None, True
    try:
        wrapper = json.loads(path.read_text(encoding="utf-8"))
        fresh = (
            wrapper["schema"] == STORE_SCHEMA_VERSION
            and wrapper["salt"] in salts
            and wrapper["checksum"] == _payload_checksum(wrapper["payload"])
        )
    except (ValueError, KeyError, TypeError, OSError):
        return None, True
    return wrapper, not fresh


class ExperimentStore:
    """Content-addressed artifact store shared by processes via the filesystem.

    Artifacts are published with :func:`atomic_write_bytes` and read back
    with plain file reads; the lease boards opened on this store use the
    same publish recipe (ENGINE.md, "Filesystem primitives").
    """

    def __init__(self, root: "str | os.PathLike[str]") -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.corrupt_dropped = 0

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def version_root(self) -> Path:
        return self.root / f"v{STORE_SCHEMA_VERSION}"

    def path_for(self, kind: str, fingerprint: str) -> Path:
        kind_dir = "/".join(
            _KIND_SANITIZER.sub("_", part) for part in kind.split("/") if part
        )
        token = _TOKEN_SANITIZER.sub("_", fingerprint)
        return self.version_root / kind_dir / token[:2] / f"{token}.json"

    def contains(self, kind: str, fingerprint: str) -> bool:
        """Cheap existence probe (full validation happens on :meth:`get`)."""
        return self.path_for(kind, fingerprint).exists()

    def drop(self, kind: str, fingerprint: str) -> None:
        """Discard one artifact (e.g. a payload the caller could not decode)."""
        self._drop_corrupt(self.path_for(kind, fingerprint))

    # ------------------------------------------------------------------
    # JSON artifacts
    # ------------------------------------------------------------------
    def get(self, kind: str, fingerprint: str) -> Optional[Any]:
        """The stored payload for a key, or None on miss/corruption.

        A corrupt or schema-incompatible artifact is dropped so the caller
        recomputes; it is never served.
        """
        path = self.path_for(kind, fingerprint)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            self.misses += 1
            return None
        try:
            wrapper = json.loads(raw)
            if (
                wrapper["schema"] != STORE_SCHEMA_VERSION
                or wrapper["fingerprint"] != fingerprint
                or wrapper["checksum"] != _payload_checksum(wrapper["payload"])
            ):
                raise ValueError("artifact failed validation")
            payload = wrapper["payload"]
        except (ValueError, KeyError, TypeError):
            self._drop_corrupt(path)
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(
        self,
        kind: str,
        fingerprint: str,
        payload: Any,
        meta: Optional[Mapping[str, Any]] = None,
    ) -> Path:
        """Atomically persist a payload under its fingerprint; returns the path."""
        wrapper = {
            "schema": STORE_SCHEMA_VERSION,
            "kind": kind,
            "fingerprint": fingerprint,
            "salt": active_salt(),
            "created": time.time(),
            "meta": dict(meta) if meta else {},
            "payload": payload,
            "checksum": _payload_checksum(payload),
        }
        path = self.path_for(kind, fingerprint)
        atomic_write_bytes(path, json.dumps(wrapper, indent=None).encode("utf-8"))
        self.puts += 1
        return path

    # ------------------------------------------------------------------
    # Maintenance: ls / gc / clear
    # ------------------------------------------------------------------
    def ls(self) -> List[ArtifactInfo]:
        """Every artifact in the store, with its kind, size and staleness."""
        entries: List[ArtifactInfo] = []
        salts = valid_salts()
        for path in sorted(self._iter_artifacts()):
            stat = path.stat()
            wrapper, stale = _read_artifact(path, salts)
            wrapper = wrapper or {}
            entries.append(
                ArtifactInfo(
                    kind=wrapper.get(
                        "kind", str(path.parent.parent.relative_to(self.version_root))
                    ),
                    fingerprint=path.stem,
                    path=path,
                    size_bytes=stat.st_size,
                    mtime=stat.st_mtime,
                    salt=wrapper.get("salt"),
                    stale=stale,
                )
            )
        return entries

    def _version_trees(self) -> List[Path]:
        """The ``v<digits>`` layout trees under the root — the only directories
        the store ever considers its own (a user pointing ``--store`` at an
        existing directory must never lose unrelated data to gc/clear)."""
        if not self.root.exists():
            return []
        return [
            child
            for child in self.root.iterdir()
            if child.is_dir() and re.fullmatch(r"v\d+", child.name)
        ]

    def gc(self) -> GcStats:
        """Remove every artifact :meth:`ls` flags stale, and temporary files."""
        stats = GcStats()
        # Old layout versions are invalid wholesale.
        for child in self._version_trees():
            if child != self.version_root:
                stats.removed += sum(1 for p in child.rglob("*") if p.is_file())
                stats.freed_bytes += sum(
                    p.stat().st_size for p in child.rglob("*") if p.is_file()
                )
                shutil.rmtree(child, ignore_errors=True)
        if not self.version_root.exists():
            # Still a useful pass: a store holding only coordination debris
            # (e.g. after `store clear`, or a crashed run that never put an
            # artifact) must shed its dead workers' heartbeats too.
            stats.heartbeats_pruned = self._prune_stale_heartbeats()
            return stats
        salts = valid_salts()
        for path in list(self.version_root.rglob("*")):
            if not path.is_file():
                continue
            if ".tmp-" in path.name or _read_artifact(path, salts)[1]:
                stats.removed += 1
                stats.freed_bytes += path.stat().st_size
                self._drop_corrupt(path)
            else:
                stats.kept += 1
        stats.heartbeats_pruned = self._prune_stale_heartbeats()
        return stats

    def _prune_stale_heartbeats(self) -> int:
        """Drop dead workers' heartbeat records from every lease namespace.

        Successful sweeps purge their whole namespace, but a crashed or
        interrupted one leaves its heartbeats behind; without gc they
        accumulate forever and clutter ``repro workers status``.  Each
        namespace's staleness yardstick is its own lease TTL (from the plan
        manifest when present).  A namespace left completely empty is
        removed outright.
        """
        from .leases import LeaseBoard

        leases_root = self.root / "leases"
        if not leases_root.is_dir():
            return 0
        pruned = 0
        for child in sorted(leases_root.iterdir()):
            if not child.is_dir():
                continue
            board = LeaseBoard(self.root, child.name)
            plan = board.read_plan()
            if plan is not None and isinstance(plan.get("lease_ttl"), (int, float)):
                if plan["lease_ttl"] > 0:
                    board.ttl = float(plan["lease_ttl"])
            pruned += board.prune_heartbeats()
            try:
                child.rmdir()  # only succeeds when nothing else remains
            except OSError:
                pass
        return pruned

    def clear(self) -> int:
        """Remove every artifact; returns how many files were deleted.

        Only the store's own ``v<digits>`` layout trees and the ``leases``
        coordination tree (:mod:`repro.store.leases`) are removed — never the
        root directory itself, which the user may share with other data.
        """
        removed = sum(1 for _ in self._iter_artifacts())
        for child in self._version_trees():
            shutil.rmtree(child, ignore_errors=True)
        shutil.rmtree(self.root / "leases", ignore_errors=True)
        return removed

    def stats(self, entries: Optional[List[ArtifactInfo]] = None) -> Dict[str, Tuple[int, int]]:
        """``{kind: (artifact count, total bytes)}`` for everything stored.

        Pass the entries from an :meth:`ls` already in hand to avoid a second
        walk over the artifact tree.
        """
        totals: Dict[str, Tuple[int, int]] = {}
        for entry in self.ls() if entries is None else entries:
            count, size = totals.get(entry.kind, (0, 0))
            totals[entry.kind] = (count + 1, size + entry.size_bytes)
        return totals

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _iter_artifacts(self) -> Iterator[Path]:
        if not self.version_root.exists():
            return
        for path in self.version_root.rglob("*"):
            if path.is_file() and ".tmp-" not in path.name:
                yield path

    def _drop_corrupt(self, path: Path) -> None:
        self.corrupt_dropped += 1
        try:
            path.unlink()
        except OSError:
            pass
