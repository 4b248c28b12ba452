"""Shard leases: work claiming over the shared experiment store.

A process-parallel sweep (:mod:`repro.parallel`) partitions its grid into
``N`` fingerprint-hash shards and lets every worker process *claim* shards
dynamically instead of being assigned a fixed slice — a work-stealing queue
with the store directory as the only shared medium.  Each run owns its
namespace, ``<store root>/leases/<namespace>/``: it purges the namespace
when it starts and again when it ends, whether it succeeds or fails, so
only a run killed outright leaves markers behind, and the next run of the
same plan clears them.  The namespace holds marker files per shard:

``shard-K.lease``
    A claim, held by exactly one worker of the run.  Created atomically (an
    ``O_CREAT | O_EXCL`` create arbitrates racing claimants: exactly one
    succeeds), carrying the owner id and the claim time.  A claim never
    expires: its owner removes it when the shard is done, and worker 0
    removes the claims of a spawned worker it saw die by SIGKILL
    (:meth:`LeaseBoard.release_dead`).
``shard-K.done``
    Completion marker, written after every grid cell of the shard has been
    persisted to the store.
``<worker>.heartbeat``
    One per worker: a liveness record refreshed between experiments and
    while idle, carrying the worker's pid/host and its progress counters —
    what ``repro workers status`` renders for an in-flight sweep.  A record
    older than :data:`HEARTBEAT_STALE_S` belongs to a dead (or wedged)
    worker.
``plan.json``
    The sweep plan manifest (experiments, shard count, backend, worker
    count) the parent publishes before spawning, so an operator inspecting
    the namespace can tell what is running and how far along it is.

Correctness properties the test battery pins:

* **At most one winner** — concurrent :meth:`LeaseBoard.claim` calls on one
  vacant shard never both succeed; :func:`create_exclusive` arbitrates.
* **A claim holds its shard** until its owner releases it or worker 0 frees
  it — a torn claim file (a claimant killed between its create and its
  payload write) holds the shard too, until :meth:`LeaseBoard.release_dead`.
* **Completion is monotonic** — once ``mark_done`` returns, every later
  :meth:`claim` of that shard returns ``False`` until the namespace is
  purged.

Losing a claim race is never incorrect, merely redundant: cells are
content-addressed and writes are atomic last-writer-wins, so two workers
computing the same shard produce identical artifacts.  The claims exist to
make that duplication rare, not to make it unsafe.

Two filesystem recipes carry the protocol: :func:`create_exclusive` here,
and the tmp + fsync + rename publish of
:func:`repro.store.store.atomic_write_bytes`.  Each is atomic on a local
filesystem and on NFSv3 or later, so workers on different hosts can share
one store root (ENGINE.md, "Filesystem primitives").
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import shutil
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from .store import atomic_write_bytes

__all__ = [
    "HEARTBEAT_STALE_S",
    "LeaseInfo",
    "HeartbeatInfo",
    "LeaseBoard",
    "create_exclusive",
]

#: Seconds without a beat after which a worker's heartbeat counts as stale:
#: flagged in ``repro workers status``, ``GET /workers`` and job progress,
#: and pruned by ``repro store gc``.  A live worker beats between the
#: experiments of a shard and while idle.
HEARTBEAT_STALE_S = 120.0

_NAMESPACE_SANITIZER = re.compile(r"[^A-Za-z0-9._-]+")

_LEASE_FILE = re.compile(r"shard-(\d+)\.lease$")
_DONE_FILE = re.compile(r"shard-(\d+)\.done$")


def create_exclusive(path: Path, data: bytes) -> bool:
    """Create ``path`` with ``data`` iff absent; the FS admits one winner."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
    except OSError:  # pragma: no cover - disk failure mid-create
        try:
            path.unlink()
        except OSError:
            pass
        return False
    return True


def _read_bytes(path: Path) -> Optional[bytes]:
    """The file's bytes, or None when absent/unreadable."""
    try:
        return path.read_bytes()
    except OSError:
        return None


def _mtime(path: Path) -> Optional[float]:
    try:
        return path.stat().st_mtime
    except OSError:
        return None


@dataclass(frozen=True)
class LeaseInfo:
    """One decoded claim file."""

    shard: int
    owner: str
    acquired: float


@dataclass(frozen=True)
class HeartbeatInfo:
    """One decoded worker heartbeat record."""

    owner: str
    beat: float
    info: Dict[str, Any] = field(default_factory=dict)

    def age(self, now: float) -> float:
        return max(0.0, now - self.beat)


class LeaseBoard:
    """The claim + done markers of one sweep's shards, under a store root.

    ``namespace`` scopes the board to one (experiment selection, overrides,
    shard count, salt) plan — see :func:`repro.parallel.plan_namespace` — so
    markers from a differently-configured sweep can never be mistaken for
    this one's.  ``clock`` is injectable for deterministic heartbeat tests.
    """

    def __init__(
        self,
        root: "str | os.PathLike[str]",
        namespace: str,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.clock = clock
        self.namespace = _NAMESPACE_SANITIZER.sub("_", namespace)
        self.directory = Path(root) / "leases" / self.namespace

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def lease_path(self, shard: int) -> Path:
        return self.directory / f"shard-{shard}.lease"

    def done_path(self, shard: int) -> Path:
        return self.directory / f"shard-{shard}.done"

    def heartbeat_path(self, owner: str) -> Path:
        return self.directory / f"{_NAMESPACE_SANITIZER.sub('_', owner)}.heartbeat"

    def plan_path(self) -> Path:
        return self.directory / "plan.json"

    # ------------------------------------------------------------------
    # Claiming
    # ------------------------------------------------------------------
    def claim(self, shard: int, owner: str) -> bool:
        """Try to take the shard's claim; True means this caller now owns it.

        A completed shard is never claimable, and neither is a claimed one:
        a claim file, readable or torn, holds its shard until it is removed.
        """
        if self.is_done(shard):
            return False
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            {"shard": shard, "owner": owner, "acquired": self.clock()},
            separators=(",", ":"),
        )
        return create_exclusive(self.lease_path(shard), payload.encode("utf-8"))

    def release(self, shard: int, owner: str) -> None:
        """Remove the shard's claim if ``owner`` holds it."""
        holder = self.read(shard)
        if holder is not None and holder.owner == owner:
            with contextlib.suppress(OSError):
                self.lease_path(shard).unlink()

    def release_dead(self, owner: str) -> List[int]:
        """Remove the claims of ``owner``, a worker known to be dead.

        Torn claims go too: a claimant killed between its exclusive create
        and its payload write leaves a claim no owner can release.  Returns
        the freed shards.
        """
        freed: List[int] = []
        for shard, info in self.live_leases():
            if info is None or info.owner == owner:
                with contextlib.suppress(OSError):
                    self.lease_path(shard).unlink()
                freed.append(shard)
        return freed

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def mark_done(self, shard: int, owner: str) -> None:
        """Persist the shard's completion marker and release the claim."""
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            {"shard": shard, "owner": owner, "completed": self.clock()},
            separators=(",", ":"),
        )
        self._write_atomic(self.done_path(shard), payload)
        self.release(shard, owner)

    def is_done(self, shard: int) -> bool:
        return self.done_path(shard).exists()

    def pending(self, nshards: int) -> List[int]:
        """Shards (1-based) whose completion marker is absent."""
        return [shard for shard in range(1, nshards + 1) if not self.is_done(shard)]

    def all_done(self, nshards: int) -> bool:
        return not self.pending(nshards)

    # ------------------------------------------------------------------
    # Heartbeats / plan manifest (the `repro workers status` surface)
    # ------------------------------------------------------------------
    def beat(self, owner: str, **info: Any) -> None:
        """Publish (or refresh) the worker's liveness record.

        Carries whatever counters the worker wants an operator to see
        (finished shards, computed cells, …) plus pid/host identity by
        default.
        """
        record = {
            "owner": owner,
            "beat": self.clock(),
            "pid": os.getpid(),
            "host": socket.gethostname(),
            **info,
        }
        self.directory.mkdir(parents=True, exist_ok=True)
        self._write_atomic(
            self.heartbeat_path(owner), json.dumps(record, separators=(",", ":"))
        )

    def heartbeats(self) -> List[HeartbeatInfo]:
        """Every decoded worker heartbeat of this namespace, sorted by owner."""
        records: List[HeartbeatInfo] = []
        for path in self._entries():
            if not path.name.endswith(".heartbeat"):
                continue
            raw = _read_bytes(path)
            if raw is None:
                continue
            try:
                data = json.loads(raw.decode("utf-8"))
                records.append(
                    HeartbeatInfo(
                        owner=str(data.pop("owner")),
                        beat=float(data.pop("beat")),
                        info=data,
                    )
                )
            except (ValueError, KeyError, TypeError):
                continue
        return sorted(records, key=lambda record: record.owner)

    def prune_heartbeats(self, max_age: float = HEARTBEAT_STALE_S) -> int:
        """Drop heartbeat records older than ``max_age`` seconds.

        A record that old belongs to a dead worker of a run killed outright
        (every other run purges its namespace) — without pruning they
        accumulate on disk and haunt ``repro workers status`` forever.
        Pruning a slow-but-alive worker's record is harmless: its next beat
        simply rewrites it.  Unreadable (torn) records are judged by file
        mtime.  Returns how many records were removed.
        """
        now = self.clock()
        pruned = 0
        for path in self._entries():
            if not path.name.endswith(".heartbeat"):
                continue
            beat: Optional[float] = None
            raw = _read_bytes(path)
            if raw is not None:
                try:
                    beat = float(json.loads(raw.decode("utf-8"))["beat"])
                except (ValueError, KeyError, TypeError):
                    beat = None
            if beat is None:
                beat = _mtime(path)
            if beat is not None and now - beat > max_age:
                with contextlib.suppress(OSError):
                    path.unlink()
                pruned += 1
        return pruned

    def write_plan(self, plan: Mapping[str, Any]) -> None:
        """Publish the sweep plan manifest (parent-side, before spawning)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        self._write_atomic(self.plan_path(), json.dumps(dict(plan), indent=None))

    def read_plan(self) -> Optional[Dict[str, Any]]:
        """The decoded plan manifest, or None (absent or torn)."""
        raw = _read_bytes(self.plan_path())
        if raw is None:
            return None
        try:
            data = json.loads(raw.decode("utf-8"))
            return data if isinstance(data, dict) else None
        except ValueError:
            return None

    def live_leases(self) -> List[Tuple[int, Optional[LeaseInfo]]]:
        """Every claim file present, as ``(shard, info-or-None-if-torn)``."""
        leases: List[Tuple[int, Optional[LeaseInfo]]] = []
        for path in self._entries():
            match = _LEASE_FILE.fullmatch(path.name)
            if match:
                leases.append((int(match.group(1)), self.read(int(match.group(1)))))
        return sorted(leases, key=lambda pair: pair[0])

    def done_shards(self) -> List[int]:
        """Every shard with a completion marker, sorted."""
        return sorted(
            int(match.group(1))
            for path in self._entries()
            if (match := _DONE_FILE.fullmatch(path.name))
        )

    # ------------------------------------------------------------------
    # Inspection / maintenance
    # ------------------------------------------------------------------
    def read(self, shard: int) -> Optional[LeaseInfo]:
        """The decoded claim of a shard, or None (vacant or torn)."""
        raw = _read_bytes(self.lease_path(shard))
        if raw is None:
            return None
        try:
            data = json.loads(raw.decode("utf-8"))
            return LeaseInfo(
                shard=int(data["shard"]),
                owner=str(data["owner"]),
                acquired=float(data["acquired"]),
            )
        except (ValueError, KeyError, TypeError):
            return None

    def purge(self) -> None:
        """Remove every marker of this namespace (at a run's start and end)."""
        shutil.rmtree(self.directory, ignore_errors=True)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _write_atomic(self, path: Path, payload: str) -> None:
        atomic_write_bytes(path, payload.encode("utf-8"))

    def _entries(self) -> List[Path]:
        """The namespace directory's entries, sorted (none when it is absent)."""
        try:
            return sorted(self.directory.iterdir())
        except OSError:
            return []
