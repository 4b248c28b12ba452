"""Shard leases: crash-safe work claiming over the shared experiment store.

A process-parallel sweep (:mod:`repro.parallel`) partitions its grid into
``N`` fingerprint-hash shards and lets every worker process *claim* shards
dynamically instead of being assigned a fixed slice — a work-stealing queue
with the store directory as the only shared medium.  The coordination state
lives under ``<store root>/leases/<namespace>/`` as marker files per shard:

``shard-K.lease``
    Held by exactly one live worker.  Created atomically (an ``O_CREAT |
    O_EXCL`` create arbitrates racing claimants: exactly one succeeds),
    carrying the owner id, a per-acquisition **fence token** and an expiry
    timestamp.  A worker renews its lease between experiments; a lease whose
    expiry has passed is *reclaimable* — some worker crashed or stalled
    mid-shard.
``shard-K.mutex``
    A lock *directory* taken (``mkdir``) around every takeover, renewal and
    release of the shard's lease, so read-check-write sequences on the
    lease file are serialized.  Held only for microseconds; a lock whose
    holder died is broken after the TTL, judged by its mtime.
``shard-K.done``
    Permanent completion marker, written after every grid cell of the shard
    has been persisted to the store.  Done markers survive the run, so a
    crashed sweep rerun skips completed shards without recomputing anything
    (the cells themselves are already content-addressed in the store).
``<worker>.heartbeat``
    One per worker: a liveness record renewed alongside lease renewals,
    carrying the worker's pid/host and its claim/steal/lost-race counters —
    what ``repro workers status`` renders for an in-flight sweep.
``plan.json``
    The sweep plan manifest (experiments, shard count, backend, worker
    count) the parent publishes before spawning, so an operator inspecting
    the namespace can tell what is running and how far along it is.

Correctness properties the test battery pins:

* **At most one winner** — concurrent :meth:`LeaseBoard.claim` calls on one
  shard never both succeed.  Fresh claims are arbitrated by
  :func:`create_exclusive`; expired-lease takeovers run under the shard's
  mutation lock and **re-validate expiry after acquiring it**, then replace
  the lease file atomically *in place* — the slot is never transiently
  vacant, so no third claimant can slip in mid-steal and no fresh lease can
  be stolen by a claimant acting on a stale read.  (The earlier protocol
  renamed the lease away by *path* after an unserialized read; a lease
  legitimately re-created between the read and the rename was stolen, and
  two workers won.  ``test_concurrent_claimants_never_both_win`` caught it.)
* **Fenced ownership** — every acquisition embeds a fresh random token in
  the lease file, remembered by the acquiring board.  :meth:`renew` and
  :meth:`release` verify owner *and* token under the mutation lock before
  writing, so a renewal can never resurrect a stolen lease (the thief's
  token does not match) and a release can never unlink a thief's live
  lease.  A failed renewal means ownership is gone for good: the worker
  must abandon the shard.
* **Expired leases are reclaimable** — a lease past its expiry (or an
  unreadable, torn lease file older than the TTL, judged by mtime) can be
  taken over by exactly one new claimant.
* **Completion is monotonic** — once ``mark_done`` returns, every future
  :meth:`claim` of that shard returns ``False``, across processes and reruns.

Losing a lease race is never incorrect, merely redundant: cells are
content-addressed and writes are atomic last-writer-wins, so two workers
computing the same shard produce identical artifacts.  The lease protocol
exists to make that duplication rare, not to make it unsafe.

Three filesystem recipes carry the protocol: :func:`create_exclusive` and
the ``mkdir`` lock of :func:`acquire_lock` / :func:`release_lock` here, and
the tmp + fsync + rename publish of
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
    "DEFAULT_LEASE_TTL",
    "LEASE_TTL_ENV_VAR",
    "LeaseInfo",
    "HeartbeatInfo",
    "LeaseBoard",
    "acquire_lock",
    "create_exclusive",
    "release_lock",
    "resolve_lease_ttl",
]

#: How long a claimed shard stays protected without a renewal.  Must exceed
#: the longest single experiment-shard computation (renewals happen between
#: experiments), with slack for slow CI machines.
DEFAULT_LEASE_TTL = 120.0

#: Environment override for the lease TTL (seconds), e.g. a crash-recovery CI
#: job that wants dead workers' shards stolen within seconds.
LEASE_TTL_ENV_VAR = "REPRO_LEASE_TTL"

_NAMESPACE_SANITIZER = re.compile(r"[^A-Za-z0-9._-]+")

_LEASE_FILE = re.compile(r"shard-(\d+)\.lease$")
_DONE_FILE = re.compile(r"shard-(\d+)\.done$")


def resolve_lease_ttl(ttl: Optional[float] = None) -> float:
    """An explicit TTL, else ``$REPRO_LEASE_TTL``, else the default."""
    source = "lease TTL"
    if ttl is None:
        env = os.environ.get(LEASE_TTL_ENV_VAR)
        if not env:
            return DEFAULT_LEASE_TTL
        source = f"${LEASE_TTL_ENV_VAR}"
        try:
            ttl = float(env)
        except ValueError as error:
            raise ValueError(
                f"{source} must be a number of seconds, got {env!r}"
            ) from error
    ttl = float(ttl)
    if not ttl > 0:  # also rejects NaN
        raise ValueError(f"{source} must be positive, got {ttl}")
    return ttl


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


def acquire_lock(path: Path) -> bool:
    """Take the lock directory; exactly one racing acquirer succeeds."""
    try:
        os.mkdir(path)
        return True
    except OSError:
        return False


def release_lock(path: Path) -> None:
    """Drop the lock directory (a no-op when it is already gone)."""
    try:
        os.rmdir(path)
    except OSError:
        pass


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
    """One decoded lease file."""

    shard: int
    owner: str
    acquired: float
    expires: float
    token: str = ""

    def expired(self, now: float) -> bool:
        return now >= self.expires


@dataclass(frozen=True)
class HeartbeatInfo:
    """One decoded worker heartbeat record."""

    owner: str
    beat: float
    info: Dict[str, Any] = field(default_factory=dict)

    def age(self, now: float) -> float:
        return max(0.0, now - self.beat)


class LeaseBoard:
    """The lease + done markers of one sweep's shards, under a store root.

    ``namespace`` scopes the board to one (experiment selection, overrides,
    shard count, salt) plan — see :func:`repro.parallel.plan_namespace` — so
    markers from a differently-configured sweep can never be mistaken for
    this one's.  ``clock`` is injectable for deterministic expiry tests;
    ``pause`` is a test-only seam called with a
    label at every documented interleaving point (``claim:pre-takeover``,
    ``claim:locked``, ``renew:start``, ``renew:pre-lock``, ``renew:locked``,
    ``release:start``, ``release:pre-lock``, ``release:locked``) so
    steal-during-claim, steal-during-renew and steal-during-release
    schedules can each be pinned deterministically.
    """

    def __init__(
        self,
        root: "str | os.PathLike[str]",
        namespace: str,
        ttl: Optional[float] = None,
        clock: Callable[[], float] = time.time,
        pause: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.ttl = resolve_lease_ttl(ttl)
        self.clock = clock
        self.namespace = _NAMESPACE_SANITIZER.sub("_", namespace)
        self.directory = Path(root) / "leases" / self.namespace
        self.claims = 0
        self.steals = 0
        self.lost_races = 0
        self.fenced_renewals = 0
        self.fenced_releases = 0
        #: Fence tokens of the leases *this board* acquired, by (shard, owner).
        self._tokens: Dict[Tuple[int, str], str] = {}
        self._pause: Callable[[str], None] = pause if pause is not None else _no_pause

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def lease_path(self, shard: int) -> Path:
        return self.directory / f"shard-{shard}.lease"

    def done_path(self, shard: int) -> Path:
        return self.directory / f"shard-{shard}.done"

    def mutex_path(self, shard: int) -> Path:
        return self.directory / f"shard-{shard}.mutex"

    def heartbeat_path(self, owner: str) -> Path:
        return self.directory / f"{_NAMESPACE_SANITIZER.sub('_', owner)}.heartbeat"

    def plan_path(self) -> Path:
        return self.directory / "plan.json"

    # ------------------------------------------------------------------
    # Claiming
    # ------------------------------------------------------------------
    def claim(self, shard: int, owner: str) -> bool:
        """Try to take the shard's lease; True means this caller now owns it.

        A completed shard is never claimable.  A live lease held by someone
        else fails the claim; an expired one is taken over under the shard's
        mutation lock, with expiry re-validated *after* the lock is held —
        so a lease that was legitimately renewed or re-created since this
        claimant last looked is seen live and the steal is refused (a lost
        race), never executed on stale evidence.
        """
        if self.is_done(shard):
            return False
        path = self.lease_path(shard)
        self.directory.mkdir(parents=True, exist_ok=True)
        token = self._new_token()
        if create_exclusive(path, self._payload(shard, owner, token).encode("utf-8")):
            self._tokens[(shard, owner)] = token
            self.claims += 1
            return True
        observed = self.read(shard)
        now = self.clock()
        if observed is not None and not observed.expired(now):
            return False
        if observed is None and not self._torn_lease_expired(path, now):
            # Unreadable lease younger than the TTL: a claimant between its
            # exclusive create and its payload write.  Treat as held.
            return False
        self._pause("claim:pre-takeover")
        # Takeover: serialized by the shard's mutation lock, and the expired
        # lease is *replaced in place* (atomic rename over the same path), so
        # the slot never goes transiently vacant and no unserialized claimant
        # can slip in mid-steal.
        if not self._acquire_mutex(shard, attempts=1):
            self.lost_races += 1
            return False
        try:
            self._pause("claim:locked")
            current = self.read(shard)
            now = self.clock()
            if current is None:
                if not path.exists():
                    # Released under our feet: the slot is genuinely vacant;
                    # arbitration falls back to the exclusive create (an
                    # unserialized fresh claimant may legitimately beat us).
                    if create_exclusive(
                        path, self._payload(shard, owner, token).encode("utf-8")
                    ):
                        self._tokens[(shard, owner)] = token
                        self.claims += 1
                        return True
                    self.lost_races += 1
                    return False
                if not self._torn_lease_expired(path, now):
                    self.lost_races += 1
                    return False
            elif not current.expired(now):
                # The lease we observed expired was renewed or replaced by a
                # live one between our read and the lock: report a lost race.
                self.lost_races += 1
                return False
            self._write_atomic(path, self._payload(shard, owner, token))
            self._tokens[(shard, owner)] = token
            self.claims += 1
            self.steals += 1
            return True
        finally:
            self._release_mutex(shard)

    def renew(self, shard: int, owner: str) -> bool:
        """Extend the lease's expiry; False when the caller no longer owns it.

        Fenced: the on-disk lease must carry both this owner id *and* the
        token recorded when this board acquired it, checked under the
        shard's mutation lock — so a renewal arriving after a thief's
        takeover can never resurrect the stolen lease.  A False return is
        final; the caller must abandon the shard.
        """
        self._pause("renew:start")
        token = self._tokens.get((shard, owner))
        holder = self.read(shard)
        if (
            token is None
            or holder is None
            or holder.owner != owner
            or holder.token != token
        ):
            self._fence_renewal(shard, owner)
            return False
        # The pre-lock check above is exactly the read the un-fenced protocol
        # acted on; everything between here and the locked re-read is the
        # window a steal used to slip through (and the pause seam pins).
        self._pause("renew:pre-lock")
        if not self._acquire_mutex(shard, attempts=5):
            # Ownership could not be confirmed against a concurrent
            # takeover; the only safe answer is "lost".
            self._fence_renewal(shard, owner)
            return False
        try:
            self._pause("renew:locked")
            holder = self.read(shard)
            if holder is None or holder.owner != owner or holder.token != token:
                self._fence_renewal(shard, owner)
                return False
            self._write_atomic(
                self.lease_path(shard), self._payload(shard, owner, token)
            )
            return True
        finally:
            self._release_mutex(shard)

    def release(self, shard: int, owner: str) -> None:
        """Give the lease back (only if still owned by the caller).

        Fenced like :meth:`renew`: the unlink happens under the mutation
        lock and only when the on-disk token matches this board's
        acquisition, so a release racing a steal can never unlink the
        thief's live lease.
        """
        self._pause("release:start")
        token = self._tokens.get((shard, owner))
        holder = self.read(shard)
        if (
            token is None
            or holder is None
            or holder.owner != owner
            or holder.token != token
        ):
            if holder is not None and holder.owner == owner and token != holder.token:
                self.fenced_releases += 1
            self._tokens.pop((shard, owner), None)
            return
        self._pause("release:pre-lock")
        if not self._acquire_mutex(shard, attempts=5):
            # Cannot serialize against a possible takeover; leaving the
            # lease to expire is safe, unlinking blind is not.
            self.fenced_releases += 1
            self._tokens.pop((shard, owner), None)
            return
        try:
            self._pause("release:locked")
            holder = self.read(shard)
            if holder is not None and holder.owner == owner and holder.token == token:
                with contextlib.suppress(OSError):
                    self.lease_path(shard).unlink()
            elif holder is not None:
                self.fenced_releases += 1
        finally:
            self._release_mutex(shard)
            self._tokens.pop((shard, owner), None)

    def expire_lease(self, shard: int) -> bool:
        """Force a live lease to an immediately-reclaimable expiry.

        The parent of a parallel sweep calls this after *terminating* its
        workers (Ctrl-C teardown): the dead workers' leases would otherwise
        stall an immediate rerun for up to a full TTL before they could be
        stolen.  The lease is rewritten in place — owner and fence token
        preserved, expiry pulled back to now — under the shard's mutation
        lock, so this composes with the fencing rules: a worker that is in
        fact still alive revalidates ownership on its next renewal (the
        token still matches) and simply re-extends, while a dead worker's
        shard becomes claimable at once.  Returns True when a lease was
        expired (or already carried a past expiry).
        """
        path = self.lease_path(shard)
        if not self._acquire_mutex(shard, attempts=5):
            return False
        try:
            holder = self.read(shard)
            if holder is None:
                return False
            now = self.clock()
            if holder.expired(now):
                return True
            payload = json.dumps(
                {
                    "shard": holder.shard,
                    "owner": holder.owner,
                    "token": holder.token,
                    "acquired": holder.acquired,
                    "expires": now,
                },
                separators=(",", ":"),
            )
            self._write_atomic(path, payload)
            return True
        finally:
            self._release_mutex(shard)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def mark_done(self, shard: int, owner: str) -> None:
        """Persist the shard's completion marker and release the lease."""
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

        Renewed alongside lease renewals; carries whatever counters the
        worker wants an operator to see (claims, steals, lost races,
        computed cells, …) plus pid/host identity by default.
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

    def prune_heartbeats(self, max_age: Optional[float] = None) -> int:
        """Drop heartbeat records older than ``max_age`` (default: the TTL).

        A live worker refreshes its heartbeat at least once per lease TTL
        (renewals and idle polls both beat), so any record older than that
        belongs to a dead worker of this run or a past one — without
        pruning they accumulate on disk and haunt ``repro workers status``
        forever.  Pruning a slow-but-alive worker's record is harmless: its
        next beat simply rewrites it.  Unreadable (torn) records are judged
        by file mtime.  Returns how many records were removed.
        """
        limit = self.ttl if max_age is None else float(max_age)
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
            if beat is not None and now - beat > limit:
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
        """Every lease file present, as ``(shard, info-or-None-if-torn)``."""
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
        """The decoded live lease of a shard, or None (vacant or torn)."""
        raw = _read_bytes(self.lease_path(shard))
        if raw is None:
            return None
        try:
            data = json.loads(raw.decode("utf-8"))
            return LeaseInfo(
                shard=int(data["shard"]),
                owner=str(data["owner"]),
                acquired=float(data["acquired"]),
                expires=float(data["expires"]),
                token=str(data.get("token", "")),
            )
        except (ValueError, KeyError, TypeError):
            return None

    def counters(self) -> Dict[str, int]:
        """The board's arbitration counters, for summaries and heartbeats."""
        return {
            "claims": self.claims,
            "steals": self.steals,
            "lost_races": self.lost_races,
            "fenced_renewals": self.fenced_renewals,
            "fenced_releases": self.fenced_releases,
        }

    def purge(self) -> None:
        """Remove every marker of this namespace (after a successful merge)."""
        shutil.rmtree(self.directory, ignore_errors=True)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _new_token(self) -> str:
        """A fence token unique to one acquisition attempt."""
        return os.urandom(8).hex()

    def _payload(self, shard: int, owner: str, token: str) -> str:
        now = self.clock()
        return json.dumps(
            {
                "shard": shard,
                "owner": owner,
                "token": token,
                "acquired": now,
                "expires": now + self.ttl,
            },
            separators=(",", ":"),
        )

    def _fence_renewal(self, shard: int, owner: str) -> None:
        self.fenced_renewals += 1
        self._tokens.pop((shard, owner), None)

    def _acquire_mutex(self, shard: int, attempts: int) -> bool:
        """Take the shard's mutation lock; False when it stays contended.

        The lock is only ever held across a read-check-write on the lease
        file (microseconds), so contention is rare and brief; ``attempts``
        bounds the wait.  A lock whose holder died is broken once it is
        older than the TTL — the same mtime rule torn leases use.
        """
        lock = self.mutex_path(shard)
        for attempt in range(attempts):
            if acquire_lock(lock):
                return True
            mtime = _mtime(lock)
            if mtime is not None and self.clock() >= mtime + self.ttl:
                release_lock(lock)  # break a dead holder's lock
                if acquire_lock(lock):
                    return True
            if attempt + 1 < attempts:
                time.sleep(0.001 * (attempt + 1))
        return False

    def _release_mutex(self, shard: int) -> None:
        release_lock(self.mutex_path(shard))

    def _torn_lease_expired(self, path: Path, now: float) -> bool:
        """Expiry of an unreadable lease, judged by its mtime plus the TTL.

        Covers a claimant that died between the exclusive create and the
        payload write: the empty/partial file has no embedded expiry, so its
        modification time stands in.
        """
        mtime = _mtime(path)
        return mtime is not None and now >= mtime + self.ttl

    def _write_atomic(self, path: Path, payload: str) -> None:
        atomic_write_bytes(path, payload.encode("utf-8"))

    def _entries(self) -> List[Path]:
        """The namespace directory's entries, sorted (none when it is absent)."""
        try:
            return sorted(self.directory.iterdir())
        except OSError:
            return []


def _no_pause(label: str) -> None:
    """Default pause seam: do nothing (production path)."""
