"""Store drivers: the filesystem-semantics seam under the experiment store.

Everything the store stack persists — content-addressed artifacts, shard
leases, heartbeats — reduces to a handful of filesystem primitives whose
*atomicity guarantees* are what the correctness arguments actually rest on:

``write_atomic``
    Publish a complete file under a final name (tmp + fsync + rename);
    racing writers leave exactly one valid file, readers never see a
    partial one.
``create_exclusive``
    Create a file if and only if it does not exist, atomically; the medium
    arbitrates racing creators and admits exactly one.
``replace``
    Atomically overwrite an existing file with new complete contents.
``acquire_lock`` / ``release_lock``
    A mutual-exclusion primitive (a lock *directory*): exactly one of any
    number of racing acquirers succeeds, and the lock is visible to every
    process sharing the store root.

:class:`LocalStoreDriver` is the reference implementation for a directory on
a local filesystem.  :class:`NfsSafeStoreDriver` documents and implements the
variants that stay correct when the store root is an NFS mount shared by
workers on *different hosts* — the multi-host sweep scale-out of
:mod:`repro.parallel`:

* ``O_CREAT | O_EXCL`` is atomic on NFSv3+ but was historically unreliable
  (lost replies can report failure for a create that succeeded, or vice
  versa).  The NFS driver therefore uses the classic **hard-link trick**:
  write a uniquely-named sibling file, ``os.link`` it to the target, and
  judge success by the *link count* of the unique file — the link count is
  read back from the server authoritatively, so a lost reply cannot be
  mistaken for a win.
* ``os.rename`` / ``os.replace`` over an existing target is atomic on NFS
  (it is a single server-side operation), so ``write_atomic`` and
  ``replace`` keep the local recipe.
* ``mkdir`` is atomic on NFS in all versions, which is why the lease
  board's per-shard mutation lock is a directory rather than an
  ``O_EXCL`` file.
* Close-to-open cache consistency means a reader that *opens* a file after
  a writer *closed* it sees the new bytes; the lease protocol only ever
  reads whole files that were published by rename, which satisfies that
  model.  Directory-entry caching can delay visibility of new files by up
  to the attribute-cache timeout (``acregmin``); the lease TTL must
  comfortably exceed it (the 120 s default does).

Driver selection: an explicit ``driver=`` argument beats
``$REPRO_STORE_DRIVER``, which defaults to ``local``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Optional, Type

__all__ = [
    "DRIVER_ENV_VAR",
    "StoreDriver",
    "LocalStoreDriver",
    "NfsSafeStoreDriver",
    "atomic_write_bytes",
    "driver_names",
    "register_driver",
    "resolve_driver",
]

#: Environment variable naming the default store driver.
DRIVER_ENV_VAR = "REPRO_STORE_DRIVER"


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


class LocalStoreDriver:
    """Reference driver: a store root on a local (POSIX) filesystem."""

    name = "local"

    # -- whole-file reads/writes ---------------------------------------
    def read_bytes(self, path: Path) -> Optional[bytes]:
        """The file's bytes, or None when absent/unreadable."""
        try:
            return path.read_bytes()
        except OSError:
            return None

    def write_atomic(self, path: Path, data: bytes) -> None:
        atomic_write_bytes(path, data)

    def replace(self, path: Path, data: bytes) -> None:
        """Atomically overwrite ``path`` with ``data`` (same recipe)."""
        atomic_write_bytes(path, data)

    def create_exclusive(self, path: Path, data: bytes) -> bool:
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

    # -- metadata ------------------------------------------------------
    def exists(self, path: Path) -> bool:
        return path.exists()

    def mtime(self, path: Path) -> Optional[float]:
        try:
            return path.stat().st_mtime
        except OSError:
            return None

    def unlink(self, path: Path) -> bool:
        try:
            path.unlink()
            return True
        except OSError:
            return False

    def listdir(self, path: Path) -> List[Path]:
        try:
            return sorted(path.iterdir())
        except OSError:
            return []

    # -- mutual exclusion ----------------------------------------------
    def acquire_lock(self, path: Path) -> bool:
        """Take the lock directory; exactly one racing acquirer succeeds."""
        try:
            os.mkdir(path)
            return True
        except OSError:
            return False

    def release_lock(self, path: Path) -> None:
        try:
            os.rmdir(path)
        except OSError:
            pass


class NfsSafeStoreDriver(LocalStoreDriver):
    """A store root on an NFS mount shared by workers on several hosts.

    Differs from the local reference only where NFS semantics demand it —
    see the module docstring for the guarantees relied on.  Locks (mkdir)
    and atomic publishes (rename) inherit the local recipes, which are
    NFS-atomic as-is.
    """

    name = "nfs"

    def create_exclusive(self, path: Path, data: bytes) -> bool:
        """Hard-link trick: link-count readback instead of ``O_EXCL``.

        A lost RPC reply can make ``O_EXCL`` report failure for a create
        that actually happened (or succeed twice under retransmission).
        Linking a unique sibling to the target and checking that sibling's
        ``st_nlink == 2`` asks the server *after the fact* who won, which
        is immune to reply loss.
        """
        unique = path.with_name(
            f"{path.name}.claim-{os.getpid()}-{os.urandom(4).hex()}"
        )
        try:
            atomic_write_bytes(unique, data)
            try:
                os.link(unique, path)
            except OSError:
                pass  # the link count below is the authoritative verdict
            try:
                won = unique.stat().st_nlink == 2
            except OSError:  # pragma: no cover - unique vanished mid-check
                won = False
            return won
        finally:
            try:
                unique.unlink()
            except OSError:
                pass


_DRIVERS: Dict[str, Type[LocalStoreDriver]] = {}

#: Union alias for annotations; any registered driver satisfies it.
StoreDriver = LocalStoreDriver


def register_driver(cls: Type[LocalStoreDriver]) -> Type[LocalStoreDriver]:
    """Register a driver class under its ``name`` (module import does this)."""
    _DRIVERS[cls.name] = cls
    return cls


register_driver(LocalStoreDriver)
register_driver(NfsSafeStoreDriver)


def driver_names() -> List[str]:
    """The registered driver names, sorted."""
    return sorted(_DRIVERS)


def resolve_driver(spec: "str | StoreDriver | None" = None) -> StoreDriver:
    """A driver instance: explicit spec > ``$REPRO_STORE_DRIVER`` > local."""
    if isinstance(spec, LocalStoreDriver):
        return spec
    name = spec or os.environ.get(DRIVER_ENV_VAR) or LocalStoreDriver.name
    try:
        return _DRIVERS[name]()
    except KeyError as error:
        raise ValueError(
            f"unknown store driver {name!r}; registered: {', '.join(driver_names())} "
            f"(select one with ${DRIVER_ENV_VAR})"
        ) from error
