"""Persistent experiment store: canonical fingerprints + on-disk artifacts.

The store makes experiment sweeps incremental across processes: every grid
cell of a sweep is keyed by a canonical fingerprint of (experiment kind,
configuration, code-version salt) and its result persisted as a
self-validating artifact.  Warm runs decode artifacts instead of recomputing,
interrupted runs resume from whatever completed, and sharded runs coordinate
through the store as their shared medium (see ENGINE.md, "The persistent
experiment store").
"""

from .codec import decode, encode
from .fingerprint import (
    CODE_VERSION_SALT,
    active_salt,
    canonical_json,
    canonicalize,
    code_version_salt,
    experiment_fingerprint,
    valid_salts,
)
from .leases import HEARTBEAT_STALE_S, HeartbeatInfo, LeaseBoard, LeaseInfo
from .store import (
    STORE_ENV_VAR,
    STORE_SCHEMA_VERSION,
    ArtifactInfo,
    ExperimentStore,
    GcStats,
    atomic_write_bytes,
    default_store_root,
    open_store,
)

__all__ = [
    "CODE_VERSION_SALT",
    "HEARTBEAT_STALE_S",
    "HeartbeatInfo",
    "LeaseBoard",
    "LeaseInfo",
    "atomic_write_bytes",
    "STORE_ENV_VAR",
    "STORE_SCHEMA_VERSION",
    "ArtifactInfo",
    "ExperimentStore",
    "GcStats",
    "active_salt",
    "canonical_json",
    "canonicalize",
    "code_version_salt",
    "decode",
    "valid_salts",
    "default_store_root",
    "encode",
    "experiment_fingerprint",
    "open_store",
]
