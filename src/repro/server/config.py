"""Environment-driven configuration of the experiment service.

Every knob reads a ``$REPRO_SERVER_*`` variable with a safe default, the
FastAPI app-factory idiom of the reference servers (SNIPPETS.md snippets
1-2): the process environment *is* the deployment configuration, and an
explicit keyword argument to :meth:`ServerConfig.from_env` always wins over
it (the CLI's ``repro serve --port`` path).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Optional

__all__ = ["SERVER_ENV_PREFIX", "ServerConfig"]

#: Common prefix of every service environment variable.
SERVER_ENV_PREFIX = "REPRO_SERVER_"


def _env_int(name: str, default: int, minimum: int = 0, maximum: Optional[int] = None) -> int:
    raw = os.environ.get(SERVER_ENV_PREFIX + name)
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError as error:
        raise ValueError(
            f"${SERVER_ENV_PREFIX}{name} must be an integer, got {raw!r}"
        ) from error
    if value < minimum or (maximum is not None and value > maximum):
        bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise ValueError(f"${SERVER_ENV_PREFIX}{name} must be {bound}, got {value}")
    return value


def _env_float(name: str, default: float, minimum: float = 0.0) -> float:
    raw = os.environ.get(SERVER_ENV_PREFIX + name)
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError as error:
        raise ValueError(
            f"${SERVER_ENV_PREFIX}{name} must be a number, got {raw!r}"
        ) from error
    if value < minimum:
        raise ValueError(
            f"${SERVER_ENV_PREFIX}{name} must be >= {minimum}, got {value}"
        )
    return value


@dataclass(frozen=True)
class ServerConfig:
    """One service deployment's resolved settings.

    ``store_root=None`` means the service creates an ephemeral store for its
    own lifetime — dedup then only spans that process, so production
    deployments should point ``$REPRO_SERVER_STORE`` (or ``$REPRO_STORE``)
    at a persistent directory.  ``rate_limit`` is requests per minute per
    client for ``POST /sweeps`` (``0`` disables limiting); ``rate_burst`` is
    the token-bucket capacity — how many submissions a quiet client may
    burst before the refill rate governs.
    """

    host: str = "127.0.0.1"
    port: int = 8321
    store_root: Optional[str] = None
    #: Worker processes each sweep job runs with (`run_experiments_parallel`).
    job_workers: int = 2
    #: How many sweep jobs may execute concurrently (the queue's cap).
    max_concurrent_jobs: int = 2
    #: Default execution backend of submitted sweeps (None = process default).
    backend: Optional[str] = None
    #: POST /sweeps submissions per minute per client; 0 disables limiting.
    rate_limit: float = 60.0
    #: Token-bucket capacity (burst size) of the per-client limiter.
    rate_burst: int = 10
    #: Upper bound a request's "trials" may ask for (defensive cap).
    max_trials: int = 256
    #: Upper bound a request's "workers" may ask for (defensive cap).
    max_job_workers: int = 8

    @classmethod
    def from_env(cls, **overrides: Any) -> "ServerConfig":
        """Resolve the configuration: explicit overrides > environment > defaults."""
        values: Dict[str, Any] = {
            "host": os.environ.get(SERVER_ENV_PREFIX + "HOST", cls.host),
            "port": _env_int("PORT", cls.port, maximum=65535),
            "store_root": os.environ.get(SERVER_ENV_PREFIX + "STORE")
            or os.environ.get("REPRO_STORE")
            or None,
            "job_workers": _env_int("WORKERS", cls.job_workers, minimum=1),
            "max_concurrent_jobs": _env_int("JOBS", cls.max_concurrent_jobs, minimum=1),
            "backend": os.environ.get(SERVER_ENV_PREFIX + "BACKEND") or None,
            "rate_limit": _env_float("RATE", cls.rate_limit),
            "rate_burst": _env_int("BURST", cls.rate_burst, minimum=1),
            "max_trials": _env_int("MAX_TRIALS", cls.max_trials, minimum=1),
            "max_job_workers": _env_int("MAX_WORKERS", cls.max_job_workers, minimum=1),
        }
        for key, value in overrides.items():
            if key not in values:
                raise TypeError(f"unknown ServerConfig field {key!r}")
            if value is not None:
                values[key] = value
        config = cls(**values)
        if config.job_workers > config.max_job_workers:
            raise ValueError(
                f"job_workers {config.job_workers} exceeds the "
                f"max_job_workers cap {config.max_job_workers}"
            )
        return config
