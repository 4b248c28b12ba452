"""Pluggable execution backends: precision policy × execution strategy.

Four backends ship registered (see ENGINE.md, "Execution backends"):

* ``numpy64`` — the float64 reference, bit-identical to the engine before
  backends existed (the ENGINE.md equivalence contract);
* ``numpy32`` — the float32 precision policy: execution arithmetic in single
  precision within documented tolerance envelopes, fingerprint-salted so its
  store artifacts never collide with float64 ones;
* ``threaded`` — the chunked tile executor: the stacked-tile batched matmul
  partitioned across a :class:`concurrent.futures.ThreadPoolExecutor` with a
  deterministic per-slice reduction order, bit-identical to ``numpy64``;
* ``compiled`` — the numba-JIT fused tile executor (float64, documented
  ULP-scale tolerance envelope, own fingerprint salt).  numba is an optional
  dependency: the backend registers unconditionally with an availability
  probe, so it is always *listed*, and resolving it without numba installed
  raises :class:`BackendUnavailableError` naming the ``repro[compiled]``
  extra instead of crashing on import.

Selection precedence: explicit ``backend=`` argument > the calling thread's
innermost :func:`using_backend` scope (the global ``--backend`` flag opens
one) > the process-wide :func:`set_default_backend` default >
``$REPRO_BACKEND`` > ``numpy64``.
"""

from .compiled import (
    COMPILED_EXTRA_HINT,
    COMPILED_POLICY,
    CompiledBackend,
    numba_unavailable_reason,
)
from .core import (
    DEFAULT_BACKEND_NAME,
    ENV_VAR,
    FLOAT32_POLICY,
    FLOAT64_POLICY,
    THREADS_ENV_VAR,
    Backend,
    BackendUnavailableError,
    NumpyBackend,
    PrecisionPolicy,
    TileLayout,
    active_backend,
    active_precision,
    active_salt_token,
    backend_availability,
    backend_names,
    backend_policy,
    default_backend_name,
    get_backend,
    register_backend,
    registered_salt_tokens,
    resolve_backend,
    set_default_backend,
    using_backend,
)
from .threaded import ThreadedBackend

register_backend("numpy64", lambda: NumpyBackend("numpy64", FLOAT64_POLICY), FLOAT64_POLICY)
register_backend("numpy32", lambda: NumpyBackend("numpy32", FLOAT32_POLICY), FLOAT32_POLICY)
register_backend("threaded", ThreadedBackend, FLOAT64_POLICY)
register_backend(
    "compiled",
    CompiledBackend,
    COMPILED_POLICY,
    availability=numba_unavailable_reason,
    install_hint=COMPILED_EXTRA_HINT,
)

__all__ = [
    "DEFAULT_BACKEND_NAME",
    "ENV_VAR",
    "THREADS_ENV_VAR",
    "COMPILED_EXTRA_HINT",
    "COMPILED_POLICY",
    "FLOAT32_POLICY",
    "FLOAT64_POLICY",
    "PrecisionPolicy",
    "Backend",
    "BackendUnavailableError",
    "CompiledBackend",
    "NumpyBackend",
    "TileLayout",
    "ThreadedBackend",
    "active_backend",
    "active_precision",
    "active_salt_token",
    "backend_availability",
    "backend_names",
    "backend_policy",
    "default_backend_name",
    "get_backend",
    "numba_unavailable_reason",
    "register_backend",
    "registered_salt_tokens",
    "resolve_backend",
    "set_default_backend",
    "using_backend",
]
