"""Execution-backend protocol, precision policies, registry and resolution.

Every kernel of :mod:`repro.engine` funnels its numerical heavy lifting —
batched matmuls, SVDs, array allocation — through a :class:`Backend`.  A
backend bundles two orthogonal choices:

* a **precision policy** (:class:`PrecisionPolicy`): the dtype the execution
  arithmetic runs in, together with the documented tolerance envelopes that
  precision guarantees against the float64 reference, and the store-salt
  token that keeps artifacts of different precisions from ever colliding;
* an **execution strategy**: how the trial-stacked tile MVM
  (:meth:`Backend.tiled_mvm`) is executed (one batched ``numpy.matmul``, the
  chunked tile executor of :class:`repro.backend.threaded.ThreadedBackend`,
  or the fused kernel of :class:`repro.backend.compiled.CompiledBackend`).

Backends are registered by name and resolved in a fixed precedence order:

1. an explicit ``backend=`` argument (a name or a :class:`Backend` instance),
2. the process default installed by :func:`using_backend` /
   :func:`set_default_backend` (the CLI's global ``--backend`` flag),
3. the ``$REPRO_BACKEND`` environment variable,
4. the built-in default, ``numpy64``.

The ``numpy64`` backend is the reference: bit-identical to the engine before
backends existed.  Every backend whose policy is ``bit_identical`` (currently
``numpy64`` and ``threaded``) shares store fingerprints; ``numpy32`` salts
its fingerprints with its precision token so warm artifacts from different
precisions never collide (see ENGINE.md, "Execution backends").
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

__all__ = [
    "ENV_VAR",
    "THREADS_ENV_VAR",
    "DEFAULT_BACKEND_NAME",
    "FLOAT64_POLICY",
    "FLOAT32_POLICY",
    "PrecisionPolicy",
    "TileLayout",
    "Backend",
    "BackendUnavailableError",
    "NumpyBackend",
    "register_backend",
    "backend_names",
    "backend_availability",
    "backend_policy",
    "get_backend",
    "resolve_backend",
    "active_backend",
    "active_precision",
    "active_salt_token",
    "registered_salt_tokens",
    "default_backend_name",
    "set_default_backend",
    "using_backend",
]

#: Environment variable naming the default execution backend.
ENV_VAR = "REPRO_BACKEND"

#: Environment variable bounding the threaded backend's worker count.
THREADS_ENV_VAR = "REPRO_BACKEND_THREADS"

#: The reference backend every session starts on.
DEFAULT_BACKEND_NAME = "numpy64"


@dataclass(frozen=True)
class PrecisionPolicy:
    """The numeric contract of one execution precision.

    ``bit_identical`` policies reproduce the float64 reference engine
    bit-for-bit; non-bit-identical policies trade precision for throughput
    and promise agreement only within the tolerance envelope below.  The
    envelopes are consumed by the engine equivalence tests and the golden
    regression suite, so "tolerance mode" is a documented property of the
    policy rather than ad-hoc per-test slack.

    * ``output_rtol`` / ``output_atol`` bound analog MVM outputs against the
      float64 oracle (float64: BLAS reduction-order effects only).
    * ``associativity_rtol`` is the "agree to working precision" threshold of
      the quantized-path tests: the fraction of ADC-quantized outputs that
      must match the oracle this tightly (rounding-boundary flips are bounded
      separately, at one ADC step).
    * ``quantized_step_slack`` relaxes the one-ADC-step bound by the
      precision's own rounding error (exactly 0 for bit-identical policies).
    * ``golden_scale`` multiplies the golden suite's per-metric tolerances:
      1.0 keeps the float64 envelope, float32 widens every band by the
      documented factor (see ENGINE.md).
    * ``salt_token`` is folded into the store fingerprint salt; the empty
      token means "shares artifacts with the float64 reference".
    """

    name: str
    dtype: str
    bit_identical: bool
    salt_token: str
    output_rtol: float
    output_atol: float
    associativity_rtol: float
    quantized_step_slack: float
    golden_scale: float


#: The reference policy: plain float64, bit-identical by definition.
FLOAT64_POLICY = PrecisionPolicy(
    name="float64",
    dtype="float64",
    bit_identical=True,
    salt_token="",
    output_rtol=1e-10,
    output_atol=1e-12,
    associativity_rtol=1e-9,
    quantized_step_slack=0.0,
    golden_scale=1.0,
)

#: The float32 trade: execution arithmetic in single precision.  The
#: envelopes absorb float32 rounding through the longest reduction the
#: engine performs (a 288-element dot product plus the two-stage low-rank
#: chain); the golden scale additionally covers proxy-accuracy interpolation
#: amplifying SVD rounding and ADC rounding-tie flips in the robustness sweep
#: (widest observed drift: ~74x the float64 band on robustness error metrics;
#: 200x leaves headroom for other BLAS builds and SIMD kernels).
FLOAT32_POLICY = PrecisionPolicy(
    name="float32",
    dtype="float32",
    bit_identical=False,
    salt_token="float32",
    output_rtol=5e-4,
    output_atol=1e-4,
    associativity_rtol=5e-5,
    quantized_step_slack=1e-4,
    golden_scale=200.0,
)


@dataclass(frozen=True)
class TileLayout:
    """Static execution metadata of one programmed tiled matrix.

    Built once per :class:`repro.engine.kernels.MonteCarloTiledMatrix` (all
    trials share it) and handed to :meth:`Backend.tiled_mvm` with every
    batch: the per-tile input-segment gather indices, output scatter
    offsets/widths, current-to-weight rescaling factors and the logical
    output width.
    """

    tile_rows: np.ndarray  # (T,) row-tile index feeding each tile
    out_starts: np.ndarray  # (T,) output-column offset of each tile
    out_lens: np.ndarray  # (T,) programmed output width of each tile
    scales: np.ndarray  # (T,) current→weight rescaling per tile
    span: float  # conductance span (g_max - g_min)
    out_dim: int  # logical output dimension


class Backend:
    """Protocol + shared numpy implementation of the execution surface.

    The execution engine calls exactly these operations; anything heavier a
    future accelerator backend needs (tiling, device transfer) hides behind
    them.  The base class implements the whole surface with numpy at the
    policy's dtype, so concrete backends only override what they accelerate.
    """

    name: str = "backend"
    policy: PrecisionPolicy = FLOAT64_POLICY

    # ------------------------------------------------------------------
    # Array allocation / casting
    # ------------------------------------------------------------------
    def asarray(self, values: np.ndarray) -> np.ndarray:
        """``values`` at the policy's compute dtype (no copy when already there)."""
        return np.asarray(values, dtype=self.policy.dtype)

    def zeros(self, shape: Tuple[int, ...]) -> np.ndarray:
        return np.zeros(shape, dtype=self.policy.dtype)

    def empty(self, shape: Tuple[int, ...]) -> np.ndarray:
        return np.empty(shape, dtype=self.policy.dtype)

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """2-D matrix product at the policy's precision."""
        return np.matmul(self.asarray(a), self.asarray(b))

    def batched_matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Stacked matmul over leading (broadcastable) batch axes.

        The reference tile executor's product: ``(1|R, T, batch, rows) @
        (R, T, rows, cols)`` over every trial and allocated tile.
        Implementations must compute every batch slice with the same
        per-slice reduction ``numpy.matmul`` uses, so bit-identical policies
        stay bit-identical regardless of how the batch axis is scheduled.
        """
        return np.matmul(self.asarray(a), self.asarray(b))

    def einsum(self, subscripts: str, *operands: np.ndarray) -> np.ndarray:
        """General contraction at the policy's precision."""
        return np.einsum(subscripts, *(self.asarray(op) for op in operands))

    def svd(self, matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Thin SVD ``(U, S, Vt)`` at the policy's precision."""
        return np.linalg.svd(self.asarray(matrix), full_matrices=False)

    def tiled_mvm(
        self,
        x: np.ndarray,
        diff: np.ndarray,
        layout: TileLayout,
        output_bits: Optional[int],
        quantize: Callable[[np.ndarray, int], np.ndarray],
    ) -> np.ndarray:
        """Execute every allocated tile of an MVM batch and scatter-add.

        ``diff`` is the trial-stacked differential conductance tensor,
        ``(trials, T, rows, cols)`` (one programming is ``trials == 1``), and
        ``x`` the DAC-quantized, row-tile-sliced input stack,
        ``(1 | trials, row_tiles, batch, rows)`` — a leading extent of 1 is
        one batch shared by every trial.  Returns ``(trials, batch, out_dim)``.

        The base implementation is the reference: gather each tile's input
        segment, run one batched matmul over all (trial, tile, vector)
        triples, rescale, ADC-quantize, then scatter-add the per-tile partial
        sums **serially in allocation order**.  Overrides may schedule tiles
        differently but must reproduce this reduction order bit-for-bit at
        equal precision (see ENGINE.md, "Execution backends").
        """
        result = self.zeros((diff.shape[0], x.shape[2], layout.out_dim))
        # Gather each tile's input segment and execute every (trial, tile,
        # vector) MVM in one batched matmul — shared inputs broadcast over
        # the trial axis: (1|trials, T, batch, rows) @ (trials, T, rows, cols).
        outputs = self.batched_matmul(x[:, layout.tile_rows], diff)
        # In-place div-then-mul keeps the rounding order of the per-tile path
        # (currents / span * scale) without allocating two temporaries.
        outputs /= layout.span
        outputs *= layout.scales[:, None, None]
        if output_bits is not None:
            # Columns beyond a tile's programmed width carry only noise on the
            # unprogrammed differential pairs; the per-tile ADC never sees
            # them, so zero them before quantization to keep the per-tile
            # max-abs identical.  (Without ADC quantization the scatter below
            # never reads them, so the mask is skipped.)
            valid = np.arange(diff.shape[-1])[None, :] < layout.out_lens[:, None]
            outputs = np.where(valid[:, None, :], outputs, 0.0)
            outputs = quantize(outputs, output_bits)
        # Scatter-add per-tile partial sums in allocation order (the same
        # accumulation order as the per-tile executor).
        for t in range(len(layout.tile_rows)):
            start = layout.out_starts[t]
            length = layout.out_lens[t]
            result[..., start : start + length] += outputs[:, t, :, :length]
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} {self.name!r} ({self.policy.name})>"


class NumpyBackend(Backend):
    """Plain numpy execution at a fixed precision policy."""

    def __init__(self, name: str, policy: PrecisionPolicy) -> None:
        self.name = name
        self.policy = policy


class BackendUnavailableError(ValueError):
    """A *registered* backend whose optional dependency is missing.

    Subclasses :class:`ValueError` so every existing call site that treats a
    bad ``--backend`` / ``$REPRO_BACKEND`` / sweep-spec value as a user error
    (CLI ``parser.error``, server 400) handles "installed package lacks the
    extra" the same way as "no such backend" — with a message that names the
    pip extra to install instead of a traceback.
    """

    def __init__(self, name: str, reason: str, install_hint: Optional[str]) -> None:
        message = f"execution backend {name!r} is unavailable: {reason}"
        if install_hint:
            message = f"{message} (install it with: {install_hint})"
        super().__init__(message)
        self.backend_name = name
        self.reason = reason
        self.install_hint = install_hint


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Callable[[], Backend]] = {}
_POLICIES: Dict[str, PrecisionPolicy] = {}
_INSTANCES: Dict[str, Backend] = {}
#: Optional availability probe per backend: returns ``None`` when the
#: backend can run here, else a short human-readable reason it cannot.
_AVAILABILITY: Dict[str, Callable[[], Optional[str]]] = {}
#: Optional pip-install hint per backend, surfaced by BackendUnavailableError.
_HINTS: Dict[str, str] = {}
_REGISTRY_LOCK = threading.Lock()

#: Open using_backend scopes, innermost last.  Entries are unique token
#: objects paired with a backend (a registered name, or a Backend instance
#: passed directly — custom instances scope as themselves); scope exit
#: removes its own token (by
#: identity) rather than popping the top, so scopes that happen to unwind
#: out of push order — e.g. from different threads — never corrupt each
#: other.  The scoped default is deliberately process-wide, not
#: thread-local: a scope wrapping a parallel sweep must be visible to the
#: pool's worker threads.  Concurrently open scopes naming *different*
#: backends are therefore unsupported (the innermost push wins globally) —
#: pass ``backend=`` explicitly instead of nesting scopes across threads.
_SCOPES: List[Tuple[object, Union[str, "Backend"]]] = []

#: Process-wide default installed by set_default_backend (the CLI's
#: ``--backend``); sits under every open scope and over ``$REPRO_BACKEND``.
_PROCESS_DEFAULT: Optional[str] = None


def register_backend(
    name: str,
    factory: Callable[[], Backend],
    policy: PrecisionPolicy,
    *,
    availability: Optional[Callable[[], Optional[str]]] = None,
    install_hint: Optional[str] = None,
) -> None:
    """Register (or replace) a backend factory under ``name``.

    ``policy`` is declared alongside the factory so policy-level questions —
    notably the store-salt tokens ``valid_salts()`` needs for ``ls``/``gc``
    staleness — never require *constructing* the backend (a misconfigured
    ``$REPRO_BACKEND_THREADS`` must not break store maintenance under an
    unrelated backend).

    ``availability`` lets a backend with an optional native dependency
    register unconditionally (so it is always *listed*, and its salt token
    always counts as valid for store maintenance) while deferring the import
    to first use: the probe returns ``None`` when the backend can run in this
    environment, else a short reason string.  Resolving an unavailable
    backend raises :class:`BackendUnavailableError` naming ``install_hint``
    (e.g. ``pip install 'repro[compiled]'``) instead of crashing on import.
    """
    with _REGISTRY_LOCK:
        _REGISTRY[name] = factory
        _POLICIES[name] = policy
        _INSTANCES.pop(name, None)
        _AVAILABILITY.pop(name, None)
        _HINTS.pop(name, None)
        if availability is not None:
            _AVAILABILITY[name] = availability
        if install_hint is not None:
            _HINTS[name] = install_hint


def backend_names() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def backend_availability() -> Dict[str, Optional[str]]:
    """Availability of every registered backend, sorted by name.

    Maps each name to ``None`` (available) or the probe's reason string
    (unavailable).  Probes run outside the registry lock and never construct
    the backend, so listing availability is always safe — even when a probe
    is what would fail.
    """
    with _REGISTRY_LOCK:
        probes = {name: _AVAILABILITY.get(name) for name in sorted(_REGISTRY)}
    return {
        name: (probe() if probe is not None else None)
        for name, probe in probes.items()
    }


def backend_policy(name: str) -> PrecisionPolicy:
    """The declared precision policy of ``name`` (never constructs it)."""
    with _REGISTRY_LOCK:
        policy = _POLICIES.get(name)
    if policy is None:
        known = ", ".join(backend_names()) or "<none>"
        raise ValueError(
            f"unknown execution backend {name!r}; registered backends: {known} "
            f"(select one with --backend or ${ENV_VAR})"
        )
    return policy


def get_backend(name: str) -> Backend:
    """The (process-wide, memoized) backend registered under ``name``.

    A backend registered with an availability probe is checked first; an
    unavailable one raises :class:`BackendUnavailableError` (a ValueError)
    with its install hint rather than letting the factory crash on import.
    """
    with _REGISTRY_LOCK:
        instance = _INSTANCES.get(name)
        if instance is not None:
            return instance
        factory = _REGISTRY.get(name)
        probe = _AVAILABILITY.get(name)
        hint = _HINTS.get(name)
    if factory is None:
        known = ", ".join(backend_names()) or "<none>"
        raise ValueError(
            f"unknown execution backend {name!r}; registered backends: {known} "
            f"(select one with --backend or ${ENV_VAR})"
        )
    # Probe and construct outside the lock: probes may import, factories may
    # spin up thread pools, and neither should serialize unrelated lookups.
    if probe is not None:
        reason = probe()
        if reason is not None:
            raise BackendUnavailableError(name, reason, hint)
    instance = factory()
    with _REGISTRY_LOCK:
        # Another thread may have raced us through the same factory; keep
        # the first instance so memoization stays process-wide stable.
        return _INSTANCES.setdefault(name, instance)


def registered_salt_tokens() -> Tuple[str, ...]:
    """Every distinct store-salt token a registered backend can write under.

    Read from the declared policies, never from instances — see
    :func:`register_backend`.
    """
    with _REGISTRY_LOCK:
        return tuple(sorted({policy.salt_token for policy in _POLICIES.values()}))


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------
def default_backend_name() -> str:
    """The active default: open scope > process default > ``$REPRO_BACKEND`` > ``numpy64``."""
    if _SCOPES:
        scoped = _SCOPES[-1][1]
        return scoped if isinstance(scoped, str) else scoped.name
    if _PROCESS_DEFAULT is not None:
        return _PROCESS_DEFAULT
    return os.environ.get(ENV_VAR) or DEFAULT_BACKEND_NAME


def set_default_backend(name: Optional[str]) -> None:
    """Install (or, with ``None``, clear) the process-wide default backend.

    Only the process default changes; any currently open
    :func:`using_backend` scope keeps both its override and its clean exit.
    """
    global _PROCESS_DEFAULT
    if name is not None:
        get_backend(name)  # validate eagerly
    _PROCESS_DEFAULT = name


def active_backend() -> Backend:
    """The backend every unqualified construction resolves to right now."""
    if _SCOPES:
        scoped = _SCOPES[-1][1]
        # A Backend instance scopes as itself (its configuration included);
        # a name resolves through the registry.
        return get_backend(scoped) if isinstance(scoped, str) else scoped
    return get_backend(default_backend_name())


def active_precision() -> str:
    """The active backend's precision-policy name (cache-key component)."""
    return active_backend().policy.name


def active_salt_token() -> str:
    """The active backend's store-salt token ('' for the float64 family)."""
    return active_backend().policy.salt_token


def resolve_backend(spec: Union[str, Backend, None]) -> Backend:
    """Resolve an explicit backend spec, falling back to the active default."""
    if spec is None:
        return active_backend()
    if isinstance(spec, Backend):
        return spec
    return get_backend(spec)


@contextmanager
def using_backend(spec: Union[str, Backend, None]) -> Iterator[Backend]:
    """Scope a default backend: constructions inside resolve to ``spec``.

    ``None`` is a no-op scope (the surrounding default stays active), which
    lets a runner accept ``backend=None`` and simply wrap its body.
    The scope is process-wide — worker threads a wrapped sweep spawns see it
    — so do not open scopes naming *different* backends concurrently from
    separate threads (see the ``_SCOPES`` note above).
    """
    if spec is None:
        yield active_backend()
        return
    if isinstance(spec, Backend):
        # A passed instance becomes the scoped default as-is — its own
        # configuration (e.g. a custom worker bound) included, registered
        # or not.
        backend: Union[str, Backend] = spec
    else:
        backend = get_backend(str(spec))
    token = object()
    _SCOPES.append((token, backend))
    try:
        yield backend
    finally:
        # Remove this scope's own entry (wherever it sits) instead of
        # popping the top: out-of-order exits never corrupt other scopes.
        for index in range(len(_SCOPES) - 1, -1, -1):
            if _SCOPES[index][0] is token:
                del _SCOPES[index]
                break
