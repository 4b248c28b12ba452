"""Vectorized execution kernels: batched im2col and batched crossbar tiles.

This module is the kernel layer of :mod:`repro.engine`.  It replaces the two
interpreter-bound hot loops of the reproduction with numpy-native kernels:

* :func:`im2col_columns` — a ``numpy.lib.stride_tricks.sliding_window_view``
  unfolding of NCHW inputs into im2col column vectors (the triple Python loop
  it replaces is kept as :func:`im2col_columns_loop`, the cross-check oracle).
* :class:`MonteCarloTiledMatrix` — the one crossbar tile kernel: ``R``
  independently-noisy programmings (Monte-Carlo robustness trials) of one
  mapped matrix stacked into a single ``(R, T, rows, cols)`` conductance
  tensor, so every trial and tile of an MVM batch executes in one call of the
  backend's tile executor; cell quantization, programming noise and DAC/ADC
  quantization are applied vectorized.  The noise stream of trial ``t``, tile
  ``i`` is seeded ``seed + t · trial_stride + i``, making each trial's
  programmed conductances bit-identical to a per-tile run seeded
  ``seed + t · trial_stride``.
* :class:`BatchedTiledMatrix` — its ``trials == 1`` case with the trial axis
  removed from the surface: one programming, 2-D batches in and out.

The kernels are drop-in equivalents of their per-element counterparts
(:func:`im2col_columns_loop` and :class:`repro.imc.tiles.TiledMatrix`): same
tile layout, same seeded noise streams, same quantization arithmetic.  The equivalence is enforced by
``tests/engine/test_kernels.py`` and ``tests/engine/test_montecarlo.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..backend import Backend, TileLayout, resolve_backend
from ..imc.crossbar import weights_to_conductances
from ..imc.noise import NoiseModel
from ..imc.peripherals import PeripheralSuite, default_peripherals
from ..imc.tiles import iter_tile_blocks
from ..mapping.geometry import ArrayDims, ConvGeometry, ceil_div

__all__ = [
    "im2col_columns",
    "im2col_columns_loop",
    "BatchedTiledMatrix",
    "MonteCarloTiledMatrix",
    "STAGE_SEED_STRIDE",
    "TRIAL_SEED_STRIDE",
]

#: Seed spacing between the stages of a multi-stage plan (and between the
#: bit-slices of :class:`repro.imc.bitslicing.BitSlicedMatrix`).  Per-tile
#: noise generators are seeded ``seed + allocation_index``, so consecutive
#: integer stage offsets would alias stage ``s+1``'s tile 0 with stage ``s``'s
#: tile 1 and correlate their noise draws; spacing stages by more than any
#: realistic tile count keeps every stream distinct.
STAGE_SEED_STRIDE = 1 << 16

#: Default seed spacing between Monte-Carlo trials.  It exceeds the per-plan
#: seed span (stage offsets of :class:`repro.engine.context.ExecutionContext`
#: times :data:`STAGE_SEED_STRIDE`, plus tile allocation indices), so trial
#: streams never overlap within or across stages.
TRIAL_SEED_STRIDE = 1 << 20


def _check_im2col_inputs(inputs: np.ndarray, geometry: ConvGeometry) -> None:
    if inputs.ndim != 4:
        raise ValueError(f"expected NCHW inputs, got shape {inputs.shape}")
    n, c, h, w = inputs.shape
    if c != geometry.in_channels or h != geometry.input_h or w != geometry.input_w:
        raise ValueError(
            f"input shape {inputs.shape[1:]} does not match geometry "
            f"({geometry.in_channels}, {geometry.input_h}, {geometry.input_w})"
        )


def im2col_columns(inputs: np.ndarray, geometry: ConvGeometry) -> np.ndarray:
    """Unfold a batch of (N, C, H, W) inputs into im2col column vectors.

    Returns an array of shape ``(N · out_h · out_w, n)`` where each row is the
    flattened receptive field of one sliding-window position, ordered batch
    first then row-major over output positions — the input vectors the IMC
    array consumes one per computing cycle under im2col mapping.

    Implemented with :func:`numpy.lib.stride_tricks.sliding_window_view`, so
    the unfolding is a strided view plus one copy instead of a Python loop
    over every window position.
    """
    _check_im2col_inputs(inputs, geometry)
    n = inputs.shape[0]
    pad = geometry.padding
    padded = np.pad(inputs, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    stride = geometry.stride
    # (N, C, H', W', kh, kw) view of every window position, then subsample by
    # the stride and reorder to (N, out_h, out_w, C, kh, kw) so each flattened
    # row matches the channel-major patch layout of the loop reference.
    windows = sliding_window_view(padded, (geometry.kernel_h, geometry.kernel_w), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    windows = windows[:, :, : geometry.output_h, : geometry.output_w]
    columns = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * geometry.num_windows, geometry.n)
    return np.ascontiguousarray(columns)


def im2col_columns_loop(inputs: np.ndarray, geometry: ConvGeometry) -> np.ndarray:
    """Reference implementation of :func:`im2col_columns` (per-window Python loop).

    Kept as the cross-check oracle for the vectorized kernel; the equivalence
    tests assert both produce identical arrays.
    """
    _check_im2col_inputs(inputs, geometry)
    n = inputs.shape[0]
    pad = geometry.padding
    padded = np.pad(inputs, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    kh, kw = geometry.kernel_h, geometry.kernel_w
    stride = geometry.stride
    out_h, out_w = geometry.output_h, geometry.output_w
    columns = np.empty((n * out_h * out_w, geometry.n))
    index = 0
    for sample in range(n):
        for i in range(out_h):
            for j in range(out_w):
                top, left = i * stride, j * stride
                patch = padded[sample, :, top : top + kh, left : left + kw]
                columns[index] = patch.reshape(-1)
                index += 1
    return columns


@dataclass
class MonteCarloTiledMatrix:
    """``trials`` independently-noisy programmings of one matrix, executed batched.

    The engine's crossbar tile kernel.  Functionally equivalent to ``trials``
    per-tile :class:`repro.imc.tiles.TiledMatrix` instances — same tile layout
    (via :func:`repro.imc.tiles.iter_tile_blocks`), same per-tile programming
    (differential conductance pairs, cell quantization, seeded noise), same
    DAC/ADC quantization arithmetic — but the clean tiles are programmed
    **once**, perturbed per trial and stacked into one ``(trials, T, rows,
    cols)`` differential conductance tensor, so an MVM batch of every trial
    and tile runs in one call of the backend's tile executor instead of a
    Python loop per (trial, tile, vector).

    Equivalence contract (see ENGINE.md): the noise generator of trial ``t``,
    tile ``i`` is seeded ``seed + t · trial_stride + i`` — exactly the stream
    of the per-tile oracle built with seed ``seed + t · trial_stride``.
    Everything deterministic (programmed conductances, tile counts,
    activations, energy) is therefore bit-for-bit identical to the oracle.
    Analog outputs are identical only up to floating-point associativity:
    BLAS reduces the batched matmul in a batch-shape-dependent order, so with
    ``output_bits``/``input_bits`` set a value landing exactly on an ADC/DAC
    rounding tie may differ from the oracle (and between batch sizes) by one
    quantization step.
    """

    matrix: np.ndarray
    array: ArrayDims
    trials: int = 1
    peripherals: PeripheralSuite = field(default_factory=default_peripherals)
    noise: NoiseModel = field(default_factory=NoiseModel.ideal)
    input_bits: Optional[int] = None
    output_bits: Optional[int] = None
    skip_zero_tiles: bool = True
    seed: int = 0
    trial_stride: int = TRIAL_SEED_STRIDE
    backend: Union[str, Backend, None] = None

    def __post_init__(self) -> None:
        if self.matrix.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {self.matrix.shape}")
        self.backend = resolve_backend(self.backend)
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if self.trial_stride < 1:
            raise ValueError(f"trial_stride must be positive, got {self.trial_stride}")
        out_dim, in_dim = self.matrix.shape
        rows, cols = self.array.rows, self.array.logical_cols
        self._row_tiles = ceil_div(in_dim, rows)
        self._col_tiles = ceil_div(out_dim, cols)
        # Program every allocated tile without noise, stacked in allocation
        # order, exactly like CrossbarArray.program does it per tile.
        cell = self.peripherals.cell
        self._blocks = iter_tile_blocks(self.matrix, self.array, self.skip_zero_tiles)
        num = len(self._blocks)
        g_pos = np.full((num, rows, cols), cell.g_min)
        g_neg = np.full((num, rows, cols), cell.g_min)
        scales = np.ones(num)
        self._programmed = np.zeros((num, 2), dtype=np.intp)  # programmed (rows, cols) per tile
        for t, tile in enumerate(self._blocks):
            physical = tile.block.T  # inputs on rows, outputs on columns
            tile_pos, tile_neg, scales[t] = weights_to_conductances(physical, cell)
            r, c = physical.shape
            g_pos[t, :r, :c] = tile_pos
            g_neg[t, :r, :c] = tile_neg
            self._programmed[t] = (r, c)
        # Only the differential difference is kept: execution and read-back
        # use nothing else.
        diff = np.empty((self.trials, num, rows, cols))
        if self.noise.is_ideal:
            # Every trial programs identical conductances; replicate them so
            # execution stays one batched matmul.
            np.subtract(g_pos, g_neg, out=diff[0])
            diff[1:] = diff[0]
        else:
            for trial in range(self.trials):
                base = self.seed + trial * self.trial_stride
                for t, tile in enumerate(self._blocks):
                    # One generator per (trial, tile), consumed g_pos-then-g_neg
                    # — the exact stream of the per-tile oracle.
                    rng = np.random.default_rng(base + tile.index)
                    noisy_pos = self.noise.apply(g_pos[t], cell.g_min, cell.g_max, rng)
                    noisy_neg = self.noise.apply(g_neg[t], cell.g_min, cell.g_max, rng)
                    diff[trial, t] = noisy_pos - noisy_neg
        # Programming stays float64 (the precision policy governs *execution*
        # arithmetic only, so stored_matrix() keeps the bit-identity contract
        # under every backend); the execution operand is the same tensor at
        # the backend's compute dtype — not a copy, for float64 backends.
        self._diff = diff
        self._exec = self.backend.asarray(diff)
        self._layout = TileLayout(
            tile_rows=np.array([tile.tile_row for tile in self._blocks], dtype=np.intp),
            out_starts=np.array([tile.out_start for tile in self._blocks], dtype=np.intp),
            out_lens=self._programmed[:, 1],
            scales=scales,
            span=cell.g_max - cell.g_min,
            out_dim=out_dim,
        )
        self.total_activations = 0

    # ------------------------------------------------------------------
    # Properties (mirror TiledMatrix, plus the trial axis)
    # ------------------------------------------------------------------
    @property
    def logical_shape(self) -> Tuple[int, int]:
        return self.matrix.shape

    @property
    def grid_shape(self) -> Tuple[int, int]:
        return self._row_tiles, self._col_tiles

    @property
    def num_allocated_tiles(self) -> int:
        """Allocated tiles of ONE trial (the hardware is programmed R times, not R× larger)."""
        return len(self._blocks)

    def trial_seed(self, trial: int) -> int:
        """The base seed a sequential run of ``trial`` uses."""
        if not 0 <= trial < self.trials:
            raise IndexError(f"trial {trial} out of range [0, {self.trials})")
        return self.seed + trial * self.trial_stride

    def stored_matrices(self) -> np.ndarray:
        """Read-back of every trial's (noisy, quantized) tiles, ``(trials, out_dim, in_dim)``."""
        out = np.zeros((self.trials,) + self.matrix.shape, dtype=self.matrix.dtype)
        for t, tile in enumerate(self._blocks):
            r, c = self._programmed[t]
            block = self._diff[:, t, :r, :c] / self._layout.span * self._layout.scales[t]
            out[:, tile.out_start : tile.out_start + c, tile.in_start : tile.in_start + r] = (
                block.transpose(0, 2, 1)
            )
        return out

    def stored_matrix(self, trial: int = 0) -> np.ndarray:
        """The matrix as read back from one trial's (noisy, quantized) tiles."""
        if not 0 <= trial < self.trials:
            raise IndexError(f"trial {trial} out of range [0, {self.trials})")
        return self.stored_matrices()[trial]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _quantize(self, values: np.ndarray, bits: int) -> np.ndarray:
        """Per-(tile, vector) symmetric quantization along the last axis.

        Elementwise identical to ``CrossbarArray._quantize_input`` /
        ``_quantize_output`` applied per tile: each last-axis slice is scaled
        by its own max-abs.  Slices whose max-abs is zero pass through.
        """
        max_abs = np.max(np.abs(values), axis=-1, keepdims=True)
        levels = 2 ** bits - 1
        safe = np.where(max_abs > 0.0, max_abs, 1.0)
        quantized = np.round(values / safe * levels) / levels * safe
        return np.where(max_abs > 0.0, quantized, values)

    def mvm_batch(self, vectors: np.ndarray) -> np.ndarray:
        """Per-trial ``Y_r = X_r M_r^T``, one tile-executor call over all trials.

        ``vectors`` is either a shared ``(batch, in_dim)`` batch — every trial
        consumes the same inputs, the common Monte-Carlo setup — or a per-trial
        ``(trials, batch, in_dim)`` stack (what a downstream low-rank stage
        receives from an upstream one).  Returns ``(trials, batch, out_dim)``.

        One call performs, for every trial and allocated tile at once: DAC
        input quantization, the analog differential-pair MVM, current-to-weight
        rescaling and ADC output quantization, then scatter-adds the per-tile
        partial sums into the logical output — the computation
        ``TiledMatrix.mvm_batch`` performs tile by tile and vector by vector,
        up to the floating-point associativity caveat in the class docstring.
        """
        if vectors.ndim == 2:
            stack = vectors[None]  # shared: prepared once, broadcast over trials
        elif vectors.ndim == 3 and vectors.shape[0] == self.trials:
            stack = vectors
        else:
            raise ValueError(
                f"expected a (batch, in) batch or a ({self.trials}, batch, in) "
                f"per-trial stack, got shape {vectors.shape}"
            )
        out_dim, in_dim = self.matrix.shape
        if vectors.shape[-1] != in_dim:
            raise ValueError(
                f"expected inputs with last dimension {in_dim}, got {vectors.shape}"
            )
        stacks, batch = stack.shape[:2]
        if not self._blocks:
            return self.backend.zeros((self.trials, batch, out_dim))
        rows = self.array.rows
        # Slice every input stack into per-tile-row segments, zero-padded to
        # the array row count: x has shape (1 | trials, row_tiles, batch, rows).
        x = self.backend.zeros((stacks, batch, self._row_tiles * rows))
        x[..., :in_dim] = stack
        x = x.reshape(stacks, batch, self._row_tiles, rows).transpose(0, 2, 1, 3)
        if self.input_bits is not None:
            x = self._quantize(x, self.input_bits)
        # The backend's tile executor performs the gather, the batched MVM,
        # current-to-weight rescaling, ADC quantization and the allocation-
        # order scatter-add per trial (see Backend.tiled_mvm and ENGINE.md).
        result = self.backend.tiled_mvm(
            x, self._exec, self._layout, self.output_bits, self._quantize
        )
        self.total_activations += self.trials * batch * len(self._blocks)
        return result

    # ------------------------------------------------------------------
    # Energy accounting (identical to the per-tile path)
    # ------------------------------------------------------------------
    def activation_energy_pj(self) -> float:
        """Energy of activating every allocated tile of one trial once (one MVM of the matrix)."""
        p = self.peripherals
        total = 0.0
        for r, c in self._programmed:
            dac = int(r) * p.dac.energy_per_conversion_pj
            cells = int(r) * int(c) * p.cell.read_energy_pj * 2  # differential pair
            adc = int(c) * p.adc.energy_per_conversion_pj
            total += dac + cells + adc
        return total


@dataclass
class BatchedTiledMatrix(MonteCarloTiledMatrix):
    """One programming of a mapped matrix: :class:`MonteCarloTiledMatrix` with one trial.

    The batched drop-in for the per-tile :class:`repro.imc.tiles.TiledMatrix`
    (same constructor keywords, tile ``i`` seeded ``seed + i``).  Only the
    trial axis is removed: :meth:`mvm_batch` takes and returns 2-D batches and
    :meth:`stored_matrix` takes no trial index.
    """

    trials: int = field(default=1, init=False, repr=False)
    trial_stride: int = field(default=TRIAL_SEED_STRIDE, init=False, repr=False)

    def stored_matrix(self) -> np.ndarray:
        """The matrix as read back from the (quantized, possibly noisy) tiles."""
        return self.stored_matrices()[0]

    def mvm_batch(self, vectors: np.ndarray) -> np.ndarray:
        """Compute ``Y = X M^T`` for a ``(num_vectors, in_dim)`` batch."""
        if vectors.ndim != 2:
            raise ValueError(f"expected a 2-D batch, got shape {vectors.shape}")
        return super().mvm_batch(vectors)[0]

    def mvm(self, vector: np.ndarray) -> np.ndarray:
        """Compute ``y = M x`` for a single input vector."""
        out_dim, in_dim = self.matrix.shape
        if vector.shape != (in_dim,):
            raise ValueError(f"expected an input of shape ({in_dim},), got {vector.shape}")
        return self.mvm_batch(vector[None, :])[0]
