"""Vectorized execution kernels: batched im2col and batched crossbar tiles.

This module is the kernel layer of :mod:`repro.engine`.  It replaces the two
interpreter-bound hot loops of the reproduction with numpy-native kernels:

* :func:`im2col_columns` — a ``numpy.lib.stride_tricks.sliding_window_view``
  unfolding of NCHW inputs into im2col column vectors (the triple Python loop
  it replaces is kept as :func:`im2col_columns_loop`, the cross-check oracle).
* :class:`BatchedTiledMatrix` — all allocated tiles of a mapped matrix stored
  as one stacked 3-D conductance tensor and executed with a single batched
  matmul per MVM batch; cell quantization, programming noise and DAC/ADC
  quantization are applied vectorized across tiles.
* :class:`MonteCarloTiledMatrix` — ``R`` independently-noisy programmings
  (Monte-Carlo robustness trials) of one mapped matrix stacked into a single
  ``(R·T, rows, cols)`` conductance tensor, so every trial of a layer executes
  in one batched matmul.  The noise stream of trial ``t``, tile ``i`` is
  seeded ``seed + t · trial_stride + i``, making each trial's programmed
  conductances bit-identical to a sequential per-trial
  :class:`BatchedTiledMatrix` built with seed ``seed + t · trial_stride``.

The kernels are drop-in equivalents of their per-element counterparts
(:func:`im2col_columns_loop` and :class:`repro.imc.tiles.TiledMatrix`): same
tile layout, same seeded noise streams, same quantization arithmetic.  The equivalence is enforced by
``tests/engine/test_kernels.py`` and ``tests/engine/test_montecarlo.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..backend import Backend, TileLayout, resolve_backend
from ..imc.crossbar import weights_to_conductances
from ..imc.noise import NoiseModel
from ..imc.peripherals import PeripheralSuite, default_peripherals
from ..imc.tiles import TileBlock, iter_tile_blocks
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
class _ProgrammedTiles:
    """Clean (noise-free) stacked programming of a tiled matrix.

    The single source of truth for what the batched executors program before
    non-idealities are applied: stacked differential conductances in
    allocation order plus the per-tile layout metadata, all derived from
    :func:`repro.imc.tiles.iter_tile_blocks` with exactly the arithmetic of
    ``CrossbarArray.program``.
    """

    blocks: List[TileBlock]
    g_pos: np.ndarray  # (T, rows, cols)
    g_neg: np.ndarray  # (T, rows, cols)
    scales: np.ndarray
    tile_rows: np.ndarray
    in_starts: np.ndarray
    out_starts: np.ndarray
    out_lens: np.ndarray
    programmed: np.ndarray  # (T, 2) programmed (rows, cols) per tile


def _program_tiles(
    matrix: np.ndarray,
    array: ArrayDims,
    peripherals: PeripheralSuite,
    skip_zero_tiles: bool,
) -> _ProgrammedTiles:
    """Program every allocated tile of ``matrix`` without noise, stacked."""
    rows, cols = array.rows, array.logical_cols
    blocks = iter_tile_blocks(matrix, array, skip_zero_tiles)
    num = len(blocks)
    cell = peripherals.cell
    g_pos = np.full((num, rows, cols), cell.g_min)
    g_neg = np.full((num, rows, cols), cell.g_min)
    scales = np.ones(num)
    tile_rows = np.zeros(num, dtype=np.intp)
    in_starts = np.zeros(num, dtype=np.intp)
    out_starts = np.zeros(num, dtype=np.intp)
    out_lens = np.zeros(num, dtype=np.intp)
    programmed = np.zeros((num, 2), dtype=np.intp)
    for t, tile in enumerate(blocks):
        physical = tile.block.T  # inputs on rows, outputs on columns
        tile_pos, tile_neg, scale = weights_to_conductances(physical, cell)
        r, c = physical.shape
        g_pos[t, :r, :c] = tile_pos
        g_neg[t, :r, :c] = tile_neg
        scales[t] = scale
        tile_rows[t] = tile.tile_row
        in_starts[t] = tile.in_start
        out_starts[t] = tile.out_start
        out_lens[t] = c
        programmed[t] = (r, c)
    return _ProgrammedTiles(
        blocks=blocks,
        g_pos=g_pos,
        g_neg=g_neg,
        scales=scales,
        tile_rows=tile_rows,
        in_starts=in_starts,
        out_starts=out_starts,
        out_lens=out_lens,
        programmed=programmed,
    )


@dataclass
class BatchedTiledMatrix:
    """A logical ``rows × cols`` matrix on crossbar tiles, executed batched.

    Functionally equivalent to :class:`repro.imc.tiles.TiledMatrix` — same
    tile layout (via :func:`repro.imc.tiles.iter_tile_blocks`), same per-tile
    programming (differential conductance pairs, cell quantization, seeded
    noise with seed ``seed + allocation index``), same DAC/ADC quantization
    arithmetic — but the allocated tiles live in one stacked ``(T, rows,
    cols)`` tensor and an MVM batch is executed with a single batched matmul
    over all tiles and input vectors instead of a Python loop per (tile,
    vector) pair.

    Everything deterministic (programmed conductances, tile counts,
    activations, energy) is bit-for-bit identical to the per-tile oracle.
    Analog outputs are identical only up to floating-point associativity:
    BLAS reduces the batched matmul in a batch-shape-dependent order, so with
    ``output_bits``/``input_bits`` set a value landing exactly on an ADC/DAC
    rounding tie may differ from the oracle (and between batch sizes) by one
    quantization step.  See ENGINE.md, "Equivalence contract".
    """

    matrix: np.ndarray
    array: ArrayDims
    peripherals: PeripheralSuite = field(default_factory=default_peripherals)
    noise: NoiseModel = field(default_factory=NoiseModel.ideal)
    input_bits: Optional[int] = None
    output_bits: Optional[int] = None
    skip_zero_tiles: bool = True
    seed: int = 0
    backend: Union[str, Backend, None] = None

    def __post_init__(self) -> None:
        if self.matrix.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {self.matrix.shape}")
        self.backend = resolve_backend(self.backend)
        out_dim, in_dim = self.matrix.shape
        rows, cols = self.array.rows, self.array.logical_cols
        self._row_tiles = ceil_div(in_dim, rows)
        self._col_tiles = ceil_div(out_dim, cols)
        # Stacked differential conductances of every allocated tile, programmed
        # exactly like CrossbarArray.program does it per tile.  Only their
        # difference is kept after construction (execution and read-back use
        # nothing else), so a programmed layer holds one (T, rows, cols)
        # tensor rather than three.
        clean = _program_tiles(self.matrix, self.array, self.peripherals, self.skip_zero_tiles)
        self._blocks = clean.blocks
        self._scales = clean.scales
        self._tile_rows = clean.tile_rows
        self._in_starts = clean.in_starts
        self._out_starts = clean.out_starts
        self._out_lens = clean.out_lens
        self._programmed = clean.programmed
        g_pos, g_neg = clean.g_pos, clean.g_neg
        if not self.noise.is_ideal:
            cell = self.peripherals.cell
            for t, tile in enumerate(self._blocks):
                rng = np.random.default_rng(self.seed + tile.index)
                g_pos[t] = self.noise.apply(g_pos[t], cell.g_min, cell.g_max, rng)
                g_neg[t] = self.noise.apply(g_neg[t], cell.g_min, cell.g_max, rng)
        # Programming stays float64 (the precision policy governs *execution*
        # arithmetic only, so stored_matrix() keeps the bit-identity contract
        # under every backend); the execution operand is the differential
        # difference at the backend's compute dtype — the same array, not a
        # copy, for float64 backends.
        self._diff = g_pos - g_neg
        self._exec = self.backend.asarray(self._diff)
        self._layout = TileLayout(
            tile_rows=self._tile_rows,
            out_starts=self._out_starts,
            out_lens=self._out_lens,
            scales=self._scales,
            span=self.peripherals.cell.g_max - self.peripherals.cell.g_min,
            out_dim=out_dim,
        )
        self.total_activations = 0

    # ------------------------------------------------------------------
    # Properties (mirror TiledMatrix)
    # ------------------------------------------------------------------
    @property
    def logical_shape(self) -> Tuple[int, int]:
        return self.matrix.shape

    @property
    def grid_shape(self) -> Tuple[int, int]:
        return self._row_tiles, self._col_tiles

    @property
    def num_allocated_tiles(self) -> int:
        return len(self._blocks)

    def stored_matrix(self) -> np.ndarray:
        """The matrix as read back from the (quantized, possibly noisy) tiles."""
        cell = self.peripherals.cell
        span = cell.g_max - cell.g_min
        out = np.zeros_like(self.matrix)
        for t, tile in enumerate(self._blocks):
            r, c = self._programmed[t]
            block = (self._diff[t, :r, :c] / span * self._scales[t]).T
            out[
                tile.out_start : tile.out_start + block.shape[0],
                tile.in_start : tile.in_start + block.shape[1],
            ] = block
        return out

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
        """Compute ``Y = X M^T`` for a ``(num_vectors, in_dim)`` batch.

        One call performs, for every allocated tile at once: DAC input
        quantization, the analog differential-pair MVM, current-to-weight
        rescaling and ADC output quantization, then scatter-adds the per-tile
        partial sums into the logical output — the same computation
        ``TiledMatrix.mvm_batch`` performs tile by tile and vector by vector,
        up to the floating-point associativity caveat in the class docstring.
        """
        if vectors.ndim != 2:
            raise ValueError(f"expected a 2-D batch, got shape {vectors.shape}")
        out_dim, in_dim = self.matrix.shape
        if vectors.shape[1] != in_dim:
            raise ValueError(
                f"expected inputs of shape (batch, {in_dim}), got {vectors.shape}"
            )
        batch = vectors.shape[0]
        if not self._blocks:
            return self.backend.zeros((batch, out_dim))
        rows = self.array.rows
        # Slice the batch into per-tile-row segments, zero-padded to the array
        # row count: X has shape (row_tiles, batch, rows).
        padded_in = self._row_tiles * rows
        x = self.backend.zeros((batch, padded_in))
        x[:, :in_dim] = vectors
        x = x.reshape(batch, self._row_tiles, rows).transpose(1, 0, 2)
        if self.input_bits is not None:
            x = self._quantize(x, self.input_bits)
        # The backend's tile executor performs the gather, the batched MVM,
        # current-to-weight rescaling, ADC quantization and the allocation-
        # order scatter-add (see Backend.tiled_mvm and ENGINE.md).
        result = self.backend.tiled_mvm(
            x, self._exec, self._layout, self.output_bits, self._quantize
        )
        self.total_activations += batch * len(self._blocks)
        return result

    def mvm(self, vector: np.ndarray) -> np.ndarray:
        """Compute ``y = M x`` for a single input vector."""
        out_dim, in_dim = self.matrix.shape
        if vector.shape != (in_dim,):
            raise ValueError(f"expected an input of shape ({in_dim},), got {vector.shape}")
        return self.mvm_batch(vector[None, :])[0]

    # ------------------------------------------------------------------
    # Energy accounting (identical to the per-tile path)
    # ------------------------------------------------------------------
    def activation_energy_pj(self) -> float:
        """Energy of activating every allocated tile once (one MVM of the matrix)."""
        p = self.peripherals
        total = 0.0
        for r, c in self._programmed:
            dac = int(r) * p.dac.energy_per_conversion_pj
            cells = int(r) * int(c) * p.cell.read_energy_pj * 2  # differential pair
            adc = int(c) * p.adc.energy_per_conversion_pj
            total += dac + cells + adc
        return total


@dataclass
class MonteCarloTiledMatrix:
    """``trials`` independently-noisy programmings of one matrix, executed batched.

    Monte-Carlo robustness studies re-program the same logical matrix ``R``
    times with fresh noise draws and measure the output spread.  Instead of a
    Python loop constructing ``R`` :class:`BatchedTiledMatrix` instances, this
    kernel programs the clean tiles **once**, perturbs them per trial, and
    stacks everything into a single ``(R·T, rows, cols)`` differential
    conductance tensor so that all trials of an MVM batch execute in one
    batched matmul.

    Equivalence contract (see ENGINE.md): the noise generator of trial ``t``,
    tile ``i`` is seeded ``seed + t · trial_stride + i`` — exactly the stream
    a sequential per-trial run uses when it builds ``BatchedTiledMatrix(...,
    seed=seed + t · trial_stride)`` (or the legacy per-tile
    :class:`repro.imc.tiles.TiledMatrix` with the same seed).  Every trial's
    programmed conductances are therefore bit-identical to the sequential
    oracle; analog outputs agree up to floating-point associativity like the
    rest of the engine.
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
        clean = _program_tiles(self.matrix, self.array, self.peripherals, self.skip_zero_tiles)
        self._blocks = clean.blocks
        self._scales = clean.scales
        self._tile_rows = clean.tile_rows
        self._in_starts = clean.in_starts
        self._out_starts = clean.out_starts
        self._out_lens = clean.out_lens
        self._programmed = clean.programmed
        num = len(self._blocks)
        if self.noise.is_ideal:
            # Every trial programs identical conductances; materialize the
            # replicated stack so execution stays one batched matmul.
            diff = np.broadcast_to(
                clean.g_pos - clean.g_neg, (self.trials, num, rows, cols)
            ).copy()
        else:
            cell = self.peripherals.cell
            diff = np.empty((self.trials, num, rows, cols))
            for trial in range(self.trials):
                base = self.seed + trial * self.trial_stride
                for t, tile in enumerate(self._blocks):
                    # One generator per (trial, tile), consumed g_pos-then-g_neg
                    # — the exact stream of the sequential per-trial oracle.
                    rng = np.random.default_rng(base + tile.index)
                    g_pos = self.noise.apply(clean.g_pos[t], cell.g_min, cell.g_max, rng)
                    g_neg = self.noise.apply(clean.g_neg[t], cell.g_min, cell.g_max, rng)
                    diff[trial, t] = g_pos - g_neg
        # As in BatchedTiledMatrix: programming stays float64 for the
        # bit-identity contract; execution reads the backend-dtype operand.
        self._diff = diff
        self._exec = self.backend.asarray(diff)
        self._layout = TileLayout(
            tile_rows=self._tile_rows,
            out_starts=self._out_starts,
            out_lens=self._out_lens,
            scales=self._scales,
            span=self.peripherals.cell.g_max - self.peripherals.cell.g_min,
            out_dim=out_dim,
        )
        self.total_activations = 0

    # ------------------------------------------------------------------
    # Properties (mirror BatchedTiledMatrix, plus the trial axis)
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

    def stored_matrix(self, trial: int = 0) -> np.ndarray:
        """The matrix as read back from one trial's (noisy, quantized) tiles."""
        if not 0 <= trial < self.trials:
            raise IndexError(f"trial {trial} out of range [0, {self.trials})")
        cell = self.peripherals.cell
        span = cell.g_max - cell.g_min
        out = np.zeros_like(self.matrix)
        for t, tile in enumerate(self._blocks):
            r, c = self._programmed[t]
            block = (self._diff[trial, t, :r, :c] / span * self._scales[t]).T
            out[
                tile.out_start : tile.out_start + block.shape[0],
                tile.in_start : tile.in_start + block.shape[1],
            ] = block
        return out

    def stored_matrices(self) -> np.ndarray:
        """Read-back of every trial, shape ``(trials, out_dim, in_dim)``."""
        return np.stack([self.stored_matrix(trial) for trial in range(self.trials)])

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    _quantize = BatchedTiledMatrix._quantize

    def mvm_batch(self, vectors: np.ndarray) -> np.ndarray:
        """Per-trial ``Y_r = X_r M_r^T``, one batched matmul over all trials.

        ``vectors`` is either a shared ``(batch, in_dim)`` batch — every trial
        consumes the same inputs, the common Monte-Carlo setup — or a per-trial
        ``(trials, batch, in_dim)`` stack (what a downstream low-rank stage
        receives from an upstream one).  Returns ``(trials, batch, out_dim)``.
        """
        if vectors.ndim == 2:
            shared = True
        elif vectors.ndim == 3 and vectors.shape[0] == self.trials:
            shared = False
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
        batch = vectors.shape[-2]
        if not self._blocks:
            return self.backend.zeros((self.trials, batch, out_dim))
        rows = self.array.rows
        padded_in = self._row_tiles * rows
        if shared:
            # Input preparation (padding, slicing, DAC quantization) is shared
            # by every trial — done once, broadcast into the trial matmul.
            x = self.backend.zeros((batch, padded_in))
            x[:, :in_dim] = vectors
            x = x.reshape(batch, self._row_tiles, rows).transpose(1, 0, 2)
            if self.input_bits is not None:
                x = self._quantize(x, self.input_bits)
            # (row_tiles, batch, rows): the executor broadcasts over trials.
        else:
            x = self.backend.zeros((self.trials, batch, padded_in))
            x[:, :, :in_dim] = vectors
            x = x.reshape(self.trials, batch, self._row_tiles, rows).transpose(0, 2, 1, 3)
            if self.input_bits is not None:
                x = self._quantize(x, self.input_bits)
            # (trials, row_tiles, batch, rows): the executor gathers per trial.
        # Every (trial, tile, vector) MVM runs through the backend's tile
        # executor: gather, batched matmul, rescale, ADC quantization and
        # allocation-order scatter-add per trial.
        result = self.backend.tiled_mvm(
            x, self._exec, self._layout, self.output_bits, self._quantize
        )
        self.total_activations += self.trials * batch * len(self._blocks)
        return result

    # ------------------------------------------------------------------
    # Energy accounting
    # ------------------------------------------------------------------
    activation_energy_pj = BatchedTiledMatrix.activation_energy_pj
