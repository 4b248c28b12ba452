"""A single IMC crossbar array: programming, analog MVM, quantized read-out.

The crossbar stores a (rows × cols) block of a weight matrix as differential
conductance pairs, applies input voltages on the word lines and reads column
currents on the bit lines — the physical matrix-vector multiplication the
whole paper is built around.  The model includes:

* per-cell conductance quantization (``CellSpec.conductance_levels``),
* signed weights via a differential positive/negative conductance pair,
* optional input (DAC) quantization and output (ADC) quantization,
* the :class:`repro.imc.noise.NoiseModel` non-idealities.

It is intentionally a *functional* model (currents are ideal sums of
``g · v``), which is the same abstraction level NeuroSIM uses for accuracy
evaluation; circuit-level parasitics enter only through the noise model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .noise import NoiseModel, ir_drop_attenuation
from .peripherals import CellSpec, PeripheralSuite, default_peripherals

__all__ = ["CrossbarArray", "weights_to_conductances", "conductances_to_weights", "programmed_cells", "perturb_pairs"]

#: Programmed differential pairs ``(g_pos, g_neg)``, one per tile.
Pairs = Sequence[Tuple[np.ndarray, np.ndarray]]


def weights_to_conductances(
    weights: np.ndarray, cell: CellSpec, scale: Optional[float] = None
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Map signed weights to a differential conductance pair ``(G_pos, G_neg)``.

    Positive weights program the positive array, negative weights the negative
    array; magnitudes are scaled so the largest |weight| uses ``g_max`` and
    quantized to the available conductance levels.  Returns the pair and the
    scale factor needed to convert column currents back to weight units.
    """
    if weights.ndim != 2:
        raise ValueError(f"expected a 2-D weight block, got shape {weights.shape}")
    max_abs = float(np.max(np.abs(weights))) if weights.size else 0.0
    if scale is None:
        scale = max_abs if max_abs > 0 else 1.0
    span = cell.g_max - cell.g_min
    normalized = np.clip(np.abs(weights) / scale, 0.0, 1.0)
    levels = cell.conductance_levels - 1
    quantized = np.round(normalized * levels) / levels
    magnitude = cell.g_min + quantized * span
    g_pos = np.where(weights > 0, magnitude, cell.g_min)
    g_neg = np.where(weights < 0, magnitude, cell.g_min)
    return g_pos, g_neg, scale


def conductances_to_weights(
    g_pos: np.ndarray, g_neg: np.ndarray, cell: CellSpec, scale: float
) -> np.ndarray:
    """Invert :func:`weights_to_conductances` (up to quantization)."""
    span = cell.g_max - cell.g_min
    return (g_pos - g_neg) / span * scale


def programmed_cells(
    pairs: Pairs, rows: int, noise: NoiseModel
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The programmed cells of a stack of tiles in noise-draw order.

    ``pairs`` holds every allocated tile's programmed ``(g_pos, g_neg)``
    blocks in allocation order.  Cells are taken tile by tile, row-major
    within a tile, each pair's positive cell right before its negative one;
    unprogrammed padding is not part of the draw.  Also returns each cell's
    IR-drop attenuation on its physical row of a ``rows``-row array (``None``
    when ``noise`` has no IR drop), the ``attenuation`` argument of
    :meth:`NoiseModel.apply`.
    """
    cells = np.concatenate([np.stack(pair, axis=-1).reshape(-1) for pair in pairs])
    if noise.ir_drop_severity == 0.0:
        return cells, None
    row_factors = ir_drop_attenuation(rows, noise.ir_drop_severity)
    attenuation = np.concatenate(
        [np.repeat(row_factors[: g_pos.shape[0]], 2 * g_pos.shape[1]) for g_pos, _ in pairs]
    )
    return cells, attenuation


def perturb_pairs(
    pairs: Pairs, rows: int, noise: NoiseModel, cell: CellSpec, rng: np.random.Generator
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Noisy copies of programmed pairs, drawn in one :meth:`NoiseModel.apply` call.

    The draw covers the cells of every pair in :func:`programmed_cells`
    order, so programming a stack of tiles from one generator is the same
    field however the tiles are held.
    """
    cells, attenuation = programmed_cells(pairs, rows, noise)
    drawn = noise.apply(cells, cell.g_min, cell.g_max, rng, attenuation)
    noisy = []
    start = 0
    for g_pos, _ in pairs:
        block = drawn[start : start + 2 * g_pos.size].reshape(g_pos.shape + (2,))
        noisy.append((block[..., 0], block[..., 1]))
        start += 2 * g_pos.size
    return noisy


@dataclass
class CrossbarArray:
    """One physical crossbar holding a block of a weight matrix."""

    rows: int
    cols: int
    peripherals: PeripheralSuite = field(default_factory=default_peripherals)
    noise: NoiseModel = field(default_factory=NoiseModel.ideal)
    input_bits: Optional[int] = None
    output_bits: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("crossbar dimensions must be positive")
        cell = self.peripherals.cell
        self._g_pos = np.full((self.rows, self.cols), cell.g_min)
        self._g_neg = np.full((self.rows, self.cols), cell.g_min)
        self._scale = 1.0
        self._programmed_shape: Tuple[int, int] = (0, 0)
        self._rng = np.random.default_rng(self.seed)
        self.activation_count = 0

    # ------------------------------------------------------------------
    # Programming
    # ------------------------------------------------------------------
    def program(self, weights: np.ndarray, scale: Optional[float] = None) -> None:
        """Program a weight block into the array (zero-padded to the array size)."""
        if weights.ndim != 2:
            raise ValueError(f"expected a 2-D weight block, got shape {weights.shape}")
        r, c = weights.shape
        if r > self.rows or c > self.cols:
            raise ValueError(
                f"weight block {weights.shape} does not fit a {self.rows}x{self.cols} crossbar"
            )
        cell = self.peripherals.cell
        g_pos, g_neg, used_scale = weights_to_conductances(weights, cell, scale)
        if not self.noise.is_ideal:
            # The one-tile case of a tiled programming: one draw over the
            # programmed cells, none over the padding.
            [(g_pos, g_neg)] = perturb_pairs(
                [(g_pos, g_neg)], self.rows, self.noise, cell, self._rng
            )
        self.load(g_pos, g_neg, used_scale)

    def load(self, g_pos: np.ndarray, g_neg: np.ndarray, scale: float) -> None:
        """Hold an already-programmed ``(r, c)`` differential pair.

        The rest of the array stays at ``g_min`` on both sides.  No
        quantization or noise is applied: :meth:`program` and
        :class:`repro.imc.tiles.TiledMatrix` do that before loading.
        """
        r, c = g_pos.shape
        if r > self.rows or c > self.cols:
            raise ValueError(
                f"conductance block {g_pos.shape} does not fit a {self.rows}x{self.cols} crossbar"
            )
        cell = self.peripherals.cell
        self._g_pos = np.full((self.rows, self.cols), cell.g_min)
        self._g_neg = np.full((self.rows, self.cols), cell.g_min)
        self._g_pos[:r, :c] = g_pos
        self._g_neg[:r, :c] = g_neg
        self._scale = scale
        self._programmed_shape = (r, c)

    @property
    def programmed_shape(self) -> Tuple[int, int]:
        return self._programmed_shape

    def stored_weights(self) -> np.ndarray:
        """Weights as read back from the (possibly noisy, quantized) conductances."""
        r, c = self._programmed_shape
        cell = self.peripherals.cell
        full = conductances_to_weights(self._g_pos, self._g_neg, cell, self._scale)
        return full[:r, :c]

    # ------------------------------------------------------------------
    # Matrix-vector multiplication
    # ------------------------------------------------------------------
    def _quantize_input(self, vector: np.ndarray) -> np.ndarray:
        if self.input_bits is None:
            return vector
        max_abs = float(np.max(np.abs(vector))) if vector.size else 0.0
        if max_abs == 0.0:
            return vector
        levels = 2 ** self.input_bits - 1
        return np.round(vector / max_abs * levels) / levels * max_abs

    def _quantize_output(self, outputs: np.ndarray) -> np.ndarray:
        if self.output_bits is None:
            return outputs
        max_abs = float(np.max(np.abs(outputs))) if outputs.size else 0.0
        if max_abs == 0.0:
            return outputs
        levels = 2 ** self.output_bits - 1
        return np.round(outputs / max_abs * levels) / levels * max_abs

    def mvm(self, vector: np.ndarray) -> np.ndarray:
        """Compute ``W^T v`` for the programmed block (inputs on rows, outputs on columns)."""
        r, c = self._programmed_shape
        if r == 0 or c == 0:
            raise RuntimeError("crossbar has not been programmed")
        if vector.shape != (r,):
            raise ValueError(f"expected an input of shape ({r},), got {vector.shape}")
        self.activation_count += 1
        v = np.zeros(self.rows)
        v[:r] = self._quantize_input(vector)
        cell = self.peripherals.cell
        span = cell.g_max - cell.g_min
        currents = (self._g_pos - self._g_neg).T @ v  # one current per column
        outputs = currents[:c] / span * self._scale
        return self._quantize_output(outputs)

    def mvm_batch(self, vectors: np.ndarray) -> np.ndarray:
        """Apply :meth:`mvm` to every row of a ``(num_vectors, rows)`` batch."""
        if vectors.ndim != 2:
            raise ValueError(f"expected a 2-D batch, got shape {vectors.shape}")
        return np.stack([self.mvm(vec) for vec in vectors])

    # ------------------------------------------------------------------
    # Per-activation energy (delegated to the energy model constants)
    # ------------------------------------------------------------------
    def activation_energy_pj(self, active_rows: Optional[int] = None, active_cols: Optional[int] = None) -> float:
        """Energy of one array activation with the given number of active lines."""
        r, c = self._programmed_shape
        rows = active_rows if active_rows is not None else r
        cols = active_cols if active_cols is not None else c
        p = self.peripherals
        dac = rows * p.dac.energy_per_conversion_pj
        cells = rows * cols * p.cell.read_energy_pj * 2  # differential pair
        adc = cols * p.adc.energy_per_conversion_pj
        return dac + cells + adc
