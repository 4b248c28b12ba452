"""Tiling a logical weight matrix onto multiple crossbar arrays.

Large mapped matrices (im2col, SDK, or low-rank stage matrices) exceed a
single crossbar, so they are partitioned into ``AR × AC`` tiles.  The tiled
matrix aggregates partial sums across the row direction and concatenates
outputs across the column direction, counting array activations as it goes —
the same accounting the analytical cycle model performs, but executed, so the
two can be cross-checked in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..mapping.geometry import ArrayDims, ceil_div
from .crossbar import CrossbarArray, perturb_pairs, weights_to_conductances
from .noise import NoiseModel
from .peripherals import PeripheralSuite, default_peripherals

__all__ = ["TileBlock", "iter_tile_blocks", "TiledMatrix"]


@dataclass(frozen=True)
class TileBlock:
    """One allocated tile of a tiled matrix, in mapping orientation.

    ``index`` is the allocation order (row-major over the tile grid, skipping
    unallocated tiles), which is also the order in which a programming's one
    noise draw covers the tiles' cells — both the per-tile and the batched
    executors walk it, so the two produce identical noise draws.
    """

    index: int
    tile_row: int
    tile_col: int
    in_start: int
    out_start: int
    block: np.ndarray  # (out_len, in_len) slice of the logical matrix


def iter_tile_blocks(
    matrix: np.ndarray, array: ArrayDims, skip_zero_tiles: bool = True
) -> List[TileBlock]:
    """Partition a logical matrix into its allocated crossbar tile blocks.

    This is the single source of truth for tile layout: allocation order,
    zero-tile skipping and the block slices are shared by the legacy per-tile
    :class:`TiledMatrix` and the batched executor in
    :mod:`repro.engine.kernels`, which is what makes their seeded noise
    streams (and therefore their outputs) match exactly.
    """
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {matrix.shape}")
    out_dim, in_dim = matrix.shape
    rows_per_tile = array.rows
    cols_per_tile = array.logical_cols
    blocks: List[TileBlock] = []
    index = 0
    for tile_row in range(ceil_div(in_dim, rows_per_tile)):
        for tile_col in range(ceil_div(out_dim, cols_per_tile)):
            in_start = tile_row * rows_per_tile
            in_end = min(in_start + rows_per_tile, in_dim)
            out_start = tile_col * cols_per_tile
            out_end = min(out_start + cols_per_tile, out_dim)
            block = matrix[out_start:out_end, in_start:in_end]
            if skip_zero_tiles and not np.any(block):
                continue
            blocks.append(
                TileBlock(
                    index=index,
                    tile_row=tile_row,
                    tile_col=tile_col,
                    in_start=in_start,
                    out_start=out_start,
                    block=block,
                )
            )
            index += 1
    return blocks


@dataclass
class TiledMatrix:
    """A logical ``rows × cols`` matrix distributed over crossbar tiles.

    The matrix is stored in the *mapping orientation* used throughout
    :mod:`repro.mapping`: rows are output neurons and columns are input
    positions, i.e. the layer computes ``y = M x``.  Physically each tile is
    programmed transposed (inputs on word lines), which
    :class:`repro.imc.crossbar.CrossbarArray` handles internally.

    A noisy programming draws one field over the programmed cells of every
    allocated tile from ``numpy.random.default_rng(seed)`` (one
    :meth:`NoiseModel.apply` call, see
    :func:`repro.imc.crossbar.programmed_cells`) and loads each tile's slice
    into its crossbar.
    """

    matrix: np.ndarray
    array: ArrayDims
    peripherals: PeripheralSuite = field(default_factory=default_peripherals)
    noise: NoiseModel = field(default_factory=NoiseModel.ideal)
    input_bits: Optional[int] = None
    output_bits: Optional[int] = None
    skip_zero_tiles: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.matrix.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {self.matrix.shape}")
        self._tiles: Dict[Tuple[int, int], CrossbarArray] = {}
        self._build_tiles()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_tiles(self) -> None:
        out_dim, in_dim = self.matrix.shape
        self._row_tiles = ceil_div(in_dim, self.array.rows)
        self._col_tiles = ceil_div(out_dim, self.array.logical_cols)
        cell = self.peripherals.cell
        blocks = iter_tile_blocks(self.matrix, self.array, self.skip_zero_tiles)
        # Physical layout: inputs on rows, outputs on columns.
        programmed = [weights_to_conductances(tile.block.T, cell) for tile in blocks]
        pairs = [(g_pos, g_neg) for g_pos, g_neg, _ in programmed]
        if blocks and not self.noise.is_ideal:
            rng = np.random.default_rng(self.seed)
            pairs = perturb_pairs(pairs, self.array.rows, self.noise, cell, rng)
        for tile, (g_pos, g_neg), (_, _, scale) in zip(blocks, pairs, programmed):
            crossbar = CrossbarArray(
                rows=self.array.rows,
                cols=self.array.logical_cols,
                peripherals=self.peripherals,
                noise=self.noise,
                input_bits=self.input_bits,
                output_bits=self.output_bits,
            )
            crossbar.load(g_pos, g_neg, scale)
            self._tiles[(tile.tile_row, tile.tile_col)] = crossbar

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def logical_shape(self) -> Tuple[int, int]:
        return self.matrix.shape

    @property
    def grid_shape(self) -> Tuple[int, int]:
        """(row tiles, column tiles) of the tile grid."""
        return self._row_tiles, self._col_tiles

    @property
    def num_allocated_tiles(self) -> int:
        """Tiles actually holding weights (all-zero tiles are never allocated)."""
        return len(self._tiles)

    @property
    def total_activations(self) -> int:
        return sum(tile.activation_count for tile in self._tiles.values())

    def tile(self, tile_row: int, tile_col: int) -> Optional[CrossbarArray]:
        return self._tiles.get((tile_row, tile_col))

    def stored_matrix(self) -> np.ndarray:
        """The matrix as read back from the (quantized, possibly noisy) tiles."""
        out_dim, in_dim = self.matrix.shape
        rows_per_tile = self.array.rows
        cols_per_tile = self.array.logical_cols
        out = np.zeros_like(self.matrix)
        for (tile_row, tile_col), crossbar in self._tiles.items():
            in_start = tile_row * rows_per_tile
            out_start = tile_col * cols_per_tile
            block = crossbar.stored_weights().T
            out[out_start : out_start + block.shape[0], in_start : in_start + block.shape[1]] = block
        return out

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def mvm(self, vector: np.ndarray) -> np.ndarray:
        """Compute ``y = M x`` by activating every allocated tile once."""
        out_dim, in_dim = self.matrix.shape
        if vector.shape != (in_dim,):
            raise ValueError(f"expected an input of shape ({in_dim},), got {vector.shape}")
        rows_per_tile = self.array.rows
        cols_per_tile = self.array.logical_cols
        result = np.zeros(out_dim)
        for (tile_row, tile_col), crossbar in self._tiles.items():
            in_start = tile_row * rows_per_tile
            out_start = tile_col * cols_per_tile
            r, c = crossbar.programmed_shape
            partial = crossbar.mvm(vector[in_start : in_start + r])
            result[out_start : out_start + c] += partial
        return result

    def mvm_batch(self, vectors: np.ndarray) -> np.ndarray:
        """Apply :meth:`mvm` to every row of a ``(num_vectors, in_dim)`` batch."""
        if vectors.ndim != 2:
            raise ValueError(f"expected a 2-D batch, got shape {vectors.shape}")
        return np.stack([self.mvm(vec) for vec in vectors])

    # ------------------------------------------------------------------
    # Energy accounting
    # ------------------------------------------------------------------
    def activation_energy_pj(self) -> float:
        """Energy of activating every allocated tile once (one MVM of the matrix)."""
        total = 0.0
        for crossbar in self._tiles.values():
            r, c = crossbar.programmed_shape
            total += crossbar.activation_energy_pj(r, c)
        return total
