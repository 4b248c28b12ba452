"""Equivalence tests: batched engine kernels vs. the per-element oracles.

The contract (see ENGINE.md): everything deterministic — programmed
conductances, stored matrices, tile counts, activation counts, energies and
the im2col unfolding — is *bit-for-bit identical* between the batched engine
and the legacy per-tile path under a fixed seed.  Analog MVM outputs agree up
to floating-point associativity (BLAS executes a batched matmul and a
per-vector matvec with different reduction orders), which these tests bound
at 1e-10 relative.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.kernels import BatchedTiledMatrix, im2col_columns, im2col_columns_loop
from repro.imc.bitslicing import BitSlicedMatrix
from repro.imc.noise import NoiseModel
from repro.imc.tiles import TiledMatrix, iter_tile_blocks
from repro.lowrank.group import group_decompose
from repro.mapping.geometry import ArrayDims, ConvGeometry

from .precision_helpers import assert_outputs_match, assert_quantized_outputs_match

NOISE_MODELS = {
    "ideal": NoiseModel.ideal(),
    "typical": NoiseModel.typical(),
    "harsh": NoiseModel(conductance_sigma=0.3, stuck_at_rate=0.01, ir_drop_severity=0.1),
    # Single-mechanism models: stuck-at faults and IR drop each consume the
    # programming's noise draw differently than conductance variation, so the
    # batched/per-tile equivalence is asserted for each path in isolation.
    "faults_only": NoiseModel(stuck_at_rate=0.03),
    "ir_drop_only": NoiseModel(ir_drop_severity=0.08),
}


# assert_outputs_match lives in precision_helpers: outputs are compared within
# the ACTIVE precision policy's envelope, so this suite doubles as the
# numpy32 tolerance-mode parity suite in CI.


class TestIm2colEquivalence:
    @pytest.mark.parametrize(
        "in_c,kh,kw,h,w,stride,padding",
        [
            (3, 3, 3, 8, 8, 1, 0),
            (3, 3, 3, 8, 8, 1, 1),
            (2, 3, 3, 9, 7, 2, 1),
            (4, 5, 5, 12, 12, 2, 2),
            (1, 1, 1, 6, 6, 1, 0),
            (2, 1, 1, 7, 5, 2, 0),
            (2, 3, 1, 8, 8, 1, 1),
            (3, 3, 3, 10, 10, 3, 1),
        ],
    )
    def test_vectorized_matches_loop_exactly(self, rng, in_c, kh, kw, h, w, stride, padding):
        geometry = ConvGeometry(in_c, 4, kh, kw, h, w, stride=stride, padding=padding)
        inputs = rng.standard_normal((3, in_c, h, w))
        vectorized = im2col_columns(inputs, geometry)
        loop = im2col_columns_loop(inputs, geometry)
        assert vectorized.shape == loop.shape
        np.testing.assert_array_equal(vectorized, loop)

    def test_contiguous_output(self, rng, small_geometry):
        inputs = rng.standard_normal((1, 4, 8, 8))
        assert im2col_columns(inputs, small_geometry).flags["C_CONTIGUOUS"]

    def test_shape_mismatch_raises(self, rng, small_geometry):
        with pytest.raises(ValueError):
            im2col_columns(rng.standard_normal((1, 3, 8, 8)), small_geometry)
        with pytest.raises(ValueError):
            im2col_columns(rng.standard_normal((4, 8, 8)), small_geometry)


def build_pair(matrix, array, **kwargs):
    return (
        TiledMatrix(matrix, array, **kwargs),
        BatchedTiledMatrix(matrix, array, **kwargs),
    )


class TestBatchedTiledMatrixEquivalence:
    @pytest.mark.parametrize("noise_name", sorted(NOISE_MODELS))
    def test_programmed_conductances_bit_identical(self, rng, small_array, noise_name):
        """Same seed → identical noise draws → identical stored matrices."""
        matrix = rng.standard_normal((40, 70))
        legacy, batched = build_pair(
            matrix, small_array, noise=NOISE_MODELS[noise_name], seed=7
        )
        np.testing.assert_array_equal(legacy.stored_matrix(), batched.stored_matrix())

    @pytest.mark.parametrize("noise_name", sorted(NOISE_MODELS))
    @pytest.mark.parametrize("shape", [(40, 70), (16, 16), (1, 100), (100, 1), (33, 65)])
    def test_outputs_match(self, rng, small_array, noise_name, shape):
        matrix = rng.standard_normal(shape)
        legacy, batched = build_pair(
            matrix, small_array, noise=NOISE_MODELS[noise_name], seed=11
        )
        inputs = rng.standard_normal((5, shape[1]))
        assert_outputs_match(batched.mvm_batch(inputs), legacy.mvm_batch(inputs))

    def test_discrete_accounting_identical(self, rng, small_array):
        matrix = rng.standard_normal((40, 70))
        legacy, batched = build_pair(matrix, small_array, noise=NoiseModel.typical(), seed=3)
        assert legacy.num_allocated_tiles == batched.num_allocated_tiles
        assert legacy.grid_shape == batched.grid_shape
        assert legacy.logical_shape == batched.logical_shape
        assert legacy.activation_energy_pj() == batched.activation_energy_pj()
        inputs = rng.standard_normal((4, 70))
        legacy.mvm_batch(inputs)
        batched.mvm_batch(inputs)
        assert legacy.total_activations == batched.total_activations

    def test_block_diagonal_zero_tiles_skipped(self, rng, small_array):
        """Structurally-zero tiles of stage-1 matrices are never allocated."""
        factors = group_decompose(rng.standard_normal((64, 64)), rank=32, groups=2)
        block_diag = factors.block_diagonal_right()
        legacy, batched = build_pair(block_diag, small_array)
        assert batched.num_allocated_tiles == legacy.num_allocated_tiles == 2
        inputs = rng.standard_normal((3, 64))
        assert_outputs_match(batched.mvm_batch(inputs), legacy.mvm_batch(inputs))

    def test_skip_zero_tiles_disabled(self, small_array):
        zero = np.zeros((40, 40))
        batched = BatchedTiledMatrix(zero, small_array, skip_zero_tiles=False)
        assert batched.num_allocated_tiles == 4
        assert BatchedTiledMatrix(zero, small_array).num_allocated_tiles == 0

    def test_single_vector_mvm(self, rng, small_array):
        matrix = rng.standard_normal((20, 40))
        legacy, batched = build_pair(matrix, small_array, seed=5)
        x = rng.standard_normal(40)
        assert_outputs_match(batched.mvm(x), legacy.mvm(x))

    def test_quantized_paths_agree(self, rng, small_array):
        """DAC/ADC quantization: identical arithmetic, same per-tile scales.

        A 1-ulp difference in the analog currents can land on an ADC rounding
        boundary, so quantized outputs are compared up to one ADC step on a
        vanishing fraction of entries.
        """
        matrix = rng.standard_normal((40, 70))
        legacy, batched = build_pair(
            matrix, small_array, noise=NoiseModel.typical(), input_bits=6, output_bits=6, seed=2
        )
        inputs = rng.standard_normal((8, 70))
        out_l = legacy.mvm_batch(inputs)
        out_b = batched.mvm_batch(inputs)
        assert_quantized_outputs_match(out_b, out_l, output_bits=6)

    def test_invalid_inputs_raise(self, rng, small_array):
        batched = BatchedTiledMatrix(rng.standard_normal((20, 40)), small_array)
        with pytest.raises(ValueError):
            batched.mvm(np.ones(39))
        with pytest.raises(ValueError):
            batched.mvm_batch(np.ones((2, 39)))
        with pytest.raises(ValueError):
            batched.mvm_batch(np.ones(40))
        with pytest.raises(ValueError):
            BatchedTiledMatrix(rng.standard_normal(10), small_array)


class TestTileLayout:
    def test_allocation_order_is_row_major(self, rng, small_array):
        matrix = rng.standard_normal((40, 70))
        blocks = iter_tile_blocks(matrix, small_array)
        coords = [(b.tile_row, b.tile_col) for b in blocks]
        assert coords == sorted(coords)
        assert [b.index for b in blocks] == list(range(len(blocks)))

    def test_zero_blocks_share_seed_stream(self, rng, small_array):
        """Skipping a zero tile shifts later seeds identically in both paths."""
        matrix = rng.standard_normal((40, 70))
        matrix[:32, :32] = 0.0  # first tile of the grid is structurally zero
        legacy, batched = build_pair(matrix, small_array, noise=NoiseModel.typical(), seed=9)
        np.testing.assert_array_equal(legacy.stored_matrix(), batched.stored_matrix())


class TestBitSlicedBackends:
    @pytest.mark.parametrize("noise_name", ["ideal", "typical"])
    def test_backends_agree(self, rng, noise_name):
        array = ArrayDims(rows=32, cols=32, weight_bits=4, cell_bits=2)
        matrix = rng.standard_normal((12, 40))
        pertile = BitSlicedMatrix(
            matrix, array, noise=NOISE_MODELS[noise_name], seed=4, backend="pertile"
        )
        batched = BitSlicedMatrix(
            matrix, array, noise=NOISE_MODELS[noise_name], seed=4, backend="batched"
        )
        assert pertile.num_allocated_tiles == batched.num_allocated_tiles
        np.testing.assert_array_equal(pertile.quantized_matrix(), batched.quantized_matrix())
        assert pertile.activation_energy_pj() == batched.activation_energy_pj()
        inputs = rng.standard_normal((5, 40))
        assert_outputs_match(batched.mvm_batch(inputs), pertile.mvm_batch(inputs))

    def test_unknown_backend_rejected(self, rng, small_array):
        with pytest.raises(ValueError):
            BitSlicedMatrix(rng.standard_normal((4, 8)), small_array, backend="gpu")
