"""Tests for crossbar-level functional simulation with :class:`ExecutionContext` plans."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.context import ExecutionContext
from repro.engine.kernels import im2col_columns
from repro.imc.noise import NoiseModel
from repro.imc.peripherals import CellSpec, PeripheralSuite
from repro.lowrank.group import group_decompose
from repro.mapping.cycles import tiles_for_matrix
from repro.mapping.geometry import ConvGeometry

HIGH_PRECISION = PeripheralSuite(cell=CellSpec(conductance_levels=4096))


@pytest.fixture
def context(small_array) -> ExecutionContext:
    return ExecutionContext(array=small_array, peripherals=HIGH_PRECISION)


class TestIm2colColumns:
    def test_shape(self, rng, small_geometry):
        inputs = rng.standard_normal((2, 4, 8, 8))
        columns = im2col_columns(inputs, small_geometry)
        assert columns.shape == (2 * 64, small_geometry.n)

    def test_values_match_receptive_field(self, rng):
        geometry = ConvGeometry(2, 3, 3, 3, 5, 5, stride=1, padding=0)
        inputs = rng.standard_normal((1, 2, 5, 5))
        columns = im2col_columns(inputs, geometry)
        np.testing.assert_allclose(columns[0], inputs[0, :, 0:3, 0:3].reshape(-1))

    def test_columns_compute_convolution(self, rng, small_geometry):
        """Multiplying the unrolled kernel by the columns reproduces conv outputs."""
        inputs = rng.standard_normal((1, 4, 8, 8))
        weight = rng.standard_normal((small_geometry.m, small_geometry.n))
        columns = im2col_columns(inputs, small_geometry)
        outputs = columns @ weight.T  # (64, m)

        from repro.nn import functional as F
        from repro.nn.tensor import Tensor

        conv = F.conv2d(
            Tensor(inputs),
            Tensor(weight.reshape(small_geometry.m, 4, 3, 3)),
            stride=1,
            padding=1,
        ).data
        np.testing.assert_allclose(outputs.T.reshape(small_geometry.m, 8, 8), conv[0], atol=1e-9)

    def test_shape_mismatch_raises(self, rng, small_geometry):
        with pytest.raises(ValueError):
            im2col_columns(rng.standard_normal((1, 3, 8, 8)), small_geometry)
        with pytest.raises(ValueError):
            im2col_columns(rng.standard_normal((4, 8, 8)), small_geometry)


class TestDenseSimulation:
    def test_outputs_close_to_exact(self, context, rng):
        matrix = rng.standard_normal((16, 40))
        inputs = rng.standard_normal((5, 40))
        result = context.dense_plan(matrix).run(inputs)
        assert result.relative_error < 0.05
        assert result.outputs.shape == result.exact.shape == (5, 16)

    def test_tile_count_matches_cycle_model(self, context, rng, small_array):
        matrix = rng.standard_normal((40, 70))
        result = context.dense_plan(matrix).run(rng.standard_normal((2, 70)))
        assert result.allocated_tiles == tiles_for_matrix(70, 40, small_array)
        assert result.activations == 2 * result.allocated_tiles

    def test_energy_positive_and_scales_with_inputs(self, context, rng):
        matrix = rng.standard_normal((16, 40))
        one = context.dense_plan(matrix).run(rng.standard_normal((1, 40)))
        three = context.dense_plan(matrix).run(rng.standard_normal((3, 40)))
        assert one.energy_pj > 0
        assert three.energy_pj == pytest.approx(3 * one.energy_pj)


class TestLowRankSimulation:
    def test_two_stage_matches_dense_low_rank(self, context, rng):
        """Hardware two-stage execution ≈ software low-rank approximation."""
        matrix = rng.standard_normal((16, 40))
        inputs = rng.standard_normal((4, 40))
        result = context.lowrank_plan(matrix, rank=8, groups=2).run(inputs)
        factors = group_decompose(matrix, 8, 2)
        software = inputs @ factors.reconstruct().T
        hardware_vs_software = np.linalg.norm(result.outputs - software) / np.linalg.norm(software)
        assert hardware_vs_software < 0.1

    def test_error_decreases_with_rank(self, context, rng):
        matrix = rng.standard_normal((16, 40))
        inputs = rng.standard_normal((4, 40))
        low = context.lowrank_plan(matrix, rank=1).run(inputs).relative_error
        high = context.lowrank_plan(matrix, rank=16).run(inputs).relative_error
        assert high < low

    def test_grouping_reduces_error_at_fixed_rank(self, context, rng):
        matrix = rng.standard_normal((16, 40))
        inputs = rng.standard_normal((4, 40))
        g1 = context.lowrank_plan(matrix, rank=2, groups=1).run(inputs).relative_error
        g4 = context.lowrank_plan(matrix, rank=2, groups=4).run(inputs).relative_error
        assert g4 <= g1 + 0.02

    def test_method_label(self, context, rng):
        plan = context.lowrank_plan(rng.standard_normal((8, 16)), rank=2, groups=2)
        result = plan.run(rng.standard_normal((2, 16)))
        assert result.method == "lowrank(g=2,k=2)"


class TestConvSimulation:
    def test_conv_im2col_matches_software_conv(self, context, rng):
        geometry = ConvGeometry(2, 4, 3, 3, 6, 6, stride=1, padding=1)
        weight = rng.standard_normal((4, 2, 3, 3))
        inputs = rng.standard_normal((1, 2, 6, 6))
        result = context.conv_dense_plan(weight, geometry).run(inputs)
        assert result.relative_error < 0.05

    def test_conv_lowrank(self, context, rng):
        geometry = ConvGeometry(2, 4, 3, 3, 6, 6, stride=1, padding=1)
        weight = rng.standard_normal((4, 2, 3, 3))
        inputs = rng.standard_normal((1, 2, 6, 6))
        result = context.conv_lowrank_plan(weight, geometry, rank=4, groups=2).run(inputs)
        assert result.outputs.shape == (36, 4)

    def test_noise_degrades_accuracy(self, rng, small_array):
        geometry = ConvGeometry(2, 4, 3, 3, 6, 6, stride=1, padding=1)
        weight = rng.standard_normal((4, 2, 3, 3))
        inputs = rng.standard_normal((1, 2, 6, 6))
        clean = ExecutionContext(array=small_array, peripherals=HIGH_PRECISION)
        noisy = ExecutionContext(
            array=small_array,
            peripherals=HIGH_PRECISION,
            noise=NoiseModel(conductance_sigma=0.3, seed=2),
        )
        clean_error = clean.conv_dense_plan(weight, geometry).run(inputs).relative_error
        noisy_error = noisy.conv_dense_plan(weight, geometry).run(inputs).relative_error
        assert noisy_error > clean_error

    def test_absolute_error_property(self, context, rng):
        result = context.dense_plan(rng.standard_normal((8, 16))).run(rng.standard_normal((2, 16)))
        assert result.absolute_error >= 0
