"""The per-trial programming-noise draw: its laws, its padding and its callers.

A programming (one trial of a :class:`MonteCarloTiledMatrix`, one
:class:`TiledMatrix`, one :meth:`CrossbarArray.program`) draws its whole noise
field in one :meth:`NoiseModel.apply` call over the programmed cells of every
allocated tile, in :func:`repro.imc.crossbar.programmed_cells` order.  These
tests hold that draw to the per-cell laws it replaces (log-normal variation,
Bernoulli stuck-at faults, IR drop by physical row) and pin that unprogrammed
padding is never drawn.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.kernels import MonteCarloTiledMatrix
from repro.imc.crossbar import CrossbarArray, programmed_cells, weights_to_conductances
from repro.imc.noise import NoiseModel, ir_drop_attenuation
from repro.imc.peripherals import default_peripherals
from repro.imc.tiles import TiledMatrix, iter_tile_blocks
from repro.mapping.geometry import ArrayDims

HARSH = NoiseModel(conductance_sigma=0.3, stuck_at_rate=0.05, ir_drop_severity=0.1)
CELL = default_peripherals().cell


def stack_cells(matrix: np.ndarray, array: ArrayDims, noise: NoiseModel):
    """The clean programmed cells of every allocated tile, in draw order."""
    pairs = []
    for tile in iter_tile_blocks(matrix, array):
        g_pos, g_neg, _ = weights_to_conductances(tile.block.T, CELL)
        pairs.append((g_pos, g_neg))
    return programmed_cells(pairs, array.rows, noise)


class TestPadding:
    def test_unprogrammed_pairs_are_exactly_zero(self, rng, small_array):
        """Partial edge tiles draw nothing outside their programmed (r, c)."""
        matrix = rng.standard_normal((40, 70))  # 3x2 grid, partial in both directions
        mc = MonteCarloTiledMatrix(matrix, small_array, trials=3, noise=HARSH, seed=5)
        assert sorted({tuple(shape) for shape in mc._programmed}) == [
            (6, 8), (6, 32), (32, 8), (32, 32)
        ]
        for t, (r, c) in enumerate(mc._programmed):
            assert np.all(mc._diff[:, t, r:, :] == 0.0)
            assert np.all(mc._diff[:, t, :, c:] == 0.0)
            assert np.any(mc._diff[:, t, :r, :c] != 0.0)

    def test_oracle_padding_stays_at_g_min(self, rng, small_array):
        """Unprogrammed cells come back bit-identical: g_min on both sides."""
        tiled = TiledMatrix(rng.standard_normal((40, 70)), small_array, noise=HARSH, seed=5)
        for tile_row in range(3):
            for tile_col in range(2):
                crossbar = tiled.tile(tile_row, tile_col)
                r, c = crossbar.programmed_shape
                for g in (crossbar._g_pos, crossbar._g_neg):
                    assert np.all(g[r:, :] == CELL.g_min) and np.all(g[:, c:] == CELL.g_min)


class TestSamplerLaws:
    def test_fault_fraction_and_variation_law(self, rng, small_array):
        """Bernoulli(rate) faults; log-normal(0, sigma) on every other cell."""
        sigma, rate = 0.2, 0.02
        noise = NoiseModel(conductance_sigma=sigma, stuck_at_rate=rate)
        cells, attenuation = stack_cells(rng.standard_normal((100, 90)), small_array, noise)
        assert attenuation is None
        drawn = noise.apply(cells, CELL.g_min, CELL.g_max, np.random.default_rng(3))
        # Variation moves every cell off the extremes, so exactly the faulty
        # cells sit on g_min or g_max.
        faulty = (drawn == CELL.g_min) | (drawn == CELL.g_max)
        n = cells.size
        assert abs(faulty.mean() - rate) <= 5.0 * np.sqrt(rate * (1.0 - rate) / n)
        log_ratio = np.log(drawn[~faulty] / cells[~faulty])
        m = log_ratio.size
        assert abs(log_ratio.mean()) <= 5.0 * sigma / np.sqrt(m)
        assert abs(log_ratio.std() - sigma) <= 5.0 * sigma / np.sqrt(2.0 * m)

    def test_ir_drop_attenuates_by_physical_row(self, rng, small_array):
        """Each stored weight is scaled by its tile-local row's attenuation."""
        matrix = rng.standard_normal((40, 70))
        severity = 0.08
        noisy = MonteCarloTiledMatrix(
            matrix, small_array, noise=NoiseModel(ir_drop_severity=severity), seed=1
        )
        clean = MonteCarloTiledMatrix(matrix, small_array)
        rows = small_array.rows
        factors = ir_drop_attenuation(rows, severity)[np.arange(matrix.shape[1]) % rows]
        np.testing.assert_allclose(
            noisy.stored_matrix(0), clean.stored_matrix(0) * factors, rtol=1e-12, atol=0.0
        )

    def test_one_tile_programmings_agree(self, rng, small_array):
        """CrossbarArray, a one-tile TiledMatrix and MC trial 0 draw the same field."""
        matrix = rng.standard_normal((20, 27))  # one partial 32x32 tile
        seed = 17
        crossbar = CrossbarArray(
            rows=small_array.rows, cols=small_array.logical_cols, noise=HARSH, seed=seed
        )
        crossbar.program(matrix.T)
        tiled = TiledMatrix(matrix, small_array, noise=HARSH, seed=seed)
        mc = MonteCarloTiledMatrix(matrix, small_array, trials=2, noise=HARSH, seed=seed)
        assert tiled.num_allocated_tiles == mc.num_allocated_tiles == 1
        np.testing.assert_array_equal(tiled.tile(0, 0)._g_pos, crossbar._g_pos)
        np.testing.assert_array_equal(tiled.tile(0, 0)._g_neg, crossbar._g_neg)
        np.testing.assert_array_equal(crossbar.stored_weights().T, mc.stored_matrix(0))
        np.testing.assert_array_equal(tiled.stored_matrix(), mc.stored_matrix(0))
        np.testing.assert_array_equal(mc._diff[0, 0], crossbar._g_pos - crossbar._g_neg)


class TestOneDrawPerProgramming:
    @pytest.mark.parametrize("trials", [1, 4])
    def test_kernel_calls_apply_once_per_trial(self, rng, small_array, monkeypatch, trials):
        calls = []
        original = NoiseModel.apply

        def counting(self, *args, **kwargs):
            calls.append(args[0].size)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(NoiseModel, "apply", counting)
        matrix = rng.standard_normal((40, 70))
        mc = MonteCarloTiledMatrix(matrix, small_array, trials=trials, noise=HARSH, seed=2)
        programmed = 2 * int(np.prod(mc._programmed, axis=1).sum())
        assert calls == [programmed] * trials
        calls.clear()
        TiledMatrix(matrix, small_array, noise=HARSH, seed=2)
        assert calls == [programmed]
        calls.clear()
        MonteCarloTiledMatrix(matrix, small_array, trials=trials, seed=2)  # ideal: no draw
        assert calls == []
