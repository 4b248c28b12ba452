"""Equivalence tests: batched Monte-Carlo kernel vs. the sequential per-trial oracles.

The extended contract (see ENGINE.md): trial ``t`` of a
:class:`MonteCarloTiledMatrix` draws its noise from generators seeded
``seed + t · trial_stride + allocation_index`` — exactly the streams of a
sequential per-trial run that builds a fresh :class:`BatchedTiledMatrix` (or
legacy :class:`TiledMatrix`) with seed ``seed + t · trial_stride``.  Programmed
conductances are therefore bit-for-bit identical per trial; analog outputs
agree up to floating-point associativity like the rest of the engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.context import ExecutionContext
from repro.engine.kernels import (
    TRIAL_SEED_STRIDE,
    BatchedTiledMatrix,
    MonteCarloTiledMatrix,
)
from repro.imc.noise import NoiseModel
from repro.imc.tiles import TiledMatrix
from repro.mapping.geometry import ArrayDims

from .precision_helpers import assert_outputs_match, assert_quantized_outputs_match

NOISE_MODELS = {
    "typical": NoiseModel.typical(),
    "harsh": NoiseModel(conductance_sigma=0.3, stuck_at_rate=0.01, ir_drop_severity=0.1),
    "faults_only": NoiseModel(stuck_at_rate=0.02),
    "ir_drop_only": NoiseModel(ir_drop_severity=0.08),
}


class TestTrialBitIdentity:
    @pytest.mark.parametrize("noise_name", sorted(NOISE_MODELS))
    def test_each_trial_matches_sequential_batched_run(self, rng, small_array, noise_name):
        matrix = rng.standard_normal((40, 70))
        noise = NOISE_MODELS[noise_name]
        mc = MonteCarloTiledMatrix(matrix, small_array, trials=3, noise=noise, seed=11)
        for trial in range(3):
            sequential = BatchedTiledMatrix(
                matrix, small_array, noise=noise, seed=mc.trial_seed(trial)
            )
            np.testing.assert_array_equal(mc.stored_matrix(trial), sequential.stored_matrix())

    def test_each_trial_matches_legacy_per_tile_oracle(self, rng, small_array):
        matrix = rng.standard_normal((40, 70))
        noise = NoiseModel.typical()
        mc = MonteCarloTiledMatrix(matrix, small_array, trials=3, noise=noise, seed=4)
        for trial in range(3):
            legacy = TiledMatrix(matrix, small_array, noise=noise, seed=mc.trial_seed(trial))
            np.testing.assert_array_equal(mc.stored_matrix(trial), legacy.stored_matrix())

    def test_trials_draw_independent_noise(self, rng, small_array):
        matrix = rng.standard_normal((20, 40))
        mc = MonteCarloTiledMatrix(
            matrix, small_array, trials=2, noise=NoiseModel.typical(), seed=0
        )
        assert not np.array_equal(mc.stored_matrix(0), mc.stored_matrix(1))

    def test_ideal_noise_trials_are_identical(self, rng, small_array):
        matrix = rng.standard_normal((20, 40))
        mc = MonteCarloTiledMatrix(matrix, small_array, trials=3, seed=0)
        stored = mc.stored_matrices()
        assert stored.shape == (3,) + matrix.shape
        np.testing.assert_array_equal(stored[0], stored[1])
        np.testing.assert_array_equal(stored[1], stored[2])

    def test_custom_trial_stride(self, rng, small_array):
        matrix = rng.standard_normal((20, 40))
        noise = NoiseModel.typical()
        mc = MonteCarloTiledMatrix(
            matrix, small_array, trials=2, noise=noise, seed=7, trial_stride=1000
        )
        assert mc.trial_seed(1) == 1007
        sequential = BatchedTiledMatrix(matrix, small_array, noise=noise, seed=1007)
        np.testing.assert_array_equal(mc.stored_matrix(1), sequential.stored_matrix())


class TestTrialOutputs:
    @pytest.mark.parametrize("noise_name", sorted(NOISE_MODELS))
    def test_outputs_match_sequential_runs(self, rng, small_array, noise_name):
        matrix = rng.standard_normal((40, 70))
        noise = NOISE_MODELS[noise_name]
        inputs = rng.standard_normal((5, 70))
        mc = MonteCarloTiledMatrix(matrix, small_array, trials=3, noise=noise, seed=2)
        outputs = mc.mvm_batch(inputs)
        assert outputs.shape == (3, 5, 40)
        for trial in range(3):
            sequential = BatchedTiledMatrix(
                matrix, small_array, noise=noise, seed=mc.trial_seed(trial)
            )
            assert_outputs_match(outputs[trial], sequential.mvm_batch(inputs))

    def test_quantized_paths_match_sequential(self, rng, small_array):
        """DAC/ADC quantization arithmetic is identical per (trial, tile, vector)."""
        matrix = rng.standard_normal((40, 70))
        noise = NoiseModel.typical()
        inputs = rng.standard_normal((4, 70))
        mc = MonteCarloTiledMatrix(
            matrix, small_array, trials=2, noise=noise, seed=3, input_bits=6, output_bits=6
        )
        outputs = mc.mvm_batch(inputs)
        for trial in range(2):
            sequential = BatchedTiledMatrix(
                matrix,
                small_array,
                noise=noise,
                seed=mc.trial_seed(trial),
                input_bits=6,
                output_bits=6,
            )
            out_seq = sequential.mvm_batch(inputs)
            assert_quantized_outputs_match(outputs[trial], out_seq, output_bits=6)

    def test_per_trial_input_stacks(self, rng, small_array):
        """A (trials, batch, in) stack routes each trial its own inputs."""
        matrix = rng.standard_normal((20, 40))
        noise = NoiseModel.typical()
        mc = MonteCarloTiledMatrix(matrix, small_array, trials=3, noise=noise, seed=1)
        stacked = rng.standard_normal((3, 4, 40))
        outputs = mc.mvm_batch(stacked)
        for trial in range(3):
            sequential = BatchedTiledMatrix(
                matrix, small_array, noise=noise, seed=mc.trial_seed(trial)
            )
            assert_outputs_match(outputs[trial], sequential.mvm_batch(stacked[trial]))

    def test_accounting_matches_sequential_totals(self, rng, small_array):
        matrix = rng.standard_normal((40, 70))
        noise = NoiseModel.typical()
        inputs = rng.standard_normal((4, 70))
        mc = MonteCarloTiledMatrix(matrix, small_array, trials=3, noise=noise, seed=5)
        mc.mvm_batch(inputs)
        sequential = BatchedTiledMatrix(matrix, small_array, noise=noise, seed=5)
        sequential.mvm_batch(inputs)
        assert mc.num_allocated_tiles == sequential.num_allocated_tiles
        assert mc.grid_shape == sequential.grid_shape
        assert mc.logical_shape == sequential.logical_shape
        assert mc.activation_energy_pj() == sequential.activation_energy_pj()
        assert mc.total_activations == 3 * sequential.total_activations

    def test_validation(self, rng, small_array):
        matrix = rng.standard_normal((20, 40))
        with pytest.raises(ValueError):
            MonteCarloTiledMatrix(matrix, small_array, trials=0)
        with pytest.raises(ValueError):
            MonteCarloTiledMatrix(matrix, small_array, trials=2, trial_stride=0)
        with pytest.raises(ValueError):
            MonteCarloTiledMatrix(rng.standard_normal(10), small_array, trials=1)
        mc = MonteCarloTiledMatrix(matrix, small_array, trials=2)
        with pytest.raises(ValueError):
            mc.mvm_batch(np.ones((3, 4, 40)))  # wrong leading trial axis
        with pytest.raises(ValueError):
            mc.mvm_batch(np.ones((4, 39)))
        with pytest.raises(ValueError):
            mc.mvm_batch(np.ones(40))
        with pytest.raises(IndexError):
            mc.stored_matrix(2)
        with pytest.raises(IndexError):
            mc.trial_seed(-1)


class TestMonteCarloPlans:
    def test_two_stage_plan_matches_sequential_contexts(self, rng):
        """Low-rank MC plans chain per-trial intermediates like a sequential run."""
        weight = rng.standard_normal((32, 64))
        ctx = ExecutionContext(
            array=ArrayDims.square(32), noise=NoiseModel.typical(), seed=9
        )
        inputs = rng.standard_normal((6, 64))
        plan = ctx.lowrank_monte_carlo_plan(weight, rank=8, trials=3, groups=2)
        result = plan.run(inputs)
        assert result.outputs.shape == (3, 6, 32)
        for trial in range(3):
            sequential_plan = ctx.trial_context(trial).lowrank_plan(weight, rank=8, groups=2)
            sequential = sequential_plan.run(inputs)
            for stage_mc, stage_seq in zip(plan.stages, sequential_plan.stages):
                np.testing.assert_array_equal(
                    stage_mc.stored_matrix(trial), stage_seq.stored_matrix()
                )
            assert_outputs_match(result.outputs[trial], sequential.outputs)
            np.testing.assert_array_equal(result.exact, sequential.exact)
            assert result.energy_pj == sequential.energy_pj
            assert result.allocated_tiles == sequential.allocated_tiles

    def test_stage_noise_streams_are_decorrelated(self, rng):
        """Stage 2's tiles must not reuse stage 1's per-tile RNG streams.

        Per-tile generators are seeded ``seed + allocation_index``, so two
        kernels whose base seeds differ by less than the first one's tile
        count share streams — demonstrated below on the same matrix, where
        seed 0's tile 1 and seed 1's tile 0 program bit-identical noise.
        Multi-stage plans therefore space their stages by
        ``STAGE_SEED_STRIDE``, which must exceed any realistic tile count.
        """
        from repro.engine.kernels import STAGE_SEED_STRIDE

        noise = NoiseModel(conductance_sigma=0.2)
        block = rng.standard_normal((32, 32))
        matrix = np.hstack([block, block])  # two full 32x32 tiles, same content
        array = ArrayDims.square(32)
        a = MonteCarloTiledMatrix(matrix, array, trials=1, noise=noise, seed=0)
        b = MonteCarloTiledMatrix(matrix, array, trials=1, noise=noise, seed=1)
        # The aliasing mechanism: b's tile 0 draws a's tile 1 stream.
        np.testing.assert_array_equal(a._diff[0, 1], b._diff[0, 0])
        # The plan stages are spaced far beyond their tile counts.
        ctx = ExecutionContext(array=array, noise=noise, seed=0)
        plan = ctx.lowrank_monte_carlo_plan(
            rng.standard_normal((64, 64)), rank=32, trials=2, groups=1
        )
        stage1, stage2 = plan.stages
        assert stage2.seed - stage1.seed == STAGE_SEED_STRIDE
        assert STAGE_SEED_STRIDE > stage1.num_allocated_tiles
        sequential = ctx.lowrank_plan(rng.standard_normal((64, 64)), rank=32, groups=1)
        assert sequential.stages[1].seed - sequential.stages[0].seed == STAGE_SEED_STRIDE

    def test_dense_plan_statistics(self, rng):
        weight = rng.standard_normal((24, 48))
        ctx = ExecutionContext(array=ArrayDims.square(32), noise=NoiseModel.typical(), seed=1)
        result = ctx.dense_monte_carlo_plan(weight, trials=5).run(rng.standard_normal((8, 48)))
        errors = result.relative_errors
        assert errors.shape == (5,)
        assert result.mean_relative_error == pytest.approx(float(np.mean(errors)))
        assert result.std_relative_error == pytest.approx(float(np.std(errors)))
        assert result.worst_relative_error == pytest.approx(float(np.max(errors)))
        assert np.all(errors > 0)

    def test_dense_plan_trials_match_sequential_contexts(self, rng):
        """Dense MC trial ``t`` equals a sequential run seeded ``seed + t·stride``."""
        weight = rng.standard_normal((24, 48))
        inputs = rng.standard_normal((4, 48))
        ctx = ExecutionContext(array=ArrayDims.square(32), noise=NoiseModel.typical(), seed=6)
        mc = ctx.dense_monte_carlo_plan(weight, trials=2).run(inputs)
        for trial in range(2):
            sequential = ExecutionContext(
                array=ArrayDims.square(32),
                noise=NoiseModel.typical(),
                seed=6 + trial * TRIAL_SEED_STRIDE,
            ).dense_plan(weight).run(inputs)
            assert_outputs_match(mc.outputs[trial], sequential.outputs)
        lowrank = ctx.lowrank_monte_carlo_plan(weight, rank=6, trials=2, groups=2).run(inputs)
        assert lowrank.outputs.shape == (2, 4, 24)
        assert lowrank.trials == 2
