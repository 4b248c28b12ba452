"""Tests for the pipeline layer: ExecutionContext, LayerPlan, decomposition cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import active_backend
from repro.engine.cache import DecompositionCache, matrix_fingerprint
from repro.engine.context import ExecutionContext
from repro.imc.peripherals import CellSpec, PeripheralSuite
from repro.lowrank.decompose import decompose
from repro.lowrank.group import group_decompose
from repro.mapping.geometry import ArrayDims, ConvGeometry

from .precision_helpers import assert_outputs_match

HIGH_PRECISION = PeripheralSuite(cell=CellSpec(conductance_levels=4096))


class TestDecompositionCache:
    def test_cached_decompose_bit_identical_to_direct(self, rng):
        cache = DecompositionCache()
        matrix = rng.standard_normal((24, 36))
        # The direct reference runs at the active compute precision (cast
        # first), so the bit-identity holds under every backend.
        reference = active_backend().asarray(matrix)
        for rank in (1, 4, 12, 24):
            cached = cache.decompose(matrix, rank)
            direct = decompose(reference, rank)
            np.testing.assert_array_equal(cached.left, direct.left)
            np.testing.assert_array_equal(cached.right, direct.right)

    def test_cached_group_decompose_bit_identical(self, rng):
        cache = DecompositionCache()
        matrix = rng.standard_normal((16, 40))
        reference = active_backend().asarray(matrix)
        for rank, groups in ((2, 1), (4, 2), (8, 4)):
            cached = cache.group_decompose(matrix, rank, groups)
            direct = group_decompose(reference, rank, groups)
            np.testing.assert_array_equal(cached.reconstruct(), direct.reconstruct())

    def test_rank_sweep_costs_one_svd(self, rng):
        cache = DecompositionCache()
        matrix = rng.standard_normal((20, 20))
        for rank in (1, 2, 5, 10, 20):
            cache.decompose(matrix, rank)
        assert cache.misses == 1
        assert cache.hits == 4

    def test_content_addressing_hits_equal_matrices(self, rng):
        cache = DecompositionCache()
        matrix = rng.standard_normal((8, 8))
        cache.decompose(matrix.copy(), 2)
        cache.decompose(matrix.copy(), 2)
        assert cache.misses == 1 and cache.hits == 1

    def test_fingerprint_distinguishes_content_and_shape(self, rng):
        a = rng.standard_normal((4, 6))
        assert matrix_fingerprint(a) == matrix_fingerprint(a.copy())
        assert matrix_fingerprint(a) != matrix_fingerprint(a + 1e-12)
        assert matrix_fingerprint(a) != matrix_fingerprint(a.reshape(6, 4))

    def test_invalid_rank_rejected(self, rng):
        with pytest.raises(ValueError):
            DecompositionCache().decompose(rng.standard_normal((4, 4)), 0)

    def test_clear(self, rng):
        cache = DecompositionCache()
        cache.decompose(rng.standard_normal((4, 4)), 2)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0


class TestExecutionContext:
    def test_rejects_unknown_engine(self, small_array):
        with pytest.raises(ValueError):
            ExecutionContext(array=small_array, engine="quantum")

    def test_dense_plan_matches_legacy_simulator(self, rng, small_array):
        """Batched and legacy engines agree through the full dense pipeline."""
        matrix = rng.standard_normal((16, 40))
        inputs = rng.standard_normal((5, 40))
        results = {}
        for engine in ("batched", "legacy"):
            ctx = ExecutionContext(
                array=small_array, peripherals=HIGH_PRECISION, seed=1, engine=engine
            )
            results[engine] = ctx.dense_plan(matrix).run(inputs)
        assert_outputs_match(results["batched"].outputs, results["legacy"].outputs)
        assert results["batched"].allocated_tiles == results["legacy"].allocated_tiles
        assert results["batched"].activations == results["legacy"].activations
        assert results["batched"].energy_pj == results["legacy"].energy_pj
        np.testing.assert_array_equal(results["batched"].exact, results["legacy"].exact)

    def test_lowrank_plan_matches_legacy_simulator(self, rng, small_array):
        matrix = rng.standard_normal((16, 40))
        inputs = rng.standard_normal((4, 40))
        results = {}
        for engine in ("batched", "legacy"):
            ctx = ExecutionContext(
                array=small_array, peripherals=HIGH_PRECISION, seed=1, engine=engine
            )
            results[engine] = ctx.lowrank_plan(matrix, rank=4, groups=2).run(inputs)
        assert_outputs_match(
            results["batched"].outputs, results["legacy"].outputs, slack=10.0
        )
        assert results["batched"].allocated_tiles == results["legacy"].allocated_tiles
        assert results["batched"].energy_pj == results["legacy"].energy_pj
        assert results["batched"].method == results["legacy"].method == "lowrank(g=2,k=4)"

    def test_conv_plan_consumes_nchw_inputs(self, rng, small_array):
        geometry = ConvGeometry(2, 4, 3, 3, 6, 6, stride=1, padding=1)
        weight = rng.standard_normal((4, 2, 3, 3))
        inputs = rng.standard_normal((2, 2, 6, 6))
        ctx = ExecutionContext(array=small_array, peripherals=HIGH_PRECISION)
        result = ctx.conv_dense_plan(weight, geometry).run(inputs)
        assert result.outputs.shape == (2 * 36, 4)
        assert result.relative_error < 0.05

    def test_plan_reuse_across_batches(self, rng, small_array):
        """A plan programs tiles once; each run only executes (and counts) MVMs."""
        ctx = ExecutionContext(array=small_array, peripherals=HIGH_PRECISION)
        plan = ctx.dense_plan(rng.standard_normal((16, 40)))
        first = plan.run(rng.standard_normal((3, 40)))
        second = plan.run(rng.standard_normal((2, 40)))
        assert first.activations == 3 * plan.allocated_tiles
        assert second.activations == 5 * plan.allocated_tiles  # cumulative counter

    def test_decompositions_shared_across_contexts(self, rng):
        """Sweeping array sizes reuses the same cached SVDs."""
        cache = DecompositionCache()
        matrix = rng.standard_normal((16, 40))
        for size in (32, 64, 128):
            ctx = ExecutionContext(array=ArrayDims.square(size), decompositions=cache)
            ctx.lowrank_plan(matrix, rank=4, groups=2)
        assert cache.misses == 2  # one SVD per column block, shared by all sizes
        assert cache.hits == 4
