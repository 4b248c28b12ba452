"""Tests for the shared experiment helpers (cycle / energy totals, workloads).

Only the ResNet-20 workload is used here; the WRN16-4 accuracy-proxy
calibration is covered by ``tests/training/test_proxy.py`` and the benchmark
harness.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import (
    NetworkWorkload,
    baseline_cycles,
    baseline_energy,
    lowrank_network_cycles,
    lowrank_network_energy,
    pairs_network_cycles,
    pattern_network_cycles,
    pattern_network_energy,
    quantized_network_cycles,
)
from repro.mapping.geometry import ArrayDims


@pytest.fixture(scope="module")
def workload() -> NetworkWorkload:
    return NetworkWorkload("resnet20")


@pytest.fixture(scope="module")
def array() -> ArrayDims:
    return ArrayDims.square(64)


class TestWorkload:
    def test_layer_split(self, workload):
        assert len(workload.all_layers) == 21
        assert len(workload.compressible) == 18
        assert len(workload.fixed) == 3
        assert workload.baseline_accuracy == pytest.approx(91.6)

    def test_fixed_plus_compressible_covers_all(self, workload):
        names = {g.name for g in workload.fixed} | {g.name for g in workload.compressible}
        assert names == {g.name for g in workload.all_layers}


class TestCycleTotals:
    def test_baseline_in_expected_band(self, workload, array):
        """ResNet-20 im2col on a 64×64 array lands in the paper's tens-of-thousands band."""
        total = baseline_cycles(workload, array)
        assert 10_000 < total < 100_000

    def test_baseline_decreases_with_array_size(self, workload):
        sizes = [baseline_cycles(workload, ArrayDims.square(s)) for s in (32, 64, 128)]
        assert sizes[0] > sizes[1] > sizes[2]

    def test_proposed_method_beats_baseline(self, workload, array):
        ours = lowrank_network_cycles(workload, array, rank_divisor=8, groups=4, use_sdk=True)
        assert ours < baseline_cycles(workload, array)

    def test_sdk_beats_plain_factors_at_same_config(self, workload, array):
        with_sdk = lowrank_network_cycles(workload, array, 8, 4, use_sdk=True)
        without_sdk = lowrank_network_cycles(workload, array, 8, 4, use_sdk=False)
        assert with_sdk <= without_sdk

    def test_lower_rank_fewer_cycles(self, workload, array):
        fast = lowrank_network_cycles(workload, array, rank_divisor=16, groups=1, use_sdk=True)
        slow = lowrank_network_cycles(workload, array, rank_divisor=2, groups=1, use_sdk=True)
        assert fast <= slow

    def test_pattern_pruning_scales_with_entries(self, workload, array):
        light = pattern_network_cycles(workload, array, entries=8)
        heavy = pattern_network_cycles(workload, array, entries=2)
        assert heavy <= light <= baseline_cycles(workload, array)

    def test_pairs_not_worse_than_pattern_at_high_entries(self, workload, array):
        pairs = pairs_network_cycles(workload, array, entries=6)
        assert pairs <= baseline_cycles(workload, array)

    def test_quantized_cycles_scale_with_bits(self, workload, array):
        base = baseline_cycles(workload, array)
        assert quantized_network_cycles(workload, array, 4) == base
        assert quantized_network_cycles(workload, array, 2) == pytest.approx(base / 2, abs=1)
        with pytest.raises(ValueError):
            quantized_network_cycles(workload, array, 0)


class TestEnergyTotals:
    def test_fig7_network_ordering(self, workload, array):
        """Ours < pattern pruning < im2col at the paper's Fig. 7 operating points."""
        im2col = baseline_energy(workload, array)
        pattern = pattern_network_energy(workload, array, entries=6)
        ours = lowrank_network_energy(workload, array, rank_divisor=8, groups=4)
        assert ours < pattern < im2col

    def test_energy_positive(self, workload, array):
        assert baseline_energy(workload, array) > 0
