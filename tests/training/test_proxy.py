"""Tests for the calibrated accuracy proxy.

Most tests use the ResNet-20 proxy; the Table I anchor test covers WRN16-4
too, whose calibration from block spectra takes a fraction of a second.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import using_backend
from repro.engine.cache import default_decomposition_cache
from repro.lowrank.group import group_decompose, group_relative_error
from repro.training.proxy import BASELINE_ACCURACY, TABLE1_ACCURACY, AccuracyProxy
from repro.training.seeds import EXPERIMENT_SEEDS, seed_everything, spawn_generator


@pytest.fixture(scope="module")
def proxy() -> AccuracyProxy:
    return AccuracyProxy(network="resnet20")


class TestLowRankProxy:
    def test_baseline(self, proxy):
        assert proxy.baseline_accuracy == BASELINE_ACCURACY["resnet20"]

    def test_error_decreases_with_rank(self, proxy):
        errors = [proxy.mean_relative_error(divisor, 1) for divisor in (16, 8, 4, 2)]
        assert all(errors[i] >= errors[i + 1] for i in range(len(errors) - 1))

    def test_error_decreases_with_groups(self, proxy):
        """Theorem 1 at proxy level: more groups, same rank divisor → smaller error."""
        errors = [proxy.mean_relative_error(8, groups) for groups in (1, 2, 4, 8)]
        assert all(errors[i] >= errors[i + 1] - 1e-12 for i in range(len(errors) - 1))

    def test_accuracy_increases_with_rank(self, proxy):
        accs = [proxy.lowrank_accuracy(divisor, 1) for divisor in (16, 8, 4, 2)]
        assert all(accs[i] <= accs[i + 1] + 1e-9 for i in range(len(accs) - 1))

    def test_accuracy_increases_with_groups(self, proxy):
        accs = [proxy.lowrank_accuracy(16, groups) for groups in (1, 2, 4, 8)]
        assert all(accs[i] <= accs[i + 1] + 1e-9 for i in range(len(accs) - 1))

    def test_accuracy_below_baseline(self, proxy):
        for groups in (1, 4):
            for divisor in (2, 8, 16):
                assert proxy.lowrank_accuracy(divisor, groups) <= proxy.baseline_accuracy

    @pytest.mark.parametrize("network", ["resnet20", "wrn16_4"])
    def test_anchor_configurations_near_table1(self, network):
        """Every Table I anchor must be reproduced within a couple of percent."""
        proxy = AccuracyProxy(network=network)
        for (groups, divisor), paper_value in TABLE1_ACCURACY[network].items():
            measured = proxy.lowrank_accuracy(divisor, groups)
            assert measured == pytest.approx(paper_value, abs=3.0)

    def test_spectral_errors_match_factor_oracle(self, proxy):
        """Eckart–Young: the spectral errors equal the truncated-SVD factors' errors."""
        with using_backend("numpy64"):
            for groups, divisor in TABLE1_ACCURACY["resnet20"]:
                oracle = np.mean([
                    group_relative_error(
                        matrix,
                        group_decompose(
                            matrix,
                            max(1, geometry.m // divisor),
                            proxy._effective_groups(geometry, groups),
                        ),
                    )
                    for geometry, matrix in zip(proxy._geometries, proxy._matrices)
                ])
                measured = proxy.mean_relative_error(divisor, groups)
                assert measured == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_calibration_runs_no_svd(self, monkeypatch):
        """The calibration computes no SVD and never touches the decomposition cache."""
        fresh = AccuracyProxy(network="wrn16_4", seed=11)  # a new seed misses every memo

        def no_svd(*args, **kwargs):
            raise AssertionError("the proxy calibration computed an SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        before = default_decomposition_cache.counters()
        fresh.lowrank_accuracy_from_error(0.5)  # builds the calibration curve
        assert default_decomposition_cache.counters() == before

    def test_from_error_extremes(self, proxy):
        assert proxy.lowrank_accuracy_from_error(0.0) == pytest.approx(proxy.baseline_accuracy)
        assert proxy.lowrank_accuracy_from_error(1.0) < 60.0

    def test_from_error_monotone(self, proxy):
        values = [proxy.lowrank_accuracy_from_error(e) for e in np.linspace(0, 1, 21)]
        assert all(values[i] >= values[i + 1] - 1e-9 for i in range(len(values) - 1))

    def test_error_cache_consistency(self, proxy):
        assert proxy.mean_relative_error(8, 4) == proxy.mean_relative_error(8, 4)


class TestBaselineProxies:
    def test_pattern_pruning_monotone_in_entries(self, proxy):
        accs = [proxy.pattern_pruning_accuracy(e) for e in range(1, 9)]
        assert all(accs[i] <= accs[i + 1] for i in range(len(accs) - 1))

    def test_pattern_pruning_clamps_entries(self, proxy):
        assert proxy.pattern_pruning_accuracy(0) == proxy.pattern_pruning_accuracy(1)
        assert proxy.pattern_pruning_accuracy(20) == proxy.pattern_pruning_accuracy(8)

    def test_pairs_at_least_patdnn(self, proxy):
        for entries in (1, 4, 8):
            assert proxy.pairs_accuracy(entries) >= proxy.pattern_pruning_accuracy(entries)
            assert proxy.pairs_accuracy(entries) <= proxy.baseline_accuracy

    def test_quantization_monotone_in_bits(self, proxy):
        accs = [proxy.quantization_accuracy(bits) for bits in (1, 2, 3, 4)]
        assert all(accs[i] <= accs[i + 1] for i in range(len(accs) - 1))

    def test_headline_accuracy_gap_shape(self, proxy):
        """The proposed method's low-cycle configs beat aggressive pruning by a wide margin."""
        ours_low_cost = proxy.lowrank_accuracy(16, 8)
        pruning_low_cost = proxy.pattern_pruning_accuracy(1)
        assert ours_low_cost - pruning_low_cost > 5.0

    def test_invalid_network(self):
        with pytest.raises(ValueError):
            AccuracyProxy(network="vgg16")

    def test_jitter_disabled_by_default(self, proxy):
        assert proxy.lowrank_accuracy(8, 4) == proxy.lowrank_accuracy(8, 4)

    def test_jitter_adds_noise(self):
        noisy = AccuracyProxy(network="resnet20", noise_std=0.5)
        values = {noisy.lowrank_accuracy(8, 4) for _ in range(5)}
        assert len(values) > 1


class TestSeeds:
    def test_seed_everything_reproducible(self):
        seed_everything(3)
        a = np.random.rand(5)
        seed_everything(3)
        b = np.random.rand(5)
        np.testing.assert_allclose(a, b)

    def test_spawn_generator_streams_independent(self):
        a = spawn_generator(0, stream=0).random(4)
        b = spawn_generator(0, stream=1).random(4)
        assert not np.allclose(a, b)

    def test_experiment_seeds_are_three(self):
        assert len(EXPERIMENT_SEEDS) == 3
