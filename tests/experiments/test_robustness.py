"""Tests for the Monte-Carlo hardware-scenario robustness experiment."""

from __future__ import annotations

import json

import pytest

import repro.experiments  # noqa: F401 — populates the experiment registry
from repro.engine.sweep import experiment_registry, to_jsonable
from repro.experiments.robustness import (
    MAPPINGS,
    format_robustness,
    representative_layer,
    run_robustness,
)


@pytest.fixture(scope="module")
def small_result():
    return run_robustness(
        networks=("resnet20",),
        scenarios=("ideal", "typical_rram", "faulty"),
        trials=3,
        batch=8,
    )


class TestRunRobustness:
    def test_point_grid_is_complete(self, small_result):
        assert len(small_result.points) == 3 * len(MAPPINGS)
        for scenario in small_result.scenarios:
            for mapping in MAPPINGS:
                point = small_result.point("resnet20", scenario, mapping)
                assert point.trials == 3
                assert point.allocated_tiles > 0

    def test_unknown_scenario_fails_fast(self):
        with pytest.raises(KeyError):
            run_robustness(networks=("resnet20",), scenarios=("nope",), trials=1)

    def test_invalid_trials_rejected(self):
        with pytest.raises(ValueError):
            run_robustness(networks=("resnet20",), trials=0)

    def test_ideal_scenario_has_zero_degradation(self, small_result):
        for mapping in MAPPINGS:
            point = small_result.point("resnet20", "ideal", mapping)
            assert point.accuracy_drop == pytest.approx(0.0, abs=1e-9)
            assert point.mean_error == pytest.approx(point.ideal_error, rel=1e-9)
            # No noise → no trial-to-trial spread.
            assert point.std_error == pytest.approx(0.0, abs=1e-12)

    def test_noisy_scenarios_degrade(self, small_result):
        for scenario in ("typical_rram", "faulty"):
            for mapping in MAPPINGS:
                point = small_result.point("resnet20", scenario, mapping)
                assert point.mean_error > point.ideal_error
                assert point.worst_error >= point.mean_error

    def test_energy_is_scenario_invariant_and_normalized(self, small_result):
        """Energy depends on the mapping, not the noise corner."""
        for mapping in MAPPINGS:
            energies = {
                small_result.point("resnet20", s, mapping).energy_pj_per_mvm
                for s in small_result.scenarios
            }
            assert len(energies) == 1
        for scenario in small_result.scenarios:
            dense = small_result.point("resnet20", scenario, "im2col")
            assert dense.energy_ratio_vs_im2col == pytest.approx(1.0)
            for mapping in MAPPINGS:
                assert small_result.point("resnet20", scenario, mapping).energy_pj_per_mvm > 0

    def test_representative_layer_is_compressible(self):
        geometry = representative_layer("resnet20")
        assert geometry.kernel_h == geometry.kernel_w == 3
        assert geometry.name

    def test_missing_point_raises(self, small_result):
        with pytest.raises(KeyError):
            small_result.point("resnet20", "ideal", "unknown_mapping")


class TestFormattingAndRegistration:
    def test_format_contains_grid(self, small_result):
        text = format_robustness(small_result)
        assert "Robustness — resnet20" in text
        assert "typical_rram" in text and "faulty" in text
        assert "group_lowrank" in text
        assert "Monte-Carlo trials" in text

    def test_registered_experiment(self):
        registry = experiment_registry()
        assert "robustness" in registry
        assert registry["robustness"].run == run_robustness

    def test_serializes_to_json(self, small_result):
        document = to_jsonable(small_result)
        payload = json.dumps(document)
        assert "typical_rram" in payload
        assert len(document["points"]) == len(small_result.points)
