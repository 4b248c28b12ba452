"""Tests for the network-level hardware reports and method comparison."""

from __future__ import annotations

import pytest

from repro.imc.reports import MethodSpec, NetworkHardwareReport, build_report, compare_methods
from repro.mapping.cycles import im2col_cycles, lowrank_cycles
from repro.mapping.geometry import ArrayDims, ConvGeometry


@pytest.fixture
def geometries():
    return [
        ConvGeometry(16, 32, 3, 3, 16, 16, padding=1, name="a"),
        ConvGeometry(32, 32, 3, 3, 8, 8, padding=1, name="b"),
    ]


@pytest.fixture
def array():
    return ArrayDims.square(64)


class TestMethodSpec:
    def test_valid_kinds(self):
        MethodSpec("x", "im2col")
        MethodSpec("y", "lowrank", {"rank_divisor": 8})

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            MethodSpec("x", "magic")

    @pytest.mark.parametrize("params", [{"rank_divisor": 0}, {"rank_divisor": -2}, {}])
    def test_lowrank_needs_a_positive_rank_or_divisor(self, params, geometries, array):
        """No silent full-rank fallback: a divisor below 1 is rejected, not clamped."""
        with pytest.raises(ValueError, match="rank_divisor >= 1"):
            compare_methods([MethodSpec("ours", "lowrank", params)], geometries, array)


class TestBuildReport:
    def test_im2col_report_matches_cycle_model(self, geometries, array):
        report = build_report(MethodSpec("baseline", "im2col"), geometries, array)
        expected = sum(im2col_cycles(g, array).cycles for g in geometries)
        assert report.total_cycles == expected
        assert report.total_energy_pj > 0
        assert len(report.records) == 2

    def test_lowrank_report_with_divisor(self, geometries, array):
        spec = MethodSpec("ours", "lowrank", {"rank_divisor": 8, "groups": 4, "use_sdk": True})
        report = build_report(spec, geometries, array)
        expected = sum(
            lowrank_cycles(g, array, rank=max(1, g.m // 8), groups=4, use_sdk=True).cycles
            for g in geometries
        )
        assert report.total_cycles == expected

    def test_lowrank_report_with_explicit_rank(self, geometries, array):
        spec = MethodSpec("ours", "lowrank", {"rank": 2, "groups": 1, "use_sdk": False})
        report = build_report(spec, geometries, array)
        expected = sum(lowrank_cycles(g, array, rank=2, groups=1, use_sdk=False).cycles for g in geometries)
        assert report.total_cycles == expected

    def test_pattern_and_pairs_and_sdk(self, geometries, array):
        for kind, params in (("pattern", {"entries": 6}), ("pairs", {"entries": 6}), ("sdk", {})):
            report = build_report(MethodSpec(kind, kind, params), geometries, array)
            assert report.total_cycles > 0

    def test_per_layer_lookup(self, geometries, array):
        report = build_report(MethodSpec("baseline", "im2col"), geometries, array)
        assert set(report.per_layer()) == {"a", "b"}

    def test_speedup_and_saving(self, geometries, array):
        baseline = build_report(MethodSpec("baseline", "im2col"), geometries, array)
        ours = build_report(
            MethodSpec("ours", "lowrank", {"rank_divisor": 8, "groups": 4, "use_sdk": True}),
            geometries,
            array,
        )
        assert ours.speedup_over(baseline) > 1.0
        assert 0 < ours.energy_saving_over(baseline) < 1

    def test_zero_division_guards(self, array):
        empty = NetworkHardwareReport(method=MethodSpec("x", "im2col"), array=array)
        other = NetworkHardwareReport(method=MethodSpec("y", "im2col"), array=array)
        with pytest.raises(ZeroDivisionError):
            empty.speedup_over(other)
        with pytest.raises(ZeroDivisionError):
            other.energy_saving_over(empty)


class TestCompareMethods:
    def test_comparison_table(self, geometries, array):
        methods = [
            MethodSpec("im2col", "im2col"),
            MethodSpec("pattern e=6", "pattern", {"entries": 6}),
            MethodSpec("ours g=4 m/8", "lowrank", {"rank_divisor": 8, "groups": 4, "use_sdk": True}),
        ]
        comparison = compare_methods(methods, geometries, array)
        assert len(comparison.reports) == 3
        assert comparison.baseline().method.label == "im2col"
        text = comparison.describe()
        assert "im2col" in text and "ours g=4 m/8" in text and "speedup" in text

    def test_baseline_falls_back_to_first(self, geometries, array):
        methods = [MethodSpec("sdk", "sdk"), MethodSpec("pattern", "pattern", {"entries": 6})]
        comparison = compare_methods(methods, geometries, array)
        assert comparison.baseline().method.label == "sdk"

    def test_empty_methods_rejected(self, geometries, array):
        with pytest.raises(ValueError):
            compare_methods([], geometries, array)
