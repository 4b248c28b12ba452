"""Network-level hardware reports combining cycles, energy and utilization.

The experiment harnesses answer the paper's specific questions (Table I,
Figs. 6–9); this module provides the general-purpose report a practitioner
would want when deploying a network on an IMC accelerator: for each candidate
compression method, the total computing cycles, total energy, speed-up and
energy saving against the im2col baseline, and the per-layer breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from ..analysis.tables import format_cycles, format_table
from ..mapping.cycles import (
    LayerCycles,
    im2col_cycles,
    lowrank_cycles,
    pairs_cycles,
    pattern_pruning_cycles,
    sdk_cycles,
)
from ..mapping.geometry import ArrayDims, ConvGeometry
from .energy import EnergyModel, LayerEnergy

__all__ = ["MethodSpec", "LayerHardwareRecord", "NetworkHardwareReport", "compare_methods"]


@dataclass(frozen=True)
class MethodSpec:
    """A named compression/mapping method with its per-layer parameters.

    ``kind`` is one of ``"im2col"``, ``"sdk"``, ``"lowrank"``, ``"pattern"`` or
    ``"pairs"``; ``params`` are forwarded to the cycle and energy models
    (e.g. ``{"rank_divisor": 8, "groups": 4}`` or ``{"entries": 6}``).
    """

    label: str
    kind: str
    params: Mapping[str, object] = field(default_factory=dict)

    VALID_KINDS = ("im2col", "sdk", "lowrank", "pattern", "pairs")

    def __post_init__(self) -> None:
        if self.kind not in self.VALID_KINDS:
            raise ValueError(f"unknown method kind {self.kind!r}; expected one of {self.VALID_KINDS}")
        if self.kind == "lowrank" and not self.params.get("rank"):
            divisor = int(self.params.get("rank_divisor", 0))
            if divisor < 1:
                raise ValueError(
                    f"a lowrank method needs rank >= 1 or rank_divisor >= 1, got {dict(self.params)}"
                )


@dataclass(frozen=True)
class LayerHardwareRecord:
    """Cycles + energy of one layer under one method."""

    layer: str
    cycles: int
    energy_pj: float
    mapped_rows: int
    mapped_cols: int


@dataclass
class NetworkHardwareReport:
    """Aggregated hardware cost of one method over a network."""

    method: MethodSpec
    array: ArrayDims
    records: List[LayerHardwareRecord] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        return sum(r.cycles for r in self.records)

    @property
    def total_energy_pj(self) -> float:
        return sum(r.energy_pj for r in self.records)

    @property
    def total_energy_uj(self) -> float:
        return self.total_energy_pj / 1e6

    def speedup_over(self, baseline: "NetworkHardwareReport") -> float:
        if self.total_cycles == 0:
            raise ZeroDivisionError("report has zero cycles")
        return baseline.total_cycles / self.total_cycles

    def energy_saving_over(self, baseline: "NetworkHardwareReport") -> float:
        if baseline.total_energy_pj == 0:
            raise ZeroDivisionError("baseline report has zero energy")
        return 1.0 - self.total_energy_pj / baseline.total_energy_pj

    def per_layer(self) -> Dict[str, LayerHardwareRecord]:
        return {r.layer: r for r in self.records}


def _lowrank_rank(params: Dict[str, object], geometry: ConvGeometry) -> int:
    """Pop a lowrank method's rank: explicit ``rank``, else ``max(1, m // rank_divisor)``."""
    rank = int(params.pop("rank", 0))
    divisor = int(params.pop("rank_divisor", 0))
    return rank or max(1, geometry.m // divisor)


def _layer_cycles(method: MethodSpec, geometry: ConvGeometry, array: ArrayDims) -> LayerCycles:
    params = dict(method.params)
    if method.kind == "im2col":
        return im2col_cycles(geometry, array)
    if method.kind == "sdk":
        return sdk_cycles(geometry, array, **params)
    if method.kind == "lowrank":
        return lowrank_cycles(geometry, array, rank=_lowrank_rank(params, geometry), **params)
    if method.kind == "pattern":
        return pattern_pruning_cycles(geometry, array, **params)
    return pairs_cycles(geometry, array, **params)


def _layer_energy(
    method: MethodSpec, geometry: ConvGeometry, array: ArrayDims, model: EnergyModel
) -> LayerEnergy:
    params = dict(method.params)
    if method.kind == "im2col":
        return model.im2col_energy(geometry, array)
    if method.kind == "sdk":
        return model.sdk_energy(geometry, array, **params)
    if method.kind == "lowrank":
        return model.lowrank_energy(geometry, array, rank=_lowrank_rank(params, geometry), **params)
    if method.kind == "pattern":
        return model.pattern_pruning_energy(geometry, array, **params)
    return model.pairs_energy(geometry, array, **params)


def build_report(
    method: MethodSpec,
    geometries: Sequence[ConvGeometry],
    array: ArrayDims,
    energy_model: Optional[EnergyModel] = None,
) -> NetworkHardwareReport:
    """Cycles + energy of one method over a list of layer geometries."""
    energy_model = energy_model if energy_model is not None else EnergyModel()
    report = NetworkHardwareReport(method=method, array=array)
    for geometry in geometries:
        cycles = _layer_cycles(method, geometry, array)
        energy = _layer_energy(method, geometry, array, energy_model)
        report.records.append(
            LayerHardwareRecord(
                layer=geometry.name,
                cycles=cycles.cycles,
                energy_pj=energy.energy_pj,
                mapped_rows=cycles.mapped_rows,
                mapped_cols=cycles.mapped_cols,
            )
        )
    return report


@dataclass
class MethodComparison:
    """Reports of several methods over the same workload, with a formatted summary."""

    reports: List[NetworkHardwareReport]

    def baseline(self) -> NetworkHardwareReport:
        for report in self.reports:
            if report.method.kind == "im2col":
                return report
        return self.reports[0]

    def summary_rows(self) -> List[List[object]]:
        baseline = self.baseline()
        rows: List[List[object]] = []
        for report in self.reports:
            rows.append(
                [
                    report.method.label,
                    format_cycles(report.total_cycles),
                    f"{report.speedup_over(baseline):.2f}x" if report is not baseline else "1.00x",
                    f"{report.total_energy_uj:.2f}",
                    f"{report.energy_saving_over(baseline):.0%}" if report is not baseline else "0%",
                ]
            )
        return rows

    def describe(self, title: str = "method comparison") -> str:
        return format_table(
            ["method", "cycles", "speedup", "energy (uJ)", "energy saving"],
            self.summary_rows(),
            title=title,
        )


def compare_methods(
    methods: Sequence[MethodSpec],
    geometries: Sequence[ConvGeometry],
    array: ArrayDims,
    energy_model: Optional[EnergyModel] = None,
) -> MethodComparison:
    """Build hardware reports for several methods over the same workload."""
    if not methods:
        raise ValueError("compare_methods needs at least one method")
    energy_model = energy_model if energy_model is not None else EnergyModel()
    return MethodComparison(
        reports=[build_report(method, geometries, array, energy_model) for method in methods]
    )
