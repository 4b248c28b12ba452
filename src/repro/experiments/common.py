"""Shared helpers for the paper-scale experiment harnesses (Table I, Figs. 6–9).

Every experiment combines the same ingredients:

* the layer-geometry catalogues of :mod:`repro.workloads`,
* the AR/AC cycle model of :mod:`repro.mapping.cycles`,
* the energy model of :mod:`repro.imc.energy`,
* the calibrated accuracy proxy of :mod:`repro.training.proxy`.

Network-level totals follow the paper's setup: only the compressible layers
(3×3 convolutions except the first) change method; the first convolution,
projection shortcuts and the classifier are always counted at their im2col
cost so every method is compared on the same full-network workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..imc.energy import EnergyModel
from ..mapping.cycles import im2col_cycles, lowrank_cycles, pairs_cycles, pattern_pruning_cycles
from ..mapping.geometry import ArrayDims, ConvGeometry
from ..scenarios import get_scenario, scenario_names
from ..training.proxy import AccuracyProxy
from ..workloads import compressible_geometries, network_geometries

__all__ = [
    "ARRAY_SIZES",
    "RANK_DIVISORS",
    "GROUP_COUNTS",
    "PRUNING_ENTRIES",
    "QUANTIZATION_BITS",
    "MethodPoint",
    "NetworkWorkload",
    "get_workload",
    "swept_scenarios",
    "reference_inputs",
    "baseline_cycles",
    "lowrank_network_cycles",
    "pattern_network_cycles",
    "pairs_network_cycles",
    "quantized_network_cycles",
    "baseline_energy",
    "lowrank_network_energy",
    "pattern_network_energy",
]

#: Crossbar sizes evaluated in the paper.
ARRAY_SIZES = (32, 64, 128)
#: Rank divisors of Table I (per-layer rank k = m / divisor).
RANK_DIVISORS = (2, 4, 8, 16)
#: Group counts of Table I.
GROUP_COUNTS = (1, 2, 4, 8)
#: Pattern-pruning kept-entry counts plotted in Fig. 6 ("entries ranging from 1 to 8").
PRUNING_ENTRIES = (1, 2, 3, 4, 5, 6, 7, 8)
#: Bit widths of the dedicated quantized models of Fig. 8.
QUANTIZATION_BITS = (1, 2, 3, 4)


@dataclass(frozen=True)
class MethodPoint:
    """One (accuracy, computing-cycles) point of a method on a given array size."""

    method: str
    accuracy: float
    cycles: int
    detail: str = ""

    @property
    def cost(self) -> float:
        return float(self.cycles)

    @property
    def quality(self) -> float:
        return self.accuracy


@dataclass
class NetworkWorkload:
    """Cached geometry split + accuracy proxy for one evaluation network."""

    network: str
    input_size: int = 32

    def __post_init__(self) -> None:
        self.all_layers: List[ConvGeometry] = network_geometries(self.network, self.input_size)
        self.compressible: List[ConvGeometry] = compressible_geometries(self.network, self.input_size)
        compressible_names = {g.name for g in self.compressible}
        self.fixed: List[ConvGeometry] = [
            g for g in self.all_layers if g.name not in compressible_names
        ]
        self.proxy = AccuracyProxy(network=self.network)

    @property
    def baseline_accuracy(self) -> float:
        return self.proxy.baseline_accuracy


@lru_cache(maxsize=None)
def get_workload(network: str, input_size: int = 32) -> NetworkWorkload:
    """Process-wide workload cache shared by every experiment harness.

    Table I and Figs. 6–9 all evaluate the same two networks; sharing the
    workload (geometry split + calibrated accuracy proxy) means each proxy
    builds its reference matrices and calibration curve once per network
    instead of once per harness.
    """
    return NetworkWorkload(network, input_size)


def swept_scenarios(scenarios: Optional[Sequence[str]]) -> Tuple[str, ...]:
    """The scenario names a sweep covers (default: every registered one).

    Unknown names raise before any cell runs.
    """
    selected = tuple(scenarios) if scenarios is not None else scenario_names()
    for name in selected:
        get_scenario(name)
    return selected


def reference_inputs(geometry: ConvGeometry, batch: int, seed: int) -> np.ndarray:
    """Deterministic Gaussian ``(batch, n)`` input columns of a Monte-Carlo sweep.

    Every trial and scenario of a sweep cell shares them; their weights come
    from :func:`repro.training.proxy.reference_matrix`.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed + 1, spawn_key=(geometry.n, batch))
    )
    return rng.standard_normal((batch, geometry.n))


def _fixed_layer_cycles(workload: NetworkWorkload, array: ArrayDims) -> int:
    """im2col cycles of the layers that never change method (first conv, shortcuts)."""
    return sum(im2col_cycles(g, array).cycles for g in workload.fixed)


def baseline_cycles(workload: NetworkWorkload, array: ArrayDims) -> int:
    """Total im2col cycles of the uncompressed network (the Fig. 6 baseline line)."""
    return sum(im2col_cycles(g, array).cycles for g in workload.all_layers)


def lowrank_network_cycles(
    workload: NetworkWorkload,
    array: ArrayDims,
    rank_divisor: int,
    groups: int,
    use_sdk: bool = True,
) -> int:
    """Total cycles with the proposed (or traditional) low-rank compression."""
    total = _fixed_layer_cycles(workload, array)
    for geometry in workload.compressible:
        rank = max(1, geometry.m // rank_divisor)
        total += lowrank_cycles(geometry, array, rank=rank, groups=groups, use_sdk=use_sdk).cycles
    return total


def pattern_network_cycles(workload: NetworkWorkload, array: ArrayDims, entries: int) -> int:
    """Total cycles with PatDNN-style pattern pruning and zero-skipping rows."""
    total = _fixed_layer_cycles(workload, array)
    for geometry in workload.compressible:
        total += pattern_pruning_cycles(geometry, array, entries=entries).cycles
    return total


def pairs_network_cycles(workload: NetworkWorkload, array: ArrayDims, entries: int) -> int:
    """Total cycles with PAIRS row-skipping on SDK mappings."""
    total = _fixed_layer_cycles(workload, array)
    for geometry in workload.compressible:
        total += pairs_cycles(geometry, array, entries=entries).cycles
    return total


def quantized_network_cycles(workload: NetworkWorkload, array: ArrayDims, bits: int) -> int:
    """Total cycles of a dedicated ``bits``-bit quantized model (Fig. 8 comparison).

    Quantized models keep the im2col mapping; their cycle saving comes from
    bit-serial input processing, so cycles scale with the activation bit width
    relative to the 4-bit baseline.
    """
    if bits <= 0:
        raise ValueError(f"bits must be positive, got {bits}")
    base = baseline_cycles(workload, array)
    return int(round(base * bits / 4.0))


# ----------------------------------------------------------------------
# Energy totals (Fig. 7)
# ----------------------------------------------------------------------
def _fixed_layer_energy(workload: NetworkWorkload, array: ArrayDims, model: EnergyModel) -> float:
    return sum(model.im2col_energy(g, array).energy_pj for g in workload.fixed)


def baseline_energy(
    workload: NetworkWorkload, array: ArrayDims, model: Optional[EnergyModel] = None
) -> float:
    """Total im2col energy (pJ) of the uncompressed network."""
    model = model if model is not None else EnergyModel()
    return sum(model.im2col_energy(g, array).energy_pj for g in workload.all_layers)


def lowrank_network_energy(
    workload: NetworkWorkload,
    array: ArrayDims,
    rank_divisor: int,
    groups: int,
    use_sdk: bool = True,
    model: Optional[EnergyModel] = None,
) -> float:
    """Total energy (pJ) of the proposed method."""
    model = model if model is not None else EnergyModel()
    total = _fixed_layer_energy(workload, array, model)
    for geometry in workload.compressible:
        rank = max(1, geometry.m // rank_divisor)
        total += model.lowrank_energy(
            geometry, array, rank=rank, groups=groups, use_sdk=use_sdk
        ).energy_pj
    return total


def pattern_network_energy(
    workload: NetworkWorkload,
    array: ArrayDims,
    entries: int,
    model: Optional[EnergyModel] = None,
) -> float:
    """Total energy (pJ) of pattern pruning including its peripheral overheads."""
    model = model if model is not None else EnergyModel()
    total = _fixed_layer_energy(workload, array, model)
    for geometry in workload.compressible:
        total += model.pattern_pruning_energy(geometry, array, entries=entries).energy_pj
    return total
