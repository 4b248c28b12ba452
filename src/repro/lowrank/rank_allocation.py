"""Per-layer rank allocation under error or cycle budgets.

The paper configures every layer with the same rank rule (``k = m / divisor``)
and notes that the group count must be "chosen wisely".  This module extends
that uniform rule with a sensitivity-driven allocator: each layer's
singular-value spectrum says how much reconstruction error a given rank costs,
so ranks can be distributed where they matter —

* :func:`allocate_ranks_for_error_budget` finds, per layer, the smallest rank
  whose relative reconstruction error stays below a target;
* :func:`allocate_ranks_for_cycle_budget` greedily grows ranks (starting from
  1) where an increase buys the largest error reduction per extra computing
  cycle, until the network cycle budget is exhausted;
* :class:`RankAllocation` plugs into :func:`repro.lowrank.compress.compress_model`
  as a ``rank_fn`` so a model can be compressed with the allocated ranks.

Sensitivity is measured on the actual layer weight matrices when a model is
given, or on deterministic reference matrices when only geometries are
available (the same convention as the accuracy proxy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from ..mapping.cycles import lowrank_cycles
from ..mapping.geometry import ArrayDims, ConvGeometry
from ..nn.modules import Conv2d, Module
from ..training.proxy import reference_matrix
from .decompose import singular_value_energy
from .group import split_columns

__all__ = [
    "LayerSensitivity",
    "RankAllocation",
    "layer_sensitivity",
    "network_sensitivity",
    "allocate_ranks_for_error_budget",
    "allocate_ranks_for_cycle_budget",
]


@dataclass(frozen=True)
class LayerSensitivity:
    """Rank → relative reconstruction error curve of one layer.

    ``errors[k-1]`` is the relative Frobenius error of the optimal (grouped)
    rank-``k`` approximation of the layer's im2col matrix.
    """

    name: str
    geometry: ConvGeometry
    groups: int
    errors: np.ndarray

    @property
    def max_rank(self) -> int:
        return len(self.errors)

    def error_at(self, rank: int) -> float:
        """Relative error of the rank-``rank`` approximation (clamped to the valid range)."""
        if rank <= 0:
            return 1.0
        rank = min(rank, self.max_rank)
        return float(self.errors[rank - 1])

    def rank_for_error(self, max_relative_error: float) -> int:
        """Smallest rank whose relative error is at most the target."""
        below = np.nonzero(self.errors <= max_relative_error + 1e-12)[0]
        if below.size == 0:
            return self.max_rank
        return int(below[0]) + 1


@dataclass
class RankAllocation:
    """A per-layer rank assignment, usable directly as a ``compress_model`` rank function."""

    ranks: Dict[str, int]
    groups: int = 1

    def __call__(self, name: str, module: Module) -> int:
        if name in self.ranks:
            return self.ranks[name]
        if isinstance(module, Conv2d):
            return max(1, module.out_channels // 4)
        raise KeyError(f"no rank allocated for layer {name!r}")

    def __getitem__(self, name: str) -> int:
        return self.ranks[name]

    def __len__(self) -> int:
        return len(self.ranks)

    @property
    def total_rank(self) -> int:
        return sum(self.ranks.values())

    def mean_error(self, sensitivities: Mapping[str, LayerSensitivity]) -> float:
        """Mean relative reconstruction error implied by this allocation."""
        if not self.ranks:
            return 0.0
        return float(
            np.mean([sensitivities[name].error_at(rank) for name, rank in self.ranks.items()])
        )

    def total_cycles(self, sensitivities: Mapping[str, LayerSensitivity], array: ArrayDims) -> int:
        """Network computing cycles (compressible layers only) implied by this allocation."""
        total = 0
        for name, rank in self.ranks.items():
            geometry = sensitivities[name].geometry
            groups = sensitivities[name].groups
            total += lowrank_cycles(geometry, array, rank=rank, groups=groups, use_sdk=True).cycles
        return total


def _grouped_error_curve(matrix: np.ndarray, groups: int, max_rank: int) -> np.ndarray:
    """Relative error of the grouped rank-k approximation for k = 1 … max_rank.

    Computed from the per-block singular values: the squared grouped error at
    rank ``k`` is the sum over blocks of the discarded singular-value energy.
    """
    blocks = split_columns(matrix, groups)
    total_energy = float(np.sum(matrix ** 2))
    if total_energy == 0.0:
        return np.zeros(max_rank)
    retained = np.zeros(max_rank)
    for block in blocks:
        energy = singular_value_energy(block) * float(np.sum(block ** 2))
        padded = np.full(max_rank, energy[-1] if energy.size else 0.0)
        padded[: min(max_rank, energy.size)] = energy[:max_rank]
        retained += padded
    squared_error = np.clip(1.0 - retained / total_energy, 0.0, 1.0)
    return np.sqrt(squared_error)


def _effective_groups(geometry: ConvGeometry, groups: int) -> int:
    candidate = min(groups, geometry.in_channels)
    while geometry.n % candidate != 0:
        candidate -= 1
    return max(1, candidate)


def layer_sensitivity(
    geometry: ConvGeometry,
    groups: int = 1,
    weight_matrix: Optional[np.ndarray] = None,
    seed: int = 0,
) -> LayerSensitivity:
    """Rank → error curve for one layer (from its real weights when available)."""
    effective = _effective_groups(geometry, groups)
    matrix = weight_matrix if weight_matrix is not None else reference_matrix(geometry, seed)
    if matrix.shape != (geometry.m, geometry.n):
        raise ValueError(
            f"weight matrix shape {matrix.shape} does not match geometry ({geometry.m}, {geometry.n})"
        )
    max_rank = min(geometry.m, geometry.n // effective)
    errors = _grouped_error_curve(matrix, effective, max_rank)
    return LayerSensitivity(name=geometry.name, geometry=geometry, groups=effective, errors=errors)


def network_sensitivity(
    geometries: Sequence[ConvGeometry],
    groups: int = 1,
    weights: Optional[Mapping[str, np.ndarray]] = None,
    seed: int = 0,
) -> Dict[str, LayerSensitivity]:
    """Sensitivity curves for every layer of a network, keyed by layer name."""
    result: Dict[str, LayerSensitivity] = {}
    for geometry in geometries:
        weight = weights.get(geometry.name) if weights else None
        result[geometry.name] = layer_sensitivity(geometry, groups, weight, seed)
    return result


def allocate_ranks_for_error_budget(
    sensitivities: Mapping[str, LayerSensitivity],
    max_relative_error: float,
    groups: int = 1,
) -> RankAllocation:
    """Per layer, the smallest rank meeting the relative-error target."""
    if not 0.0 <= max_relative_error <= 1.0:
        raise ValueError(f"max_relative_error must be in [0, 1], got {max_relative_error}")
    ranks = {
        name: sensitivity.rank_for_error(max_relative_error)
        for name, sensitivity in sensitivities.items()
    }
    return RankAllocation(ranks=ranks, groups=groups)


def allocate_ranks_for_cycle_budget(
    sensitivities: Mapping[str, LayerSensitivity],
    array: ArrayDims,
    cycle_budget: int,
    groups: int = 1,
    rank_step: int = 1,
) -> RankAllocation:
    """Greedy marginal-utility allocation of ranks under a network cycle budget.

    Starting from rank 1 everywhere, the allocator repeatedly raises the rank
    of the layer offering the largest error reduction per additional computing
    cycle, stopping when no further increase fits the budget.  With a
    sufficiently large budget every layer saturates at its maximum rank.
    """
    if cycle_budget <= 0:
        raise ValueError(f"cycle_budget must be positive, got {cycle_budget}")
    if rank_step <= 0:
        raise ValueError(f"rank_step must be positive, got {rank_step}")

    ranks = {name: 1 for name in sensitivities}

    def layer_cycles(name: str, rank: int) -> int:
        sensitivity = sensitivities[name]
        return lowrank_cycles(
            sensitivity.geometry, array, rank=rank, groups=sensitivity.groups, use_sdk=True
        ).cycles

    cycles = {name: layer_cycles(name, 1) for name in sensitivities}
    total = sum(cycles.values())

    while True:
        best_name = None
        best_utility = 0.0
        best_new_cycles = 0
        for name, sensitivity in sensitivities.items():
            current = ranks[name]
            if current >= sensitivity.max_rank:
                continue
            proposed = min(sensitivity.max_rank, current + rank_step)
            new_cycles = layer_cycles(name, proposed)
            extra = new_cycles - cycles[name]
            if total + extra > cycle_budget:
                continue
            error_drop = sensitivity.error_at(current) - sensitivity.error_at(proposed)
            utility = error_drop / max(extra, 1)
            if utility > best_utility:
                best_utility = utility
                best_name = name
                best_new_cycles = new_cycles
        if best_name is None:
            break
        sensitivity = sensitivities[best_name]
        total += best_new_cycles - cycles[best_name]
        cycles[best_name] = best_new_cycles
        ranks[best_name] = min(sensitivity.max_rank, ranks[best_name] + rank_step)

    return RankAllocation(ranks=ranks, groups=groups)
