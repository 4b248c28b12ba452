"""Robustness — Monte-Carlo accuracy/energy of mappings across hardware corners.

The paper evaluates its group low-rank mapping on essentially ideal analog
hardware; this registered experiment measures how the three mapping families
behave on *named* non-ideal substrates (:mod:`repro.scenarios`):

* ``im2col`` — the dense uncompressed mapping,
* ``lowrank`` — traditional (un-grouped) low-rank two-stage mapping,
* ``group_lowrank`` — the proposed grouped low-rank mapping,

for every registered :class:`repro.scenarios.HardwareScenario` and evaluation
network.  Each (network, scenario, mapping) point programs a representative
mid-network layer ``trials`` times with independent noise draws through the
batched Monte-Carlo kernel (:class:`repro.engine.MonteCarloTiledMatrix`) —
all trials of a layer execute in one batched matmul — and reports:

* the per-trial relative output error spread (mean ± std, worst case),
* an accuracy estimate through the calibrated proxy's error→accuracy curve,
  and the degradation versus the same mapping on the ``ideal`` scenario,
* the per-MVM energy and its ratio to the dense im2col mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.tables import format_energy_pj, format_table
from ..backend import active_precision
from ..engine.context import MonteCarloResult
from ..engine.sweep import ExperimentSpec, register_experiment
from ..mapping.geometry import ArrayDims, ConvGeometry
from ..scenarios import HardwareScenario, get_scenario
from ..training.proxy import AccuracyProxy, reference_matrix
from .common import get_workload, reference_inputs, swept_scenarios

__all__ = [
    "MAPPINGS",
    "RobustnessPoint",
    "RobustnessResult",
    "run_robustness",
    "format_robustness",
    "representative_layer",
]

#: Mapping families compared by the robustness sweep, in report order.
MAPPINGS = ("im2col", "lowrank", "group_lowrank")


@dataclass(frozen=True)
class RobustnessPoint:
    """One (network, scenario, mapping) cell of the robustness sweep."""

    network: str
    scenario: str
    mapping: str
    detail: str
    trials: int
    mean_error: float
    std_error: float
    worst_error: float
    ideal_error: float
    accuracy: float
    accuracy_drop: float
    energy_pj_per_mvm: float
    energy_ratio_vs_im2col: float
    allocated_tiles: int


@dataclass
class RobustnessResult:
    """Every point of the scenario × mapping × network sweep."""

    points: List[RobustnessPoint] = field(default_factory=list)
    networks: Tuple[str, ...] = ()
    scenarios: Tuple[str, ...] = ()
    mappings: Tuple[str, ...] = MAPPINGS
    layers: Dict[str, str] = field(default_factory=dict)
    array_size: int = 64
    trials: int = 8
    batch: int = 32
    rank_divisor: int = 8
    groups: int = 4
    seed: int = 0

    def point(self, network: str, scenario: str, mapping: str) -> RobustnessPoint:
        for candidate in self.points:
            if (candidate.network, candidate.scenario, candidate.mapping) == (
                network,
                scenario,
                mapping,
            ):
                return candidate
        raise KeyError(f"no robustness point for ({network}, {scenario}, {mapping})")


def representative_layer(network: str) -> ConvGeometry:
    """The mid-network compressible layer the robustness trials program."""
    compressible = get_workload(network).compressible
    return compressible[len(compressible) // 2]


def _mapping_plan(scenario_ctx, weight, mapping, rank, groups, trials):
    if mapping == "im2col":
        return scenario_ctx.dense_plan(weight, trials=trials)
    if mapping == "lowrank":
        return scenario_ctx.lowrank_plan(weight, rank=rank, trials=trials, groups=1)
    if mapping == "group_lowrank":
        return scenario_ctx.lowrank_plan(
            weight, rank=rank, trials=trials, groups=groups
        )
    raise ValueError(f"unknown mapping {mapping!r}; expected one of {MAPPINGS}")


def _mapping_detail(mapping: str, geometry: ConvGeometry, rank: int, groups: int) -> str:
    if mapping == "im2col":
        return "dense"
    if mapping == "lowrank":
        return f"g=1, k={rank}"
    return f"g={groups}, k={rank}"


@lru_cache(maxsize=None)
def _ideal_error(
    network: str,
    mapping: str,
    array_size: int,
    batch: int,
    rank_divisor: int,
    groups: int,
    seed: int,
    precision: str = "float64",
) -> float:
    """Reference error of a mapping on the ``ideal`` scenario (one trial).

    The degradation every noisy scenario reports is measured against this
    noise-free baseline of the *same* mapping, so it isolates the hardware
    contribution from the intentional low-rank approximation error.
    ``precision`` carries the active backend policy into the memo key: a
    process sweeping under both numpy64 and numpy32 must never serve one
    precision's reference error to the other.
    """
    geometry = representative_layer(network)
    weight = reference_matrix(geometry, seed)
    inputs = reference_inputs(geometry, batch, seed)
    rank = max(1, geometry.m // rank_divisor)
    effective_groups = AccuracyProxy._effective_groups(geometry, groups)
    ctx = get_scenario("ideal").context(ArrayDims.square(array_size), seed=seed)
    plan = _mapping_plan(ctx, weight, mapping, rank, effective_groups, trials=1)
    return plan.run(inputs).mean_relative_error


def _scenario_points(
    network: str,
    scenario_name: str,
    array_size: int,
    trials: int,
    batch: int,
    rank_divisor: int,
    groups: int,
    seed: int,
) -> List[RobustnessPoint]:
    """All mapping points of one (network, scenario) sweep cell."""
    scenario: HardwareScenario = get_scenario(scenario_name)
    geometry = representative_layer(network)
    weight = reference_matrix(geometry, seed)
    inputs = reference_inputs(geometry, batch, seed)
    rank = max(1, geometry.m // rank_divisor)
    effective_groups = AccuracyProxy._effective_groups(geometry, groups)
    proxy = get_workload(network).proxy
    ctx = scenario.context(ArrayDims.square(array_size), seed=seed)

    results: Dict[str, MonteCarloResult] = {}
    for mapping in MAPPINGS:
        plan = _mapping_plan(ctx, weight, mapping, rank, effective_groups, trials)
        results[mapping] = plan.run(inputs)

    dense_energy = results["im2col"].energy_pj / batch
    points: List[RobustnessPoint] = []
    for mapping in MAPPINGS:
        result = results[mapping]
        ideal_error = _ideal_error(
            network, mapping, array_size, batch, rank_divisor, groups, seed,
            precision=active_precision(),
        )
        accuracy = proxy.lowrank_accuracy_from_error(result.mean_relative_error)
        ideal_accuracy = proxy.lowrank_accuracy_from_error(ideal_error)
        energy_per_mvm = result.energy_pj / batch
        points.append(
            RobustnessPoint(
                network=network,
                scenario=scenario_name,
                mapping=mapping,
                detail=_mapping_detail(mapping, geometry, rank, effective_groups),
                trials=trials,
                mean_error=result.mean_relative_error,
                std_error=result.std_relative_error,
                worst_error=result.worst_relative_error,
                ideal_error=ideal_error,
                accuracy=accuracy,
                accuracy_drop=ideal_accuracy - accuracy,
                energy_pj_per_mvm=energy_per_mvm,
                energy_ratio_vs_im2col=energy_per_mvm / dense_energy,
                allocated_tiles=result.allocated_tiles,
            )
        )
    return points


def _robustness_cell_config(
    network: str,
    scenario_name: str,
    array_size: int,
    trials: int,
    batch: int,
    rank_divisor: int,
    groups: int,
    seed: int,
) -> Mapping[str, Any]:
    """The canonical store key of one (network, scenario) robustness cell."""
    return {
        "network": network,
        "scenario": scenario_name,
        "array_size": array_size,
        "trials": trials,
        "batch": batch,
        "rank_divisor": rank_divisor,
        "groups": groups,
        "seed": seed,
    }


def _robustness_grid(
    networks: Sequence[str] = ("resnet20", "wrn16_4"),
    scenarios: Optional[Sequence[str]] = None,
    trials: int = 8,
    array_size: int = 64,
    batch: int = 32,
    rank_divisor: int = 8,
    groups: int = 4,
    seed: int = 0,
) -> List[Tuple[str, str, int, int, int, int, int, int]]:
    """One cell per (network, scenario); each cell runs every mapping."""
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    scenario_seq = swept_scenarios(scenarios)
    return [
        (network, scenario, array_size, trials, batch, rank_divisor, groups, seed)
        for network in networks
        for scenario in scenario_seq
    ]


def _robustness_result(
    cells: Sequence[List[RobustnessPoint]],
    /,
    networks: Sequence[str],
    scenarios: Optional[Sequence[str]],
    trials: int,
    array_size: int,
    batch: int,
    rank_divisor: int,
    groups: int,
    seed: int,
) -> RobustnessResult:
    return RobustnessResult(
        points=[point for cell in cells for point in cell],
        networks=tuple(networks),
        scenarios=swept_scenarios(scenarios),
        mappings=MAPPINGS,
        layers={network: representative_layer(network).name for network in networks},
        array_size=array_size,
        trials=trials,
        batch=batch,
        rank_divisor=rank_divisor,
        groups=groups,
        seed=seed,
    )


def format_robustness(result: RobustnessResult, include_plots: bool = False) -> str:
    """Render per-network scenario × mapping tables (accuracy and energy)."""
    blocks: List[str] = []
    for network in result.networks:
        headers = [
            "scenario",
            "mapping",
            "rel. error",
            "worst",
            "est. acc (%)",
            "Δacc vs ideal",
            "energy/MVM",
            "vs im2col",
            "tiles",
        ]
        rows: List[List[object]] = []
        for scenario in result.scenarios:
            for mapping in result.mappings:
                point = result.point(network, scenario, mapping)
                rows.append(
                    [
                        scenario,
                        f"{mapping} ({point.detail})",
                        f"{point.mean_error:.3f} ± {point.std_error:.3f}",
                        f"{point.worst_error:.3f}",
                        f"{point.accuracy:.1f}",
                        f"{-point.accuracy_drop:+.1f}",
                        format_energy_pj(point.energy_pj_per_mvm),
                        f"{point.energy_ratio_vs_im2col:.2f}x",
                        point.allocated_tiles,
                    ]
                )
        title = (
            f"Robustness — {network} ({result.layers.get(network, '?')}), "
            f"{result.array_size}x{result.array_size} array, "
            f"{result.trials} Monte-Carlo trials"
        )
        blocks.append(format_table(headers, rows, title=title))
    return "\n\n".join(blocks)


ROBUSTNESS = register_experiment(
    ExperimentSpec(
        name="robustness",
        title="Robustness — Monte-Carlo accuracy/energy across hardware scenarios",
        kind="robustness/cell",
        grid=_robustness_grid,
        cell=_scenario_points,
        cell_key=_robustness_cell_config,
        result_type=List[RobustnessPoint],
        assemble=_robustness_result,
        formatter=format_robustness,
    )
)
#: Sweep scenario × mapping × network (see :meth:`ExperimentSpec.run`).
run_robustness = ROBUSTNESS.run
