"""Layer families — mapping efficiency of modern layers across hardware corners.

The paper's sweeps cover plain CNN convolutions only; this registered
experiment compares how the four layer families of the workload zoo map onto
crossbar tiles and how robust each mapping is across hardware scenarios:

* ``conv``      — a plain 3×3 convolution (ResNet-20, the paper's substrate),
* ``grouped``   — a cardinality-8 grouped 3×3 (``resnext20``), lowered to a
  block-diagonal im2col matrix,
* ``depthwise`` — a ``groups == channels`` depthwise 3×3 (``mobilenet_cifar``),
  the block-diagonal extreme,
* ``attention`` — a fused QKV projection GEMM (``tiny_transformer``), mapped
  as three row-stacked dense matrices.

Each (family, scenario) cell programs the family's representative layer
``trials`` times through the batched Monte-Carlo kernel and reports the tile
economics of the placement — allocated vs. bounding-box dense tiles (the
closed-form :func:`repro.mapping.grouped.tiles_for_grouped_conv` prediction is
carried alongside as a cross-check) and cell utilization — next to the error
spread and per-MVM energy.  The punchline is structural: block-diagonal
placement halves-or-better the tile count of grouped/depthwise layers, but
depthwise blocks are so skinny that the cells inside the allocated tiles sit
almost entirely idle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..analysis.tables import format_energy_pj, format_table
from ..engine.sweep import ExperimentSpec, register_experiment
from ..mapping.geometry import (
    ArrayDims,
    AttentionProjectionGeometry,
    ConvGeometry,
    GroupedConvGeometry,
    layer_family,
)
from ..mapping.cycles import tiles_for_matrix
from ..mapping.grouped import tiles_for_grouped_conv
from ..scenarios import get_scenario
from ..workloads import network_geometries
from .common import swept_scenarios

__all__ = [
    "FAMILIES",
    "FAMILY_NETWORKS",
    "LayerFamilyPoint",
    "LayerFamiliesResult",
    "run_layer_families",
    "format_layer_families",
    "representative_family_layer",
]

#: Layer families compared by the sweep, in report order.
FAMILIES = ("conv", "grouped", "depthwise", "attention")

#: The zoo network each family's representative layer is drawn from.
FAMILY_NETWORKS: Mapping[str, str] = {
    "conv": "resnet20",
    "grouped": "resnext20",
    "depthwise": "mobilenet_cifar",
    "attention": "tiny_transformer",
}


@dataclass(frozen=True)
class LayerFamilyPoint:
    """One (family, scenario) cell of the layer-families sweep."""

    family: str
    network: str
    layer: str
    scenario: str
    trials: int
    m: int
    n: int
    groups: int
    mean_error: float
    std_error: float
    worst_error: float
    energy_pj_per_mvm: float
    allocated_tiles: int
    dense_tiles: int
    predicted_tiles: int
    tile_savings: float
    cell_utilization: float


@dataclass
class LayerFamiliesResult:
    """Every point of the family × scenario sweep."""

    points: List[LayerFamilyPoint] = field(default_factory=list)
    families: Tuple[str, ...] = FAMILIES
    scenarios: Tuple[str, ...] = ()
    networks: Dict[str, str] = field(default_factory=dict)
    layers: Dict[str, str] = field(default_factory=dict)
    array_size: int = 64
    trials: int = 8
    batch: int = 16
    seed: int = 0

    def point(self, family: str, scenario: str) -> LayerFamilyPoint:
        for candidate in self.points:
            if (candidate.family, candidate.scenario) == (family, scenario):
                return candidate
        raise KeyError(f"no layer-families point for ({family}, {scenario})")


def representative_family_layer(family: str) -> ConvGeometry:
    """The mid-network layer of ``family`` in its zoo network.

    Filters the network's geometries to the requested family and takes the
    middle one — the same representative-layer convention as the robustness
    experiment.
    """
    try:
        network = FAMILY_NETWORKS[family]
    except KeyError:
        raise ValueError(
            f"unknown layer family {family!r}; expected one of {FAMILIES}"
        ) from None
    matching = [
        geometry
        for geometry in network_geometries(network)
        if layer_family(geometry) == family
    ]
    return matching[len(matching) // 2]


def _family_weight(geometry: ConvGeometry, seed: int) -> np.ndarray:
    """Deterministic Gaussian weights in the family's native layout.

    Grouped/depthwise layers draw the framework kernel tensor
    ``(out_channels, group_in_channels, kh, kw)`` (the ``groups`` spawn key
    keeps the stream distinct from a dense layer of the same im2col shape);
    everything else draws the ``(m, n)`` matrix directly.  Scales follow the
    robustness convention: unit output variance for unit Gaussian inputs.
    """
    if isinstance(geometry, GroupedConvGeometry):
        rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=seed, spawn_key=(geometry.m, geometry.n, geometry.groups)
            )
        )
        return rng.normal(
            0.0,
            1.0 / np.sqrt(geometry.block_in_cols),
            size=(
                geometry.out_channels,
                geometry.group_in_channels,
                geometry.kernel_h,
                geometry.kernel_w,
            ),
        )
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(geometry.m, geometry.n))
    )
    return rng.normal(0.0, 1.0 / np.sqrt(geometry.n), size=(geometry.m, geometry.n))


def _family_inputs(geometry: ConvGeometry, batch: int, seed: int) -> np.ndarray:
    """Deterministic Gaussian input columns shared by every trial and scenario."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed + 1, spawn_key=(geometry.n, batch))
    )
    return rng.standard_normal((batch, geometry.n))


def _family_plan(ctx, geometry: ConvGeometry, weight: np.ndarray, trials: int):
    """The Monte-Carlo plan of one family's representative layer."""
    if isinstance(geometry, GroupedConvGeometry):
        return ctx.grouped_conv_monte_carlo_plan(weight, geometry, trials=trials)
    if isinstance(geometry, AttentionProjectionGeometry):
        return ctx.attention_monte_carlo_plan(weight, geometry, trials=trials)
    return ctx.dense_monte_carlo_plan(weight, trials=trials, geometry=geometry)


def _family_point(
    family: str,
    scenario_name: str,
    array_size: int,
    trials: int,
    batch: int,
    seed: int,
) -> LayerFamilyPoint:
    """One (family, scenario) sweep cell."""
    geometry = representative_family_layer(family)
    network = FAMILY_NETWORKS[family]
    array = ArrayDims.square(array_size)
    weight = _family_weight(geometry, seed)
    inputs = _family_inputs(geometry, batch, seed)
    ctx = get_scenario(scenario_name).context(array, seed=seed)
    result = _family_plan(ctx, geometry, weight, trials).run(inputs)

    dense_tiles = tiles_for_matrix(geometry.m, geometry.n, array)
    if isinstance(geometry, GroupedConvGeometry):
        predicted_tiles = tiles_for_grouped_conv(geometry, array)
        groups = geometry.groups
    else:
        predicted_tiles = dense_tiles
        groups = 1
    allocated = result.allocated_tiles
    capacity = allocated * array.rows * array.logical_cols
    return LayerFamilyPoint(
        family=family,
        network=network,
        layer=geometry.name,
        scenario=scenario_name,
        trials=trials,
        m=geometry.m,
        n=geometry.n,
        groups=groups,
        mean_error=result.mean_relative_error,
        std_error=result.std_relative_error,
        worst_error=result.worst_relative_error,
        energy_pj_per_mvm=result.energy_pj / batch,
        allocated_tiles=allocated,
        dense_tiles=dense_tiles,
        predicted_tiles=predicted_tiles,
        tile_savings=dense_tiles / allocated if allocated else 1.0,
        cell_utilization=geometry.weight_count / capacity if capacity else 0.0,
    )


def _layer_families_cell_config(
    family: str,
    scenario_name: str,
    array_size: int,
    trials: int,
    batch: int,
    seed: int,
) -> Mapping[str, Any]:
    """The canonical store key of one (family, scenario) cell."""
    return {
        "family": family,
        "scenario": scenario_name,
        "array_size": array_size,
        "trials": trials,
        "batch": batch,
        "seed": seed,
    }


def _layer_families_grid(
    families: Sequence[str] = FAMILIES,
    scenarios: Optional[Sequence[str]] = None,
    trials: int = 8,
    array_size: int = 64,
    batch: int = 16,
    seed: int = 0,
) -> List[Tuple[str, str, int, int, int, int]]:
    """One cell per (family, scenario)."""
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    for family in families:
        representative_family_layer(family)  # fail fast on unknown families
    scenario_seq = swept_scenarios(scenarios)
    return [
        (family, scenario, array_size, trials, batch, seed)
        for family in families
        for scenario in scenario_seq
    ]


def _layer_families_result(
    cells: Sequence[LayerFamilyPoint],
    /,
    families: Sequence[str],
    scenarios: Optional[Sequence[str]],
    trials: int,
    array_size: int,
    batch: int,
    seed: int,
) -> LayerFamiliesResult:
    return LayerFamiliesResult(
        points=list(cells),
        families=tuple(families),
        scenarios=swept_scenarios(scenarios),
        networks={family: FAMILY_NETWORKS[family] for family in families},
        layers={
            family: representative_family_layer(family).name for family in families
        },
        array_size=array_size,
        trials=trials,
        batch=batch,
        seed=seed,
    )


def format_layer_families(
    result: LayerFamiliesResult, include_plots: bool = False
) -> str:
    """Render the family × scenario table of tile economics and error spread."""
    headers = [
        "family",
        "layer",
        "scenario",
        "m x n",
        "tiles",
        "dense",
        "savings",
        "util (%)",
        "rel. error",
        "worst",
        "energy/MVM",
    ]
    rows: List[List[object]] = []
    for family in result.families:
        for scenario in result.scenarios:
            point = result.point(family, scenario)
            rows.append(
                [
                    family,
                    f"{point.network}/{point.layer}",
                    scenario,
                    f"{point.m}x{point.n}",
                    point.allocated_tiles,
                    point.dense_tiles,
                    f"{point.tile_savings:.2f}x",
                    f"{100.0 * point.cell_utilization:.1f}",
                    f"{point.mean_error:.3f} ± {point.std_error:.3f}",
                    f"{point.worst_error:.3f}",
                    format_energy_pj(point.energy_pj_per_mvm),
                ]
            )
    title = (
        f"Layer families — mapping efficiency, {result.array_size}x{result.array_size} "
        f"array, {result.trials} Monte-Carlo trials"
    )
    return format_table(headers, rows, title=title)


LAYER_FAMILIES = register_experiment(
    ExperimentSpec(
        name="layer_families",
        title="Layer families — mapping efficiency of modern layers",
        kind="layer_families/cell",
        grid=_layer_families_grid,
        cell=_family_point,
        cell_key=_layer_families_cell_config,
        result_type=LayerFamilyPoint,
        assemble=_layer_families_result,
        formatter=format_layer_families,
    )
)
#: Sweep layer family × hardware scenario (see :meth:`ExperimentSpec.run`).
run_layer_families = LAYER_FAMILIES.run
