"""Fig. 9 — the proposed method vs. traditional low-rank compression.

"Traditional" low-rank means no SDK factor mapping and no grouping (g = 1,
im2col-mapped factors) — the Fig. 4b setup the paper's motivation criticizes.
The figure compares the accuracy / cycle trade-off curves; the paper's text
quotes the cycle counts of the best accuracy-preserving configuration of each
method (1.5× / 1.6× speed-ups on WRN16-4 / ResNet-20), which
:func:`iso_accuracy_speedup` reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.pareto import pareto_front
from ..analysis.plots import ascii_scatter
from ..analysis.tables import format_cycles, format_table
from ..engine.sweep import ExperimentSpec, register_experiment
from ..mapping.geometry import ArrayDims
from .common import (
    GROUP_COUNTS,
    RANK_DIVISORS,
    MethodPoint,
    baseline_cycles,
    get_workload,
    lowrank_network_cycles,
)

__all__ = ["Fig9Panel", "Fig9Result", "run_fig9", "format_fig9", "iso_accuracy_speedup"]

#: (network, array size) pairs shown in Fig. 9.
FIG9_PANELS = (("resnet20", 64), ("wrn16_4", 128))

#: Accuracy-drop budget used when quoting the iso-accuracy speed-up (the paper
#: picks configurations "with less than 1 or 2% drop").
ACCURACY_DROP_BUDGET = 2.0


@dataclass
class Fig9Panel:
    """One panel: the proposed method vs. the traditional low-rank baseline."""

    network: str
    array_size: int
    baseline: MethodPoint
    ours: List[MethodPoint] = field(default_factory=list)
    traditional: List[MethodPoint] = field(default_factory=list)

    def series(self) -> Dict[str, List[Tuple[float, float]]]:
        return {
            "ours": [(p.cycles, p.accuracy) for p in pareto_front(self.ours)],
            "traditional low-rank": [(p.cycles, p.accuracy) for p in pareto_front(self.traditional)],
            "baseline": [(self.baseline.cycles, self.baseline.accuracy)],
        }


@dataclass
class Fig9Result:
    panels: List[Fig9Panel] = field(default_factory=list)

    def panel(self, network: str, array_size: int) -> Fig9Panel:
        for candidate in self.panels:
            if candidate.network == network and candidate.array_size == array_size:
                return candidate
        raise KeyError(f"no Fig. 9 panel for ({network}, {array_size})")


def _fastest_within_budget(points: Sequence[MethodPoint], min_accuracy: float) -> Optional[MethodPoint]:
    admissible = [p for p in points if p.accuracy >= min_accuracy]
    if not admissible:
        return None
    return min(admissible, key=lambda p: p.cycles)


def iso_accuracy_speedup(panel: Fig9Panel, accuracy_drop: float = ACCURACY_DROP_BUDGET) -> Dict[str, object]:
    """Cycle counts (and their ratio) of the best accuracy-preserving configurations.

    Mirrors the paper's Fig. 9 discussion: both methods pick their fastest
    configuration whose accuracy stays within ``accuracy_drop`` of the
    uncompressed baseline, and the speed-up is the ratio of those cycles.
    """
    floor = panel.baseline.accuracy - accuracy_drop
    ours_best = _fastest_within_budget(panel.ours, floor)
    traditional_best = _fastest_within_budget(panel.traditional, floor)
    speedup = None
    if ours_best is not None and traditional_best is not None and ours_best.cycles > 0:
        speedup = traditional_best.cycles / ours_best.cycles
    return {"ours": ours_best, "traditional": traditional_best, "speedup": speedup}


def _fig9_panel(
    network: str,
    size: int,
    group_counts: Sequence[int],
    rank_divisors: Sequence[int],
) -> Fig9Panel:
    """One sweep point: the proposed vs. traditional low-rank comparison."""
    workload = get_workload(network)
    array = ArrayDims.square(size)
    ours = [
        MethodPoint(
            method="ours",
            accuracy=workload.proxy.lowrank_accuracy(divisor, groups),
            cycles=lowrank_network_cycles(workload, array, divisor, groups, use_sdk=True),
            detail=f"g={groups}, k=m/{divisor}",
        )
        for groups in group_counts
        for divisor in rank_divisors
    ]
    traditional = [
        MethodPoint(
            method="traditional low-rank",
            accuracy=workload.proxy.lowrank_accuracy(divisor, 1),
            cycles=lowrank_network_cycles(workload, array, divisor, 1, use_sdk=False),
            detail=f"g=1, k=m/{divisor}, im2col factors",
        )
        for divisor in rank_divisors
    ]
    return Fig9Panel(
        network=network,
        array_size=size,
        baseline=MethodPoint(
            method="baseline im2col",
            accuracy=workload.baseline_accuracy,
            cycles=baseline_cycles(workload, array),
        ),
        ours=ours,
        traditional=traditional,
    )


def _fig9_cell_config(
    network: str,
    size: int,
    group_counts: Sequence[int],
    rank_divisors: Sequence[int],
) -> Mapping[str, Any]:
    """The canonical store key of one Fig. 9 panel."""
    return {
        "network": network,
        "array_size": size,
        "group_counts": list(group_counts),
        "rank_divisors": list(rank_divisors),
    }


def _fig9_grid(
    panels: Sequence[Tuple[str, int]] = FIG9_PANELS,
    group_counts: Sequence[int] = GROUP_COUNTS,
    rank_divisors: Sequence[int] = RANK_DIVISORS,
) -> List[Tuple[str, int, Tuple[int, ...], Tuple[int, ...]]]:
    """One Fig. 9 panel per (network, array size) pair."""
    return [
        (network, size, tuple(group_counts), tuple(rank_divisors))
        for network, size in panels
    ]


def format_fig9(result: Fig9Result, include_plots: bool = True) -> str:
    blocks: List[str] = []
    for panel in result.panels:
        headers = ["method", "config", "accuracy (%)", "cycles"]
        rows: List[List[object]] = [
            ["baseline", "im2col, uncompressed", f"{panel.baseline.accuracy:.1f}", format_cycles(panel.baseline.cycles)]
        ]
        for point in pareto_front(panel.ours):
            rows.append(["ours", point.detail, f"{point.accuracy:.1f}", format_cycles(point.cycles)])
        for point in pareto_front(panel.traditional):
            rows.append(["traditional", point.detail, f"{point.accuracy:.1f}", format_cycles(point.cycles)])
        summary = iso_accuracy_speedup(panel)
        speedup_text = (
            f"{summary['speedup']:.1f}x" if summary["speedup"] is not None else "n/a"
        )
        blocks.append(
            format_table(
                headers,
                rows,
                title=(
                    f"Fig. 9 — {panel.network}, array {panel.array_size}x{panel.array_size} "
                    f"(iso-accuracy speedup over traditional low-rank: {speedup_text})"
                ),
            )
        )
        if include_plots:
            blocks.append(
                ascii_scatter(
                    panel.series(),
                    x_label="computing cycles",
                    y_label="accuracy (%)",
                    title=f"{panel.network} @ {panel.array_size}x{panel.array_size}",
                )
            )
    return "\n\n".join(blocks)


FIG9 = register_experiment(
    ExperimentSpec(
        name="fig9",
        title="Fig. 9 — the proposed method vs. traditional low-rank compression",
        kind="fig9/panel",
        grid=_fig9_grid,
        cell=_fig9_panel,
        cell_key=_fig9_cell_config,
        result_type=Fig9Panel,
        assemble=lambda panels, /, **_: Fig9Result(panels=panels),
        formatter=format_fig9,
    )
)
#: Compute the Fig. 9 comparison (see :meth:`ExperimentSpec.run`).
run_fig9 = FIG9.run
