"""Table I — accuracy and computing cycles of the proposed low-rank compression.

The table sweeps group counts (1, 2, 4, 8) and per-layer ranks (m/2, m/4, m/8,
m/16) for ResNet-20 and WRN16-4, reporting accuracy and computing cycles on
32×32 and 64×64 arrays, with and without the proposed SDK factor mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.tables import format_cycles, format_table
from ..engine.sweep import ExperimentSpec, register_experiment
from ..mapping.geometry import ArrayDims
from .common import GROUP_COUNTS, RANK_DIVISORS, get_workload, lowrank_network_cycles

__all__ = ["Table1Row", "Table1Result", "run_table1", "format_table1"]

#: Array sizes listed in Table I.
TABLE1_ARRAY_SIZES = (32, 64)


@dataclass(frozen=True)
class Table1Row:
    """One (network, groups, rank divisor) configuration of Table I."""

    network: str
    groups: int
    rank_divisor: int
    accuracy: float
    cycles_with_sdk: Dict[int, int]
    cycles_without_sdk: Dict[int, int]

    @property
    def rank_label(self) -> str:
        return f"m/{self.rank_divisor}"


@dataclass
class Table1Result:
    """All rows of the reproduced Table I."""

    rows: List[Table1Row] = field(default_factory=list)

    def for_network(self, network: str) -> List[Table1Row]:
        return [row for row in self.rows if row.network == network]

    def row(self, network: str, groups: int, rank_divisor: int) -> Table1Row:
        for candidate in self.rows:
            if (
                candidate.network == network
                and candidate.groups == groups
                and candidate.rank_divisor == rank_divisor
            ):
                return candidate
        raise KeyError(f"no Table I row for ({network}, g={groups}, m/{rank_divisor})")

    def best_accuracy(self, network: str) -> Table1Row:
        return max(self.for_network(network), key=lambda row: row.accuracy)


def _table1_row(network: str, groups: int, divisor: int, array_sizes: Sequence[int]) -> Table1Row:
    """One sweep point: a (network, groups, rank divisor) row of Table I."""
    workload = get_workload(network)
    arrays = {size: ArrayDims.square(size) for size in array_sizes}
    return Table1Row(
        network=network,
        groups=groups,
        rank_divisor=divisor,
        accuracy=workload.proxy.lowrank_accuracy(divisor, groups),
        cycles_with_sdk={
            size: lowrank_network_cycles(workload, arrays[size], divisor, groups, use_sdk=True)
            for size in array_sizes
        },
        cycles_without_sdk={
            size: lowrank_network_cycles(workload, arrays[size], divisor, groups, use_sdk=False)
            for size in array_sizes
        },
    )


def _table1_cell_config(
    network: str, groups: int, divisor: int, array_sizes: Sequence[int]
) -> Mapping[str, Any]:
    """The canonical store key of one Table I grid cell."""
    return {
        "network": network,
        "groups": groups,
        "rank_divisor": divisor,
        "array_sizes": list(array_sizes),
    }


def _table1_grid(
    networks: Sequence[str] = ("resnet20", "wrn16_4"),
    array_sizes: Sequence[int] = TABLE1_ARRAY_SIZES,
    group_counts: Sequence[int] = GROUP_COUNTS,
    rank_divisors: Sequence[int] = RANK_DIVISORS,
) -> List[Tuple[str, int, int, Tuple[int, ...]]]:
    """Table I sweeps groups × rank divisors for both networks."""
    return [
        (network, groups, divisor, tuple(array_sizes))
        for network in networks
        for groups in group_counts
        for divisor in rank_divisors
    ]


def format_table1(result: Table1Result, array_sizes: Optional[Sequence[int]] = None) -> str:
    """Render the reproduced Table I as text, one block per network.

    ``array_sizes`` defaults to the sizes actually present in the result, so
    restricted sweeps format without re-stating their configuration.
    """
    if array_sizes is None:
        array_sizes = sorted(result.rows[0].cycles_with_sdk) if result.rows else TABLE1_ARRAY_SIZES
    blocks: List[str] = []
    networks = sorted({row.network for row in result.rows})
    for network in networks:
        headers = ["group", "rank", "acc (%)"]
        for size in array_sizes:
            headers += [f"cycles {size} (w/o SDK)", f"cycles {size} (w/ SDK)"]
        rows = []
        for row in sorted(result.for_network(network), key=lambda r: (r.groups, r.rank_divisor)):
            cells: List[object] = [row.groups, row.rank_label, f"{row.accuracy:.1f}"]
            for size in array_sizes:
                cells.append(format_cycles(row.cycles_without_sdk[size]))
                cells.append(format_cycles(row.cycles_with_sdk[size]))
            rows.append(cells)
        blocks.append(format_table(headers, rows, title=f"Table I — {network}"))
    return "\n\n".join(blocks)


TABLE1 = register_experiment(
    ExperimentSpec(
        name="table1",
        title="Table I — accuracy and computing cycles of the proposed compression",
        kind="table1/row",
        grid=_table1_grid,
        cell=_table1_row,
        cell_key=_table1_cell_config,
        result_type=Table1Row,
        assemble=lambda rows, /, **_: Table1Result(rows=rows),
        formatter=lambda result, include_plots=False: format_table1(result),
    )
)
#: Reproduce Table I (see :meth:`ExperimentSpec.run` for store/shard/workers).
run_table1 = TABLE1.run
