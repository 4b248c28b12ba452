"""Quickstart: the paper's method on one ResNet-20 layer, analytically.

This walks the paper's argument on a single mid-network ResNet-20
convolution, with no training involved:

1. Theorem 1: split the layer's im2col weight matrix into g column groups and
   decompose each group separately; at a fixed rank k the reconstruction error
   never grows with g,
2. Theorem 2: map the group low-rank factors onto IMC crossbars with the SDK
   parallel-window mapping and count computing cycles and energy against the
   uncompressed im2col baseline,
3. point at the full paper reproduction, including the process-parallel
   ``--workers`` mode that spreads the sweep grids across local cores.

Run with:  python examples/quickstart.py [--array 64] [--rank-divisor 8]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.analysis.tables import format_table
from repro.experiments.robustness import representative_layer
from repro.imc.energy import EnergyModel
from repro.lowrank.group import group_decompose, group_relative_error
from repro.mapping.cycles import im2col_cycles, lowrank_cycles, sdk_cycles
from repro.mapping.geometry import ArrayDims

GROUPS = (1, 2, 4, 8)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--array", type=int, choices=(32, 64, 128), default=64,
                        help="crossbar array size")
    parser.add_argument("--rank-divisor", type=int, default=8, help="per-group rank k = m / divisor")
    args = parser.parse_args()

    geometry = representative_layer("resnet20")
    rank = geometry.m // args.rank_divisor
    rng = np.random.default_rng(0)
    weight = rng.normal(0.0, 1.0 / np.sqrt(geometry.n), size=(geometry.m, geometry.n))
    print(f"layer {geometry.name}: {geometry.m}x{geometry.n} im2col matrix, "
          f"rank k = m/{args.rank_divisor} = {rank} (seeded Gaussian weights)")
    print()

    # ------------------------------------------------------------------
    # 1. Group low-rank reconstruction error against the group count
    # ------------------------------------------------------------------
    rows = [
        [groups, f"{group_relative_error(weight, group_decompose(weight, rank, groups)):.3f}"]
        for groups in GROUPS
    ]
    print(format_table(["groups g", "relative error"], rows,
                       title="group low-rank reconstruction error (Theorem 1)"))
    print()

    # ------------------------------------------------------------------
    # 2. Computing cycles and energy against the im2col baseline
    # ------------------------------------------------------------------
    array = ArrayDims.square(args.array)
    energy = EnergyModel()
    methods = [
        ("im2col (uncompressed)", im2col_cycles(geometry, array), energy.im2col_energy(geometry, array)),
        ("SDK (uncompressed)", sdk_cycles(geometry, array), energy.sdk_energy(geometry, array)),
    ] + [
        (
            f"ours (g={groups}) + SDK",
            lowrank_cycles(geometry, array, rank=rank, groups=groups, use_sdk=True),
            energy.lowrank_energy(geometry, array, rank=rank, groups=groups, use_sdk=True),
        )
        for groups in GROUPS
    ]
    baseline_cycles, baseline_energy = methods[0][1].cycles, methods[0][2].energy_pj
    rows = [
        [label, cycles.cycles, f"{baseline_cycles / cycles.cycles:.2f}x",
         f"{layer_energy.energy_pj / baseline_energy:.2f}"]
        for label, cycles, layer_energy in methods
    ]
    print(format_table(["mapping", "cycles", "speedup", "energy vs im2col"], rows,
                       title=f"computing cycles and energy on a {array} array"))

    # ------------------------------------------------------------------
    # 3. Scaling up: the full paper reproduction, across all local cores
    # ------------------------------------------------------------------
    print()
    print(
        "next step — reproduce every table and figure of the paper, spreading\n"
        "the sweep grids over 4 worker processes (store-shard work stealing;\n"
        "output is byte-identical to --workers 1, and the warm store makes\n"
        "reruns assembly-only):\n"
        "    python -m repro --store .repro-store report --workers 4\n"
        "or, equivalently, REPRO_WORKERS=4 python -m repro report\n"
        "\n"
        "to share the sweep machinery over HTTP instead (deduplicated jobs,\n"
        "reports byte-identical to the CLI's --json output):\n"
        "    python -m repro --store .repro-store serve --port 8321\n"
        "    curl -X POST localhost:8321/sweeps -d '{\"workers\": 4}'\n"
        "\n"
        "for large single-host sweeps, the numba-compiled backend (an optional\n"
        "extra: pip install 'repro[compiled]') runs the fused tile kernel\n"
        "JIT-compiled and parallel, within a documented ULP-scale tolerance\n"
        "envelope of the float64 reference:\n"
        "    python -m repro backends                    # list + availability\n"
        "    python -m repro --backend compiled report"
    )


if __name__ == "__main__":
    main()
