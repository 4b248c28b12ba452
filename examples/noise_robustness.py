"""Evaluate compressed and dense mappings across hardware robustness scenarios.

The paper's evaluation assumes ideal analog behaviour; this example sweeps the
repository's *named* hardware corners (:mod:`repro.scenarios`: ideal, typical
RRAM, worst-case RRAM, PCM-like, faulty) and measures — with batched
Monte-Carlo trials, all independently-noisy programmings executed in one
batched matmul — how the proposed deployment (two smaller factor matrices per
layer) behaves compared with the dense im2col mapping of the same layer.

Run with:  python examples/noise_robustness.py [--trials 8]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.analysis.tables import format_table
from repro.experiments.robustness import representative_layer
from repro.lowrank.group import group_decompose, group_relative_error
from repro.mapping.geometry import ArrayDims
from repro.scenarios import scenario_registry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=8,
                        help="independent noisy programmings per scenario")
    args = parser.parse_args()

    # The mid-network ResNet-20 layer the robustness experiment programs, with
    # a seeded Gaussian im2col weight matrix of its shape.
    geometry = representative_layer("resnet20")
    rank, groups = geometry.m // 8, 4
    rng = np.random.default_rng(0)
    weight = rng.normal(0.0, 1.0 / np.sqrt(geometry.n), size=(geometry.m, geometry.n))
    inputs = rng.standard_normal((64, geometry.n))

    approximation_error = group_relative_error(weight, group_decompose(weight, rank, groups))
    print(f"layer {geometry.name}: {geometry.m}x{geometry.n} im2col matrix, "
          f"group low-rank g={groups}, k={rank} "
          f"(intentional approximation error {approximation_error:.3f})")
    print()

    array = ArrayDims.square(64)
    rows = []
    for name, scenario in scenario_registry().items():
        ctx = scenario.context(array, seed=1)
        dense = ctx.dense_plan(weight, trials=args.trials).run(inputs)
        compressed = ctx.lowrank_plan(
            weight, rank=rank, trials=args.trials, groups=groups
        ).run(inputs)
        rows.append(
            [
                name,
                f"{dense.mean_relative_error:.3f} ± {dense.std_relative_error:.3f}",
                f"{compressed.mean_relative_error:.3f} ± {compressed.std_relative_error:.3f}",
                f"{compressed.mean_relative_error - dense.mean_relative_error:+.3f}",
            ]
        )

    print(format_table(
        ["hardware scenario", "dense im2col error", "group low-rank error", "gap"],
        rows,
        title=(
            f"relative output error on a {array} crossbar "
            f"({args.trials} Monte-Carlo trials, vs. exact software result)"
        ),
    ))
    print()
    print(
        "The compressed mapping's extra error stays close to its intentional\n"
        "approximation error across hardware corners: storing two smaller factor\n"
        "matrices does not amplify crossbar noise, so the cycle/energy savings of\n"
        "the proposed method carry over to non-ideal hardware.  Every trial of a\n"
        "scenario is bit-identical to a sequential per-trial simulation (see\n"
        "ENGINE.md, 'Scenario and Monte-Carlo layer')."
    )


if __name__ == "__main__":
    main()
