"""Compress ResNet-20 with group low-rank decomposition and map it onto IMC arrays.

This is the paper-scale workflow (Table I / Fig. 6 for one network):

1. instantiate ResNet-20 (CIFAR-10 geometry, expansion 1),
2. compress every eligible convolution with ``D_g(·)`` for a chosen
   (group count, rank divisor) configuration,
3. report per-layer reconstruction errors, the parameter compression ratio and
   the calibrated accuracy estimate,
4. count computing cycles on 32/64/128 crossbars with and without the SDK
   factor mapping and compare against the im2col baseline and pattern pruning.

Run with:  python examples/compress_resnet20.py [--groups 4] [--rank-divisor 8]
"""

from __future__ import annotations

import argparse

from repro.analysis.tables import format_cycles, format_kv, format_table
from repro.experiments.common import (
    NetworkWorkload,
    baseline_cycles,
    lowrank_network_cycles,
    pattern_network_cycles,
)
from repro.lowrank.compress import CompressionSpec, compress_model
from repro.mapping.geometry import ArrayDims
from repro.nn.models import resnet20


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--groups", type=int, default=4, help="group count g (paper: 1, 2, 4 or 8)")
    parser.add_argument("--rank-divisor", type=int, default=8, help="per-layer rank = m / divisor")
    parser.add_argument("--pruning-entries", type=int, default=6, help="pattern-pruning baseline entries")
    args = parser.parse_args()

    # ------------------------------------------------------------------
    # 1-2. Model + compression
    # ------------------------------------------------------------------
    model = resnet20(num_classes=10)
    dense_parameters = model.num_parameters()
    spec = CompressionSpec(rank_divisor=args.rank_divisor, groups=args.groups)
    report = compress_model(model, spec)

    print(f"ResNet-20 compressed with {spec.label}")
    print(f"  dense parameters      : {dense_parameters}")
    print(f"  compressed parameters : {model.num_parameters()}")
    print(f"  conv compression ratio: {report.compression_ratio:.2f}x")
    print(f"  mean relative error   : {report.mean_relative_error:.4f}")
    print()

    rows = [
        [r.name, r.rank, r.groups, f"{r.relative_error:.4f}", f"{r.compression_ratio:.2f}x"]
        for r in report.records
    ]
    print(format_table(["layer", "rank", "groups", "rel. error", "ratio"], rows,
                       title="per-layer decomposition"))
    print()

    # ------------------------------------------------------------------
    # 3. Accuracy estimate (calibrated proxy, see DESIGN.md §2 and §6)
    # ------------------------------------------------------------------
    workload = NetworkWorkload("resnet20")
    accuracy = workload.proxy.lowrank_accuracy(args.rank_divisor, args.groups)
    pruning_accuracy = workload.proxy.pattern_pruning_accuracy(args.pruning_entries)
    print(format_kv(
        {
            "baseline accuracy (4-bit QAT)": f"{workload.baseline_accuracy:.1f}%",
            f"ours ({spec.label})": f"{accuracy:.1f}%",
            f"pattern pruning (e={args.pruning_entries})": f"{pruning_accuracy:.1f}%",
        },
        title="accuracy estimates",
    ))
    print()

    # ------------------------------------------------------------------
    # 4. Computing cycles across array sizes
    # ------------------------------------------------------------------
    cycle_rows = []
    for size in (32, 64, 128):
        array = ArrayDims.square(size)
        baseline = baseline_cycles(workload, array)
        with_sdk = lowrank_network_cycles(workload, array, args.rank_divisor, args.groups, use_sdk=True)
        without_sdk = lowrank_network_cycles(workload, array, args.rank_divisor, args.groups, use_sdk=False)
        pruning = pattern_network_cycles(workload, array, args.pruning_entries)
        cycle_rows.append(
            [
                f"{size}x{size}",
                format_cycles(baseline),
                format_cycles(without_sdk),
                format_cycles(with_sdk),
                format_cycles(pruning),
                f"{baseline / with_sdk:.2f}x",
            ]
        )
    print(format_table(
        ["array", "im2col", "ours w/o SDK", "ours w/ SDK", f"pattern e={args.pruning_entries}", "speedup vs im2col"],
        cycle_rows,
        title="network computing cycles",
    ))


if __name__ == "__main__":
    main()
