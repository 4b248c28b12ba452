"""Ablation bench: robustness of the compressed mapping to crossbar noise.

The proposed deployment stores two smaller factor matrices instead of one
large dense matrix.  This bench runs a representative layer through the
crossbar execution engine under increasing conductance variation and compares
the output error of the dense im2col mapping against the group low-rank
two-stage mapping, verifying that compression does not catastrophically amplify
hardware noise (the error stays within a small factor of the dense mapping's
error plus the intentional approximation error).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.context import ExecutionContext
from repro.imc.noise import NoiseModel
from repro.imc.peripherals import CellSpec, PeripheralSuite
from repro.lowrank.group import group_decompose, group_relative_error
from repro.mapping.geometry import ArrayDims

from .conftest import run_once

SIGMAS = (0.0, 0.05, 0.1, 0.2)
ARRAY = ArrayDims.square(64)
PRECISION = PeripheralSuite(cell=CellSpec(conductance_levels=1024))


@pytest.mark.benchmark(group="ablation-noise")
def test_bench_noise_robustness(benchmark):
    rng = np.random.default_rng(0)
    weight = rng.standard_normal((32, 144))  # a 16-channel 3x3 layer's im2col matrix
    inputs = rng.standard_normal((16, 144))
    rank, groups = 8, 4

    def sweep():
        rows = []
        for sigma in SIGMAS:
            noise = NoiseModel(conductance_sigma=sigma, seed=1)
            ctx = ExecutionContext(array=ARRAY, peripherals=PRECISION, noise=noise)
            dense = ctx.dense_plan(weight).run(inputs)
            lowrank = ctx.lowrank_plan(weight, rank=rank, groups=groups).run(inputs)
            rows.append(
                {
                    "sigma": sigma,
                    "dense_error": dense.relative_error,
                    "lowrank_error": lowrank.relative_error,
                }
            )
        return rows

    rows = run_once(benchmark, sweep)

    approximation_error = group_relative_error(weight, group_decompose(weight, rank, groups))

    dense_errors = [row["dense_error"] for row in rows]
    lowrank_errors = [row["lowrank_error"] for row in rows]

    # Noise degrades both mappings monotonically (within simulator tolerance).
    assert dense_errors[-1] > dense_errors[0]
    assert lowrank_errors[-1] > lowrank_errors[0]
    # At zero noise the low-rank error is dominated by the intentional approximation.
    assert lowrank_errors[0] == pytest.approx(approximation_error, abs=0.05)
    # Compression does not amplify hardware noise catastrophically: the gap between
    # the compressed and dense error stays within the approximation error plus margin.
    for row in rows:
        assert row["lowrank_error"] <= row["dense_error"] + approximation_error + 0.1

    print()
    for row in rows:
        print(
            f"sigma={row['sigma']:.2f}: dense error={row['dense_error']:.3f}, "
            f"group low-rank error={row['lowrank_error']:.3f}"
        )
