"""Kernel-timing emitter: measure engine vs. legacy kernels, write BENCH_kernels.json.

Run from the repository root (CI does this on every push)::

    python benchmarks/kernel_timings.py --output BENCH_kernels.json

Each entry times one computational kernel of the execution engine against its
per-element reference, so perf regressions in the vectorized paths show up as
a shrinking ``speedup`` field between runs.  Timings are best-of-``repeats``
wall-clock seconds; results also list the engine/reference agreement so a
"fast but wrong" regression cannot slip through.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro.backend import backend_availability, get_backend  # noqa: E402
from repro.engine.cache import DecompositionCache  # noqa: E402
from repro.engine.kernels import (  # noqa: E402
    TRIAL_SEED_STRIDE,
    BatchedTiledMatrix,
    MonteCarloTiledMatrix,
    im2col_columns,
    im2col_columns_loop,
)
from repro.imc.noise import NoiseModel  # noqa: E402
from repro.imc.tiles import TiledMatrix  # noqa: E402
from repro.lowrank.group import group_decompose  # noqa: E402
from repro.mapping.cycles import _candidate_window_stats, select_lowrank_window  # noqa: E402
from repro.mapping.geometry import ArrayDims, ConvGeometry  # noqa: E402


def best_of(func: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def bench_im2col(repeats: int) -> Dict[str, object]:
    geometry = ConvGeometry(16, 32, 3, 3, 32, 32, stride=1, padding=1)
    inputs = np.random.default_rng(0).standard_normal((8, 16, 32, 32))
    engine = best_of(lambda: im2col_columns(inputs, geometry), repeats)
    reference = best_of(lambda: im2col_columns_loop(inputs, geometry), repeats)
    matches = bool(
        np.array_equal(im2col_columns(inputs, geometry), im2col_columns_loop(inputs, geometry))
    )
    return {
        "kernel": "im2col_columns",
        "workload": "8x16x32x32 NCHW, 3x3 s1 p1",
        "engine_seconds": engine,
        "reference_seconds": reference,
        "speedup": reference / engine if engine > 0 else None,
        "matches_reference": matches,
    }


def bench_tiled_mvm(repeats: int) -> Dict[str, object]:
    rng = np.random.default_rng(1)
    matrix = rng.standard_normal((128, 288))
    inputs = rng.standard_normal((1024, 288))
    array = ArrayDims.square(64)
    noise = NoiseModel.typical()
    batched = BatchedTiledMatrix(matrix, array, noise=noise, seed=3)
    legacy = TiledMatrix(matrix, array, noise=noise, seed=3)
    engine = best_of(lambda: batched.mvm_batch(inputs), repeats)
    reference = best_of(lambda: legacy.mvm_batch(inputs), repeats)
    max_diff = float(np.abs(batched.mvm_batch(inputs) - legacy.mvm_batch(inputs)).max())
    return {
        "kernel": "tiled_mvm_batch",
        "workload": "128x288 matrix on 64x64 tiles, 1024-vector batch, typical noise",
        "engine_seconds": engine,
        "reference_seconds": reference,
        "speedup": reference / engine if engine > 0 else None,
        "max_abs_difference": max_diff,
    }


def bench_monte_carlo(repeats: int) -> Dict[str, object]:
    """Batched Monte-Carlo robustness trials vs. the sequential per-trial loop.

    The reference is the status-quo way of measuring robustness before the
    scenario subsystem existed: a Python loop that, per trial, re-programs
    the layer through the per-tile oracle simulator path
    (:class:`repro.imc.tiles.TiledMatrix`) and executes the input batch.  A
    second comparison against a per-trial loop over the *batched* single-trial
    kernel is reported as ``sequential_batched_seconds`` — the per-trial noise
    sampling streams are serial by the bit-identity contract, so that loop
    bounds the achievable speedup from batching alone.
    """
    rng = np.random.default_rng(5)
    matrix = rng.standard_normal((128, 288))
    inputs = rng.standard_normal((256, 288))
    array = ArrayDims.square(64)
    noise = NoiseModel.typical()
    trials, seed = 16, 11

    def run_batched_mc() -> np.ndarray:
        mc = MonteCarloTiledMatrix(matrix, array, trials=trials, noise=noise, seed=seed)
        return mc.mvm_batch(inputs)

    def run_sequential(backend) -> np.ndarray:
        outputs = []
        for trial in range(trials):
            tiled = backend(matrix, array, noise=noise, seed=seed + trial * TRIAL_SEED_STRIDE)
            outputs.append(tiled.mvm_batch(inputs))
        return np.stack(outputs)

    engine = best_of(run_batched_mc, repeats)
    reference = best_of(lambda: run_sequential(TiledMatrix), repeats)
    sequential_batched = best_of(lambda: run_sequential(BatchedTiledMatrix), repeats)
    mc = MonteCarloTiledMatrix(matrix, array, trials=trials, noise=noise, seed=seed)
    bit_identical = all(
        np.array_equal(
            mc.stored_matrix(trial),
            TiledMatrix(
                matrix, array, noise=noise, seed=seed + trial * TRIAL_SEED_STRIDE
            ).stored_matrix(),
        )
        for trial in range(trials)
    )
    max_diff = float(np.abs(run_batched_mc() - run_sequential(BatchedTiledMatrix)).max())
    return {
        "kernel": "monte_carlo_trials",
        "workload": "128x288 matrix on 64x64 tiles, 16 trials, 256-vector batch, typical noise",
        "engine_seconds": engine,
        "reference_seconds": reference,
        "speedup": reference / engine if engine > 0 else None,
        "sequential_batched_seconds": sequential_batched,
        "speedup_vs_sequential_batched": sequential_batched / engine if engine > 0 else None,
        "trials_bit_identical_to_oracle": bit_identical,
        "max_abs_difference": max_diff,
    }


def bench_decomposition_cache(repeats: int) -> Dict[str, object]:
    rng = np.random.default_rng(2)
    matrix = rng.standard_normal((256, 576))
    ranks = (8, 16, 32, 64)

    def cached() -> None:
        cache = DecompositionCache()
        for rank in ranks:
            cache.group_decompose(matrix, rank, 4)

    def direct() -> None:
        for rank in ranks:
            group_decompose(matrix, rank, 4)

    engine = best_of(cached, repeats)
    reference = best_of(direct, repeats)
    return {
        "kernel": "group_decompose_rank_sweep",
        "workload": "256x576 matrix, groups=4, ranks 8/16/32/64",
        "engine_seconds": engine,
        "reference_seconds": reference,
        "speedup": reference / engine if engine > 0 else None,
    }


def bench_store(repeats: int) -> Dict[str, object]:
    """Warm-store report assembly vs. the cold sweep it replaces.

    Cold runs execute the restricted experiment suite into a fresh store;
    the warm runs re-assemble the same suite purely from the materialized
    artifacts.  ``byte_identical`` asserts the store's headline contract —
    the warm document must match the cold one exactly — so a "fast but
    wrong" cache regression cannot slip through, and ``speedup`` tracks the
    acceptance floor (≥5x) per commit.  Process-level memoization (workloads,
    proxy calibration) is warm for both sides, so the ratio isolates the
    store's contribution.
    """
    import shutil
    import tempfile

    from repro.experiments.runner import run_all, suite_to_json
    from repro.store import ExperimentStore

    suite_kwargs = dict(include_fig6_arrays=(32,), robustness_trials=2)
    workdir = Path(tempfile.mkdtemp(prefix="bench-store-"))
    try:
        def cold_run() -> None:
            root = workdir / f"cold-{time.perf_counter_ns()}"
            run_all(store=ExperimentStore(root), **suite_kwargs)
            shutil.rmtree(root, ignore_errors=True)

        run_all(**suite_kwargs)  # warm the process-level caches for both sides
        cold = best_of(cold_run, repeats)

        warm_store = ExperimentStore(workdir / "warm")
        cold_document = suite_to_json(run_all(store=warm_store, **suite_kwargs))
        warm = best_of(lambda: run_all(store=warm_store, **suite_kwargs), repeats)
        warm_document = suite_to_json(run_all(store=warm_store, **suite_kwargs))
        byte_identical = json.dumps(warm_document) == json.dumps(cold_document)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "kernel": "experiment_store_warm_report",
        "workload": "restricted suite (fig6 arrays=32, robustness trials=2), cold sweep vs warm assembly",
        "engine_seconds": warm,
        "reference_seconds": cold,
        "speedup": cold / warm if warm > 0 else None,
        "byte_identical": byte_identical,
    }


def bench_backends(repeats: int) -> List[Dict[str, object]]:
    """The pluggable execution backends on their headline workloads.

    * ``threaded_backend_large_sweep`` — the chunked tile executor on a
      large-sweep-shaped workload (a 512×1152 layer on 64×64 tiles: 144
      stacked tiles, 1024-vector batches) against the ``numpy64`` reference.
      The acceptance floor is ≥1.5x, and ``bit_identical`` must hold — the
      threaded backend's contract is speed without a single ulp of drift.
    * ``numpy32_backend_monte_carlo`` — the float32 precision policy on the
      Monte-Carlo robustness workload (16 stacked trials), reporting the
      speedup over float64 execution and the realized output deviation so the
      documented tolerance envelope stays honest.
    """
    rng = np.random.default_rng(7)
    noise = NoiseModel.typical()

    # Large-sweep workload: many tiles, deep batch — the shape the Fig. 6 /
    # robustness sweeps push through the engine per layer.
    matrix = rng.standard_normal((512, 1152))
    inputs = rng.standard_normal((1024, 1152))
    array = ArrayDims.square(64)
    reference = BatchedTiledMatrix(matrix, array, noise=noise, seed=13, backend="numpy64")
    threaded = BatchedTiledMatrix(matrix, array, noise=noise, seed=13, backend="threaded")
    t_reference = best_of(lambda: reference.mvm_batch(inputs), repeats)
    t_threaded = best_of(lambda: threaded.mvm_batch(inputs), repeats)
    bit_identical = bool(
        np.array_equal(threaded.mvm_batch(inputs), reference.mvm_batch(inputs))
    )
    large_sweep = {
        "kernel": "threaded_backend_large_sweep",
        "workload": (
            f"512x1152 matrix on 64x64 tiles ({reference.num_allocated_tiles} stacked), "
            f"1024-vector batch, typical noise, {get_backend('threaded').max_workers} workers"
        ),
        "engine_seconds": t_threaded,
        "reference_seconds": t_reference,
        "speedup": t_reference / t_threaded if t_threaded > 0 else None,
        "bit_identical_to_numpy64": bit_identical,
    }

    # Monte-Carlo workload: the robustness sweep's stacked-trial kernel.
    mc_matrix = rng.standard_normal((128, 288))
    mc_inputs = rng.standard_normal((256, 288))
    mc_kwargs = dict(trials=16, noise=noise, seed=17)
    mc64 = MonteCarloTiledMatrix(mc_matrix, array, backend="numpy64", **mc_kwargs)
    mc32 = MonteCarloTiledMatrix(mc_matrix, array, backend="numpy32", **mc_kwargs)
    t_mc64 = best_of(lambda: mc64.mvm_batch(mc_inputs), repeats)
    t_mc32 = best_of(lambda: mc32.mvm_batch(mc_inputs), repeats)
    out64 = mc64.mvm_batch(mc_inputs)
    out32 = np.float64(mc32.mvm_batch(mc_inputs))
    max_rel = float(np.abs(out32 - out64).max() / np.abs(out64).max())
    monte_carlo = {
        "kernel": "numpy32_backend_monte_carlo",
        "workload": "128x288 matrix on 64x64 tiles, 16 trials, 256-vector batch, typical noise",
        "engine_seconds": t_mc32,
        "reference_seconds": t_mc64,
        "speedup": t_mc64 / t_mc32 if t_mc32 > 0 else None,
        "max_relative_deviation_vs_float64": max_rel,
        "within_policy_envelope": bool(max_rel <= get_backend("numpy32").policy.output_rtol),
    }
    return [large_sweep, monte_carlo]


def bench_compiled(repeats: int) -> List[Dict[str, object]]:
    """The numba-compiled backend on the same headline workloads as ``backends``.

    * ``compiled_backend_large_sweep`` — the JIT fused tile executor on the
      large-sweep workload, against ``numpy64``.  The acceptance floor is
      ≥2x after warmup (the comparator gates the committed baseline's
      speedup ratio at the usual 1.25x tolerance).
    * ``compiled_backend_monte_carlo`` — the stacked-(R·T) Monte-Carlo trial
      kernel, reporting the realized deviation against float64 so the
      documented ULP-scale tolerance envelope stays honest.

    JIT compilation is excluded by an explicit ``warmup()`` before timing —
    cold-compile cost is a property of the numba cache (persisted by CI),
    not of the kernel.  On hosts without numba both entries are emitted as
    explicit ``skipped`` records (the comparator reports them un-gated)
    rather than silently dropping out of the document.
    """
    reason = backend_availability().get("compiled")
    large_workload = "512x1152 matrix on 64x64 tiles, 1024-vector batch, typical noise"
    mc_workload = "128x288 matrix on 64x64 tiles, 16 trials, 256-vector batch, typical noise"
    if reason is not None:
        return [
            {"kernel": "compiled_backend_large_sweep", "workload": large_workload, "skipped": reason},
            {"kernel": "compiled_backend_monte_carlo", "workload": mc_workload, "skipped": reason},
        ]
    compiled = get_backend("compiled")
    compiled.warmup()
    policy = compiled.policy
    rng = np.random.default_rng(7)  # the backends-bench stream: same workloads
    noise = NoiseModel.typical()

    matrix = rng.standard_normal((512, 1152))
    inputs = rng.standard_normal((1024, 1152))
    array = ArrayDims.square(64)
    reference = BatchedTiledMatrix(matrix, array, noise=noise, seed=13, backend="numpy64")
    jitted = BatchedTiledMatrix(matrix, array, noise=noise, seed=13, backend="compiled")
    jitted.mvm_batch(inputs[:2])  # warm the engine-shaped specialization too
    t_reference = best_of(lambda: reference.mvm_batch(inputs), repeats)
    t_compiled = best_of(lambda: jitted.mvm_batch(inputs), repeats)
    out_ref = reference.mvm_batch(inputs)
    out_jit = jitted.mvm_batch(inputs)
    large_rel = float(np.abs(out_jit - out_ref).max() / np.abs(out_ref).max())
    large_sweep = {
        "kernel": "compiled_backend_large_sweep",
        "workload": f"{large_workload} ({reference.num_allocated_tiles} stacked tiles)",
        "engine_seconds": t_compiled,
        "reference_seconds": t_reference,
        "speedup": t_reference / t_compiled if t_compiled > 0 else None,
        "max_relative_deviation_vs_float64": large_rel,
        "within_policy_envelope": bool(large_rel <= policy.output_rtol),
    }

    mc_matrix = rng.standard_normal((128, 288))
    mc_inputs = rng.standard_normal((256, 288))
    mc_kwargs = dict(trials=16, noise=noise, seed=17)
    mc64 = MonteCarloTiledMatrix(mc_matrix, array, backend="numpy64", **mc_kwargs)
    mc_jit = MonteCarloTiledMatrix(mc_matrix, array, backend="compiled", **mc_kwargs)
    mc_jit.mvm_batch(mc_inputs[:2])
    t_mc64 = best_of(lambda: mc64.mvm_batch(mc_inputs), repeats)
    t_mc_jit = best_of(lambda: mc_jit.mvm_batch(mc_inputs), repeats)
    out64 = mc64.mvm_batch(mc_inputs)
    out_jit = mc_jit.mvm_batch(mc_inputs)
    mc_rel = float(np.abs(out_jit - out64).max() / np.abs(out64).max())
    monte_carlo = {
        "kernel": "compiled_backend_monte_carlo",
        "workload": mc_workload,
        "engine_seconds": t_mc_jit,
        "reference_seconds": t_mc64,
        "speedup": t_mc64 / t_mc_jit if t_mc_jit > 0 else None,
        "max_relative_deviation_vs_float64": mc_rel,
        "within_policy_envelope": bool(mc_rel <= policy.output_rtol),
    }
    return [large_sweep, monte_carlo]


#: Monte-Carlo trial count of the parallel large-sweep benchmark grid.  Sized
#: so the serial run is long enough (~15-25 s) that 4 worker processes can
#: amortize their fixed costs (interpreter start, registry import, per-worker
#: proxy calibration) and demonstrate near-linear scaling on >= 4 cores.
PARALLEL_BENCH_TRIALS = 128

#: Worker-process count of the parallel benchmark's measured side.
PARALLEL_BENCH_WORKERS = 4


def bench_parallel(repeats: int) -> Dict[str, object]:
    """Process-parallel sweep (``--workers 4``) vs. the serial runner.

    Both sides run the *same* end-to-end CLI invocation — a cold
    ``repro report --json`` over the full experiment grid with an enlarged
    robustness Monte-Carlo sweep (the "large-sweep grid") into a fresh store —
    differing only in ``--workers``.  ``byte_identical`` asserts the
    parallel executor's headline contract: the 4-worker report must match the
    1-worker report byte for byte.  ``speedup`` is the wall-clock ratio; it is
    hardware-dependent by nature (the workload description records the host's
    CPU count — a single-core container cannot scale, a >=4-core CI runner
    shows near-linear scaling), which is why the regression gate compares
    speedup ratios against a baseline from the same class of host.

    The measurement is end-to-end (interpreter start and store writes
    included) and multi-second, so a single round is taken regardless of
    ``repeats`` — workload length, not repetition, amortizes the noise.
    """
    import os
    import shutil
    import subprocess
    import tempfile

    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("REPRO_WORKERS", None)
    workdir = Path(tempfile.mkdtemp(prefix="bench-parallel-"))

    def timed_report(workers: int) -> float:
        store = workdir / f"store-w{workers}"
        target = workdir / f"report-w{workers}.json"
        start = time.perf_counter()
        subprocess.run(
            [
                sys.executable, "-m", "repro", "--store", str(store),
                "report", "--trials", str(PARALLEL_BENCH_TRIALS),
                "--json", str(target), "--workers", str(workers),
            ],
            check=True, env=env, cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL,
        )
        return time.perf_counter() - start

    try:
        serial = timed_report(1)
        parallel = timed_report(PARALLEL_BENCH_WORKERS)
        byte_identical = (
            (workdir / "report-w1.json").read_bytes()
            == (workdir / f"report-w{PARALLEL_BENCH_WORKERS}.json").read_bytes()
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "kernel": "parallel_sweep_workers",
        "workload": (
            f"full suite, robustness trials={PARALLEL_BENCH_TRIALS}, cold store, "
            f"end-to-end CLI: {PARALLEL_BENCH_WORKERS} workers vs 1 "
            f"(host cpu_count={os.cpu_count()})"
        ),
        "engine_seconds": parallel,
        "reference_seconds": serial,
        "speedup": serial / parallel if parallel > 0 else None,
        "workers": PARALLEL_BENCH_WORKERS,
        "cpu_count": os.cpu_count(),
        "byte_identical": byte_identical,
    }


def bench_window_search(repeats: int) -> Dict[str, object]:
    geometry = ConvGeometry(64, 64, 3, 3, 16, 16, stride=1, padding=1, name="bench-conv")
    array = ArrayDims.square(64)

    def search() -> None:
        select_lowrank_window.cache_clear()
        _candidate_window_stats.cache_clear()
        for groups in (1, 2, 4, 8):
            for divisor in (2, 4, 8, 16):
                select_lowrank_window(geometry, array, max(1, 64 // divisor), groups)

    return {
        "kernel": "select_lowrank_window",
        "workload": "64x64 3x3 conv, 16 (groups, rank) configs, cold cache",
        "engine_seconds": best_of(search, repeats),
        "reference_seconds": None,
        "speedup": None,
    }


#: Every benchmark, in emission order.  ``main`` runs them one by one and
#: aborts — without writing a partial document — naming the one that failed.
BENCHMARKS = (
    ("im2col", bench_im2col),
    ("tiled_mvm", bench_tiled_mvm),
    ("monte_carlo", bench_monte_carlo),
    ("decomposition_cache", bench_decomposition_cache),
    ("window_search", bench_window_search),
    ("store", bench_store),
    ("backends", bench_backends),
    ("compiled", bench_compiled),
    ("parallel", bench_parallel),
)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_kernels.json")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    results: List[Dict[str, object]] = []
    for name, bench in BENCHMARKS:
        try:
            outcome = bench(args.repeats)
        except Exception:
            import traceback

            traceback.print_exc()
            print(
                f"benchmark {name!r} failed; refusing to write a partial {args.output}",
                file=sys.stderr,
            )
            return 1
        results.extend(outcome if isinstance(outcome, list) else [outcome])
    document = {
        "schema": "BENCH_kernels/v1",
        "repeats": args.repeats,
        "results": results,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    for entry in results:
        if "skipped" in entry:
            print(f"{entry['kernel']:32s}    skipped  ({entry['skipped']})")
            continue
        speedup = entry.get("speedup")
        label = f"{speedup:.1f}x vs reference" if speedup else "no reference"
        print(f"{entry['kernel']:32s} {entry['engine_seconds']*1e3:9.2f} ms  ({label})")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
