"""Benchmarks of process-parallel sweep execution (restricted grid).

Times the restricted experiment suite computed by two worker processes with
store-shard work stealing against the serial equivalent, asserting the
byte-identity contract along the way.  The committed large-sweep scaling
number (4 workers, enlarged robustness grid, end-to-end CLI) is measured by
``benchmarks/kernel_timings.py`` (``parallel_sweep_workers``) and gated by
``compare_bench.py``; this harness keeps the machinery itself under
pytest-benchmark observation without the multi-minute grid.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.runner import SUITE_EXPERIMENTS, run_all, suite_to_json
from repro.parallel import run_cells_parallel
from repro.store import ExperimentStore

from .conftest import run_once

SUITE_KWARGS = dict(include_fig6_arrays=(32,), robustness_trials=2)
OVERRIDES = {"fig6": {"array_sizes": (32,)}, "robustness": {"trials": 2}}


@pytest.mark.benchmark(group="parallel")
def test_bench_parallel_cells_two_workers(benchmark, tmp_path):
    store = ExperimentStore(tmp_path / "store")
    stats = run_once(
        benchmark,
        run_cells_parallel,
        SUITE_EXPERIMENTS,
        OVERRIDES,
        store,
        workers=2,
        nshards=6,
    )
    assert sum(stat.computed for stat in stats) > 0
    assert store.puts == 0, "cells are written by the workers, not the parent"


@pytest.mark.benchmark(group="parallel")
def test_bench_parallel_suite_matches_serial(benchmark, tmp_path):
    serial = suite_to_json(run_all(**SUITE_KWARGS))
    suite = run_once(benchmark, run_all, workers=2, **SUITE_KWARGS)
    assert json.dumps(suite_to_json(suite)) == json.dumps(serial)
