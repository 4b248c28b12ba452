"""Benchmarks of the persistent experiment store: cold sweep vs. warm assembly.

Times the restricted experiment suite executed cold into a fresh store
against the warm pass that assembles the same suite purely from materialized
artifacts, and the raw artifact round-trip primitives.  The companion emitter
``benchmarks/kernel_timings.py`` records the headline cold/warm speedup (and
the byte-identity flag) in ``BENCH_kernels.json`` on every CI run.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.runner import run_all, suite_to_json
from repro.store import ExperimentStore

from .conftest import run_once

SUITE_KWARGS = dict(include_fig6_arrays=(32,), robustness_trials=2)


@pytest.mark.benchmark(group="store")
def test_bench_cold_suite_into_store(benchmark, tmp_path):
    store = ExperimentStore(tmp_path / "store")
    suite = run_once(benchmark, run_all, store=store, **SUITE_KWARGS)
    assert suite.table1.rows and store.puts > 0


@pytest.mark.benchmark(group="store")
def test_bench_warm_suite_from_store(benchmark, tmp_path):
    store = ExperimentStore(tmp_path / "store")
    cold_document = suite_to_json(run_all(store=store, **SUITE_KWARGS))

    warm_suite = run_once(benchmark, run_all, store=store, **SUITE_KWARGS)
    assert json.dumps(suite_to_json(warm_suite)) == json.dumps(cold_document)


@pytest.mark.benchmark(group="store")
def test_bench_artifact_round_trip(benchmark, tmp_path):
    store = ExperimentStore(tmp_path / "store")
    payload = {"rows": [{"network": "resnet20", "cycles": index} for index in range(64)]}
    fingerprint = "0f" * 16

    def round_trip():
        store.put("bench/cell", fingerprint, payload)
        return store.get("bench/cell", fingerprint)

    result = benchmark(round_trip)
    assert result == payload
