"""Shared fixtures for the benchmark harness.

The benchmarks regenerate every table and figure of the paper's evaluation
section; because a full sweep involves thousands of cycle-model evaluations
and the accuracy-proxy calibrations, the expensive workload objects are
session-scoped and each harness is executed
once per benchmark (``pedantic`` with a single round) — the timing numbers
then reflect the cost of regenerating that artefact end to end.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import NetworkWorkload


@pytest.fixture(scope="session")
def resnet20_workload() -> NetworkWorkload:
    return NetworkWorkload("resnet20")


@pytest.fixture(scope="session")
def wrn16_4_workload() -> NetworkWorkload:
    return NetworkWorkload("wrn16_4")


def run_once(benchmark, func, *args, **kwargs):
    """Execute ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0)
