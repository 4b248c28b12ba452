"""The committed traced counts of a cold report cover every count metric.

CI's ``bench-counts`` job runs a traced ``perfbench/run.py --workload
report_cold`` and requires each per-layer count to equal
``benchmarks/baseline/report_cold_counts.json`` exactly.  This test keeps the
file's shape in step with the benchmark's declared metrics, so a count added
to or dropped from ``BENCHMARK.json`` cannot leave the gate silently partial.
"""

from __future__ import annotations

import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
COUNTS = REPO_ROOT / "benchmarks" / "baseline" / "report_cold_counts.json"
BENCHMARK = REPO_ROOT / "BENCHMARK.json"


def test_counts_file_names_every_count_metric():
    counts = json.loads(COUNTS.read_text())
    declared = {
        metric["name"]
        for metric in json.loads(BENCHMARK.read_text())["per_layer"]
        if metric["unit"] == "count"
    }
    assert set(counts) == declared


def test_counts_are_non_negative_ints():
    for name, value in json.loads(COUNTS.read_text()).items():
        assert type(value) is int and value >= 0, (name, value)
