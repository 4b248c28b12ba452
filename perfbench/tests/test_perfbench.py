"""Tests of the benchmark's own code; none of them runs a workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import statistics
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
from spans import Patcher, Tracer  # noqa: E402


class FakeClock:
    """Returns the queued readings in order."""

    def __init__(self, *readings: float) -> None:
        self.readings = list(readings)

    def __call__(self) -> float:
        return self.readings.pop(0)


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------
def test_self_time_subtracts_children_once():
    tracer = Tracer(clock=FakeClock(0, 1, 3, 4, 6.5, 7, 8, 10))
    outer = tracer.begin("experiments")  # 0 .. 10
    first = tracer.begin("cache")  # 1 .. 3
    tracer.end(first)
    second = tracer.begin("cache")  # 4 .. 6.5
    tracer.end(second)
    third = tracer.begin("noise")  # 7 .. 8
    tracer.end(third)
    tracer.end(outer)
    summary = tracer.summary()
    assert summary["cache"] == {"self_s": 4.5, "total_s": 4.5}
    assert summary["noise"] == {"self_s": 1, "total_s": 1}
    assert summary["experiments"]["total_s"] == 10
    assert summary["experiments"]["self_s"] == pytest.approx(10 - 4.5 - 1)


def test_self_time_of_nested_grandchildren():
    # a(0..10) > b(1..9) > c(2..5): only direct children are subtracted.
    tracer = Tracer(clock=FakeClock(0, 1, 2, 5, 9, 10))
    a = tracer.begin("a")
    b = tracer.begin("b")
    c = tracer.begin("c")
    tracer.end(c)
    tracer.end(b)
    tracer.end(a)
    summary = tracer.summary()
    assert summary["a"]["self_s"] == 2
    assert summary["b"]["self_s"] == 5
    assert summary["c"]["self_s"] == 3
    assert sum(entry["self_s"] for entry in summary.values()) == summary["a"]["total_s"]


def test_wrapped_calls_nest_count_and_fold_recursion():
    tracer = Tracer()

    def leaf(x):
        return x + 1

    traced_leaf = tracer.wrap(leaf, "leaf", observe=lambda a, k, r: {"bytes": a[0]})

    def recurse(n):
        return traced_leaf(n) if n == 0 else traced_recurse(n - 1)

    traced_recurse = tracer.wrap(recurse, "outer")
    assert traced_recurse(3) == 1
    assert tracer.counts["outer"] == {"calls": 1}
    assert tracer.counts["leaf"] == {"calls": 1, "bytes": 0}
    names = [span[0] for span in tracer.spans]
    assert names == ["outer", "leaf"]
    assert tracer.spans[1][3] == 0  # the leaf span's parent is the outer span


def test_counted_only_wrapper_opens_no_span_and_exceptions_close_spans():
    tracer = Tracer()
    counted = tracer.wrap(lambda: None, "sweep.save", span=False)
    counted()
    counted()
    assert tracer.counts["sweep.save"]["calls"] == 2
    assert tracer.spans == []

    def boom():
        raise RuntimeError("cell failed")

    with pytest.raises(RuntimeError):
        tracer.wrap(boom, "cell")()
    assert tracer.open_name() is None
    assert tracer.spans[0][2] is not None


# ---------------------------------------------------------------------------
# Statistics helpers
# ---------------------------------------------------------------------------
def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
    assert run.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert run.quartiles(values) == (2.75, 5.5, 8.25)
    assert run.quartiles(values)[1] == statistics.median(values) == 5.5
    assert run.quartiles([0.7]) == (0.7, 0.7, 0.7)
    with pytest.raises(ValueError):
        run.quartiles([])
    described = run.describe([3.0, 1.0, 2.0])
    assert described["n"] == 3 and described["median"] == 2.0 and described["max"] == 3.0


# ---------------------------------------------------------------------------
# Correctness accounting
# ---------------------------------------------------------------------------
def _perturb(document: dict) -> str:
    """Move the first Table I accuracy far outside its golden band; returns its path."""
    row = document["experiments"]["table1"]["result"]["rows"][0]
    key = next(key for key in row if "accuracy" in key)
    row[key] = row[key] + 1.0
    return key


def test_golden_check_reports_the_offending_field(tmp_path):
    check = run.GoldenCheck()
    report = tmp_path / "report.json"
    report.write_text(json.dumps(check.golden))
    assert check.mismatches(report) == []
    document = json.loads(json.dumps(check.golden))
    key = _perturb(document)
    report.write_text(json.dumps(document))
    found = check.mismatches(report)
    assert len(found) == 1 and found[0].startswith(f"$.experiments.table1.result.rows[0].{key}:")
    report.write_text("{ torn")
    assert check.mismatches(report)[0].startswith("$: no readable report")


@pytest.fixture
def fake_runner(tmp_path, monkeypatch):
    """A Runner whose launches write canned reports instead of running repro.

    Every invocation takes 1 s (0.5 s of set-up), every reference launch
    ``reference_s`` (by default the nominal time, so times are not scaled).
    """
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    golden = json.loads(run.GOLDEN.read_text())
    bad = json.loads(json.dumps(golden))
    _perturb(bad)
    plan = []
    reference = {}

    def fake_launch(cli_args, env, log_path, timeout_s, script=run.LAUNCH):
        if script == run.REFERENCE:
            return run.Invocation(wall_s=reference["s"], cpu_s=reference["s"], peak_rss_mb=30.0, setup_s=None), 0
        if "--json" in cli_args:  # a report invocation; otherwise a set-up-only launch
            Path(cli_args[cli_args.index("--json") + 1]).write_text(plan.pop(0))
        return run.Invocation(wall_s=1.0, cpu_s=1.0, peak_rss_mb=50.0, setup_s=0.5), 0

    monkeypatch.setattr(run, "launch", fake_launch)

    def make(workload, reports, reference_s=run.REFERENCE_NOMINAL_S):
        plan[:] = reports
        reference["s"] = reference_s
        return run.Runner(workload, seed=7, deadline=float("inf"))

    return make, json.dumps(golden), json.dumps(bad)


def test_perturbed_report_counts_as_failed_and_stays_in_the_sample(fake_runner):
    make, good, bad = fake_runner
    with make("report_cold", [good, bad, good]) as runner:
        runs, values, _ = run.measure(runner, seconds=0)
    assert [r.ok for r in runs] == [True, False, True]
    assert "rows[0]" in runs[1].problem
    assert values["pass_ratio"] == pytest.approx(2 / 3)
    assert values["wall_s"] == 1.0  # the failed invocation's time is still in the median


def test_warm_report_must_match_the_preparation_bytes(fake_runner):
    make, good, _ = fake_runner
    reformatted = json.dumps(json.loads(good), indent=1)  # same numbers, other bytes
    with make("report_warm", [good, good, reformatted, good]) as runner:
        assert runner.prepare().ok
        runs, values, _ = run.measure(runner, seconds=0)
    assert [r.ok for r in runs] == [True, False, True]
    assert "byte-identical" in runs[1].problem
    assert values["pass_ratio"] == pytest.approx(2 / 3)


# ---------------------------------------------------------------------------
# Scaling by host speed
# ---------------------------------------------------------------------------
def test_host_factor_uses_the_reference_times_on_either_side():
    nominal = run.REFERENCE_NOMINAL_S
    # Launch 0 sits between references 0.2 and 0.4, launch 1 between 0.4 and 0.8.
    factors = run.host_factors([0.2, 0.4, 0.8])
    assert factors == [pytest.approx(nominal / 0.3), pytest.approx(nominal / 0.6)]
    assert run.host_factors([nominal, nominal]) == [1.0]
    assert run.host_factors([0.5]) == []


def test_times_are_scaled_to_the_nominal_host_and_kept_unscaled(fake_runner):
    make, good, _ = fake_runner
    # The reference takes twice its nominal time: the host runs at half speed.
    with make("report_cold", [good] * 3, reference_s=2 * run.REFERENCE_NOMINAL_S) as runner:
        runs, values, samples = run.measure(runner, seconds=0)
    assert len(runs) == run.MIN_INVOCATIONS
    assert values["wall_s"] == values["cpu_s"] == pytest.approx(0.5)
    assert values["setup_s"] == pytest.approx(0.25)
    assert values["peak_rss_mb"] == 50.0  # sizes are not scaled
    assert samples["unscaled_wall_s"] == [1.0] * 3
    # Set-up is topped up to its minimum count, each launch with its own factor.
    assert len(samples["setup_s"]) == len(samples["host_factor"]) == run.MIN_SETUP_SAMPLES
    assert samples["host_factor"] == [pytest.approx(0.5)] * run.MIN_SETUP_SAMPLES


# ---------------------------------------------------------------------------
# Patching and restoring
# ---------------------------------------------------------------------------
@pytest.fixture
def fake_package():
    core = types.ModuleType("fakepkg.core")

    def helper(x):
        return x * 2

    class Base:
        def step(self):
            return "base"

    class Child(Base):
        def step(self):
            return "child"

    core.helper, core.Base, core.Child = helper, Base, Child
    user = types.ModuleType("fakepkg.user")
    user.helper = helper  # ``from fakepkg.core import helper``
    user.call = lambda x: user.helper(x)
    outsider = types.ModuleType("otherpkg")
    outsider.helper = helper
    modules = {"fakepkg.core": core, "fakepkg.user": user, "otherpkg": outsider}
    sys.modules.update(modules)
    yield core, user, outsider
    for name in modules:
        del sys.modules[name]


def test_patcher_rebinds_where_callers_look_and_restores(fake_package):
    core, user, outsider = fake_package
    original_helper, base_step, child_step = core.helper, core.Base.step, core.Child.step
    tracer = Tracer()
    patcher = Patcher("fakepkg")
    assert patcher.function(core, "helper", lambda fn: tracer.wrap(fn, "helper")) == 2
    assert patcher.method(core.Base, "step", lambda fn: tracer.wrap(fn, "step")) == 2
    assert user.call(3) == 6 and core.helper(1) == 2
    assert core.Child().step() == "child" and core.Base().step() == "base"
    assert tracer.counts["helper"]["calls"] == 2
    assert tracer.counts["step"]["calls"] == 2
    assert outsider.helper is original_helper  # outside the prefix: untouched
    patcher.restore()
    assert core.helper is original_helper and user.helper is original_helper
    assert core.Base.__dict__["step"] is base_step and core.Child.__dict__["step"] is child_step
    assert user.call(3) == 6 and tracer.counts["helper"]["calls"] == 2


def _bindings():
    """Identity of every function/method binding in the loaded repro modules."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for key, value in vars(module).items():
                found[(name, key)] = id(value)
                if isinstance(value, type) and value.__module__ == name:
                    for attr, member in vars(value).items():
                        found[(name, key, attr)] = id(member)
    return found


def test_install_reaches_by_name_imports_and_restore_puts_everything_back():
    import repro.cli  # noqa: F401  (loads every layer module)
    import repro.experiments.common as common
    import repro.imc.energy as energy
    from repro.mapping.geometry import ArrayDims, ConvGeometry

    before = _bindings()
    original = common.lowrank_cycles
    probe = layers.install("cli", import_s=0.0)
    try:
        # repro.experiments.common imported lowrank_cycles by name.
        assert common.lowrank_cycles is not original and common.lowrank_cycles.__wrapped__ is original
        geometry = ConvGeometry(in_channels=16, out_channels=16, kernel_h=3, kernel_w=3, input_h=8, input_w=8)
        energy.EnergyModel().lowrank_energy(geometry, ArrayDims(64, 64), rank=4)
        common.lowrank_cycles(geometry, ArrayDims(64, 64), rank=4)
        counts = probe.tracer.counts
        assert counts["energy"]["calls"] == 1
        assert counts["mapping.cycles"]["calls"] == 2  # once below energy, once direct
    finally:
        probe.patcher.restore()
    assert _bindings() == before


# ---------------------------------------------------------------------------
# The metric lists agree with BENCHMARK.json
# ---------------------------------------------------------------------------
def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(layers.PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_per_layer_metrics_emits_every_metric_from_merged_dumps():
    cli = {"role": "cli", "import_s": 0.4, "svd_counters": {"hits": 3, "misses": 1, "store_hits": 0},
           "spans": {"cache.svd": {"self_s": 0.1, "total_s": 0.2}, "parallel.run": {"self_s": 0.0, "total_s": 5.0},
                     "parallel.cells": {"self_s": 4.0, "total_s": 4.0}},
           "counts": {"cache.svd": {"calls": 2}, "sweep.load": {"calls": 4, "hits": 4}}}
    worker = {"role": "worker", "import_s": 0.9, "svd_counters": {"hits": 0, "misses": 2, "store_hits": 0},
              "spans": {"cache.svd": {"self_s": 0.3, "total_s": 0.3}},
              "counts": {"cache.svd": {"calls": 2}, "sweep.save": {"calls": 4}}}
    merged = layers.merge([cli, worker])
    assert layers.svd_accounting_error(merged) == "traced cache.svd calls 4 != cache counters hits+misses+store_hits 6"
    values = layers.per_layer_metrics(merged)
    assert set(values) | {"trace.overhead_s"} == {name for name, _ in layers.PER_LAYER}
    assert values["cli.import_s"] == 0.4  # the CLI process's import, not a worker's
    assert values["cache.svd.busy_s"] == pytest.approx(0.4)
    assert values["sweep.store_hit_ratio"] == 0.5
    assert values["parallel.assemble_s"] == 1.0
