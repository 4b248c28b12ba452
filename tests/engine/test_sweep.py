"""Tests for the experiment layer: registry, sweep mapping, JSON serialization."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import repro.experiments  # noqa: F401 — populates the registry
import repro.experiments.runner as runner_module
from repro.engine.sweep import (
    ExperimentSpec,
    experiment_registry,
    map_sweep,
    register_experiment,
    run_experiments,
    to_jsonable,
)
from repro.experiments.fig6 import run_fig6
from repro.experiments.runner import run_all
from repro.experiments.table1 import run_table1


class TestRegistry:
    def test_paper_artefacts_registered(self):
        registry = experiment_registry()
        assert {"table1", "fig6", "fig7", "fig8", "fig9"} <= set(registry)

    def test_specs_format_and_serialize(self):
        registry = experiment_registry()
        result = run_table1(
            networks=("resnet20",), array_sizes=(64,), group_counts=(1,), rank_divisors=(2,)
        )
        text = registry["table1"].format(result)
        assert "Table I" in text
        document = registry["table1"].serialize(result)
        json.dumps(document)  # must be JSON-able
        assert document["rows"][0]["network"] == "resnet20"
        assert document["rows"][0]["cycles_with_sdk"]["64"] > 0  # int keys stringified

    def test_run_experiments_with_overrides(self):
        results = run_experiments(
            names=("table1",),
            overrides={
                "table1": {
                    "networks": ("resnet20",),
                    "array_sizes": (64,),
                    "group_counts": (1,),
                    "rank_divisors": (2, 4),
                }
            },
        )
        assert len(results["table1"].rows) == 2

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiments(names=("fig99",))

    def test_register_replaces_by_name(self):
        spec = ExperimentSpec(
            name="_test_dummy",
            title="dummy",
            kind="_test/dummy",
            grid=lambda: [(1,)],
            cell=lambda x: x,
            cell_key=lambda x: {"x": x},
            result_type=int,
            assemble=lambda cells, /, **_: sum(cells),
            formatter=lambda r, include_plots=False: str(r),
        )
        try:
            register_experiment(spec)
            assert experiment_registry()["_test_dummy"].run() == 1
        finally:
            experiment_registry()  # registry is a copy; remove via private handle
            from repro.engine import sweep as sweep_module

            sweep_module._REGISTRY.pop("_test_dummy", None)

    def test_explicit_single_worker_beats_env_workers(self, monkeypatch):
        """`run_experiments(workers=1)` runs serially under `$REPRO_WORKERS=2`:
        no experiment re-reads the environment and starts its own worker pool."""
        import repro.parallel as parallel_module
        from repro.engine import sweep as sweep_module

        def no_worker_pool(*args, **kwargs):
            raise AssertionError("a worker pool started despite workers=1")

        spec = ExperimentSpec(
            name="_test_serial",
            title="serial",
            kind="_test/serial",
            grid=lambda: [(1,), (2,)],
            cell=lambda x: 10 * x,
            cell_key=lambda x: {"x": x},
            result_type=int,
            assemble=lambda cells, /, **_: sum(cells),
            formatter=lambda r, include_plots=False: str(r),
        )
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setattr(parallel_module, "run_experiments_parallel", no_worker_pool)
        register_experiment(spec)
        try:
            assert run_experiments(names=("_test_serial",), workers=1) == {"_test_serial": 30}
        finally:
            sweep_module._REGISTRY.pop("_test_serial", None)


class TestMapSweep:
    def test_bare_values_treated_as_single_argument(self):
        assert map_sweep(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]


class TestToJsonable:
    def test_dataclass_tree(self):
        @dataclasses.dataclass
        class Inner:
            values: dict

        @dataclasses.dataclass
        class Outer:
            name: str
            inner: Inner

        document = to_jsonable(Outer(name="x", inner=Inner(values={64: np.int64(3)})))
        assert document == {"name": "x", "inner": {"values": {"64": 3}}}
        json.dumps(document)

    def test_numpy_values(self):
        assert to_jsonable(np.float64(1.5)) == 1.5
        assert to_jsonable(np.array([1, 2])) == [1, 2]
        assert to_jsonable((np.bool_(True), [np.int32(2)])) == [True, [2]]


class TestRunnerIntegration:
    def test_run_all_arrays_restriction(self, monkeypatch):
        """`--arrays` reaches the Fig. 6 harness as its array_sizes override."""
        captured = {}

        def fake_run_experiments(names=None, overrides=None, backend=None, workers=None):
            captured.update(overrides or {})
            return {name: None for name in names}

        monkeypatch.setattr(runner_module, "run_experiments", fake_run_experiments)
        suite = run_all(include_fig6_arrays=(64, 128))
        assert captured["fig6"] == {"array_sizes": (64, 128)}
        assert suite.table1 is None  # ExperimentSuite built from the stubbed results

    def test_fig6_array_sizes_flow_to_panels(self):
        result = run_fig6(
            networks=("resnet20",),
            array_sizes=(64,),
            group_counts=(1,),
            rank_divisors=(2,),
            pruning_entries=(8,),
        )
        assert [(p.network, p.array_size) for p in result.panels] == [("resnet20", 64)]

    def test_suite_to_json_structure(self):
        table1 = run_table1(
            networks=("resnet20",), array_sizes=(64,), group_counts=(1,), rank_divisors=(2,)
        )
        fig6 = run_fig6(
            networks=("resnet20",),
            array_sizes=(64,),
            group_counts=(1, 4),
            rank_divisors=(2, 8),
            pruning_entries=(4, 8),
        )
        from repro.experiments.fig7 import run_fig7
        from repro.experiments.fig8 import run_fig8
        from repro.experiments.fig9 import run_fig9
        from repro.experiments.runner import ExperimentSuite, suite_to_json

        suite = ExperimentSuite(
            table1=table1,
            fig6=fig6,
            fig7=run_fig7(networks=("resnet20",), array_sizes=(64,)),
            fig8=run_fig8(network="resnet20", array_sizes=(64,), group_counts=(1, 4), rank_divisors=(2, 8)),
            fig9=run_fig9(panels=(("resnet20", 64),), group_counts=(1, 4), rank_divisors=(2, 8, 16)),
        )
        document = suite_to_json(suite)
        json.dumps(document)
        assert set(document["experiments"]) == {"table1", "fig6", "fig7", "fig8", "fig9"}
        assert document["headline"]
        for name, payload in document["experiments"].items():
            assert payload["title"]
            assert payload["result"] is not None
