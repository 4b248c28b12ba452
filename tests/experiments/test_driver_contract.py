"""The contract every registered experiment keeps through the one driver.

Parametrized over :func:`experiment_registry`, so a newly registered
experiment is covered without new test code:

* its default grid's cell keys are pinned — renaming a store kind or a
  ``_*_cell_config`` key would silently orphan every stored cell, so it must
  fail here first;
* on its smallest grid, the storeless result, a cold-store run, a warm-store
  run that computes nothing, and shards 1/2 + 2/2 followed by assembly all
  serialize to the same bytes.
"""

from __future__ import annotations

import hashlib
import inspect
import json

import pytest

import repro.experiments  # noqa: F401 — populates the registry
from repro.backend import using_backend
from repro.engine.sweep import ShardStats, SweepCache, experiment_registry
from repro.store import ExperimentStore, experiment_fingerprint

#: sha256 prefix of each experiment's sorted ``(kind, fingerprint)`` list over
#: its default grid, under the numpy64 salt.  Update a value only together
#: with a deliberate store-key change (which orphans existing stores).
PINNED_CELL_KEYS = {
    "fig6": "e2c70376ee0d2a27",
    "fig7": "d2be8c71c3481bd9",
    "fig8": "b808b4b084803d11",
    "fig9": "e700a22a5f93e7b5",
    "layer_families": "0069a163429cf7cb",
    "robustness": "cb39de95099edb43",
    "table1": "864031b3144255b0",
}

EXPERIMENTS = sorted(experiment_registry())


def default_cell_keys(spec):
    """Sorted ``(kind, fingerprint)`` of every cell of the spec's default grid."""
    with using_backend("numpy64"):
        return sorted(
            (spec.kind, experiment_fingerprint(spec.kind, spec.cell_key(*point)))
            for point in spec.grid(**spec.params())
        )


def keys_digest(keys) -> str:
    return hashlib.sha256(json.dumps(keys).encode()).hexdigest()[:16]


def smallest_params(spec):
    """Every sequence-valued default of the grid cut to its first element."""
    params = {}
    for parameter in inspect.signature(spec.grid).parameters.values():
        default = parameter.default
        if isinstance(default, (tuple, list)) and default:
            params[parameter.name] = type(default)(default[:1])
    return params


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_default_grid_cell_keys_are_pinned(name):
    spec = experiment_registry()[name]
    assert name in PINNED_CELL_KEYS, f"pin {name}: {keys_digest(default_cell_keys(spec))}"
    assert keys_digest(default_cell_keys(spec)) == PINNED_CELL_KEYS[name]


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_storeless_cold_warm_and_sharded_runs_agree(name, tmp_path, monkeypatch):
    spec = experiment_registry()[name]
    params = smallest_params(spec)
    ncells = len(spec.grid(**spec.params(**params)))
    saved = []
    original_save = SweepCache.save

    def counting_save(cache, fingerprint, result):
        saved.append(fingerprint)
        original_save(cache, fingerprint, result)

    monkeypatch.setattr(SweepCache, "save", counting_save)

    def document(result):
        return json.dumps(spec.serialize(result))

    storeless = document(spec.run(**params))

    store = ExperimentStore(tmp_path / "store")
    cold = document(spec.run(store=store, **params))
    assert len(saved) == ncells
    saved.clear()
    warm = document(spec.run(store=store, **params))
    assert saved == [], "a warm run must compute no cell"

    sharded = ExperimentStore(tmp_path / "sharded")
    stats = [spec.run(store=sharded, shard=(k, 2), **params) for k in (1, 2)]
    assert all(isinstance(stat, ShardStats) for stat in stats)
    assert sum(stat.computed for stat in stats) == ncells
    saved.clear()
    assembled = document(spec.run(store=sharded, **params))
    assert saved == [], "assembly after every shard must compute no cell"

    assert storeless == cold == warm == assembled
