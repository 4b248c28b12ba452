"""The layers of ``repro`` the traced run wraps, and the per-layer metrics.

:func:`install` wraps the public functions at each layer boundary of a
``repro report`` run (see ``README.md`` for the table of layers and what each
metric is predicted to move).  Each traced process writes one dump
(:meth:`Probe.dump`); :func:`per_layer_metrics` merges the dumps of a run's
processes, the CLI process and any spawned sweep workers, into the metric
values the benchmark reports.  Every ``*_s`` value is self time summed over
processes, except the two ``parallel`` phase times, which are inclusive;
counts are exact.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Sequence

from spans import Patcher, Tracer

#: Experiments of the default suite, in report order.
EXPERIMENTS = ("table1", "fig6", "fig7", "fig8", "fig9", "robustness", "layer_families")

#: Public cycle-model entry points of ``repro.mapping.cycles``.
CYCLE_FUNCTIONS = ("im2col_cycles", "sdk_cycles", "lowrank_cycles", "pattern_pruning_cycles", "pairs_cycles")
#: Parallel-window searches (``repro.mapping.cycles`` and ``repro.mapping.vw_sdk``).
WINDOW_FUNCTIONS = ("select_sdk_window", "select_lowrank_window")
#: Per-layer / per-network methods of ``repro.imc.energy.EnergyModel``.
ENERGY_METHODS = (
    "im2col_energy", "sdk_energy", "lowrank_energy", "pattern_pruning_energy", "pairs_energy", "network_energy",
)
STORE_METHODS = ("get", "put", "get_arrays", "put_arrays")
#: Layers reported as ``<layer>.calls`` and ``<layer>.busy_s``.
CALL_LAYERS = (
    "proxy.mean_relative_error", "backend.svd", "backend.tiled_mvm", "noise.apply", "kernels.program",
    "kernels.mvm_batch", "mapping.cycles", "mapping.window_search", "energy",
) + tuple(f"store.{op}" for op in STORE_METHODS) + ("store.fingerprint",)
#: ``repro.parallel.WorkerStats`` fields summed over workers.
WORKER_TOTALS = ("svd_store_hits", "stolen", "lost_races", "abandoned")

#: Every per-layer metric the traced run reports: ``(name, unit)``.
PER_LAYER: List[tuple] = (
    [("cli.import_s", "s"), ("cli.format_s", "s")]
    + [(f"experiments.{name}.busy_s", "s") for name in EXPERIMENTS]
    + [("sweep.cells_computed", "count"), ("sweep.cells_from_store", "count"), ("sweep.store_hit_ratio", "ratio")]
    + [
        ("cache.svd.calls", "count"), ("cache.svd.misses", "count"), ("cache.svd.store_hits", "count"),
        ("cache.svd.hit_ratio", "ratio"), ("cache.svd.busy_s", "s"),
        ("cache.fingerprint.calls", "count"), ("cache.fingerprint.busy_s", "s"), ("cache.fingerprint.mb", "MiB"),
    ]
    + [(f"{layer}.{key}", unit) for layer in CALL_LAYERS for key, unit in (("calls", "count"), ("busy_s", "s"))]
    + [("store.get.hits", "count"), ("store.decode.busy_s", "s")]
    + [
        ("parallel.cells_phase_s", "s"), ("parallel.assemble_s", "s"), ("parallel.cells_computed", "count"),
        ("parallel.worker_cells_max", "count"), ("parallel.worker_cells_min", "count"),
    ]
    + [(f"parallel.{key}", "count") for key in WORKER_TOTALS]
    + [("trace.overhead_s", "s")]
)


class Probe:
    """The tracer and patches of one traced process."""

    def __init__(self, tracer: Tracer, patcher: Patcher, role: str, import_s: float) -> None:
        self.tracer = tracer
        self.patcher = patcher
        #: ``"cli"`` for the launched CLI process, ``"worker"`` for a spawned sweep worker.
        self.role = role
        self.import_s = import_s

    def snapshot(self) -> Dict[str, Any]:
        from repro.engine.cache import default_decomposition_cache

        return {
            "role": self.role,
            "import_s": self.import_s,
            "spans": self.tracer.summary(),
            "counts": self.tracer.counts,
            "svd_counters": default_decomposition_cache.counters(),
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)


def _worker_counts(args: tuple, kwargs: dict, stats: Sequence[Any]) -> Dict[str, float]:
    computed = [worker.computed for worker in stats]
    counts: Dict[str, float] = {
        "cells_computed": sum(computed),
        "worker_cells_max": max(computed, default=0),
        "worker_cells_min": min(computed, default=0),
    }
    for key in WORKER_TOTALS:
        counts[key] = sum(getattr(worker, key) for worker in stats)
    return counts


def install(role: str, import_s: float) -> Probe:
    """Wrap every traced layer function of the loaded ``repro`` modules."""
    import repro.backend.core as backend
    import repro.engine.cache as cache
    import repro.engine.kernels as kernels
    import repro.engine.sweep as sweep
    import repro.experiments.runner as runner
    import repro.imc.energy as energy
    import repro.imc.noise as noise
    import repro.mapping.cycles as cycles
    import repro.mapping.vw_sdk as vw_sdk
    import repro.parallel as parallel
    import repro.store.codec as codec
    import repro.store.fingerprint as fingerprint
    import repro.store.store as store
    import repro.training.proxy as proxy

    tracer = Tracer()
    patcher = Patcher("repro")

    def span(name, observe=None, counted_only=False):
        return lambda fn: tracer.wrap(fn, name, observe, span=not counted_only)

    for attr in ("format_report", "suite_to_json"):
        patcher.function(runner, attr, span("cli.format"))
    patcher.method(sweep.ExperimentSpec, "run", span(lambda args: f"experiments.{args[0].name}"))
    miss = sweep.SweepCache._MISS
    patcher.method(
        sweep.SweepCache, "load",
        span("sweep.load", lambda a, k, result: {"hits": result is not miss}, counted_only=True),
    )
    patcher.method(sweep.SweepCache, "save", span("sweep.save", counted_only=True))
    patcher.method(proxy.AccuracyProxy, "mean_relative_error", span("proxy.mean_relative_error"))
    patcher.method(cache.DecompositionCache, "svd", span("cache.svd"))
    patcher.function(cache, "matrix_fingerprint", span("cache.fingerprint", lambda a, k, r: {"bytes": a[0].nbytes}))
    for attr in ("svd", "tiled_mvm"):
        patcher.method(backend.Backend, attr, span(f"backend.{attr}"))
    patcher.method(noise.NoiseModel, "apply", span("noise.apply"))
    for cls in (kernels.BatchedTiledMatrix, kernels.MonteCarloTiledMatrix):
        patcher.method(cls, "__post_init__", span("kernels.program"))
        patcher.method(cls, "mvm_batch", span("kernels.mvm_batch"))
    for attr in CYCLE_FUNCTIONS:
        patcher.function(cycles, attr, span("mapping.cycles"))
    for attr in WINDOW_FUNCTIONS:
        patcher.function(cycles, attr, span("mapping.window_search"))
    patcher.function(vw_sdk, "search_parallel_window", span("mapping.window_search"))
    for attr in ENERGY_METHODS:
        patcher.method(energy.EnergyModel, attr, span("energy"))
    patcher.method(store.ExperimentStore, "get", span("store.get", lambda a, k, result: {"hits": result is not None}))
    for attr in STORE_METHODS[1:]:
        patcher.method(store.ExperimentStore, attr, span(f"store.{attr}"))
    patcher.function(fingerprint, "experiment_fingerprint", span("store.fingerprint"))
    patcher.function(codec, "decode", span("store.decode"))
    patcher.function(parallel, "run_experiments_parallel", span("parallel.run"))
    patcher.function(parallel, "run_cells_parallel", span("parallel.cells", _worker_counts))
    return Probe(tracer, patcher, role, import_s)


def dump_when_worker_ends(probe: Probe, directory: str) -> None:
    """In a spawned sweep worker: write the probe's dump when its work ends.

    A worker leaves through ``os._exit``, which skips ``atexit``, so the dump
    is taken by wrapping the worker's entry point, which the worker looks up
    in ``repro.parallel`` when it unpickles its target.
    """
    import os

    import repro.parallel as parallel

    def make(entry: Any) -> Any:
        def traced_entry(*args: Any, **kwargs: Any) -> Any:
            try:
                return entry(*args, **kwargs)
            finally:
                probe.dump(os.path.join(directory, f"{os.getpid()}.json"))

        return traced_entry

    probe.patcher.function(parallel, "_worker_entry", make)


def merge(dumps: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Sum the dumps of one run's processes (the CLI process and its workers)."""
    merged: Dict[str, Any] = {"import_s": 0.0, "spans": {}, "counts": {}, "svd_counters": {}}
    for dump in dumps:
        # Workers import repro too; set-up is the CLI process's import alone.
        if dump["role"] == "cli":
            merged["import_s"] = dump["import_s"]
        for section in ("spans", "counts"):
            for name, values in dump[section].items():
                bucket = merged[section].setdefault(name, {})
                for key, value in values.items():
                    bucket[key] = bucket.get(key, 0) + value
        for key, value in dump["svd_counters"].items():
            merged["svd_counters"][key] = merged["svd_counters"].get(key, 0) + value
    return merged


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(merged: Mapping[str, Any]) -> Dict[str, float]:
    """Every metric of :data:`PER_LAYER` but ``trace.overhead_s``, which needs
    untraced invocations too, from one traced invocation's merged dumps."""
    spans, counts, svd = merged["spans"], merged["counts"], merged["svd_counters"]

    def busy(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def total(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    def count(name: str, key: str = "calls") -> float:
        return counts.get(name, {}).get(key, 0)

    values: Dict[str, float] = {"cli.import_s": merged["import_s"], "cli.format_s": busy("cli.format")}
    for name in EXPERIMENTS:
        values[f"experiments.{name}.busy_s"] = busy(f"experiments.{name}")
    computed, from_store = count("sweep.save"), count("sweep.load", "hits")
    values["sweep.cells_computed"] = computed
    values["sweep.cells_from_store"] = from_store
    values["sweep.store_hit_ratio"] = _ratio(from_store, computed + from_store)
    svd_calls = count("cache.svd")
    values["cache.svd.calls"] = svd_calls
    values["cache.svd.misses"] = svd.get("misses", 0)
    values["cache.svd.store_hits"] = svd.get("store_hits", 0)
    values["cache.svd.hit_ratio"] = _ratio(svd.get("hits", 0) + svd.get("store_hits", 0), svd_calls)
    values["cache.svd.busy_s"] = busy("cache.svd")
    values["cache.fingerprint.calls"] = count("cache.fingerprint")
    values["cache.fingerprint.busy_s"] = busy("cache.fingerprint")
    values["cache.fingerprint.mb"] = count("cache.fingerprint", "bytes") / 2**20
    for layer in CALL_LAYERS:
        values[f"{layer}.calls"] = count(layer)
        values[f"{layer}.busy_s"] = busy(layer)
    values["store.get.hits"] = count("store.get", "hits")
    values["store.decode.busy_s"] = busy("store.decode")
    values["parallel.cells_phase_s"] = total("parallel.cells")
    values["parallel.assemble_s"] = total("parallel.run") - total("parallel.cells")
    for key in ("cells_computed", "worker_cells_max", "worker_cells_min") + WORKER_TOTALS:
        values[f"parallel.{key}"] = count("parallel.cells", key)
    return values


def svd_accounting_error(merged: Mapping[str, Any]) -> str:
    """Why the wrapped ``DecompositionCache.svd`` calls disagree with the
    cache's own counters (a call the patches missed), or ``""``."""
    svd = merged["svd_counters"]
    outcomes = svd.get("hits", 0) + svd.get("misses", 0) + svd.get("store_hits", 0)
    calls = merged["counts"].get("cache.svd", {}).get("calls", 0)
    if calls != outcomes:
        return f"traced cache.svd calls {calls} != cache counters hits+misses+store_hits {outcomes}"
    return ""
