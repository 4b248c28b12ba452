"""Run the experiment suite and emit a combined report.

:func:`run_all` reproduces all of Table I and Figs. 6–9 plus the robustness
and layer-families sweeps in one pass through the engine's sweep registry
(:mod:`repro.engine.sweep`); :func:`format_report` renders the plain-text
report and :func:`suite_to_json` the machine-readable document behind
``python -m repro report --json FILE``.  :func:`run_shard` computes one
``--shard K/N`` slice of the suite's grid cells into a store.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from ..engine.sweep import ShardStats, experiment_registry, run_experiments
from ..store import ExperimentStore
from .fig6 import headline_metrics
from .fig8 import quantization_speedup
from .fig9 import iso_accuracy_speedup

__all__ = [
    "SUITE_EXPERIMENTS",
    "ExperimentSuite",
    "suite_overrides",
    "run_all",
    "run_shard",
    "format_shard_summary",
    "format_report",
    "results_to_json",
    "suite_to_json",
]

#: The suite's experiments in report order (also the sharded execution order).
SUITE_EXPERIMENTS = ("table1", "fig6", "fig7", "fig8", "fig9", "robustness", "layer_families")


class ExperimentSuite:
    """Results of the suite's experiments, by name (``suite.fig6`` or
    ``suite.results["fig6"]``); an experiment left out is ``None``."""

    def __init__(self, **results: Any) -> None:
        unknown = sorted(set(results) - set(SUITE_EXPERIMENTS))
        if unknown:
            raise TypeError(f"unknown suite experiments {unknown}; expected {SUITE_EXPERIMENTS}")
        self.results: Dict[str, Any] = {name: results.get(name) for name in SUITE_EXPERIMENTS}

    def __getattr__(self, name: str) -> Any:
        results = self.__dict__.get("results", {})
        if name not in results:
            raise AttributeError(name)
        return results[name]

    def headline_summary(self) -> str:
        """One-paragraph summary mirroring the paper's abstract-level claims."""
        # The paper quotes its headline numbers on the WRN16-4 / 32x32 panel;
        # fall back gracefully when --arrays restricts the sweep.
        candidates = [p for p in self.fig6.panels if p.network == "wrn16_4"] or self.fig6.panels
        wrn_panel = min(candidates, key=lambda p: p.array_size)
        metrics = headline_metrics(wrn_panel)
        fig8_speedup = max(quantization_speedup(p) for p in self.fig8.panels)
        fig9_lines = []
        for panel in self.fig9.panels:
            summary = iso_accuracy_speedup(panel)
            if summary["speedup"] is not None:
                fig9_lines.append(f"{panel.network}: {summary['speedup']:.1f}x")
        return (
            f"WRN16-4 vs pruning: up to {metrics['max_speedup']:.1f}x speedup / "
            f"+{metrics['max_accuracy_gain']:.1f}% accuracy;  "
            f"energy saving vs pattern pruning up to {self.fig7.max_saving_vs_pattern:.0%}, "
            f"vs im2col up to {self.fig7.max_saving_vs_im2col:.0%};  "
            f"speedup over quantization up to {fig8_speedup:.1f}x;  "
            f"iso-accuracy speedup over traditional low-rank: {', '.join(fig9_lines)}"
        )


def suite_overrides(
    names: Sequence[str] = SUITE_EXPERIMENTS,
    arrays: Optional[Sequence[int]] = None,
    trials: int = 8,
) -> Dict[str, Dict[str, Any]]:
    """The science overrides ``repro report --arrays/--trials`` give each experiment.

    ``arrays`` restricts the Fig. 6 array-size sweep; ``trials`` is the
    Monte-Carlo trial count of the robustness and layer-families sweeps.
    The CLI, :func:`run_all` and the HTTP service all derive a run's
    overrides here, which is what lands the service's job namespace on the
    lease namespace of the run itself.
    """
    overrides: Dict[str, Dict[str, Any]] = {name: {} for name in names}
    for name in ("robustness", "layer_families"):
        if name in overrides:
            overrides[name]["trials"] = trials
    if "fig6" in overrides and arrays is not None:
        overrides["fig6"]["array_sizes"] = tuple(arrays)
    return overrides


def _run_suite(
    arrays: Optional[Sequence[int]],
    trials: int,
    store: Optional[ExperimentStore],
    shard: Optional[Tuple[int, int]],
    backend: Optional[str],
    workers: Optional[int],
) -> Dict[str, Any]:
    overrides = suite_overrides(SUITE_EXPERIMENTS, arrays, trials)
    if store is not None:
        for override in overrides.values():
            override["store"] = store
            if shard is not None:
                override["shard"] = shard
    return run_experiments(
        names=SUITE_EXPERIMENTS, overrides=overrides, backend=backend, workers=workers
    )


def run_all(
    include_fig6_arrays: Optional[Sequence[int]] = None,
    robustness_trials: int = 8,
    store: Optional[ExperimentStore] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
) -> ExperimentSuite:
    """Execute every suite experiment with the paper's default sweeps.

    ``include_fig6_arrays`` restricts the Fig. 6 array-size sweep (the CLI's
    ``--arrays``); ``robustness_trials`` sets the Monte-Carlo trial count of
    the scenario robustness and layer-families sweeps.  With ``store`` the run is incremental:
    grid cells already materialized in the store are decoded instead of
    recomputed (a fully warm store makes this a pure assembly pass), and every
    fresh cell is persisted as it completes, so interrupted runs resume.
    ``backend`` scopes the execution backend of the whole suite (``None``
    keeps the active default).

    ``workers`` (the CLI's global ``--workers``, default ``$REPRO_WORKERS``,
    else 1) runs the suite's grid cells in worker *processes* with
    store-shard work stealing (:mod:`repro.parallel`); the assembled suite is
    byte-identical to a serial run.  Without a ``store`` the workers share an
    ephemeral one for the duration of the run.
    """
    results = _run_suite(
        include_fig6_arrays, robustness_trials, store, shard=None, backend=backend,
        workers=workers,
    )
    return ExperimentSuite(**results)


def run_shard(
    shard: Tuple[int, int],
    store: ExperimentStore,
    include_fig6_arrays: Optional[Sequence[int]] = None,
    robustness_trials: int = 8,
    backend: Optional[str] = None,
) -> Dict[str, ShardStats]:
    """Execute one shard of the suite's grid cells into the shared store.

    Every experiment's grid cells are partitioned by fingerprint; this shard
    computes only the cells it owns that the store does not already hold
    (resuming an interrupted shard is therefore free) and persists each as it
    completes.  Nothing is assembled — run :func:`run_all` with the same store
    afterwards (or ``repro --store DIR report``) to assemble the full suite from
    the materialized cells.
    """
    return _run_suite(
        include_fig6_arrays, robustness_trials, store, shard=shard, backend=backend,
        workers=None,
    )


def format_shard_summary(stats: Mapping[str, ShardStats]) -> str:
    """Render one line per experiment of a sharded run's cell accounting."""
    lines = []
    for name, stat in stats.items():
        k, n = stat.shard
        lines.append(
            f"shard {k}/{n} — {name}: computed {stat.computed}, "
            f"resumed {stat.resumed}, foreign {stat.foreign} "
            f"(of {stat.total_cells} cells)"
        )
    totals = (
        sum(s.computed for s in stats.values()),
        sum(s.resumed for s in stats.values()),
        sum(s.total_cells for s in stats.values()),
    )
    lines.append(
        f"shard total: computed {totals[0]}, resumed {totals[1]} of {totals[2]} cells"
    )
    return "\n".join(lines)


def format_report(suite: ExperimentSuite, include_plots: bool = False) -> str:
    """Render the full report as plain text."""
    sections = [
        "=" * 78,
        "Reproduction report — Low-Rank Compression for IMC Arrays (DATE 2025)",
        "=" * 78,
        suite.headline_summary(),
    ]
    registry = experiment_registry()
    for name, result in suite.results.items():
        if result is not None:
            sections += ["", registry[name].format(result, include_plots=include_plots)]
    return "\n".join(sections)


def results_to_json(
    results: Mapping[str, Any], headline: Optional[str] = None
) -> Dict[str, Any]:
    """The JSON report document of ``{name: result}``, in suite order.

    Each experiment contributes its title and its spec's serialization;
    experiments absent from ``results`` (or ``None``) are left out.
    """
    registry = experiment_registry()
    document: Dict[str, Any] = {"report": "conf_date_JeonRK25"}
    if headline is not None:
        document["headline"] = headline
    document["experiments"] = {
        name: {"title": registry[name].title, "result": registry[name].serialize(results[name])}
        for name in SUITE_EXPERIMENTS
        if results.get(name) is not None
    }
    return document


def suite_to_json(suite: ExperimentSuite) -> Dict[str, Any]:
    """Machine-readable document with every reproduced number."""
    return results_to_json(suite.results, suite.headline_summary())
