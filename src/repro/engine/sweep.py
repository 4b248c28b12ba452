"""Experiment layer: sweep registry and incremental sweep mapping.

Every paper artefact (Table I, Figs. 6–9 and the robustness and
layer-families sweeps) registers an :class:`ExperimentSpec` declaring its
grid, cell function, cell key and assembly; :meth:`ExperimentSpec.run` is the
one driver that executes any of them — storeless or incremental, one shard,
or in worker processes (:mod:`repro.parallel`, the only way a sweep uses
more than one core).  :func:`run_experiments` runs several registered
experiments, and :func:`to_jsonable` turns any result dataclass tree into
machine-readable JSON for the report emitter.

With a :class:`SweepCache` (an :class:`repro.store.ExperimentStore` plus the
cell key schema of one sweep), :func:`map_sweep` becomes *incremental*: each
grid cell is fingerprinted, cells already materialized in the store are
decoded instead of recomputed, and fresh results are persisted as they
complete — so an interrupted run resumes where it stopped.  A shard spec
``(k, n)`` restricts execution to the cells a shard owns (ownership is a pure
function of the fingerprint, so any number of processes partition a sweep
without coordinating beyond the shared store).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..backend import using_backend
from ..store import ExperimentStore, decode, encode, experiment_fingerprint

__all__ = [
    "ExperimentSpec",
    "register_experiment",
    "experiment_registry",
    "SweepCache",
    "ShardStats",
    "parse_shard",
    "shard_owns",
    "map_sweep",
    "run_experiments",
    "to_jsonable",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered paper artefact, declared as a grid of store-keyed cells.

    A harness declares *what* it computes; :meth:`run` is the one driver that
    decides *how* (storeless or incremental, one shard, or worker processes):

    * ``kind`` — the store artifact family of one cell (e.g. ``fig6/panel``);
    * ``grid(**params)`` — the sweep points of one run.  Its signature
      declares the harness's science parameters and their defaults, and it
      validates them, so a bad argument fails in the calling process before
      any worker spawns;
    * ``cell(*point)`` — computes one grid cell;
    * ``cell_key(*point)`` — the canonical configuration the cell's store
      fingerprint hashes;
    * ``result_type`` — the type one stored cell decodes back into;
    * ``assemble(cells, /, **params)`` — the result from the cells (in grid
      order) and the run's parameters (``cells`` positional-only, so a
      parameter may share its name);
    * ``formatter(result, include_plots=False)`` renders the report block and
      ``serializer`` (default :func:`to_jsonable`) the JSON document.
    """

    name: str
    title: str
    kind: str
    grid: Callable[..., Sequence[Tuple[Any, ...]]]
    cell: Callable[..., Any]
    cell_key: Callable[..., Mapping[str, Any]]
    result_type: Any
    assemble: Callable[..., Any]
    formatter: Callable[..., str]
    serializer: Optional[Callable[[Any], Any]] = None

    def params(self, **overrides: Any) -> Dict[str, Any]:
        """The science parameters of one run: ``overrides`` over the grid's defaults."""
        bound = inspect.signature(self.grid).bind(**overrides)
        bound.apply_defaults()
        return dict(bound.arguments)

    def run(
        self,
        *,
        store: Optional[ExperimentStore] = None,
        shard: Optional[Tuple[int, int]] = None,
        workers: Optional[int] = None,
        **overrides: Any,
    ) -> Any:
        """Run the experiment over its grid; ``overrides`` are science parameters.

        The cells are computed one at a time, in grid order.  With ``store``
        the sweep is incremental (cells already materialized are decoded,
        fresh ones persisted); with ``shard=(k, n)`` only the cells shard
        ``k`` owns are computed and a :class:`ShardStats` summary is returned
        instead of a result.  ``workers > 1`` (default
        ``$REPRO_WORKERS``) computes the grid in worker processes with
        store-shard work stealing (:mod:`repro.parallel`) and assembles it
        from the store, byte-identical to a serial run.  The execution
        backend is the caller's ``using_backend`` scope.
        """
        params = self.params(**overrides)
        points = self.grid(**params)  # validates the parameters before any worker spawns
        from ..parallel import resolve_workers

        if shard is None and resolve_workers(workers) > 1:
            from ..parallel import run_experiments_parallel

            results = run_experiments_parallel(
                [self.name], {self.name: overrides}, store=store, workers=workers
            )
            return results[self.name]
        cache = (
            SweepCache(store, self.kind, self.cell_key, self.result_type)
            if store is not None
            else None
        )
        cells = map_sweep(self.cell, points, cache=cache, shard=shard)
        if shard is not None:
            return cells
        return self.assemble(cells, **params)

    def format(self, result: Any, include_plots: bool = False) -> str:
        return self.formatter(result, include_plots=include_plots)

    def serialize(self, result: Any) -> Any:
        serializer = self.serializer if self.serializer is not None else to_jsonable
        return serializer(result)


_REGISTRY: Dict[str, ExperimentSpec] = {}


def register_experiment(spec: ExperimentSpec) -> ExperimentSpec:
    """Add (or replace) an experiment in the registry; returns the spec."""
    _REGISTRY[spec.name] = spec
    return spec


def experiment_registry() -> Dict[str, ExperimentSpec]:
    """The registered experiments by name (the report order is
    :data:`repro.experiments.runner.SUITE_EXPERIMENTS`).

    Importing :mod:`repro.experiments` populates the registry; callers that
    want the standard paper artefacts should import that package first (the
    experiment modules self-register at import time).
    """
    return dict(_REGISTRY)


class SweepCache:
    """Binds one sweep's cell key schema to an :class:`~repro.store.ExperimentStore`.

    ``kind`` names the artifact family (e.g. ``table1/row``), ``config_fn``
    maps a sweep point's positional arguments to the canonical configuration
    mapping that fingerprints the cell, and ``result_type`` is the annotated
    type the stored payload decodes back into (a dataclass, or a typing
    generic like ``List[RobustnessPoint]``).
    """

    _MISS = object()

    def __init__(
        self,
        store: ExperimentStore,
        kind: str,
        config_fn: Callable[..., Mapping[str, Any]],
        result_type: Any,
    ) -> None:
        self.store = store
        self.kind = kind
        self.config_fn = config_fn
        self.result_type = result_type
        self.hits = 0
        self.computed = 0

    def fingerprint(self, args: Tuple[Any, ...]) -> str:
        return experiment_fingerprint(self.kind, self.config_fn(*args))

    def load(self, fingerprint: str) -> Any:
        """The decoded cell result, or :data:`SweepCache._MISS`.

        A checksum-valid artifact whose payload no longer matches the current
        result dataclass (a structural change shipped without a salt bump) is
        dropped and treated as a miss — never served, never a crash.
        """
        payload = self.store.get(self.kind, fingerprint)
        if payload is None:
            return self._MISS
        try:
            result = decode(self.result_type, payload)
        except (TypeError, KeyError, ValueError, AttributeError):
            self.store.drop(self.kind, fingerprint)
            return self._MISS
        self.hits += 1
        return result

    def save(self, fingerprint: str, result: Any) -> None:
        self.computed += 1
        self.store.put(self.kind, fingerprint, encode(result))


@dataclass
class ShardStats:
    """What one shard of a sweep did (returned instead of an assembled result)."""

    kind: str
    shard: Tuple[int, int]
    total_cells: int = 0
    computed: int = 0
    resumed: int = 0
    foreign: int = 0

    @property
    def owned(self) -> int:
        return self.computed + self.resumed


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse a ``K/N`` shard spec into ``(k, n)`` with ``1 <= k <= n``."""
    try:
        k_text, n_text = text.split("/", 1)
        k, n = int(k_text), int(n_text)
    except ValueError as error:
        raise ValueError(f"shard spec must look like K/N, got {text!r}") from error
    if not 1 <= k <= n:
        raise ValueError(f"shard index must satisfy 1 <= K <= N, got {text!r}")
    return k, n


def shard_owns(fingerprint: str, k: int, n: int) -> bool:
    """Whether shard ``k`` of ``n`` owns a cell — a pure function of its key.

    Ownership hashes the fingerprint, not the enumeration index, so it is
    stable across processes and across sweeps enumerated in different orders
    or restricted to different subsets.
    """
    return int(fingerprint[:8], 16) % n == k - 1


def map_sweep(
    fn: Callable[..., Any],
    points: Sequence[Any],
    cache: Optional[SweepCache] = None,
    shard: Optional[Tuple[int, int]] = None,
) -> Any:
    """Apply ``fn`` to every sweep point, one at a time, in order.

    Sweep points are tuples of positional arguments (bare values are treated
    as 1-tuples).  Results keep the order of ``points``.

    With ``cache`` the sweep is incremental: cells whose fingerprint is
    already materialized in the store are decoded instead of recomputed, and
    every fresh result is persisted the moment it completes.  With ``shard``
    (requires ``cache``) only the cells the shard owns are computed — nothing
    is assembled — and a :class:`ShardStats` summary is returned instead of
    the result list; cells the store already holds are skipped, which is what
    makes an interrupted sharded run resumable.
    """
    args_list: List[Tuple[Any, ...]] = [
        point if isinstance(point, tuple) else (point,) for point in points
    ]
    if cache is None:
        if shard is not None:
            raise ValueError("sharded execution requires a sweep cache (a store)")
        return [fn(*args) for args in args_list]

    fingerprints = [cache.fingerprint(args) for args in args_list]
    if shard is not None:
        k, n = shard
        stats = ShardStats(kind=cache.kind, shard=(k, n), total_cells=len(args_list))
        todo: List[Tuple[Tuple[Any, ...], str]] = []
        for args, fingerprint in zip(args_list, fingerprints):
            if not shard_owns(fingerprint, k, n):
                stats.foreign += 1
            elif cache.store.contains(cache.kind, fingerprint):
                stats.resumed += 1
            else:
                todo.append((args, fingerprint))
        for args, fingerprint in todo:
            cache.save(fingerprint, fn(*args))
        stats.computed = len(todo)
        return stats

    results: List[Any] = []
    for args, fingerprint in zip(args_list, fingerprints):
        result = cache.load(fingerprint)
        if result is SweepCache._MISS:
            result = fn(*args)
            cache.save(fingerprint, result)
        results.append(result)
    return results


def run_experiments(
    names: Optional[Sequence[str]] = None,
    overrides: Optional[Mapping[str, Mapping[str, Any]]] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
) -> Dict[str, Any]:
    """Execute registered experiments, in order, and return ``{name: result}``.

    ``overrides`` maps experiment names to keyword arguments forwarded to the
    harness (e.g. ``{"fig6": {"array_sizes": (64, 128)}}``).  ``backend``
    scopes the execution backend every harness (and its fingerprint salting)
    runs under; ``None`` keeps the active default.

    ``workers`` (default: ``$REPRO_WORKERS``, else 1) scales the run across
    worker *processes*: the grids are partitioned into fingerprint-hash
    shards, workers claim shards through store leases (:mod:`repro.parallel`),
    and the results are assembled from the shared store — byte-identical to
    a serial run.  A serial run (one worker, or an embedded shard) runs every
    experiment with ``workers=1``, so ``$REPRO_WORKERS`` cannot re-partition
    it experiment by experiment.
    """
    registry = experiment_registry()
    if names is None:
        selected = list(registry)
    else:
        unknown = [name for name in names if name not in registry]
        if unknown:
            raise KeyError(f"unknown experiments {unknown}; registered: {sorted(registry)}")
        selected = list(names)
    overrides = overrides or {}

    from ..parallel import resolve_workers

    # An embedded shard means the caller is one shard of a wider partition
    # (``repro report --shard K/N``) — explicitly single-process work that a
    # global $REPRO_WORKERS must not re-partition.
    sharded = any(dict(overrides.get(name, {})).get("shard") for name in selected)
    if not sharded and resolve_workers(workers) > 1:
        from ..parallel import run_experiments_parallel

        return run_experiments_parallel(
            selected, overrides, workers=resolve_workers(workers), backend=backend
        )

    with using_backend(backend):
        return {
            name: registry[name].run(**{**overrides.get(name, {}), "workers": 1})
            for name in selected
        }


def to_jsonable(value: Any) -> Any:
    """Recursively convert dataclasses / numpy values to JSON-able structures.

    Dict keys become strings (JSON objects require it — Table I keys its cycle
    maps by integer array size), numpy scalars become Python scalars and
    numpy arrays become nested lists.  This is the same lowering the store
    persists artifacts with (:func:`repro.store.encode`), which is what makes
    a warm-store report byte-identical to a cold one.
    """
    return encode(value)
