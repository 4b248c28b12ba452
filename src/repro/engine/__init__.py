"""Vectorized execution engine: batched kernels, fused layer plans, sweep runner.

The engine is organized in three layers (see ENGINE.md at the repository
root):

* **kernel layer** (:mod:`repro.engine.kernels`) — stride-tricks im2col and
  the one stacked-tensor crossbar kernel, :class:`MonteCarloTiledMatrix`
  (``trials`` noisy programmings; :class:`BatchedTiledMatrix` is its
  one-trial case);
* **pipeline layer** (:mod:`repro.engine.context`) — :class:`ExecutionContext`
  with :class:`LayerPlan` and :class:`MonteCarloPlan`, which fuse decompose →
  map → simulate → energy with memoized decompositions
  (:mod:`repro.engine.cache`);
* **experiment layer** (:mod:`repro.engine.sweep`) — the registry-based sweep
  runner the Table I / Fig. 6–9 harnesses declare themselves against.
"""

from .cache import (
    DecompositionCache,
    default_decomposition_cache,
    matrix_fingerprint,
)
from .context import (
    ExecutionContext,
    LayerPlan,
    MonteCarloPlan,
    MonteCarloResult,
    SimulationResult,
)
from .kernels import (
    TRIAL_SEED_STRIDE,
    BatchedTiledMatrix,
    MonteCarloTiledMatrix,
    im2col_columns,
    im2col_columns_loop,
)
from .sweep import (
    ExperimentSpec,
    experiment_registry,
    map_sweep,
    register_experiment,
    run_experiments,
    to_jsonable,
)

__all__ = [
    "DecompositionCache",
    "default_decomposition_cache",
    "matrix_fingerprint",
    "ExecutionContext",
    "LayerPlan",
    "MonteCarloPlan",
    "MonteCarloResult",
    "SimulationResult",
    "BatchedTiledMatrix",
    "MonteCarloTiledMatrix",
    "TRIAL_SEED_STRIDE",
    "im2col_columns",
    "im2col_columns_loop",
    "ExperimentSpec",
    "experiment_registry",
    "map_sweep",
    "register_experiment",
    "run_experiments",
    "to_jsonable",
]
