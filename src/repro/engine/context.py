"""Pipeline layer: fuse decompose → map → simulate → energy per layer.

An :class:`ExecutionContext` captures the hardware configuration (array
dimensions, peripherals, noise model, DAC/ADC bit widths, seed) and the
execution backend ("batched" stacked-tensor kernels by default, the per-tile
"legacy" path as the cross-check oracle).  From a context, a
:class:`LayerPlan` is built **once** per mapped layer: low-rank factors come
from the shared :class:`repro.engine.cache.DecompositionCache` (so sweeps over
array sizes and noise levels never re-decompose identical weights), the stage
matrices are programmed onto (batched) tiles once, and every subsequent input
batch reuses the programmed tiles — the plan fuses what the seed code base
re-wired by hand in every harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple, Union

import numpy as np

from ..backend import Backend, get_backend, resolve_backend
from ..imc.noise import NoiseModel
from ..imc.peripherals import PeripheralSuite, default_peripherals
from ..imc.tiles import TiledMatrix
from ..mapping.geometry import (
    ArrayDims,
    AttentionProjectionGeometry,
    ConvGeometry,
    GroupedConvGeometry,
)
from ..mapping.grouped import expand_grouped_kernel, stack_attention_weights
from .cache import DecompositionCache, default_decomposition_cache
from .kernels import (
    STAGE_SEED_STRIDE,
    TRIAL_SEED_STRIDE,
    BatchedTiledMatrix,
    MonteCarloTiledMatrix,
    im2col_columns,
)

__all__ = [
    "SimulationResult",
    "LayerPlan",
    "MonteCarloResult",
    "MonteCarloPlan",
    "ExecutionContext",
]

#: Either tiled-matrix implementation; both expose the same executor surface.
TiledBackend = Union[TiledMatrix, BatchedTiledMatrix]


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of simulating one mapped layer on crossbar tiles."""

    method: str
    outputs: np.ndarray
    exact: np.ndarray
    allocated_tiles: int
    activations: int
    energy_pj: float

    @property
    def absolute_error(self) -> float:
        return float(np.max(np.abs(self.outputs - self.exact)))

    @property
    def relative_error(self) -> float:
        denom = float(np.linalg.norm(self.exact))
        if denom == 0.0:
            return 0.0
        return float(np.linalg.norm(self.outputs - self.exact)) / denom


@dataclass
class LayerPlan:
    """One mapped layer, programmed onto tiles and ready to execute batches.

    ``stages`` are executed in order (dense mapping has one stage, the
    two-stage low-rank computation has two); ``exact_matrix`` is the dense
    reference ``W`` used to report the combined approximation + hardware
    error; ``geometry`` (when present) lets the plan consume NCHW feature maps
    directly via the vectorized im2col kernel.
    """

    method: str
    stages: List[TiledBackend]
    exact_matrix: np.ndarray
    geometry: Optional[ConvGeometry] = None

    @property
    def allocated_tiles(self) -> int:
        return sum(stage.num_allocated_tiles for stage in self.stages)

    @property
    def activations(self) -> int:
        return sum(stage.total_activations for stage in self.stages)

    def activation_energy_pj(self) -> float:
        """Energy of pushing one input vector through every stage."""
        return sum(stage.activation_energy_pj() for stage in self.stages)

    def columns(self, inputs: np.ndarray) -> np.ndarray:
        """Convert inputs to the (batch, n) column layout the tiles consume."""
        if inputs.ndim == 4:
            if self.geometry is None:
                raise ValueError("this plan has no ConvGeometry; pass 2-D column inputs")
            return im2col_columns(inputs, self.geometry)
        if inputs.ndim != 2:
            raise ValueError(f"expected a 2-D column batch or NCHW inputs, got shape {inputs.shape}")
        return inputs

    def run(self, inputs: np.ndarray) -> SimulationResult:
        """Execute the plan on a batch and report outputs, error and energy."""
        columns = self.columns(inputs)
        outputs = columns
        for stage in self.stages:
            outputs = stage.mvm_batch(outputs)
        exact = columns @ self.exact_matrix.T
        energy = self.activation_energy_pj() * columns.shape[0]
        return SimulationResult(
            method=self.method,
            outputs=outputs,
            exact=exact,
            allocated_tiles=self.allocated_tiles,
            activations=sum(stage.total_activations for stage in self.stages),
            energy_pj=energy,
        )


@dataclass(frozen=True)
class MonteCarloResult:
    """Outcome of ``trials`` independently-noisy simulations of one layer.

    ``outputs`` stacks the per-trial analog results; ``exact`` is the shared
    noise-free software reference, so :attr:`relative_errors` measures the
    combined approximation + hardware error of every trial and the
    mean/std/worst statistics summarize the Monte-Carlo spread.
    ``energy_pj`` is the per-trial energy of executing the input batch (every
    trial programs the same tile allocation, so energy is trial-invariant).
    """

    method: str
    outputs: np.ndarray  # (trials, batch, out_dim)
    exact: np.ndarray  # (batch, out_dim)
    trials: int
    allocated_tiles: int
    activations: int
    energy_pj: float

    @property
    def relative_errors(self) -> np.ndarray:
        """Per-trial relative output error vs. the exact software result."""
        denom = float(np.linalg.norm(self.exact))
        if denom == 0.0:
            return np.zeros(self.trials)
        diffs = self.outputs - self.exact[None]
        return np.linalg.norm(diffs.reshape(self.trials, -1), axis=1) / denom

    @property
    def mean_relative_error(self) -> float:
        return float(np.mean(self.relative_errors))

    @property
    def std_relative_error(self) -> float:
        return float(np.std(self.relative_errors))

    @property
    def worst_relative_error(self) -> float:
        return float(np.max(self.relative_errors))


@dataclass
class MonteCarloPlan:
    """One mapped layer programmed ``trials`` times, ready to execute batches.

    The Monte-Carlo analogue of :class:`LayerPlan`: stages are
    :class:`MonteCarloTiledMatrix` kernels sharing the trial axis, so a
    two-stage low-rank plan chains per-trial intermediates — trial ``t`` of
    stage 2 consumes trial ``t`` of stage 1, exactly as a sequential per-trial
    run would.
    """

    method: str
    stages: List[MonteCarloTiledMatrix]
    exact_matrix: np.ndarray
    trials: int
    geometry: Optional[ConvGeometry] = None

    @property
    def allocated_tiles(self) -> int:
        """Tiles of ONE trial (all trials share the allocation layout)."""
        return sum(stage.num_allocated_tiles for stage in self.stages)

    def activation_energy_pj(self) -> float:
        """Energy of pushing one input vector through every stage, per trial."""
        return sum(stage.activation_energy_pj() for stage in self.stages)

    columns = LayerPlan.columns

    def run(self, inputs: np.ndarray) -> MonteCarloResult:
        """Execute every trial on a batch and report the output spread."""
        columns = self.columns(inputs)
        outputs = columns  # 2-D shared batch; becomes (trials, batch, ·) after stage 1
        for stage in self.stages:
            outputs = stage.mvm_batch(outputs)
        exact = columns @ self.exact_matrix.T
        energy = self.activation_energy_pj() * columns.shape[0]
        return MonteCarloResult(
            method=self.method,
            outputs=outputs,
            exact=exact,
            trials=self.trials,
            allocated_tiles=self.allocated_tiles,
            activations=sum(stage.total_activations for stage in self.stages),
            energy_pj=energy,
        )


@dataclass
class ExecutionContext:
    """Hardware configuration + engine/backend choice + shared decomposition cache.

    ``engine`` picks the executor implementation (``"batched"`` stacked-tile
    kernels, ``"legacy"`` per-tile oracle); ``backend`` picks the execution
    backend (:mod:`repro.backend`) the batched kernels and the decomposition
    cache compute through — ``None`` resolves to the active process default
    (``--backend`` / ``$REPRO_BACKEND`` / ``numpy64``).  The legacy per-tile
    path *is* the float64 oracle, so it always runs at float64: a context with
    ``engine="legacy"`` resolves ``backend=None`` to ``numpy64`` regardless of
    the ambient default, and rejects an explicit non-float64 backend.
    """

    array: ArrayDims
    peripherals: PeripheralSuite = field(default_factory=default_peripherals)
    noise: NoiseModel = field(default_factory=NoiseModel.ideal)
    input_bits: Optional[int] = None
    output_bits: Optional[int] = None
    seed: int = 0
    engine: str = "batched"
    backend: Union[str, Backend, None] = None
    decompositions: DecompositionCache = field(
        default_factory=lambda: default_decomposition_cache
    )

    def __post_init__(self) -> None:
        if self.engine not in ("batched", "legacy"):
            raise ValueError(f"unknown engine {self.engine!r}; expected 'batched' or 'legacy'")
        if self.engine == "legacy":
            explicit = self.backend is not None
            self.backend = get_backend("numpy64") if not explicit else resolve_backend(self.backend)
            if self.backend.policy.name != "float64":
                raise ValueError(
                    "the legacy per-tile oracle is the float64 reference; it cannot "
                    f"execute under the {self.backend.name!r} backend "
                    f"({self.backend.policy.name})"
                )
        else:
            self.backend = resolve_backend(self.backend)

    # ------------------------------------------------------------------
    # Tile construction
    # ------------------------------------------------------------------
    def tiled(self, matrix: np.ndarray, seed_offset: int = 0) -> TiledBackend:
        """Program a mapped matrix onto tiles using the configured engine."""
        if self.engine == "legacy":
            return TiledMatrix(
                matrix=matrix,
                array=self.array,
                peripherals=self.peripherals,
                noise=self.noise,
                input_bits=self.input_bits,
                output_bits=self.output_bits,
                seed=self.seed + seed_offset,
            )
        return BatchedTiledMatrix(
            matrix=matrix,
            array=self.array,
            peripherals=self.peripherals,
            noise=self.noise,
            input_bits=self.input_bits,
            output_bits=self.output_bits,
            seed=self.seed + seed_offset,
            backend=self.backend,
        )

    # ------------------------------------------------------------------
    # Plans
    # ------------------------------------------------------------------
    def _plan(
        self,
        method: str,
        matrices: List[np.ndarray],
        exact_matrix: np.ndarray,
        geometry: Optional[ConvGeometry],
        trials: Optional[int] = None,
        trial_stride: int = TRIAL_SEED_STRIDE,
    ) -> Union[LayerPlan, MonteCarloPlan]:
        """Program each stage matrix once (``trials=None``) or ``trials`` times.

        Stages are spaced by STAGE_SEED_STRIDE (not consecutive integers):
        per-tile streams are seeded seed + allocation_index, so an offset of
        1 would alias stage 2's tile 0 with stage 1's tile 1.  Both kinds of
        plan share these offsets, so trial ``t`` of a Monte-Carlo plan is
        bit-identical to the single-programming plan of ``trial_context(t)``.
        """
        offsets = [stage * STAGE_SEED_STRIDE for stage in range(len(matrices))]
        if trials is None:
            stages = [self.tiled(matrix, offset) for matrix, offset in zip(matrices, offsets)]
            return LayerPlan(method, stages, exact_matrix, geometry)
        stages = [
            self.monte_carlo_tiled(matrix, trials, offset, trial_stride)
            for matrix, offset in zip(matrices, offsets)
        ]
        return MonteCarloPlan(method, stages, exact_matrix, trials, geometry)

    def _lowrank_stages(
        self, weight_matrix: np.ndarray, rank: int, groups: int
    ) -> Tuple[str, List[np.ndarray]]:
        """Method name and the two stage matrices of the grouped low-rank plan."""
        factors = self.decompositions.group_decompose(
            weight_matrix, rank, groups, backend=self.backend
        )
        method = f"lowrank(g={groups},k={rank})"
        return method, [factors.block_diagonal_right(), factors.stacked_left()]

    @staticmethod
    def _grouped_matrix(
        weight: np.ndarray, geometry: GroupedConvGeometry
    ) -> Tuple[str, np.ndarray]:
        """Method name and block-diagonal im2col matrix of a grouped conv."""
        method = "depthwise" if geometry.is_depthwise else f"grouped(g={geometry.groups})"
        return method, expand_grouped_kernel(weight, geometry)

    @staticmethod
    def _attention_matrix(
        weights: Union[np.ndarray, List[np.ndarray]],
        geometry: AttentionProjectionGeometry,
    ) -> Tuple[str, np.ndarray]:
        """Method name and row-stacked matrix of an attention projection."""
        if isinstance(weights, np.ndarray) and weights.ndim == 2:
            matrix = weights
        else:
            matrix = stack_attention_weights(list(weights))
        if matrix.shape != (geometry.m, geometry.n):
            raise ValueError(
                f"stacked projection shape {matrix.shape} != geometry's "
                f"({geometry.m}, {geometry.n})"
            )
        method = "attention" if geometry.projections == 1 else f"attention(p={geometry.projections})"
        return method, matrix

    def dense_plan(
        self, weight_matrix: np.ndarray, geometry: Optional[ConvGeometry] = None
    ) -> LayerPlan:
        """Plan the dense (im2col) mapping of ``y = W x``."""
        return self._plan("dense", [weight_matrix], weight_matrix, geometry)

    def lowrank_plan(
        self,
        weight_matrix: np.ndarray,
        rank: int,
        groups: int = 1,
        geometry: Optional[ConvGeometry] = None,
    ) -> LayerPlan:
        """Plan the grouped two-stage computation ``y = [L_1…L_g] diag(R_i) x``.

        The group decomposition is memoized in the shared cache, so building
        the same plan for another array size or noise level reuses the SVDs.
        """
        method, matrices = self._lowrank_stages(weight_matrix, rank, groups)
        return self._plan(method, matrices, weight_matrix, geometry)

    def conv_dense_plan(self, weight: np.ndarray, geometry: ConvGeometry) -> LayerPlan:
        """Dense plan of a convolution given its (out, in, kh, kw) kernel."""
        return self.dense_plan(weight.reshape(geometry.m, geometry.n), geometry=geometry)

    def grouped_conv_plan(
        self, weight: np.ndarray, geometry: GroupedConvGeometry
    ) -> LayerPlan:
        """Plan a grouped/depthwise conv via block-diagonal tile placement.

        ``weight`` is the framework kernel ``(out_channels, group_in_channels,
        kh, kw)``; lowering it to the block-diagonal im2col matrix and
        programming that through the ordinary dense path allocates exactly the
        tiles :func:`repro.mapping.grouped.tiles_for_grouped_conv` predicts —
        off-diagonal all-zero tiles are structurally skipped, on both engines.
        """
        method, matrix = self._grouped_matrix(weight, geometry)
        return self._plan(method, [matrix], matrix, geometry)

    def attention_projection_plan(
        self,
        weights: Union[np.ndarray, List[np.ndarray]],
        geometry: AttentionProjectionGeometry,
    ) -> LayerPlan:
        """Plan an attention projection as one row-stacked dense GEMM.

        ``weights`` is either the fused ``(m, d_model)`` matrix or a sequence
        of per-projection ``(d_out, d_model)`` matrices (Q/K/V) that share
        their input and are stacked before mapping.
        """
        method, matrix = self._attention_matrix(weights, geometry)
        return self._plan(method, [matrix], matrix, geometry)

    # ------------------------------------------------------------------
    # Monte-Carlo plans (batched robustness trials)
    # ------------------------------------------------------------------
    def trial_context(self, trial: int, trial_stride: int = TRIAL_SEED_STRIDE) -> "ExecutionContext":
        """The context a sequential run of Monte-Carlo trial ``trial`` uses.

        ``ctx.trial_context(t).lowrank_plan(...)`` programs exactly the
        conductances of trial ``t`` of ``ctx.lowrank_monte_carlo_plan(...)``
        — the sequential oracle of the batched Monte-Carlo kernel.
        """
        return replace(self, seed=self.seed + trial * trial_stride)

    def monte_carlo_tiled(
        self,
        matrix: np.ndarray,
        trials: int,
        seed_offset: int = 0,
        trial_stride: int = TRIAL_SEED_STRIDE,
    ) -> MonteCarloTiledMatrix:
        """Program a mapped matrix onto tiles ``trials`` times, stacked."""
        return MonteCarloTiledMatrix(
            matrix=matrix,
            array=self.array,
            trials=trials,
            peripherals=self.peripherals,
            noise=self.noise,
            input_bits=self.input_bits,
            output_bits=self.output_bits,
            seed=self.seed + seed_offset,
            trial_stride=trial_stride,
            backend=self.backend,
        )

    def dense_monte_carlo_plan(
        self,
        weight_matrix: np.ndarray,
        trials: int,
        geometry: Optional[ConvGeometry] = None,
        trial_stride: int = TRIAL_SEED_STRIDE,
    ) -> MonteCarloPlan:
        """Monte-Carlo plan of the dense (im2col) mapping of ``y = W x``."""
        return self._plan("dense", [weight_matrix], weight_matrix, geometry, trials, trial_stride)

    def lowrank_monte_carlo_plan(
        self,
        weight_matrix: np.ndarray,
        rank: int,
        trials: int,
        groups: int = 1,
        geometry: Optional[ConvGeometry] = None,
        trial_stride: int = TRIAL_SEED_STRIDE,
    ) -> MonteCarloPlan:
        """Monte-Carlo plan of the grouped two-stage low-rank computation.

        Trial ``t`` is bit-identical to
        ``trial_context(t).lowrank_plan(...)``: same factors, same stage seed
        offsets.
        """
        method, matrices = self._lowrank_stages(weight_matrix, rank, groups)
        return self._plan(method, matrices, weight_matrix, geometry, trials, trial_stride)

    def grouped_conv_monte_carlo_plan(
        self,
        weight: np.ndarray,
        geometry: GroupedConvGeometry,
        trials: int,
        trial_stride: int = TRIAL_SEED_STRIDE,
    ) -> MonteCarloPlan:
        """Monte-Carlo plan of the block-diagonal grouped/depthwise mapping.

        Trial ``t`` is bit-identical to
        ``trial_context(t).grouped_conv_plan(weight, geometry)`` — same tile
        allocation, same per-tile seed offsets.
        """
        method, matrix = self._grouped_matrix(weight, geometry)
        return self._plan(method, [matrix], matrix, geometry, trials, trial_stride)

    def attention_monte_carlo_plan(
        self,
        weights: Union[np.ndarray, List[np.ndarray]],
        geometry: AttentionProjectionGeometry,
        trials: int,
        trial_stride: int = TRIAL_SEED_STRIDE,
    ) -> MonteCarloPlan:
        """Monte-Carlo plan of a stacked attention-projection GEMM."""
        method, matrix = self._attention_matrix(weights, geometry)
        return self._plan(method, [matrix], matrix, geometry, trials, trial_stride)

    def conv_lowrank_plan(
        self, weight: np.ndarray, geometry: ConvGeometry, rank: int, groups: int = 1
    ) -> LayerPlan:
        """Low-rank plan of a convolution given its (out, in, kh, kw) kernel."""
        return self.lowrank_plan(
            weight.reshape(geometry.m, geometry.n), rank=rank, groups=groups, geometry=geometry
        )
