"""Crossbar non-ideality (noise) models.

Programming a weight onto an RRAM cell and reading it back is not exact: the
paper's hardware substrate (and any NeuroSIM-style evaluation) is subject to
conductance variation, stuck-at faults and IR drop along the bit lines.  The
noise model here perturbs programmed conductance matrices so the simulator can
quantify how compressed mappings behave on imperfect hardware — the "crossbar
noise sim" code path of the reproduction plan.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

__all__ = ["NoiseModel", "apply_conductance_variation", "apply_stuck_at_faults", "apply_ir_drop", "ir_drop_attenuation"]


def apply_conductance_variation(
    conductances: np.ndarray, sigma: float, rng: np.random.Generator
) -> np.ndarray:
    """Multiplicative log-normal device-to-device variation.

    ``sigma`` is the standard deviation of the underlying normal distribution;
    a typical RRAM characterization uses values between 0.05 and 0.3.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    if sigma == 0.0:
        return conductances.copy()
    # sigma · z is bit for bit rng.normal(0.0, sigma), without its slower
    # loc/scale sampling loop.
    factors = rng.standard_normal(conductances.shape)
    factors *= sigma
    np.exp(factors, out=factors)
    factors *= conductances
    return factors


def apply_stuck_at_faults(
    conductances: np.ndarray,
    rate: float,
    g_min: float,
    g_max: float,
    rng: np.random.Generator,
    stuck_on_fraction: float = 0.5,
) -> np.ndarray:
    """Randomly force a fraction of cells to their extreme conductance values.

    Each cell is faulty independently with probability ``rate``.  Half of the
    faulty cells (by default) are stuck at ``g_max`` (SA1) and the rest at
    ``g_min`` (SA0), matching common fault characterizations.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"fault rate must be in [0, 1], got {rate}")
    if not 0.0 <= stuck_on_fraction <= 1.0:
        raise ValueError(f"stuck_on_fraction must be in [0, 1], got {stuck_on_fraction}")
    _check_range(g_min, g_max)
    out = conductances.copy()
    if rate > 0.0:
        _stick_cells(out.reshape(-1), rate, g_min, g_max, rng, stuck_on_fraction)
    return out


def _check_range(g_min: float, g_max: float) -> None:
    if g_min > g_max:
        raise ValueError(f"g_min must not exceed g_max, got {g_min} > {g_max}")


def _stick_cells(
    cells: np.ndarray,
    rate: float,
    g_min: float,
    g_max: float,
    rng: np.random.Generator,
    stuck_on_fraction: float = 0.5,
) -> None:
    """Force a Bernoulli(``rate``) subset of the flat ``cells`` to an extreme, in place.

    Draws one binomial fault count, the faulty positions (without
    replacement) and one polarity uniform per fault.  A uniformly chosen
    subset of a Binomial(n, rate) size makes every cell faulty independently
    with probability ``rate`` — the law of a per-cell uniform mask — while
    drawing only as many values as there are faults.  In place, so a
    programming's draw needs no second buffer.
    """
    count = rng.binomial(cells.size, rate)
    positions = rng.choice(cells.size, size=count, replace=False)
    stuck_on = rng.random(count) < stuck_on_fraction
    cells[positions] = np.where(stuck_on, g_max, g_min)


def ir_drop_attenuation(rows: int, severity: float) -> np.ndarray:
    """Read attenuation of each row of a ``rows``-row array under IR drop.

    1 at the driver-adjacent row, falling linearly to ``1 - severity`` at the
    far end; a single-row array is not attenuated.
    """
    if not 0.0 <= severity < 1.0:
        raise ValueError(f"severity must be in [0, 1), got {severity}")
    if rows == 1 or severity == 0.0:
        return np.ones(rows)
    return 1.0 - severity * (np.arange(rows) / (rows - 1))


def apply_ir_drop(conductances: np.ndarray, severity: float) -> np.ndarray:
    """First-order IR-drop model: rows further from the driver see attenuated reads.

    The attenuation grows linearly with row index up to ``severity`` at the far
    end of the array (a light-weight stand-in for a full SPICE IR-drop solve,
    sufficient to study relative robustness of mappings).
    """
    attenuation = ir_drop_attenuation(conductances.shape[0], severity)
    return conductances * attenuation[:, None]


@dataclass(frozen=True)
class NoiseModel:
    """Composite non-ideality model applied to programmed conductances.

    Attributes
    ----------
    conductance_sigma:
        Log-normal device variation sigma (0 disables it).
    stuck_at_rate:
        Probability of a cell being stuck at an extreme conductance.
    ir_drop_severity:
        Linear attenuation at the far end of the bit lines (0 disables it).
    seed:
        Seed of the internal random generator, for reproducibility.
    """

    conductance_sigma: float = 0.0
    stuck_at_rate: float = 0.0
    ir_drop_severity: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.conductance_sigma < 0:
            raise ValueError("conductance_sigma must be non-negative")
        if not 0.0 <= self.stuck_at_rate <= 1.0:
            raise ValueError("stuck_at_rate must be in [0, 1]")
        if not 0.0 <= self.ir_drop_severity < 1.0:
            raise ValueError("ir_drop_severity must be in [0, 1)")

    @property
    def is_ideal(self) -> bool:
        return (
            self.conductance_sigma == 0.0
            and self.stuck_at_rate == 0.0
            and self.ir_drop_severity == 0.0
        )

    def apply(
        self,
        conductances: np.ndarray,
        g_min: float,
        g_max: float,
        rng: Optional[np.random.Generator] = None,
        attenuation: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Return a perturbed copy of ``conductances``.

        Draws, over the cells in C order: one variation normal per cell, then
        one binomial fault count, the faulty positions and one polarity
        uniform per fault (each mechanism only when enabled).  IR drop then
        scales every cell by ``attenuation``, its physical row's read
        attenuation (broadcastable to ``conductances``; by default the rows
        of a 2-D ``conductances`` are the array's rows), and negative values
        are clipped to 0.
        """
        if self.is_ideal:
            return conductances.copy()
        _check_range(g_min, g_max)
        gen = rng if rng is not None else np.random.default_rng(self.seed)
        out = apply_conductance_variation(conductances, self.conductance_sigma, gen)
        if self.stuck_at_rate > 0.0:
            _stick_cells(out.reshape(-1), self.stuck_at_rate, g_min, g_max, gen)
        if self.ir_drop_severity > 0.0:
            if attenuation is None:
                attenuation = ir_drop_attenuation(out.shape[0], self.ir_drop_severity)[:, None]
            out *= attenuation
        return np.clip(out, 0.0, None, out=out)

    def with_seed(self, seed: int) -> "NoiseModel":
        """The same non-ideality parameters with a different RNG seed.

        The seed only matters for direct :meth:`apply` calls without a
        generator: the crossbar, tile and kernel programmers pass an explicit
        generator seeded from their own ``seed`` (a Monte-Carlo kernel seeds
        trial ``t`` with ``seed + t · trial_stride``), so no sweep reseeds
        the model itself.
        """
        return replace(self, seed=seed)

    @staticmethod
    def ideal() -> "NoiseModel":
        return NoiseModel()

    @staticmethod
    def typical() -> "NoiseModel":
        """A moderately noisy RRAM corner used by the robustness ablation."""
        return NoiseModel(conductance_sigma=0.1, stuck_at_rate=0.001, ir_drop_severity=0.02)
