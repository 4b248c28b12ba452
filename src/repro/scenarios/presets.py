"""Hardware robustness scenarios: named bundles of crossbar non-idealities.

A :class:`HardwareScenario` packages everything that distinguishes one
deployment substrate from another — the :class:`repro.imc.noise.NoiseModel`
parameters (conductance variation, stuck-at faults, IR drop), the cell
programming resolution and dynamic range, and the DAC/ADC bit widths — so a
robustness experiment can sweep *named hardware corners* instead of ad-hoc
parameter tuples.

The presets model the corners the NVM literature characterizes:

* ``ideal`` — noise-free, high-resolution reference substrate;
* ``typical_rram`` — a healthy RRAM array (moderate log-normal variation,
  rare faults, mild IR drop, 6-bit cells);
* ``worst_case_rram`` — an end-of-life RRAM corner (30 % variation, 1 %
  stuck cells, severe IR drop, 4-bit cells);
* ``pcm_like`` — phase-change-memory-flavoured: drift-dominated variation
  with a compressed conductance dynamic range;
* ``faulty`` — a yield-escape array dominated by stuck-at faults (5 %).

Scenarios are registered in a module-level registry; experiments resolve them
by name (:func:`get_scenario`) and sweep :func:`scenario_names`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from ..engine.context import ExecutionContext
from ..imc.noise import NoiseModel
from ..imc.peripherals import CellSpec, PeripheralSuite, default_peripherals
from ..mapping.geometry import ArrayDims

__all__ = [
    "HardwareScenario",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "scenario_registry",
    "IDEAL",
    "TYPICAL_RRAM",
    "WORST_CASE_RRAM",
    "PCM_LIKE",
    "FAULTY",
]


@dataclass(frozen=True)
class HardwareScenario:
    """One named hardware corner: noise model + cell + converter resolutions.

    ``conductance_levels`` / ``g_min`` / ``g_max`` override the
    :class:`repro.imc.peripherals.CellSpec` programming resolution and dynamic
    range (energies keep the suite defaults — a noisier cell does not change
    the NeuroSIM read-energy constants); ``input_bits`` / ``output_bits`` are
    the DAC/ADC quantization the execution engine applies (``None`` disables
    converter quantization, the paper's idealized setting).
    """

    name: str
    description: str
    conductance_sigma: float = 0.0
    stuck_at_rate: float = 0.0
    ir_drop_severity: float = 0.0
    conductance_levels: int = 16
    g_min: float = 1e-6
    g_max: float = 1e-4
    input_bits: Optional[int] = None
    output_bits: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        # Validate the noise parameters eagerly by constructing the model the
        # scenario will hand to the engine (NoiseModel re-checks the ranges).
        self.noise_model()
        if self.conductance_levels < 2:
            raise ValueError("conductance_levels must be at least 2")
        if not 0 < self.g_min < self.g_max:
            raise ValueError("conductance range must satisfy 0 < g_min < g_max")
        for bits, label in ((self.input_bits, "input_bits"), (self.output_bits, "output_bits")):
            if bits is not None and bits <= 0:
                raise ValueError(f"{label} must be positive when set")

    @property
    def is_ideal(self) -> bool:
        """True when the scenario applies no programming non-idealities."""
        return self.noise_model().is_ideal

    def noise_model(self, seed: int = 0) -> NoiseModel:
        """The composite noise model of this corner."""
        return NoiseModel(
            conductance_sigma=self.conductance_sigma,
            stuck_at_rate=self.stuck_at_rate,
            ir_drop_severity=self.ir_drop_severity,
            seed=seed,
        )

    def cell(self, base: Optional[CellSpec] = None) -> CellSpec:
        """The scenario's cell spec (resolution/range over ``base`` energies)."""
        base = base if base is not None else CellSpec()
        return replace(
            base,
            conductance_levels=self.conductance_levels,
            g_min=self.g_min,
            g_max=self.g_max,
        )

    def peripherals(self, base: Optional[PeripheralSuite] = None) -> PeripheralSuite:
        """A peripheral suite with this scenario's cell substituted in."""
        base = base if base is not None else default_peripherals()
        return replace(base, cell=self.cell(base.cell))

    def context(self, array: ArrayDims, seed: int = 0) -> ExecutionContext:
        """An execution context configured for this hardware corner.

        It runs on the batched engine under the active backend
        (:mod:`repro.backend`).
        """
        return ExecutionContext(
            array=array,
            peripherals=self.peripherals(),
            noise=self.noise_model(seed),
            input_bits=self.input_bits,
            output_bits=self.output_bits,
            seed=seed,
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
#: Registration order doubles as sweep/report order.
_REGISTRY: Dict[str, HardwareScenario] = {}


def register_scenario(scenario: HardwareScenario) -> HardwareScenario:
    """Add (or replace) a scenario in the registry; returns the scenario."""
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> HardwareScenario:
    """Resolve a scenario by name; raises ``KeyError`` with the known names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def scenario_names() -> Tuple[str, ...]:
    """Registered scenario names, in registration (= sweep) order."""
    return tuple(_REGISTRY)


def scenario_registry() -> Dict[str, HardwareScenario]:
    """A copy of the registry, in registration order."""
    return dict(_REGISTRY)


IDEAL = register_scenario(
    HardwareScenario(
        name="ideal",
        description="noise-free reference substrate, 8-bit cells, ideal converters",
        conductance_levels=256,
    )
)

TYPICAL_RRAM = register_scenario(
    HardwareScenario(
        name="typical_rram",
        description="healthy RRAM: 10% variation, 0.1% faults, mild IR drop, 6-bit cells",
        conductance_sigma=0.10,
        stuck_at_rate=0.001,
        ir_drop_severity=0.02,
        conductance_levels=64,
        input_bits=8,
        output_bits=8,
    )
)

WORST_CASE_RRAM = register_scenario(
    HardwareScenario(
        name="worst_case_rram",
        description="end-of-life RRAM: 30% variation, 1% faults, severe IR drop, 4-bit cells",
        conductance_sigma=0.30,
        stuck_at_rate=0.01,
        ir_drop_severity=0.10,
        conductance_levels=16,
        input_bits=6,
        output_bits=6,
    )
)

PCM_LIKE = register_scenario(
    HardwareScenario(
        name="pcm_like",
        description="PCM-flavoured: drift-dominated 15% variation, compressed dynamic range",
        conductance_sigma=0.15,
        stuck_at_rate=0.002,
        ir_drop_severity=0.01,
        conductance_levels=32,
        g_min=5e-6,
        g_max=8e-5,
        input_bits=8,
        output_bits=8,
    )
)

FAULTY = register_scenario(
    HardwareScenario(
        name="faulty",
        description="yield-escape array: 5% stuck cells on an otherwise decent substrate",
        conductance_sigma=0.05,
        stuck_at_rate=0.05,
        ir_drop_severity=0.02,
        conductance_levels=64,
        input_bits=8,
        output_bits=8,
    )
)
