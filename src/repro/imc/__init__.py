"""IMC hardware substrate: crossbars, tiles, peripherals, energy model, noise, method reports.

No experiment runs bit-sliced weights (:mod:`repro.imc.bitslicing`) or the
chip-level scheduler (:mod:`repro.imc.scheduler`), so this package does not
load them; import them by path.
"""

from .crossbar import CrossbarArray, conductances_to_weights, weights_to_conductances
from .energy import (
    EnergyBreakdown,
    EnergyModel,
    LayerEnergy,
    NetworkEnergy,
    aggregate_energy,
)
from .noise import (
    NoiseModel,
    apply_conductance_variation,
    apply_ir_drop,
    apply_stuck_at_faults,
)
from .peripherals import (
    ADCSpec,
    CellSpec,
    DACSpec,
    MuxSpec,
    PeripheralSuite,
    ZeroSkipSpec,
    default_peripherals,
)
from .reports import (
    LayerHardwareRecord,
    MethodComparison,
    MethodSpec,
    NetworkHardwareReport,
    build_report,
    compare_methods,
)
from .tiles import TiledMatrix

__all__ = [
    "CrossbarArray",
    "weights_to_conductances",
    "conductances_to_weights",
    "EnergyBreakdown",
    "EnergyModel",
    "LayerEnergy",
    "NetworkEnergy",
    "aggregate_energy",
    "NoiseModel",
    "apply_conductance_variation",
    "apply_stuck_at_faults",
    "apply_ir_drop",
    "ADCSpec",
    "DACSpec",
    "CellSpec",
    "MuxSpec",
    "ZeroSkipSpec",
    "PeripheralSuite",
    "default_peripherals",
    "TiledMatrix",
    "MethodSpec",
    "MethodComparison",
    "LayerHardwareRecord",
    "NetworkHardwareReport",
    "build_report",
    "compare_methods",
]
