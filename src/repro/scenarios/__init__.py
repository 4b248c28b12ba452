"""Hardware robustness scenarios and the batched Monte-Carlo trial layer.

This package turns hardware robustness into a first-class experiment axis:

* :mod:`repro.scenarios.presets` — :class:`HardwareScenario` bundles of
  noise model + cell resolution/dynamic range + DAC/ADC bit widths, with a
  registry of named corners (``ideal``, ``typical_rram``,
  ``worst_case_rram``, ``pcm_like``, ``faulty``);
* the batched Monte-Carlo kernels live in :mod:`repro.engine.kernels`
  (:class:`repro.engine.MonteCarloTiledMatrix`) and are driven from a
  scenario via ``scenario.context(array).dense_plan(..., trials=R)``;
* the registered ``robustness`` experiment
  (:mod:`repro.experiments.robustness`) sweeps scenario × mapping × network.
"""

from .presets import (
    FAULTY,
    IDEAL,
    PCM_LIKE,
    TYPICAL_RRAM,
    WORST_CASE_RRAM,
    HardwareScenario,
    get_scenario,
    register_scenario,
    scenario_names,
    scenario_registry,
)

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
