"""The calibrated accuracy proxy.

No experiment trains a model, so the training loop
(:mod:`repro.training.trainer`) and evaluation (:mod:`repro.training.evaluate`),
which build on :mod:`repro.nn`, and the seeding helpers
(:mod:`repro.training.seeds`) are not loaded here; import them by path.
"""

from .proxy import (
    BASELINE_ACCURACY,
    PATTERN_ACCURACY,
    QUANTIZATION_ACCURACY,
    TABLE1_ACCURACY,
    AccuracyProxy,
)

__all__ = [
    "AccuracyProxy",
    "BASELINE_ACCURACY",
    "TABLE1_ACCURACY",
    "PATTERN_ACCURACY",
    "QUANTIZATION_ACCURACY",
]
