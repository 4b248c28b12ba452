"""Low-rank compression for IMC arrays — the paper's primary contribution.

Sub-modules:

* :mod:`repro.lowrank.decompose`   — truncated SVD ``D(·)`` and rank utilities,
* :mod:`repro.lowrank.group`       — group low-rank decomposition ``D_g(·)`` (Theorem 1),
* :mod:`repro.lowrank.sdk_lowrank` — SDK-aware factor mapping ``(I_N ⊗ L)·SDK(R)`` (Theorem 2).

These are what the experiments run and all this package re-exports.  The
model-level modules build on :mod:`repro.nn` and are imported by path:

* :mod:`repro.lowrank.layers`          — drop-in compressed convolution / linear layers,
* :mod:`repro.lowrank.compress`        — model-level compression API and reports,
* :mod:`repro.lowrank.rank_allocation` — per-layer rank allocation under budgets,
* :mod:`repro.lowrank.search`          — rank / group sweeps and Pareto-front extraction.
"""

from .decompose import (
    LowRankFactors,
    decompose,
    optimal_rank_for_error,
    parameter_count,
    rank_for_compression_ratio,
    reconstruction_error,
    relative_error,
    singular_value_energy,
    truncated_svd,
)
from .group import (
    GroupLowRankFactors,
    group_decompose,
    group_reconstruction_error,
    group_relative_error,
    shared_left_factors,
    split_columns,
    theorem1_errors,
)
from .sdk_lowrank import (
    SDKLowRankMapping,
    kron_identity,
    sdk_group_lowrank_factors,
    sdk_lowrank_factors,
    verify_theorem2,
)

__all__ = [
    # decompose
    "LowRankFactors",
    "truncated_svd",
    "decompose",
    "reconstruction_error",
    "relative_error",
    "singular_value_energy",
    "optimal_rank_for_error",
    "rank_for_compression_ratio",
    "parameter_count",
    # group
    "GroupLowRankFactors",
    "split_columns",
    "group_decompose",
    "group_reconstruction_error",
    "group_relative_error",
    "shared_left_factors",
    "theorem1_errors",
    # sdk lowrank
    "SDKLowRankMapping",
    "kron_identity",
    "sdk_lowrank_factors",
    "sdk_group_lowrank_factors",
    "verify_theorem2",
]
