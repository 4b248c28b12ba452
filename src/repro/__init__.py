"""repro — reproduction of "Low-Rank Compression for IMC Arrays" (DATE 2025).

The package is organized by subsystem (see ENGINE.md for the full inventory):

* :mod:`repro.mapping`      — im2col / SDK / VW-SDK weight mapping and the AR/AC cycle model,
* :mod:`repro.lowrank`      — the paper's contribution: group low-rank + SDK-aware factor mapping,
* :mod:`repro.imc`          — crossbar arrays, peripherals, energy model, noise, method reports,
* :mod:`repro.engine`       — batched execution plans, decomposition cache, sweep driver,
* :mod:`repro.training`     — the calibrated accuracy proxy,
* :mod:`repro.analysis`     — Pareto fronts, tables, ASCII plots,
* :mod:`repro.experiments`  — one harness per paper table / figure,
* :mod:`repro.store`        — persistent experiment store (canonical fingerprints,
  content-addressed artifacts; makes sweeps incremental, resumable, shardable),
* :mod:`repro.parallel`     — process-parallel sweep execution with store-shard
  work stealing (``--workers N`` / ``$REPRO_WORKERS``),
* :mod:`repro.workloads`    — layer-geometry catalogues of ResNet-20, WRN16-4 and the zoo.

No registered experiment runs the model-level substrate, so neither
``import repro`` nor the CLI loads it; import it by module path:

* :mod:`repro.nn`           — numpy autograd framework, layers, optimizers, models,
* :mod:`repro.data`         — synthetic CIFAR-like datasets and loaders,
* :mod:`repro.quantization` — DoReFa / uniform QAT,
* :mod:`repro.pruning`      — pattern pruning, PAIRS and structured pruning baselines,
* :mod:`repro.lowrank.layers`, :mod:`repro.lowrank.compress`,
  :mod:`repro.lowrank.rank_allocation`, :mod:`repro.lowrank.search` — compressed
  layers, model compression, rank allocation and rank / group sweeps,
* :mod:`repro.imc.bitslicing`, :mod:`repro.imc.scheduler` — bit-sliced weights
  and chip-level scheduling,
* :mod:`repro.training.trainer`, :mod:`repro.training.evaluate`,
  :mod:`repro.training.seeds` — training loop, evaluation and seeding.

Quick start::

    from repro import mapping, workloads
    layer = workloads.compressible_geometries("resnet20")[8]
    array = mapping.ArrayDims.square(64)
    dense = mapping.im2col_cycles(layer, array).cycles
    ours = mapping.lowrank_cycles(layer, array, rank=layer.m // 8, groups=4, use_sdk=True).cycles
"""

from . import analysis, imc, lowrank, mapping, training, workloads
from .lowrank import group_decompose
from .mapping import ArrayDims, ConvGeometry, ParallelWindow, SDKMapping
from .training import AccuracyProxy

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "mapping",
    "lowrank",
    "imc",
    "training",
    "analysis",
    "workloads",
    "group_decompose",
    "ArrayDims",
    "ConvGeometry",
    "ParallelWindow",
    "SDKMapping",
    "AccuracyProxy",
]
