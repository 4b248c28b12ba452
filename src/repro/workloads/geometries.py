"""Layer-geometry catalogues of the paper's evaluation networks.

The cycle model, energy model, accuracy proxy and benchmark harnesses all need
the per-layer convolution geometries of ResNet-20 (CIFAR-10) and WRN16-4
(CIFAR-100).  Deriving them from instantiated models would work but is slow
and couples analytical sweeps to the training substrate, so the geometries are
written down explicitly here.  ``tests/nn/test_models.py`` cross-checks them
against the instantiated models of :mod:`repro.nn.models`, and
``tests/test_workloads.py`` against an independent description of both
architectures (stage widths, blocks per stage, stride-2 stage entries, 1×1
projection shortcuts) and their published parameter counts.

Two views are provided per network:

* ``*_geometries``          — every convolution layer, used for baseline totals,
* ``compressible_*``        — the layers the paper actually compresses
  (3×3 convolutions excluding the very first layer; 1×1 projection shortcuts
  and the classifier are left untouched).
"""

from __future__ import annotations

from typing import List

from ..mapping.geometry import ConvGeometry
from .registry import network_geometries, register_network

__all__ = [
    "resnet20_geometries",
    "wrn16_4_geometries",
    "compressible_geometries",
]


def _stage(
    prefix: str,
    blocks: int,
    in_channels: int,
    out_channels: int,
    first_stride: int,
    input_hw: int,
    include_shortcut: bool,
) -> List[ConvGeometry]:
    """Geometries of one ResNet stage of basic blocks (two 3×3 convs per block)."""
    geometries: List[ConvGeometry] = []
    current_in = in_channels
    current_hw = input_hw
    for block in range(blocks):
        stride = first_stride if block == 0 else 1
        geometries.append(
            ConvGeometry(
                in_channels=current_in,
                out_channels=out_channels,
                kernel_h=3,
                kernel_w=3,
                input_h=current_hw,
                input_w=current_hw,
                stride=stride,
                padding=1,
                name=f"{prefix}.{block}.conv1",
            )
        )
        output_hw = current_hw // stride
        geometries.append(
            ConvGeometry(
                in_channels=out_channels,
                out_channels=out_channels,
                kernel_h=3,
                kernel_w=3,
                input_h=output_hw,
                input_w=output_hw,
                stride=1,
                padding=1,
                name=f"{prefix}.{block}.conv2",
            )
        )
        if include_shortcut and block == 0 and (stride != 1 or current_in != out_channels):
            geometries.append(
                ConvGeometry(
                    in_channels=current_in,
                    out_channels=out_channels,
                    kernel_h=1,
                    kernel_w=1,
                    input_h=current_hw,
                    input_w=current_hw,
                    stride=stride,
                    padding=0,
                    name=f"{prefix}.{block}.shortcut",
                )
            )
        current_in = out_channels
        current_hw = output_hw
    return geometries


def resnet20_geometries(input_size: int = 32, include_shortcuts: bool = True) -> List[ConvGeometry]:
    """All convolution layers of ResNet-20 (expansion 1, base width 16) on CIFAR inputs."""
    geometries: List[ConvGeometry] = [
        ConvGeometry(3, 16, 3, 3, input_size, input_size, stride=1, padding=1, name="conv1")
    ]
    geometries += _stage("layer1", 3, 16, 16, 1, input_size, include_shortcuts)
    geometries += _stage("layer2", 3, 16, 32, 2, input_size, include_shortcuts)
    geometries += _stage("layer3", 3, 32, 64, 2, input_size // 2, include_shortcuts)
    return geometries


def wrn16_4_geometries(input_size: int = 32, include_shortcuts: bool = True) -> List[ConvGeometry]:
    """All convolution layers of WRN16-4 ((16-4)/6 = 2 blocks per stage, widen factor 4)."""
    geometries: List[ConvGeometry] = [
        ConvGeometry(3, 16, 3, 3, input_size, input_size, stride=1, padding=1, name="conv1")
    ]
    geometries += _stage("layer1", 2, 16, 64, 1, input_size, include_shortcuts)
    geometries += _stage("layer2", 2, 64, 128, 2, input_size, include_shortcuts)
    geometries += _stage("layer3", 2, 128, 256, 2, input_size // 2, include_shortcuts)
    return geometries


def compressible_geometries(network: str, input_size: int = 32) -> List[ConvGeometry]:
    """The layers the paper compresses: 3×3 convolutions except the first layer.

    The first convolution and the classifier stay dense ("highly sensitive to
    perturbations"), and 1×1 projection shortcuts are left out because their
    im2col matrices have no kernel-dimension redundancy to factor.
    """
    geometries = network_geometries(network, input_size)
    compressible: List[ConvGeometry] = []
    for geometry in geometries:
        if geometry.name == "conv1":
            continue
        if geometry.is_pointwise:
            continue
        compressible.append(geometry)
    return compressible


register_network(
    "resnet20",
    resnet20_geometries,
    description="ResNet-20 on CIFAR-10 — the paper's first evaluation network",
)
register_network(
    "wrn16_4",
    wrn16_4_geometries,
    description="WRN16-4 on CIFAR-100 — the paper's second evaluation network",
)
