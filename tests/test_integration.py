"""End-to-end integration tests covering the full pipeline of the paper:

train a (small) model → compress it with group low-rank → quantize it (QAT) →
map it onto IMC arrays → count cycles / energy → execute it on noisy crossbars
with an :class:`~repro.engine.context.ExecutionContext`.  Every stage uses the
public API exactly as the examples and benchmarks do.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import mapping, quantization
from repro.data.loaders import DataLoader
from repro.data.synthetic import make_tiny_dataset
from repro.engine.context import ExecutionContext
from repro.imc.energy import EnergyModel
from repro.imc.noise import NoiseModel
from repro.imc.peripherals import CellSpec, PeripheralSuite
from repro.lowrank.compress import CompressionSpec, compress_model
from repro.lowrank.layers import GroupLowRankConv2d
from repro.mapping.geometry import ArrayDims, ConvGeometry
from repro.nn.models import SimpleCNN
from repro.nn.modules import Conv2d
from repro.nn.optim import Adam
from repro.training.evaluate import evaluate_accuracy
from repro.training.trainer import Trainer


@pytest.fixture(scope="module")
def trained_model_and_data():
    """A small CNN trained briefly on synthetic data (shared across tests)."""
    dataset = make_tiny_dataset(num_samples=160, num_classes=4, image_size=10, seed=0)
    train, test = dataset.split(0.75, seed=0)
    train_loader = DataLoader(train, batch_size=32, shuffle=True, seed=0)
    test_loader = DataLoader(test, batch_size=32, shuffle=False)
    model = SimpleCNN(num_classes=4, in_channels=3, widths=(8, 16, 16), seed=0)
    trainer = Trainer(model, Adam(model.parameters(), lr=0.01))
    trainer.fit(train_loader, epochs=5)
    return model, train_loader, test_loader


class TestTrainCompressEvaluate:
    def test_training_reached_useful_accuracy(self, trained_model_and_data):
        model, _, test_loader = trained_model_and_data
        assert evaluate_accuracy(model, test_loader) > 0.4  # chance is 0.25

    def test_compression_preserves_most_accuracy(self, trained_model_and_data):
        model, train_loader, test_loader = trained_model_and_data
        baseline = evaluate_accuracy(model, test_loader)

        compressed = SimpleCNN(num_classes=4, in_channels=3, widths=(8, 16, 16), seed=0)
        compressed.load_state_dict(model.state_dict())
        report = compress_model(
            compressed, CompressionSpec(rank_divisor=2, groups=2)
        )
        assert report.compression_ratio > 1.0
        compressed_accuracy = evaluate_accuracy(compressed, test_loader)
        # High-rank grouped compression should stay within a few points of the dense model.
        assert compressed_accuracy >= baseline - 0.25

    def test_grouping_helps_at_aggressive_rank(self, trained_model_and_data):
        """Theorem 1 end to end: at the same rank budget, grouped compression loses less accuracy."""
        model, _, test_loader = trained_model_and_data

        def compressed_accuracy(groups: int) -> float:
            clone = SimpleCNN(num_classes=4, in_channels=3, widths=(8, 16, 16), seed=0)
            clone.load_state_dict(model.state_dict())
            compress_model(clone, CompressionSpec(rank_divisor=8, groups=groups))
            return evaluate_accuracy(clone, test_loader)

        # Grouped compression has strictly lower reconstruction error; on a tiny
        # test set this translates to accuracy at least as good minus noise.
        assert compressed_accuracy(4) >= compressed_accuracy(1) - 0.1

    def test_fine_tuning_recovers_accuracy(self, trained_model_and_data):
        model, train_loader, test_loader = trained_model_and_data
        clone = SimpleCNN(num_classes=4, in_channels=3, widths=(8, 16, 16), seed=0)
        clone.load_state_dict(model.state_dict())
        compress_model(clone, CompressionSpec(rank_divisor=4, groups=2))
        before = evaluate_accuracy(clone, test_loader)
        Trainer(clone, Adam(clone.parameters(), lr=0.005)).fit(train_loader, epochs=3)
        after = evaluate_accuracy(clone, test_loader)
        assert after >= before - 0.05

    def test_qat_on_compressed_model_trains(self, trained_model_and_data):
        model, train_loader, _ = trained_model_and_data
        clone = SimpleCNN(num_classes=4, in_channels=3, widths=(8, 16, 16), seed=0)
        clone.load_state_dict(model.state_dict())
        compress_model(clone, CompressionSpec(rank_divisor=2, groups=2))
        quantization.apply_qat(clone, quantization.QuantizationConfig(weight_bits=4, activation_bits=4))
        trainer = Trainer(clone, Adam(clone.parameters(), lr=0.005))
        history = trainer.fit(train_loader, epochs=2)
        assert history.epochs[-1].train_loss <= history.epochs[0].train_loss + 0.1


class TestMappingAndHardware:
    def test_compressed_model_cycle_accounting(self, trained_model_and_data):
        """Layer-by-layer cycle accounting runs on a compressed model's actual layers.

        Note: these test layers are tiny (few output channels on small feature
        maps), a regime where low-rank factors cannot beat the dense mapping —
        the paper-scale wins are asserted in tests/experiments/test_common.py;
        here we check the accounting itself is consistent and positive.
        """
        model, _, _ = trained_model_and_data
        clone = SimpleCNN(num_classes=4, in_channels=3, widths=(8, 16, 16), seed=0)
        clone.load_state_dict(model.state_dict())
        compress_model(clone, CompressionSpec(rank_divisor=8, groups=2))

        array = ArrayDims.square(32)
        hw = {"features.3": 5, "features.6": 3}  # input sizes after the strided convs (input 10x10)
        dense_total = 0
        compressed_total = 0
        for name, module in clone.named_modules():
            if isinstance(module, GroupLowRankConv2d):
                geometry = ConvGeometry(
                    module.in_channels,
                    module.out_channels,
                    module.kernel_size[0],
                    module.kernel_size[1],
                    hw[name],
                    hw[name],
                    stride=module.stride[0],
                    padding=module.padding[0],
                    name=name,
                )
                dense_total += mapping.im2col_cycles(geometry, array).cycles
                compressed_total += mapping.lowrank_cycles(
                    geometry, array, rank=module.rank, groups=module.groups, use_sdk=True
                ).cycles
        assert 0 < dense_total
        assert 0 < compressed_total
        # Even in this unfavourable regime the two-stage mapping stays within a
        # small constant factor of the dense mapping.
        assert compressed_total <= 2 * dense_total

    def test_energy_model_on_compressed_layer(self):
        geometry = ConvGeometry(16, 16, 3, 3, 10, 10, padding=1, name="x")
        array = ArrayDims.square(32)
        model = EnergyModel()
        ours = model.lowrank_energy(geometry, array, rank=2, groups=4, use_sdk=True).energy_pj
        dense = model.im2col_energy(geometry, array).energy_pj
        assert ours < dense

    def test_crossbar_execution_of_compressed_layer(self, trained_model_and_data):
        """Execute one compressed layer on the noisy crossbar simulator and compare to software."""
        model, _, _ = trained_model_and_data
        conv = None
        for _, module in model.named_modules():
            if isinstance(module, Conv2d) and module.kernel_size == (3, 3) and module.in_channels > 3:
                conv = module
                break
        assert conv is not None
        weight = conv.weight.data
        geometry = ConvGeometry(
            conv.in_channels, conv.out_channels, 3, 3, 8, 8, stride=1, padding=1, name="sim"
        )
        context = ExecutionContext(
            array=ArrayDims.square(32),
            peripherals=PeripheralSuite(cell=CellSpec(conductance_levels=1024)),
            noise=NoiseModel(conductance_sigma=0.02, seed=0),
        )
        inputs = np.random.default_rng(0).standard_normal((1, conv.in_channels, 8, 8))
        dense_result = context.conv_dense_plan(weight, geometry).run(inputs)
        lowrank_result = context.conv_lowrank_plan(
            weight, geometry, rank=conv.out_channels // 2, groups=2
        ).run(inputs)
        assert dense_result.relative_error < 0.15
        assert lowrank_result.relative_error < 0.6
        assert lowrank_result.allocated_tiles > 0

    def test_full_report_strings(self, trained_model_and_data):
        """Compression and QAT reports render human-readable summaries."""
        model, _, _ = trained_model_and_data
        clone = SimpleCNN(num_classes=4, in_channels=3, widths=(8, 16, 16), seed=0)
        clone.load_state_dict(model.state_dict())
        report = compress_model(clone, CompressionSpec(rank_divisor=4, groups=2))
        qat_report = quantization.apply_qat(clone)
        assert "compression" in report.describe()
        assert "quantized" in qat_report.describe()
