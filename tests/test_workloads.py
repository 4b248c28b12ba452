"""Tests for the network layer-geometry catalogues."""

from __future__ import annotations

import pytest

from repro.mapping.geometry import (
    AttentionProjectionGeometry,
    GroupedConvGeometry,
    layer_family,
)
from repro.workloads import (
    NETWORKS,
    compressible_geometries,
    mobilenet_cifar_geometries,
    network_entry,
    network_families,
    network_geometries,
    register_network,
    registered_networks,
    resnet20_geometries,
    resnext20_geometries,
    tiny_transformer_geometries,
    wrn16_4_geometries,
)


class TestResNet20Catalogue:
    def test_layer_count(self):
        geometries = resnet20_geometries()
        # 1 stem + 18 block convs + 2 projection shortcuts
        assert len(geometries) == 21

    def test_total_parameter_count_matches_architecture(self):
        total = sum(g.weight_count for g in resnet20_geometries())
        # Conv parameters of ResNet-20 (excluding BN/FC) ≈ 0.268M
        assert 0.25e6 < total < 0.29e6

    def test_spatial_sizes_halve_per_stage(self):
        geometries = {g.name: g for g in resnet20_geometries()}
        assert geometries["layer1.0.conv1"].input_h == 32
        assert geometries["layer2.1.conv1"].input_h == 16
        assert geometries["layer3.1.conv1"].input_h == 8

    def test_channel_progression(self):
        geometries = {g.name: g for g in resnet20_geometries()}
        assert geometries["layer1.0.conv1"].out_channels == 16
        assert geometries["layer2.0.conv1"].out_channels == 32
        assert geometries["layer3.0.conv1"].out_channels == 64

    def test_strides(self):
        geometries = {g.name: g for g in resnet20_geometries()}
        assert geometries["layer2.0.conv1"].stride == 2
        assert geometries["layer2.0.conv2"].stride == 1
        assert geometries["layer2.0.shortcut"].stride == 2


class TestWRNCatalogue:
    def test_layer_count(self):
        geometries = wrn16_4_geometries()
        # 1 stem + 12 block convs + 3 projection shortcuts (every stage widens)
        assert len(geometries) == 16

    def test_total_parameter_count(self):
        total = sum(g.weight_count for g in wrn16_4_geometries())
        # Conv parameters of WRN16-4 ≈ 2.75M
        assert 2.5e6 < total < 3.0e6

    def test_widths(self):
        geometries = {g.name: g for g in wrn16_4_geometries()}
        assert geometries["layer1.0.conv1"].out_channels == 64
        assert geometries["layer2.0.conv1"].out_channels == 128
        assert geometries["layer3.0.conv1"].out_channels == 256


#: The paper's two CIFAR networks, written out independently of the catalogue
#: code: a 3->16 3x3 stem, then three stages of basic blocks (two 3x3 convs
#: each).  A stage's first block enters with stride 1, 2, 2; a block gets a
#: 1x1 projection shortcut when its stride or its width changes.
ARCHITECTURES = {
    # network: (stage widths, blocks per stage, total conv weights, published size)
    "resnet20": ((16, 32, 64), 3, 270_256, 0.27e6),
    "wrn16_4": ((64, 128, 256), 2, 2_742_704, 2.7e6),
}


def architecture_convs(widths, blocks, size=32):
    """(name, in, out, kernel, stride, input size) of every conv, in layer order."""
    convs = [("conv1", 3, 16, 3, 1, size)]
    in_channels, hw = 16, size
    for stage, (width, entry_stride) in enumerate(zip(widths, (1, 2, 2)), start=1):
        for block in range(blocks):
            stride = entry_stride if block == 0 else 1
            prefix = f"layer{stage}.{block}"
            convs.append((f"{prefix}.conv1", in_channels, width, 3, stride, hw))
            convs.append((f"{prefix}.conv2", width, width, 3, 1, hw // stride))
            if stride != 1 or in_channels != width:
                convs.append((f"{prefix}.shortcut", in_channels, width, 1, stride, hw))
            in_channels, hw = width, hw // stride
    return convs


class TestArchitectureCatalogue:
    @pytest.mark.parametrize("network", sorted(ARCHITECTURES))
    def test_catalogue_matches_architecture(self, network):
        widths, blocks, _, _ = ARCHITECTURES[network]
        catalogue = network_geometries(network)
        assert [
            (g.name, g.in_channels, g.out_channels, g.kernel_h, g.stride, g.input_h)
            for g in catalogue
        ] == architecture_convs(widths, blocks)
        for g in catalogue:
            assert (g.kernel_w, g.input_w, g.padding) == (g.kernel_h, g.input_h, g.kernel_h // 2)

    @pytest.mark.parametrize("network", sorted(ARCHITECTURES))
    def test_conv_weights_match_published_size(self, network):
        widths, blocks, total, published = ARCHITECTURES[network]
        expected = sum(
            in_ch * out_ch * kernel * kernel
            for _, in_ch, out_ch, kernel, _, _ in architecture_convs(widths, blocks)
        )
        assert expected == total
        assert sum(g.weight_count for g in network_geometries(network)) == total
        assert total == pytest.approx(published, rel=0.02)


class TestHelpers:
    def test_network_geometries_dispatch(self):
        assert network_geometries("resnet20") == resnet20_geometries()
        assert network_geometries("wrn16_4") == wrn16_4_geometries()
        with pytest.raises(ValueError):
            network_geometries("alexnet")

    @pytest.mark.parametrize("network", NETWORKS)
    def test_compressible_excludes_stem_pointwise(self, network):
        compressible = compressible_geometries(network)
        assert all(g.name != "conv1" for g in compressible)
        assert all(not g.is_pointwise for g in compressible)
        assert compressible  # non-empty

    def test_compressible_counts(self):
        assert len(compressible_geometries("resnet20")) == 18
        assert len(compressible_geometries("wrn16_4")) == 12

    def test_all_names_unique(self):
        for network in registered_networks():
            names = [g.name for g in network_geometries(network)]
            assert len(names) == len(set(names))


class TestRegistry:
    def test_paper_networks_unchanged(self):
        assert NETWORKS == ("resnet20", "wrn16_4")

    def test_zoo_presets_registered(self):
        registered = registered_networks()
        for name in ("resnet20", "wrn16_4", "resnext20", "mobilenet_cifar", "tiny_transformer"):
            assert name in registered

    def test_unknown_network_error_lists_registered(self):
        with pytest.raises(ValueError, match="resnet20.*tiny_transformer"):
            network_geometries("alexnet")

    def test_entry_carries_description(self):
        for name in registered_networks():
            assert network_entry(name).description

    def test_register_network_roundtrip(self):
        entry = register_network("_test_net", lambda size: resnet20_geometries(size))
        try:
            assert network_geometries("_test_net") == resnet20_geometries()
            assert entry.families() == ("conv",)
        finally:
            from repro.workloads.registry import _REGISTRY

            _REGISTRY.pop("_test_net", None)

    def test_network_families(self):
        assert network_families("resnet20") == ("conv",)
        assert network_families("resnext20") == ("conv", "grouped")
        assert network_families("mobilenet_cifar") == ("conv", "depthwise")
        assert network_families("tiny_transformer") == ("attention",)


class TestModernPresets:
    def test_resnext_grouped_layers(self):
        geometries = resnext20_geometries()
        assert len(geometries) == 19  # stem + 3 stages x 2 blocks x 3 convs
        grouped = [g for g in geometries if isinstance(g, GroupedConvGeometry)]
        assert len(grouped) == 6
        assert all(g.groups == 8 for g in grouped)
        assert all(layer_family(g) == "grouped" for g in grouped)

    def test_resnext_spatial_and_width_progression(self):
        geometries = {g.name: g for g in resnext20_geometries()}
        assert geometries["layer1.0.gconv"].out_channels == 64
        assert geometries["layer2.0.gconv"].out_channels == 128
        assert geometries["layer3.0.gconv"].out_channels == 256
        assert geometries["layer2.0.gconv"].stride == 2
        assert geometries["layer2.1.gconv"].input_h == 16
        assert geometries["layer3.1.gconv"].input_h == 8

    def test_mobilenet_depthwise_layers(self):
        geometries = mobilenet_cifar_geometries()
        depthwise = [g for g in geometries if isinstance(g, GroupedConvGeometry)]
        assert len(depthwise) == 5
        for g in depthwise:
            assert g.is_depthwise
            assert g.groups == g.in_channels == g.out_channels
            assert layer_family(g) == "depthwise"
        pointwise = [g for g in geometries if g.is_pointwise]
        assert len(pointwise) == 5

    def test_transformer_is_all_attention_gemms(self):
        geometries = tiny_transformer_geometries(input_size=32)
        assert len(geometries) == 8  # 2 blocks x (qkv, out, mlp.up, mlp.down)
        for g in geometries:
            assert isinstance(g, AttentionProjectionGeometry)
            assert g.seq_len == 32
            assert g.num_windows == 32
        qkv = next(g for g in geometries if g.name == "block0.attn.qkv")
        assert qkv.projections == 3
        assert (qkv.m, qkv.n) == (192, 64)
        up = next(g for g in geometries if g.name == "block0.mlp.up")
        assert (up.m, up.n) == (256, 64)

    def test_transformer_input_size_is_sequence_length(self):
        for seq_len in (8, 32):
            for g in tiny_transformer_geometries(input_size=seq_len):
                assert g.seq_len == seq_len

    def test_grouped_weight_counts_exclude_structural_zeros(self):
        for g in resnext20_geometries() + mobilenet_cifar_geometries():
            if isinstance(g, GroupedConvGeometry):
                assert g.weight_count * g.groups == g.dense_weight_count
