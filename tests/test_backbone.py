"""Branch fusion algebra and the staged convolutional trunk."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vprkit.backbone import (
    DEFAULT_SPEC,
    NetworkSpec,
    RepVggBlock,
    StageSpec,
    backbone_forward,
    block_forward_fused,
    block_forward_multibranch,
    count_params_flops,
    random_backbone,
    reparameterize_backbone,
    reparameterize_block,
)
from vprkit.errors import ShapeError
from vprkit.tensor import BatchNormParams, ConvParams

SEED = 31337


def random_bn(rng, channels) -> BatchNormParams:
    return BatchNormParams(
        gamma=(1.0 + 0.2 * rng.standard_normal(channels)).astype(np.float32),
        beta=(0.1 * rng.standard_normal(channels)).astype(np.float32),
        running_mean=(0.2 * rng.standard_normal(channels)).astype(np.float32),
        running_var=rng.uniform(0.25, 2.0, channels).astype(np.float32),
        eps=1e-5,
    )


def random_block(rng, cin, cout, stride, with_1x1=True, with_identity=True) -> RepVggBlock:
    """A legal block with randomly weighted branches."""

    def conv(k, padding):
        return ConvParams(
            weight=(rng.standard_normal((cout, cin, k, k)) * np.sqrt(2.0 / (cin * k * k))).astype(np.float32),
            bias=rng.standard_normal(cout).astype(np.float32) * 0.1,
            stride=stride,
            padding=padding,
        )

    from vprkit.backbone import ConvBnBranch

    identity_ok = with_identity and cin == cout and stride == 1
    return RepVggBlock(
        conv3x3=ConvBnBranch(conv=conv(3, 1), bn=random_bn(rng, cout)),
        conv1x1=ConvBnBranch(conv=conv(1, 0), bn=random_bn(rng, cout)) if with_1x1 else None,
        identity_bn=random_bn(rng, cin) if identity_ok else None,
        stride=stride,
    )


class TestBlockFusion:
    @pytest.mark.parametrize("with_1x1", [True, False])
    @pytest.mark.parametrize("with_identity", [True, False])
    def test_fused_equals_multibranch(self, with_1x1, with_identity):
        rng = np.random.default_rng(SEED)
        block = random_block(rng, 5, 5, 1, with_1x1, with_identity)
        fused = reparameterize_block(block)
        x = rng.standard_normal((2, 5, 9, 9)).astype(np.float32)
        assert_allclose(block_forward_fused(x, fused), block_forward_multibranch(x, block), atol=1e-5)

    def test_strided_block_fuses(self):
        rng = np.random.default_rng(SEED + 1)
        block = random_block(rng, 3, 7, 2)
        fused = reparameterize_block(block)
        x = rng.standard_normal((1, 3, 10, 10)).astype(np.float32)
        a = block_forward_fused(x, fused)
        b = block_forward_multibranch(x, block)
        assert a.shape == b.shape == (1, 7, 5, 5)
        assert_allclose(a, b, atol=1e-5)

    def test_fused_kernel_is_single_3x3(self):
        rng = np.random.default_rng(SEED + 2)
        fused = reparameterize_block(random_block(rng, 4, 6, 1))
        assert fused.weight.shape == (6, 4, 3, 3)
        assert fused.padding == 1

    def test_identity_requires_matching_shape(self):
        rng = np.random.default_rng(SEED + 3)
        from vprkit.backbone import ConvBnBranch

        conv = ConvParams(
            weight=rng.standard_normal((4, 3, 3, 3)).astype(np.float32),
            bias=np.zeros(4, np.float32),
            stride=1,
            padding=1,
        )
        with pytest.raises(ShapeError):
            RepVggBlock(
                conv3x3=ConvBnBranch(conv=conv, bn=random_bn(rng, 4)),
                conv1x1=None,
                identity_bn=random_bn(rng, 3),
                stride=1,
            )

    def test_wrong_padding_rejected(self):
        rng = np.random.default_rng(SEED + 4)
        from vprkit.backbone import ConvBnBranch

        conv = ConvParams(
            weight=rng.standard_normal((4, 4, 3, 3)).astype(np.float32),
            bias=np.zeros(4, np.float32),
            stride=1,
            padding=0,
        )
        with pytest.raises(ShapeError):
            RepVggBlock(conv3x3=ConvBnBranch(conv=conv, bn=random_bn(rng, 4)), conv1x1=None, identity_bn=None, stride=1)


class TestNetworkFusion:
    def test_small_network_forms_agree(self):
        spec = NetworkSpec(
            stages=(StageSpec(layer_count=2, out_channels=6), StageSpec(layer_count=2, out_channels=10)),
            input_dims=(32, 32),
        )
        for seed in range(5):
            rng = np.random.default_rng(SEED + seed)
            net = reparameterize_backbone(random_backbone(spec, rng, bn="random"))
            x = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
            a = backbone_forward(x, net, fused=False, strict_dims=False)
            b = backbone_forward(x, net, fused=True, strict_dims=False)
            assert_allclose(a, b, atol=1e-4)

    def test_default_layout_forms_agree_relatively(self):
        # The 21-layer stack amplifies magnitudes; float32 spacing scales with
        # them, so this deep check is relative rather than absolute.
        rng = np.random.default_rng(SEED + 9)
        net = reparameterize_backbone(random_backbone(DEFAULT_SPEC, rng, bn="random"))
        x = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
        a = backbone_forward(x, net, fused=False, strict_dims=False).astype(np.float64)
        b = backbone_forward(x, net, fused=True, strict_dims=False).astype(np.float64)
        rel = np.abs(a - b).max() / max(1.0, np.abs(a).max())
        assert rel < 1e-5

    def test_multibranch_only_backbone_refuses_fused(self):
        # No fusing on the fly: a fused forward runs only a fused form the backbone carries.
        rng = np.random.default_rng(SEED + 10)
        net = random_backbone(SMALL, rng, bn="random")
        assert net.fused is None
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        with pytest.raises(ShapeError, match="does not carry its fused form"):
            backbone_forward(x, net, fused=True, strict_dims=False)

    def test_fused_only_backbone_refuses_multibranch(self):
        rng = np.random.default_rng(SEED + 11)
        net = reparameterize_backbone(random_backbone(SMALL, rng))
        fused_only = dataclasses.replace(net, blocks=None)
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        with pytest.raises(ShapeError):
            backbone_forward(x, fused_only, fused=False, strict_dims=False)


SMALL = NetworkSpec(stages=(StageSpec(layer_count=1, out_channels=4),), input_dims=(16, 16))


class TestForwardShapes:
    def test_stage_shapes_at_default_input(self):
        net = reparameterize_backbone(random_backbone(DEFAULT_SPEC, np.random.default_rng(SEED)))
        x = np.random.default_rng(SEED).standard_normal((1, 3, 480, 640)).astype(np.float32)
        out, stages = backbone_forward(x, net, fused=True, collect_stages=True)
        assert [s.shape for s in stages] == [
            (1, 48, 240, 320),
            (1, 48, 120, 160),
            (1, 96, 60, 80),
            (1, 192, 30, 40),
        ]
        assert out.shape == (1, 192, 30, 40)

    def test_strict_dims_rejects_nonmultiple(self):
        rng = np.random.default_rng(SEED)
        net = random_backbone(SMALL, rng)
        x = rng.standard_normal((1, 3, 21, 32)).astype(np.float32)  # 21 is not a multiple of this layout's stride of 2
        with pytest.raises(ShapeError, match="divisible by 2, the stage layout's total stride"):
            backbone_forward(x, net, strict_dims=True)
        backbone_forward(x, net, strict_dims=False)  # relaxed mode accepts it

    @pytest.mark.parametrize("count, fits, misfits", [(3, (120, 160), (124, 160)), (5, (64, 64), (48, 48))])
    def test_strict_dims_follow_the_layout_stride(self, count, fits, misfits):
        """Strict mode asks for multiples of the layout's total stride (8 for three stages, 32 for
        five), not of the default layout's 16, and then the output is exactly that fraction."""
        spec = NetworkSpec(stages=tuple(StageSpec(layer_count=1, out_channels=4) for _ in range(count)))
        net = random_backbone(spec, np.random.default_rng(SEED))
        stride = 2**count
        out = backbone_forward(np.zeros((1, 3, *fits), np.float32), net)
        assert out.shape[2:] == (fits[0] // stride, fits[1] // stride)
        with pytest.raises(ShapeError, match=f"divisible by {stride},"):
            backbone_forward(np.zeros((1, 3, *misfits), np.float32), net)

    def test_too_small_input_always_rejected(self):
        rng = np.random.default_rng(SEED)
        net = random_backbone(SMALL, rng)
        x = rng.standard_normal((1, 3, 8, 32)).astype(np.float32)
        with pytest.raises(ShapeError):
            backbone_forward(x, net, strict_dims=False)

    def test_relaxed_sizes_follow_conv_formula(self):
        rng = np.random.default_rng(SEED)
        spec = NetworkSpec(
            stages=(StageSpec(layer_count=1, out_channels=4), StageSpec(layer_count=1, out_channels=6)),
            input_dims=(32, 32),
        )
        net = random_backbone(spec, rng)
        out = backbone_forward(rng.standard_normal((1, 3, 30, 17)).astype(np.float32), net, strict_dims=False)
        assert out.shape == (1, 6, 8, 5)  # 30 -> 15 -> 8, 17 -> 9 -> 5


class TestCounts:
    def test_tiny_spec_params_by_hand(self):
        # One 3->4 block, stride 2, no identity: 3x3 branch has 4*3*9+4
        # weights plus 8 bn terms, 1x1 branch has 4*3+4 plus 8.
        spec = NetworkSpec(stages=(StageSpec(layer_count=1, out_channels=4),), input_dims=(16, 16))
        net = random_backbone(spec, np.random.default_rng(SEED))
        params_multi, _ = count_params_flops(net, fused=False)
        assert params_multi == (4 * 27 + 4 + 8) + (4 * 3 + 4 + 8)
        params_fused, _ = count_params_flops(net, fused=True)
        assert params_fused == 4 * 27 + 4

    def test_fused_strictly_cheaper(self):
        net = random_backbone(DEFAULT_SPEC, np.random.default_rng(SEED))
        params_multi, flops_multi = count_params_flops(net, fused=False)
        params_fused, flops_fused = count_params_flops(net, fused=True)
        assert params_fused < params_multi
        assert flops_fused < flops_multi

    def test_layer_plan_matches_stage_layout(self):
        plan = DEFAULT_SPEC.layer_plan()
        assert len(plan) == 21
        strides = [s for (_, _, s, _) in plan]
        assert strides.count(2) == 4  # one downsampling layer per stage
        identities = [has_id for (_, _, _, has_id) in plan]
        assert identities.count(False) == 4  # exactly the strided layers


class TestRandomBackbone:
    def test_same_seed_same_weights(self):
        a = random_backbone(SMALL, np.random.default_rng(5))
        b = random_backbone(SMALL, np.random.default_rng(5))
        np.testing.assert_array_equal(a.blocks[0].conv3x3.conv.weight, b.blocks[0].conv3x3.conv.weight)

    def test_neutral_bn_by_default(self):
        net = random_backbone(SMALL, np.random.default_rng(6))
        bn = net.blocks[0].conv3x3.bn
        np.testing.assert_array_equal(bn.gamma, np.ones(4, np.float32))
        np.testing.assert_array_equal(bn.running_var, np.ones(4, np.float32))
