"""Compact four-stage convolutional backbone with structural re-parameterization.

Blocks follow the RepVGG recipe: a 3x3 conv, a parallel 1x1 conv, and (when
shapes permit) an identity path, each followed by batch norm, summed, then
relu. At inference time the three branches are fused into a single 3x3 conv
with bias. reparameterize_backbone keeps both forms, so the transform stays
checkable; the deploy model (ModelParams.with_fused) keeps the fused form alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ShapeError
from .tensor import (
    BatchNormParams,
    ConvParams,
    Tensor4,
    as_tensor4,
    batchnorm_infer,
    conv2d,
    conv_output_size,
    neutral_batchnorm,
    relu,
)


@dataclass(frozen=True)
class ConvBnBranch:
    """One conv followed by inference-time batch norm."""

    conv: ConvParams
    bn: BatchNormParams

    def __post_init__(self) -> None:
        if self.conv.out_channels != self.bn.channels:
            raise ShapeError(
                f"branch conv produces {self.conv.out_channels} channels but its bn expects {self.bn.channels}"
            )


@dataclass(frozen=True)
class RepVggBlock:
    """Multibranch unit: 3x3 + 1x1 + optional identity, each batch-normed, summed, relu'd.

    The identity path is only legal when input and output channels match and
    stride is 1; construction enforces that.
    """

    conv3x3: ConvBnBranch
    conv1x1: Optional[ConvBnBranch]
    identity_bn: Optional[BatchNormParams]
    stride: int

    def __post_init__(self) -> None:
        k = self.conv3x3.conv.kernel_size
        if k != (3, 3) or self.conv3x3.conv.padding != 1:
            raise ShapeError(f"main branch must be a 3x3 conv with padding 1, got kernel {k}")
        if self.conv3x3.conv.stride != self.stride:
            raise ShapeError("main branch stride disagrees with block stride")
        if self.conv1x1 is not None:
            if self.conv1x1.conv.kernel_size != (1, 1) or self.conv1x1.conv.padding != 0:
                raise ShapeError("secondary branch must be a 1x1 conv with padding 0")
            if self.conv1x1.conv.stride != self.stride:
                raise ShapeError("secondary branch stride disagrees with block stride")
            if self.conv1x1.conv.out_channels != self.out_channels or self.conv1x1.conv.in_channels != self.in_channels:
                raise ShapeError("secondary branch channel counts disagree with main branch")
        if self.identity_bn is not None:
            if self.in_channels != self.out_channels or self.stride != 1:
                raise ShapeError("identity path requires matching channels and stride 1")
            if self.identity_bn.channels != self.out_channels:
                raise ShapeError("identity bn channel count disagrees with block output channels")

    @property
    def in_channels(self) -> int:
        return self.conv3x3.conv.in_channels

    @property
    def out_channels(self) -> int:
        return self.conv3x3.conv.out_channels


@dataclass(frozen=True)
class StageSpec:
    """layer_count blocks producing out_channels, the first at first_stride."""

    layer_count: int
    out_channels: int
    first_stride: int = 2


@dataclass(frozen=True)
class NetworkSpec:
    """Stage layout plus the working input resolution (height, width)."""

    stages: tuple[StageSpec, ...]
    input_dims: tuple[int, int] = (480, 640)
    in_channels: int = 3

    def layer_plan(self) -> list[tuple[int, int, int, bool]]:
        """Per layer: (in_channels, out_channels, stride, has_identity)."""
        plan: list[tuple[int, int, int, bool]] = []
        c = self.in_channels
        for stage in self.stages:
            for i in range(stage.layer_count):
                stride = stage.first_stride if i == 0 else 1
                out = stage.out_channels
                plan.append((c, out, stride, c == out and stride == 1))
                c = out
        return plan

    def stage_ends(self) -> list[int]:
        """Index one past the last layer of each stage."""
        ends, total = [], 0
        for stage in self.stages:
            total += stage.layer_count
            ends.append(total)
        return ends


# Default layout: 21 layers in four stages, halving resolution at each stage
# entry, so a divisible input comes out at 1/16 scale with 192 channels.
DEFAULT_SPEC = NetworkSpec(
    stages=(
        StageSpec(1, 48),
        StageSpec(2, 48),
        StageSpec(4, 96),
        StageSpec(14, 192),
    )
)


@dataclass(frozen=True)
class Backbone:
    """A network in multibranch form, fused form, or both."""

    spec: NetworkSpec
    blocks: Optional[tuple[RepVggBlock, ...]]
    fused: Optional[tuple[ConvParams, ...]] = None

    def __post_init__(self) -> None:
        if self.blocks is None and self.fused is None:
            raise ShapeError("a backbone needs at least one of its multibranch and fused forms")
        n = len(self.spec.layer_plan())
        if self.blocks is not None and len(self.blocks) != n:
            raise ShapeError(f"spec expects {n} layers, got {len(self.blocks)} blocks")
        if self.fused is not None and len(self.fused) != n:
            raise ShapeError(f"spec expects {n} layers, got {len(self.fused)} fused convs")


def fuse_bn_into_conv(conv: ConvParams, bn: BatchNormParams) -> ConvParams:
    """Fold inference-time batch norm into the preceding conv's weight and bias."""
    if conv.out_channels != bn.channels:
        raise ShapeError(f"conv yields {conv.out_channels} channels, bn expects {bn.channels}")
    inv = bn.gamma.astype(np.float64) / np.sqrt(bn.running_var.astype(np.float64) + bn.eps)
    weight = conv.weight.astype(np.float64) * inv[:, None, None, None]
    bias = (conv.bias.astype(np.float64) - bn.running_mean.astype(np.float64)) * inv + bn.beta.astype(np.float64)
    return ConvParams(
        weight=weight.astype(np.float32),
        bias=bias.astype(np.float32),
        stride=conv.stride,
        padding=conv.padding,
    )


def _pad_1x1_to_3x3(weight: np.ndarray) -> np.ndarray:
    return np.pad(weight, ((0, 0), (0, 0), (1, 1), (1, 1)))


def _identity_kernel(channels: int) -> np.ndarray:
    kernel = np.zeros((channels, channels, 3, 3), dtype=np.float32)
    kernel[np.arange(channels), np.arange(channels), 1, 1] = 1.0
    return kernel


def reparameterize_block(block: RepVggBlock) -> ConvParams:
    """Collapse all branches into one 3x3 conv (padding 1, block stride) with bias."""
    fused3 = fuse_bn_into_conv(block.conv3x3.conv, block.conv3x3.bn)
    weight = fused3.weight.astype(np.float64)
    bias = fused3.bias.astype(np.float64)
    if block.conv1x1 is not None:
        fused1 = fuse_bn_into_conv(block.conv1x1.conv, block.conv1x1.bn)
        weight = weight + _pad_1x1_to_3x3(fused1.weight.astype(np.float64))
        bias = bias + fused1.bias.astype(np.float64)
    if block.identity_bn is not None:
        id_conv = ConvParams(
            weight=_identity_kernel(block.out_channels),
            bias=np.zeros(block.out_channels, dtype=np.float32),
            stride=1,
            padding=1,
        )
        fused_id = fuse_bn_into_conv(id_conv, block.identity_bn)
        weight = weight + fused_id.weight.astype(np.float64)
        bias = bias + fused_id.bias.astype(np.float64)
    return ConvParams(weight=weight.astype(np.float32), bias=bias.astype(np.float32), stride=block.stride, padding=1)


def reparameterize_backbone(net: Backbone) -> Backbone:
    """Return the same network with its fused form populated."""
    if net.blocks is None:
        return net  # already fused-only; nothing to derive from
    fused = tuple(reparameterize_block(b) for b in net.blocks)
    return replace(net, fused=fused)


def block_forward_multibranch(x: Tensor4, block: RepVggBlock) -> Tensor4:
    """relu of the sum of the batch-normed branch outputs."""
    x = as_tensor4(x)
    out = batchnorm_infer(conv2d(x, block.conv3x3.conv), block.conv3x3.bn).astype(np.float64)
    if block.conv1x1 is not None:
        out = out + batchnorm_infer(conv2d(x, block.conv1x1.conv), block.conv1x1.bn)
    if block.identity_bn is not None:
        out = out + batchnorm_infer(x, block.identity_bn)
    return relu(out.astype(np.float32))


def block_forward_fused(x: Tensor4, conv: ConvParams) -> Tensor4:
    out = conv2d(x, conv)
    return np.maximum(out, np.float32(0.0), out=out)


def _check_input_dims(h: int, w: int, spec: NetworkSpec, strict: bool) -> None:
    if h < 16 or w < 16:
        raise ShapeError(f"input {h}x{w} is too small; each axis must be at least 16")
    total = math.prod(stride for _, _, stride, _ in spec.layer_plan())
    if strict and (h % total != 0 or w % total != 0):
        raise ShapeError(
            f"input dims {h}x{w} must be divisible by {total}, the stage layout's total stride "
            "(use strict_dims=False to relax)"
        )


def backbone_forward(
    x: Tensor4,
    net: Backbone,
    fused: bool = False,
    strict_dims: bool = True,
    collect_stages: bool = False,
) -> Tensor4 | tuple[Tensor4, list[Tensor4]]:
    """Run the network over a batch.

    With strict_dims (the default) input height and width must be divisible by
    the product of the layout's strides (16 for the default layout) and the
    output is exactly that fraction per axis; otherwise any input of at least 16
    per axis is accepted and each stage entry sizes its output by the conv
    formula. collect_stages additionally returns the output of each stage.
    """
    x = as_tensor4(x)
    _check_input_dims(x.shape[2], x.shape[3], net.spec, strict_dims)
    layers = net.fused if fused else net.blocks
    if layers is None:
        form = "fused" if fused else "multibranch"
        raise ShapeError(f"{form} forward requested but this backbone does not carry its {form} form")
    step = block_forward_fused if fused else block_forward_multibranch
    stages: list[Tensor4] = []
    ends = set(net.spec.stage_ends())
    for i, layer in enumerate(layers):
        x = step(x, layer)
        if collect_stages and (i + 1) in ends:
            stages.append(x)
    return (x, stages) if collect_stages else x


def form_deviation(net: Backbone, probe: Tensor4) -> tuple[float, float]:
    """Largest elementwise gap between the multibranch and fused outputs on a
    probe batch, absolute and relative to max(1, largest multibranch output).
    The backbone must carry both forms (see reparameterize_backbone).

    Deep stacks reach activation magnitudes where float32 spacing alone exceeds
    any fixed absolute budget, so verdicts on them read the relative figure.
    """
    multi = backbone_forward(probe, net, fused=False, strict_dims=False)
    fused = backbone_forward(probe, net, fused=True, strict_dims=False)
    deviation = float(np.abs(multi.astype(np.float64) - fused.astype(np.float64)).max())
    return deviation, deviation / max(1.0, float(np.abs(multi).max()))


def random_backbone(spec: NetworkSpec, rng: np.random.Generator, bn: str = "neutral") -> Backbone:
    """Draw conv weights from a fan-in-scaled Gaussian; bn is "neutral" or "random"."""
    if bn not in ("neutral", "random"):
        raise ValueError(f"bn must be 'neutral' or 'random', got {bn!r}")

    def make_bn(channels: int) -> BatchNormParams:
        if bn == "neutral":
            return neutral_batchnorm(channels)
        return BatchNormParams(
            gamma=(1.0 + 0.2 * rng.standard_normal(channels)).astype(np.float32),
            beta=(0.1 * rng.standard_normal(channels)).astype(np.float32),
            running_mean=(0.2 * rng.standard_normal(channels)).astype(np.float32),
            running_var=rng.uniform(0.25, 2.0, channels).astype(np.float32),
        )

    def make_conv(cin: int, cout: int, k: int, stride: int) -> ConvParams:
        fan_in = cin * k * k
        weight = rng.standard_normal((cout, cin, k, k)) * np.sqrt(2.0 / fan_in)
        return ConvParams(
            weight=weight.astype(np.float32),
            bias=np.zeros(cout, dtype=np.float32),
            stride=stride,
            padding=1 if k == 3 else 0,
        )

    blocks = []
    for cin, cout, stride, has_identity in spec.layer_plan():
        blocks.append(
            RepVggBlock(
                conv3x3=ConvBnBranch(make_conv(cin, cout, 3, stride), make_bn(cout)),
                conv1x1=ConvBnBranch(make_conv(cin, cout, 1, stride), make_bn(cout)),
                identity_bn=make_bn(cout) if has_identity else None,
                stride=stride,
            )
        )
    return Backbone(spec=spec, blocks=tuple(blocks))


def count_params_flops(
    net: Backbone, fused: bool = False, input_dims: Optional[tuple[int, int]] = None
) -> tuple[int, int]:
    """Exact learned-parameter count and analytic multiply-add count at input_dims
    (height, width), by default the spec's.

    Parameters: conv weights and biases, plus gamma/beta for each batch norm
    (running statistics are not parameters). Multiply-adds: kernel products for
    convs, one per element for inference batch norm; plain sums and relu are
    free under this convention.
    """
    h, w = input_dims or net.spec.input_dims
    params = 0
    macs = 0
    for cin, cout, stride, has_identity in net.spec.layer_plan():
        oh = conv_output_size(h, 3, stride, 1)
        ow = conv_output_size(w, 3, stride, 1)
        elems = oh * ow * cout
        if fused:
            params += cout * cin * 9 + cout
            macs += elems * cin * 9
        else:
            params += (cout * cin * 9 + cout) + 2 * cout  # 3x3 conv + its bn
            macs += elems * cin * 9 + elems
            params += (cout * cin + cout) + 2 * cout  # 1x1 conv + its bn
            macs += elems * cin + elems
            if has_identity:
                params += 2 * cout
                macs += elems
        h, w = oh, ow
    return params, macs
