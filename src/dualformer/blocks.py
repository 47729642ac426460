"""Backbone building blocks.

A dual block splits channels between a local convolutional branch (inverted
bottleneck) and a global partition-attention branch, concatenates the two,
and finishes with a pre-norm FFN. Both branches and the FFN carry their own
skip connections, and every branch ends in a projection that is zeroed at
init, so a fresh block is exactly the identity map.

Ablation wiring: ``conv_only``/``attn_only`` replace the other branch with a
pass-through on its channel share; ``intra_only``/``inter_only`` keep the
block shape and zero one component inside the attention math; ``series``
runs the inverted bottleneck and the attention layer over the full channel
width one after the other instead of side by side.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .conv import conv2d
from .init import ones_param, trunc_normal, zeros_param
from .mhpa import MhpaConfig, MhpaHeadParams, MhpaParams, mhpa_forward
from .norms import BatchNorm2d, conv_bn, layer_norm_channels, make_batch_norm
from .partition import NormVectors
from .tensor import ShapeError, Tensor, concat, gelu, narrow

MBCONV_EXPANSION = 4
MODES = ("parallel", "series", "conv_only", "attn_only", "intra_only", "inter_only")


def split_channels(channels: int, split_ratio: float, mode: str) -> tuple[int, int]:
    """(conv, attention) branch widths of a block; series runs both at full width."""
    if mode == "series":
        return channels, channels
    conv = int(round(channels * split_ratio))
    return conv, channels - conv


# -- inverted bottleneck branch ---------------------------------------------


@dataclass
class MBConvParams:
    expand_w: Tensor
    bn1: BatchNorm2d
    dw_w: Tensor
    bn2: BatchNorm2d
    proj_w: Tensor
    proj_b: Tensor


def make_mbconv(channels: int, rng: np.random.Generator) -> MBConvParams:
    from . import precision

    hidden = MBCONV_EXPANSION * channels
    dt = precision.default_dtype()
    return MBConvParams(
        expand_w=trunc_normal(rng, (hidden, channels, 1, 1)),
        bn1=make_batch_norm(hidden, dt),
        dw_w=trunc_normal(rng, (hidden, 1, 3, 3)),
        bn2=make_batch_norm(hidden, dt),
        proj_w=zeros_param((channels, hidden, 1, 1)),  # residual terminal
        proj_b=zeros_param(channels),
    )


def mbconv_forward(x: Tensor, p: MBConvParams, train: bool = False) -> Tensor:
    """expand 1x1 -> BN -> GELU -> depthwise 3x3 -> BN -> GELU -> project 1x1,
    added back onto the input."""
    h = gelu(conv_bn(x, p.expand_w, p.bn1, train))
    h = gelu(conv_bn(h, p.dw_w, p.bn2, train, padding=1, groups=h.shape[-1]))
    h = conv2d(h, p.proj_w, p.proj_b)
    return x + h


# -- feed-forward ------------------------------------------------------------


@dataclass
class FfnParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


def make_ffn(channels: int, hidden: int, rng: np.random.Generator) -> FfnParams:
    return FfnParams(
        w1=trunc_normal(rng, (hidden, channels, 1, 1)),
        b1=zeros_param(hidden),
        w2=zeros_param((channels, hidden, 1, 1)),  # residual terminal
        b2=zeros_param(channels),
    )


def ffn_forward(x: Tensor, p: FfnParams) -> Tensor:
    return conv2d(gelu(conv2d(x, p.w1, p.b1)), p.w2, p.b2)


# -- attention branch construction -------------------------------------------


def make_mhpa(
    channels: int, cfg: MhpaConfig, rng: np.random.Generator
) -> MhpaParams:
    if channels % cfg.num_heads:
        raise ShapeError(f"{channels} channels do not split into {cfg.num_heads} heads")
    d = channels // cfg.num_heads
    dh = max(1, d // 4)
    k = cfg.downsample_rate
    heads = []
    for _ in range(cfg.num_heads):
        heads.append(
            MhpaHeadParams(
                token_w=trunc_normal(rng, (d, d)),
                token_b=zeros_param(d),
                imp_w1=trunc_normal(rng, (d, dh)),
                imp_b1=zeros_param(dh),
                imp_w2=trunc_normal(rng, (dh, 1)),
                imp_b2=zeros_param(1),
                agg_w=trunc_normal(rng, (2 * d, d)),
                agg_b=zeros_param(d),
                norms=NormVectors(rng.standard_normal((cfg.hash_bits, d))),
            )
        )
    return MhpaParams(
        ln_gamma=ones_param(channels),
        ln_beta=zeros_param(channels),
        down_w=trunc_normal(rng, (channels, 1, 3, 3)),
        down_b=zeros_param(channels),
        up_w=zeros_param((channels * k * k, channels, 1, 1)),  # residual terminal
        up_b=zeros_param(channels * k * k),
        heads=heads,
    )


# -- dual block ----------------------------------------------------------------


@dataclass
class DualBlockParams:
    channels: int
    mode: str  # one of MODES
    conv_channels: int  # width of the convolutional share under a split
    mbconv: MBConvParams | None
    mhpa: MhpaParams | None
    mhpa_cfg: MhpaConfig | None
    ln2_gamma: Tensor = None
    ln2_beta: Tensor = None
    ffn: FfnParams = None


def make_dual_block(
    channels: int,
    mode: str,
    mhpa_cfg: MhpaConfig,
    rng: np.random.Generator,
    split_ratio: float = 0.5,
    ffn_ratio: float = 4.0,
) -> DualBlockParams:
    if mode not in MODES:
        raise ValueError(f"unknown block mode {mode!r}, expected one of {MODES}")
    conv_c, attn_c = split_channels(channels, split_ratio, mode)
    if conv_c < 1 or attn_c < 1:
        raise ShapeError(
            f"split_ratio {split_ratio} leaves an empty branch at {channels} channels"
        )
    attend = mode if mode in ("intra_only", "inter_only") else "full"
    cfg = replace(mhpa_cfg, attend=attend)
    need_conv = mode != "attn_only"
    need_attn = mode != "conv_only"
    hidden = int(round(channels * ffn_ratio))
    return DualBlockParams(
        channels=channels,
        mode=mode,
        conv_channels=conv_c,
        mbconv=make_mbconv(conv_c, rng) if need_conv else None,
        mhpa=make_mhpa(attn_c, cfg, rng) if need_attn else None,
        mhpa_cfg=cfg if need_attn else None,
        ln2_gamma=ones_param(channels),
        ln2_beta=zeros_param(channels),
        ffn=make_ffn(channels, hidden, rng),
    )


def dual_block_forward(
    x: Tensor,
    p: DualBlockParams,
    train: bool = False,
    sites: dict | None = None,
) -> Tensor:
    if x.shape[-1] != p.channels:
        raise ShapeError(f"block built for {p.channels} channels, input has {x.shape[-1]}")

    if p.mode == "series":
        y = mbconv_forward(x, p.mbconv, train)
        y = mhpa_forward(y, p.mhpa, p.mhpa_cfg, sites)
    else:
        attn_c = p.channels - p.conv_channels
        xc = narrow(x, 3, 0, p.conv_channels)
        xa = narrow(x, 3, p.conv_channels, attn_c)
        conv_out = mbconv_forward(xc, p.mbconv, train) if p.mbconv is not None else xc
        if p.mhpa is not None:
            attn_out = mhpa_forward(xa, p.mhpa, p.mhpa_cfg, sites)
        else:
            attn_out = xa
        y = concat([conv_out, attn_out], axis=3)

    return y + ffn_forward(layer_norm_channels(y, p.ln2_gamma, p.ln2_beta), p.ffn)


# -- patch embedding -----------------------------------------------------------


@dataclass
class PatchEmbedParams:
    """One or more stride-2 3x3 convs; the stem uses two, stage transitions one."""

    convs: list = field(default_factory=list)  # [(w, bn), ...]


def make_patch_embed(widths: list[int], rng: np.random.Generator) -> PatchEmbedParams:
    from . import precision

    dt = precision.default_dtype()
    convs = []
    for cin, cout in zip(widths[:-1], widths[1:]):
        convs.append((trunc_normal(rng, (cout, cin, 3, 3)), make_batch_norm(cout, dt)))
    return PatchEmbedParams(convs=convs)


def patch_embed_forward(x: Tensor, p: PatchEmbedParams, train: bool = False) -> Tensor:
    """Halves the resolution once per conv; GELU between convs, none after the last."""
    for i, (w, bn) in enumerate(p.convs):
        if min(x.shape[1:3]) < 2:
            raise ShapeError(f"patch embed: map {x.shape} too small to halve")
        x = conv_bn(x, w, bn, train, stride=2, padding=1)
        if i + 1 < len(p.convs):
            x = gelu(x)
    return x
