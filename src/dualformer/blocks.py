"""Backbone building blocks.

A dual block splits channels between a local convolutional branch (inverted
bottleneck) and a global partition-attention branch, concatenates the two,
and finishes with a pre-norm FFN. Both branches and the FFN carry their own
skip connections, and every branch ends in a projection that is zeroed at
init, so a fresh block is exactly the identity map.

Ablation wiring: ``conv_only``/``attn_only`` replace the other branch with a
pass-through on its channel share; ``intra_only``/``inter_only`` keep the
block shape and run the attention stage their layer config's ``attend``
names (``ModelConfig.mhpa_config`` maps a mode by :func:`attention_stages`);
``series`` runs the inverted bottleneck and the attention layer over the full
channel width one after the other instead of side by side.

The inverted bottleneck (MBConv) and the FFN are one autodiff node each,
``mbconv`` and ``ffn``, built from the array stages of ``conv``, ``norms``
and ``tensor`` that return ``(out, backward)``. In training mode each of
MBConv's batch norms runs on batch statistics in the op order of the
composed ops. In inference it is folded into the conv before it: BN1's
scale into the expand kernel with its shift as the expand bias, BN2's
scale into the depthwise taps with the accumulator starting at its shift.
With no graph to record, GELU runs in place over a node's own buffers.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import precision
from .conv import _dense, _depthwise
from .init import ones_param, trunc_normal, truncated_normal, zeros_param
from .mhpa import MhpaConfig, MhpaHeadParams, MhpaParams, head_shapes, mhpa_forward
from .norms import BatchNorm2d, _conv_norm, conv_bn, layer_norm_channels, make_batch_norm
from .partition import NormVectors
from .tensor import (
    ShapeError,
    Tensor,
    _channel_sum,
    _check_vectors,
    _coerce,
    _gelu_grad,
    _gelu_into,
    _gelu_parts,
    _make,
    _recording,
    concat,
    gelu,
    narrow,
)

MBCONV_EXPANSION = 4
SPLIT_RATIO = 0.5  # the conv branch's share of a split block's channels
MODES = ("parallel", "series", "conv_only", "attn_only", "intra_only", "inter_only")


def split_channels(channels: int, mode: str) -> tuple[int, int]:
    """(conv, attention) branch widths of a block; series runs both at full width."""
    if mode == "series":
        return channels, channels
    conv = int(round(channels * SPLIT_RATIO))
    return conv, channels - conv


def attention_stages(mode: str) -> str:
    """A block mode's ``MhpaConfig.attend``: the two ablation arms run one stage."""
    return mode if mode in ("intra_only", "inter_only") else "full"


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
    hidden = MBCONV_EXPANSION * channels
    return MBConvParams(
        expand_w=trunc_normal(rng, (hidden, channels, 1, 1)),
        bn1=make_batch_norm(hidden),
        dw_w=trunc_normal(rng, (hidden, 1, 3, 3)),
        bn2=make_batch_norm(hidden),
        proj_w=zeros_param((channels, hidden, 1, 1)),  # residual terminal
        proj_b=zeros_param(channels),
    )


def _check_branch(op: str, x: Tensor, kernels, vectors) -> None:
    """A branch node's input must be a 4-d map, each of its ``(kernel,
    shape)`` pairs must have that shape and the input's dtype, and each of
    its ``(vectors, n)`` pairs must fit ``n`` channels (:func:`_check_vectors`)."""
    if x.ndim != 4:
        raise ShapeError(f"{op}: expected a 4-d map, got {x.shape}")
    for w, shape in kernels:
        if w.shape != shape:
            raise ShapeError(f"{op}: kernel {w.shape} does not fit {x.shape[-1]}-channel "
                             f"input, {shape} expected")
        if w.dtype != x.dtype:
            raise TypeError(f"{op}: mixed dtypes: {x.dtype} vs {w.dtype}")
    for vs, n in vectors:
        _check_vectors(vs, n, x.dtype, op)


def _owned_gelu(h: np.ndarray, keep: bool):
    """GELU of a buffer a node owns: ``(out, backward)``, written over ``h``
    with no backward when no graph is kept."""
    if not keep:
        return _gelu_into(h, h), None
    out, s = _gelu_parts(h)
    return out, lambda g: _gelu_grad(h, s, g)


def mbconv_forward(x: Tensor, p: MBConvParams, train: bool = False) -> Tensor:
    """Expand 1x1 -> BN -> GELU -> depthwise 3x3 -> BN -> GELU -> project
    1x1, added back onto the input, as one ``mbconv`` autodiff node whose
    parents are ``x`` and the branch's eight tensors.

    Training mode normalizes each conv with batch statistics and moves the
    running buffers, in the op order of the composed ops. Inference folds
    each batch norm into the conv before it: BN1's scale into the expand
    kernel with its shift as the expand bias, and BN2's scale into the
    depthwise taps with the accumulator starting at its shift. The backward
    runs the stages in reverse; through the folded weights it is the chain
    rule, so gamma and beta get exact gradients and no scale is divided by.
    """
    op = "mbconv"
    x = _coerce(x)
    hidden, c = p.expand_w.shape[:2]
    parents = (x, p.expand_w, p.bn1.gamma, p.bn1.beta, p.dw_w, p.bn2.gamma, p.bn2.beta,
               p.proj_w, p.proj_b)
    _check_branch(op, x, ((p.expand_w, (hidden, c, 1, 1)), (p.dw_w, (hidden, 1, 3, 3)),
                          (p.proj_w, (c, hidden, 1, 1))),
                  (((p.bn1.gamma, p.bn1.beta, p.bn2.gamma, p.bn2.beta), hidden),
                   ((p.proj_b,), c)))
    keep = _recording(parents)
    expand = lambda h, w, start: _dense(h, w, 1, 0, x.requires_grad, start)
    depthwise = lambda h, w, start: _depthwise(h, w, 1, 1, True, start)
    h, expand_backward = _conv_norm(expand, x.data, p.expand_w, p.bn1, train, op)
    h, gelu1_backward = _owned_gelu(h, keep)
    h, dw_backward = _conv_norm(depthwise, h, p.dw_w, p.bn2, train, op)
    h, gelu2_backward = _owned_gelu(h, keep)
    out, proj_backward = _dense(h, p.proj_w.data, 1, 0, True, p.proj_b.data)
    out += x.data

    def backward(g):
        dh, dproj_w = proj_backward(g)
        dh, ddw_w, dgamma2, dbeta2 = dw_backward(gelu2_backward(dh))
        dx, dexpand_w, dgamma1, dbeta1 = expand_backward(gelu1_backward(dh))
        if dx is not None:
            dx += g
        return (dx, dexpand_w, dgamma1, dbeta1, ddw_w, dgamma2, dbeta2, dproj_w,
                _channel_sum(g))

    return _make(out, parents, backward, op)


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
    """1x1 conv + b1 -> GELU -> 1x1 conv + b2, as one ``ffn`` autodiff node
    whose parents are ``x`` and the four tensors; the block applies the
    pre-norm and the residual around it. With no graph to record, GELU runs
    in place over the hidden map."""
    op = "ffn"
    x = _coerce(x)
    hidden, c = p.w1.shape[:2]
    parents = (x, p.w1, p.b1, p.w2, p.b2)
    _check_branch(op, x, ((p.w1, (hidden, c, 1, 1)), (p.w2, (c, hidden, 1, 1))),
                  (((p.b1,), hidden), ((p.b2,), c)))
    h, in_backward = _dense(x.data, p.w1.data, 1, 0, x.requires_grad, p.b1.data)
    h, gelu_backward = _owned_gelu(h, _recording(parents))
    out, out_backward = _dense(h, p.w2.data, 1, 0, True, p.b2.data)

    def backward(g):
        dh, dw2 = out_backward(g)
        dh = gelu_backward(dh)
        dx, dw1 = in_backward(dh)
        return dx, dw1, _channel_sum(dh), dw2, _channel_sum(g)

    return _make(out, parents, backward, op)


# -- attention branch construction -------------------------------------------


def make_mhpa(
    channels: int, cfg: MhpaConfig, rng: np.random.Generator
) -> MhpaParams:
    if channels % cfg.num_heads:
        raise ShapeError(f"{channels} channels do not split into {cfg.num_heads} heads")
    h, d = cfg.num_heads, channels // cfg.num_heads
    k = cfg.downsample_rate
    shapes = (*head_shapes(d), (cfg.hash_bits, d))
    token_w, imp_w1, imp_w2, agg_w, beta = (np.empty((h, *s)) for s in shapes)
    for i in range(h):  # head by head in field order, as a per-head build draws
        for w in (token_w, imp_w1, imp_w2, agg_w):
            w[i] = truncated_normal(rng, w.shape[1:])
        beta[i] = rng.standard_normal(beta.shape[1:])
    heads = MhpaHeadParams(
        token_w=Tensor(token_w, requires_grad=True), token_b=zeros_param(h * d),
        imp_w1=Tensor(imp_w1, requires_grad=True), imp_b1=zeros_param(h * imp_w1.shape[-1]),
        imp_w2=Tensor(imp_w2, requires_grad=True), imp_b2=zeros_param(h),
        agg_w=Tensor(agg_w, requires_grad=True), agg_b=zeros_param(h * d),
        # drawn in f64, kept in the model's dtype: a checkpoint stores f32,
        # so a reloaded f32 model hashes against the very same planes
        norms=NormVectors(beta.astype(precision.default_dtype())),
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
    ffn_ratio: float = 4.0,
) -> DualBlockParams:
    if mode not in MODES:
        raise ValueError(f"unknown block mode {mode!r}, expected one of {MODES}")
    conv_c, attn_c = split_channels(channels, mode)
    need_conv = mode != "attn_only"
    need_attn = mode != "conv_only"
    if need_attn and mhpa_cfg.attend != attention_stages(mode):
        raise ValueError(f"a {mode!r} block runs attention stages "
                         f"{attention_stages(mode)!r}, its config names {mhpa_cfg.attend!r}")
    hidden = int(round(channels * ffn_ratio))
    return DualBlockParams(
        channels=channels,
        mode=mode,
        conv_channels=conv_c,
        mbconv=make_mbconv(conv_c, rng) if need_conv else None,
        mhpa=make_mhpa(attn_c, mhpa_cfg, rng) if need_attn else None,
        mhpa_cfg=mhpa_cfg if need_attn else None,
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
    convs = []
    for cin, cout in zip(widths[:-1], widths[1:]):
        convs.append((trunc_normal(rng, (cout, cin, 3, 3)), make_batch_norm(cout)))
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
