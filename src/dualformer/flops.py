"""Analytic multiply-accumulate counts.

Convention: one MAC per multiply in conv / linear / matmul kernels
(a 1x1 conv mapping 4 to 8 channels over 100 positions costs
4*8*100 = 3200), plus the per-token multiplies the attention ops do.
Biases, normalizations, activations and comparisons are free.
"""
from __future__ import annotations

from .blocks import MBCONV_EXPANSION, split_channels
from .mhpa import MhpaConfig, head_shapes
from .model import ModelConfig, NUM_STAGES


def conv2d_flops(h_out: int, w_out: int, c_in: int, c_out: int, kernel: int, groups: int = 1) -> int:
    return h_out * w_out * c_out * (c_in // groups) * kernel * kernel


def linear_flops(n: int, d_in: int, d_out: int) -> int:
    return n * d_in * d_out


def vanilla_attention_flops(n: int, d: int) -> int:
    """Full softmax attention at width d: three projections plus two n x n products."""
    return 3 * n * d * d + 2 * n * n * d


def partition_attention_flops(n: int, d: int, hash_bits: int = 3, attend: str = "full") -> int:
    """One partition-attention head over n tokens of width d.

    hash n*d*bits, value projection n*d^2, intra-partition weighting
    2*n*d, inter-partition descriptors and importance head
    K*(d*dh + dh + 2*d), aggregation projection n*2d*d. ``attend``
    ``"intra_only"`` or ``"inter_only"`` drops the other stage and its half
    of the aggregation. Every term is linear in n; nothing scales with n^2.
    """
    k = 1 << hash_bits
    _, (_, dh), _, _ = head_shapes(d)
    total = n * d * hash_bits + n * d * d  # hash, value projection
    if attend != "inter_only":  # weighting, and the intra half of aggregation
        total += 2 * n * d + n * d * d
    if attend != "intra_only":  # descriptors, importance, and the inter half
        total += k * (d * dh + dh + 2 * d) + n * d * d
    return total


def mhpa_layer_flops(h: int, w: int, channels: int, cfg: MhpaConfig) -> dict:
    """Whole attention branch on an h x w grid of `channels` features."""
    k = cfg.downsample_rate
    hd, wd = -(-h // k), -(-w // k)
    n = hd * wd
    d = channels // cfg.num_heads
    down = conv2d_flops(hd, wd, channels, channels, 3, groups=channels)
    heads = cfg.num_heads * partition_attention_flops(n, d, cfg.hash_bits, cfg.attend)
    up = conv2d_flops(hd, wd, channels, channels * k * k, 1)
    total = down + heads + up
    return {"down": down, "heads": heads, "up": up, "total": total}


def mbconv_flops(h: int, w: int, channels: int) -> int:
    hidden = MBCONV_EXPANSION * channels
    expand = conv2d_flops(h, w, channels, hidden, 1)
    dw = conv2d_flops(h, w, hidden, hidden, 3, groups=hidden)
    project = conv2d_flops(h, w, hidden, channels, 1)
    return expand + dw + project


def ffn_flops(h: int, w: int, channels: int, hidden: int) -> int:
    return conv2d_flops(h, w, channels, hidden, 1) + conv2d_flops(h, w, hidden, channels, 1)


def block_flops(h: int, w: int, cfg: ModelConfig, stage: int) -> dict:
    """One dual block of `stage` (0-based) at grid h x w."""
    c = cfg.channels[stage]
    conv_c, attn_c = split_channels(c, cfg.mode)
    parts = {"conv": 0, "attn": 0}
    if cfg.mode != "attn_only":
        parts["conv"] = mbconv_flops(h, w, conv_c)
    if cfg.mode != "conv_only":
        parts["attn"] = mhpa_layer_flops(h, w, attn_c, cfg.mhpa_config(stage))["total"]
    parts["ffn"] = ffn_flops(h, w, c, int(round(c * cfg.ffn_ratio)))
    parts["total"] = parts["conv"] + parts["attn"] + parts["ffn"]
    return parts


def count_flops(cfg: ModelConfig, h: int = 224, w: int = 224) -> dict:
    """Per-stage and total MACs for one image at h x w."""
    cfg.validate()
    if h % 32 or w % 32:
        raise ValueError(f"resolution {h}x{w} must be a multiple of 32")
    c1 = cfg.channels[0]
    c_mid = max(2, c1 // 2)
    stem = (
        conv2d_flops(h // 2, w // 2, 3, c_mid, 3)
        + conv2d_flops(h // 4, w // 4, c_mid, c1, 3)
    )
    gh, gw = h // 4, w // 4
    stages = []
    total = stem
    for si in range(NUM_STAGES):
        entry = {"transition": 0, "blocks": 0}
        if si > 0:
            gh, gw = gh // 2, gw // 2
            entry["transition"] = conv2d_flops(gh, gw, cfg.channels[si - 1], cfg.channels[si], 3)
        per_block = block_flops(gh, gw, cfg, si)["total"]
        entry["blocks"] = per_block * cfg.depths[si]
        entry["total"] = entry["transition"] + entry["blocks"]
        entry["grid"] = (gh, gw)
        stages.append(entry)
        total += entry["total"]
    head = linear_flops(1, cfg.channels[-1], cfg.num_classes)
    total += head
    return {"stem": stem, "stages": stages, "head": head, "total": total}
