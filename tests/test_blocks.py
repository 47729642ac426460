"""Dual blocks, the inverted-bottleneck branch, FFN, and patch embeds.

Blocks take channels-last (B, H, W, C) maps; test maps are drawn as
(B, C, H, W) and transposed at the call with ``nhwc``.
"""
import numpy as np
import pytest

from dualformer.blocks import (
    MBCONV_EXPANSION,
    MODES,
    attention_stages,
    dual_block_forward,
    ffn_forward,
    make_dual_block,
    make_ffn,
    make_mbconv,
    make_mhpa,
    make_patch_embed,
    mbconv_forward,
    mhpa_forward,
    patch_embed_forward,
)
from dualformer.mhpa import MhpaConfig
from dualformer.norms import layer_norm_channels
from dualformer.tensor import ShapeError, concat, constant, narrow


def rng(seed=0):
    return np.random.default_rng(seed)


def nhwc(a):
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1))


def rand_map(r, c, h=8, w=8, b=2):
    return constant(nhwc(r.normal(size=(b, c, h, w)).astype(np.float32)))


def count_tensor_params(*tensors):
    return sum(int(t.size) for t in tensors)


# -- mbconv --------------------------------------------------------------


def test_mbconv_identity_at_init():
    p = make_mbconv(6, rng(1))
    x = rand_map(rng(2), 6)
    for train in (False, True):
        out = mbconv_forward(x, p, train=train)
        assert np.array_equal(out.data, x.data)


def test_mbconv_param_count_closed_form():
    c = 6
    hidden = MBCONV_EXPANSION * c
    p = make_mbconv(c, rng(3))
    total = 0
    total += c * hidden                   # expand conv, no bias (bn1 follows)
    total += 2 * hidden                   # bn1 gamma/beta
    total += hidden * 9                   # depthwise 3x3, no bias (bn2 follows)
    total += 2 * hidden                   # bn2 gamma/beta
    total += hidden * c + c               # project conv + bias
    got = count_tensor_params(
        p.expand_w, p.bn1.gamma, p.bn1.beta,
        p.dw_w, p.bn2.gamma, p.bn2.beta, p.proj_w, p.proj_b,
    )
    assert got == total


def test_mbconv_nonzero_after_perturbation():
    p = make_mbconv(4, rng(4))
    p.proj_w.data[:] = 0.05 * rng(5).normal(size=p.proj_w.shape)
    x = rand_map(rng(6), 4)
    out = mbconv_forward(x, p)
    assert not np.array_equal(out.data, x.data)
    assert out.shape == x.shape


# -- ffn -----------------------------------------------------------------


def test_ffn_zero_second_conv_is_zero_map():
    p = make_ffn(5, 20, rng(7))
    x = rand_map(rng(8), 5)
    out = ffn_forward(x, p)
    assert np.all(out.data == 0.0)


def test_ffn_hidden_width_respected():
    p = make_ffn(5, 13, rng(9))
    assert p.w1.shape == (13, 5, 1, 1)
    assert p.w2.shape == (5, 13, 1, 1)


# -- dual block ----------------------------------------------------------


def block_cfg(heads=2, mode="parallel"):
    return MhpaConfig(downsample_rate=2, hash_bits=3, num_heads=heads,
                      attend=attention_stages(mode))


@pytest.mark.parametrize("mode", MODES)
def test_block_exact_identity_at_init(mode):
    p = make_dual_block(8, mode, block_cfg(mode=mode), rng(10))
    assert p.mode == mode
    x = rand_map(rng(11), 8)
    out = dual_block_forward(x, p)
    assert np.array_equal(out.data, x.data)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        make_dual_block(8, "both", block_cfg(), rng(12))


def perturb(p, r):
    """Wake the residual terminals so branches produce signal."""
    if p.mbconv is not None:
        p.mbconv.proj_w.data[:] = 0.05 * r.normal(size=p.mbconv.proj_w.shape)
    if p.mhpa is not None:
        p.mhpa.up_w.data[:] = 0.05 * r.normal(size=p.mhpa.up_w.shape)
    p.ffn.w2.data[:] = 0.05 * r.normal(size=p.ffn.w2.shape)


def test_parallel_matches_manual_composition_bitwise():
    r = rng(13)
    p = make_dual_block(8, "parallel", block_cfg(), r)
    perturb(p, r)
    x = rand_map(rng(14), 8)
    out = dual_block_forward(x, p)

    conv_c = p.conv_channels
    xc = narrow(x, 3, 0, conv_c)
    xa = narrow(x, 3, conv_c, 8 - conv_c)
    yc = mbconv_forward(xc, p.mbconv, train=False)
    ya = mhpa_forward(xa, p.mhpa, p.mhpa_cfg)
    y = concat([yc, ya], axis=3)
    want = y + ffn_forward(layer_norm_channels(y, p.ln2_gamma, p.ln2_beta), p.ffn)
    assert np.array_equal(out.data, want.data)


def test_series_differs_from_parallel():
    r = rng(15)
    cfg = block_cfg()
    pp = make_dual_block(8, "parallel", cfg, rng(16))
    ps = make_dual_block(8, "series", cfg, rng(16))
    perturb(pp, rng(17))
    perturb(ps, rng(17))
    x = rand_map(rng(18), 8)
    a = dual_block_forward(x, pp)
    b = dual_block_forward(x, ps)
    assert not np.allclose(a.data, b.data, atol=1e-5)


def test_series_uses_full_width_branches():
    p = make_dual_block(8, "series", block_cfg(), rng(19))
    assert p.mbconv.expand_w.shape[1] == 8
    assert p.mhpa.down_w.shape[0] == 8
    pp = make_dual_block(8, "parallel", block_cfg(), rng(20))
    assert pp.mbconv.expand_w.shape[1] == 4
    assert pp.mhpa.down_w.shape[0] == 4


def test_conv_only_equals_mbconv_on_its_half():
    r = rng(21)
    p = make_dual_block(8, "conv_only", block_cfg(), r)
    p.mbconv.proj_w.data[:] = 0.05 * r.normal(size=p.mbconv.proj_w.shape)
    x = rand_map(rng(22), 8)
    out = dual_block_forward(x, p)
    # attention half passes through untouched (ffn still zero)
    conv_c = p.conv_channels
    attn_half_in = x.data[..., conv_c:]
    attn_half_out = out.data[..., conv_c:]
    assert np.allclose(attn_half_out, attn_half_in, atol=1e-6)
    conv_half = mbconv_forward(narrow(x, 3, 0, conv_c), p.mbconv).data
    assert np.allclose(out.data[..., :conv_c], conv_half, atol=1e-6)


def test_attn_only_leaves_conv_half_untouched():
    r = rng(23)
    p = make_dual_block(8, "attn_only", block_cfg(), r)
    p.mhpa.up_w.data[:] = 0.05 * r.normal(size=p.mhpa.up_w.shape)
    x = rand_map(rng(24), 8)
    out = dual_block_forward(x, p)
    conv_c = p.conv_channels
    assert np.allclose(out.data[..., :conv_c], x.data[..., :conv_c], atol=1e-6)
    assert not np.allclose(out.data[..., conv_c:], x.data[..., conv_c:], atol=1e-6)


def test_block_sites_replay_partitions():
    r = rng(25)
    p = make_dual_block(8, "parallel", block_cfg(), r)
    perturb(p, r)
    x = rand_map(rng(26), 8)
    sites = {}
    out1 = dual_block_forward(x, p, sites=sites)
    assert list(sites) == [p.mhpa]
    replay = {layer: {"assignment": e["assignment"]} for layer, e in sites.items()}
    out2 = dual_block_forward(x, p, sites=replay)
    assert np.array_equal(out1.data, out2.data)


# -- patch embed -----------------------------------------------------------


def test_patch_embed_halves_per_conv():
    r = rng(27)
    stem = make_patch_embed([3, 8, 16], r)
    x = constant(nhwc(r.normal(size=(2, 3, 32, 32)).astype(np.float32)))
    out = patch_embed_forward(x, stem)
    assert out.data.transpose(0, 3, 1, 2).shape == (2, 16, 8, 8)


def test_patch_embed_single_conv_transition():
    r = rng(28)
    emb = make_patch_embed([16, 32], r)
    x = constant(nhwc(r.normal(size=(1, 16, 8, 8)).astype(np.float32)))
    out = patch_embed_forward(x, emb)
    assert out.data.transpose(0, 3, 1, 2).shape == (1, 32, 4, 4)


def test_patch_embed_rejects_tiny_input():
    r = rng(29)
    stem = make_patch_embed([3, 8, 16], r)
    x = constant(nhwc(np.ones((1, 3, 2, 2), dtype=np.float32)))
    with pytest.raises(ShapeError):
        patch_embed_forward(x, stem)
