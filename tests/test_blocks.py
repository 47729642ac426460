"""Dual blocks, the inverted-bottleneck branch, FFN, and patch embeds.

Blocks take channels-last (B, H, W, C) maps; test maps are drawn as
(B, C, H, W) and transposed at the call with ``nhwc``.
"""
import copy

import numpy as np
import pytest

from dualformer import precision
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
from dualformer.conv import conv2d
from dualformer.mhpa import MhpaConfig
from dualformer.model import named_parameters
from dualformer.norms import BN_EPS, batch_norm, layer_norm_channels
from dualformer.tensor import (
    ShapeError,
    Tensor,
    add,
    concat,
    constant,
    gelu,
    graph_records,
    mul,
    narrow,
    no_grad,
    transpose,
    tsum,
)


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


def composed_conv_bn(x, w, bn, train, padding=0, groups=1):
    """A bias-free conv then batch norm: batch statistics in train mode; in
    eval, the running buffers' per-channel ``scale = gamma * inv`` and
    ``shift = beta - mean * scale`` as a biased 1x1 depthwise conv."""
    y = conv2d(x, w, padding=padding, groups=groups)
    if train:
        return batch_norm(y, bn)
    c = y.shape[-1]
    scale = mul(bn.gamma, constant(1.0 / np.sqrt(bn.running_var + BN_EPS)))
    shift = add(bn.beta, mul(constant(-bn.running_mean), scale))
    return conv2d(y, transpose(scale, (0,), out_shape=(c, 1, 1, 1)), shift, groups=c)


def composed_mbconv(x, p, train):
    h = gelu(composed_conv_bn(x, p.expand_w, p.bn1, train))
    h = gelu(composed_conv_bn(h, p.dw_w, p.bn2, train, padding=1, groups=h.shape[-1]))
    return add(x, conv2d(h, p.proj_w, p.proj_b))


def composed_ffn(x, p):
    return conv2d(gelu(conv2d(x, p.w1, p.b1)), p.w2, p.b2)


def awake_mbconv(r, c):
    """f64 MBConv state with every tensor off init: a nonzero projection,
    running buffers, and a gamma with a zero entry in each norm."""
    p = make_mbconv(c, r)
    for t in (p.expand_w, p.dw_w, p.proj_w, p.proj_b):
        t.data = r.normal(size=t.shape)
    for bn in (p.bn1, p.bn2):
        n = bn.gamma.shape[0]
        bn.gamma.data = 1.0 + 0.3 * r.normal(size=n)
        bn.gamma.data[1] = 0.0
        bn.beta.data = r.normal(size=n)
        bn.running_mean = r.normal(size=n)
        bn.running_var = 0.5 + r.random(n)
    return p


def awake_ffn(r, c, hidden):
    p = make_ffn(c, hidden, r)
    for t in (p.w1, p.b1, p.w2, p.b2):
        t.data = r.normal(size=t.shape)
    return p


def node_and_composed(node, composed, params, x_shape, seed):
    """Output and gradients at the input and at every tensor in ``params``
    (a dataclass holding them), of the node and of the composed ops, each
    run on its own copy of the state under one upstream gradient."""
    r = rng(seed)
    x_data = r.normal(size=x_shape)
    results = []
    for fn in (node, composed):
        p = copy.deepcopy(params)
        x = Tensor(x_data, requires_grad=True)
        out = fn(x, p)
        g = rng(seed + 1).normal(size=out.shape)
        tsum(mul(out, constant(g))).backward()
        tensors = [t for _, t in named_parameters(p)]
        results.append((out.data, x.grad, [t.grad for t in tensors], p))
    return results


@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("shape", [(2, 5, 7, 3), (3, 1, 1, 2)], ids=["odd_map", "one_pixel"])
def test_mbconv_node_matches_composed_ops(train, shape):
    with precision.precision("f64"):
        p = awake_mbconv(rng(40), shape[-1])
        (out, dx, grads, pn), (want, want_dx, want_grads, pc) = node_and_composed(
            lambda x, q: mbconv_forward(x, q, train), lambda x, q: composed_mbconv(x, q, train),
            p, shape, 41)
    for got, ref in zip((out, dx, *grads), (want, want_dx, *want_grads)):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
    if train:  # the op order of the composed ops, and the same running buffers
        assert np.array_equal(out, want) and np.array_equal(dx, want_dx)
        assert all(np.array_equal(a, b) for a, b in zip(grads, want_grads))
        for bn, ref_bn in ((pn.bn1, pc.bn1), (pn.bn2, pc.bn2)):
            assert np.array_equal(bn.running_mean, ref_bn.running_mean)
            assert np.array_equal(bn.running_var, ref_bn.running_var)
    else:
        assert np.array_equal(pn.bn1.running_mean, p.bn1.running_mean)


def test_ffn_node_matches_composed_ops():
    with precision.precision("f64"):
        p = awake_ffn(rng(42), 3, 7)
        (out, dx, grads, _), (want, want_dx, want_grads, _) = node_and_composed(
            ffn_forward, composed_ffn, p, (2, 4, 5, 3), 43)
    for got, ref in zip((out, dx, *grads), (want, want_dx, *want_grads)):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
def test_branch_nodes_are_one_node_each(train):
    r = rng(44)
    mb, ffn = make_mbconv(4, r), make_ffn(4, 9, r)
    x = Tensor(nhwc(r.normal(size=(2, 4, 5, 5)).astype(np.float32)), requires_grad=True)
    y = mbconv_forward(x, mb, train)
    assert [op for op, _, _ in graph_records(y)] == ["mbconv"]
    assert y._node.parents == (x, mb.expand_w, mb.bn1.gamma, mb.bn1.beta, mb.dw_w,
                               mb.bn2.gamma, mb.bn2.beta, mb.proj_w, mb.proj_b)
    z = ffn_forward(x, ffn)
    assert [op for op, _, _ in graph_records(z)] == ["ffn"]
    assert z._node.parents == (x, ffn.w1, ffn.b1, ffn.w2, ffn.b2)


def test_branch_nodes_with_no_graph_match_recorded_ones():
    # with nothing to record, the nodes run GELU over their own buffers
    r = rng(45)
    mb, ffn = awake_mbconv(r, 3), awake_ffn(r, 3, 8)
    for p in (mb, ffn):
        for _, t in named_parameters(p):
            t.data = t.data.astype(np.float32)
    for bn in (mb.bn1, mb.bn2):
        bn.running_mean, bn.running_var = (a.astype(np.float32)
                                           for a in (bn.running_mean, bn.running_var))
    x = Tensor(nhwc(r.normal(size=(2, 3, 6, 6)).astype(np.float32)), requires_grad=True)
    for fn in (lambda t: mbconv_forward(t, mb), lambda t: ffn_forward(t, ffn)):
        recorded = fn(x)
        with no_grad():
            plain = fn(x)
        assert plain._node is None and plain.data.tobytes() == recorded.data.tobytes()


@pytest.mark.parametrize("c,bad", [(3, "expand_w"), (3, "proj_b"), (3, "dtype")])
def test_mbconv_rejects_tensors_that_do_not_fit(c, bad):
    p = make_mbconv(c, rng(46))
    x = rand_map(rng(47), c)
    if bad == "dtype":
        p.dw_w.data = p.dw_w.data.astype(np.float64)
        with pytest.raises(TypeError, match="mbconv"):
            mbconv_forward(x, p)
        return
    t = getattr(p, bad)
    t.data = np.zeros((t.shape[0] + 1,) + t.shape[1:], np.float32)
    with pytest.raises(ShapeError, match="mbconv"):
        mbconv_forward(x, p)


@pytest.mark.parametrize("shape", [(2, 8, 8, 4), (8, 8, 3)], ids=["width", "rank"])
def test_branch_nodes_reject_a_map_that_does_not_fit(shape):
    # a map of another width would reach the kernels and fail inside numpy
    x = constant(np.ones(shape, np.float32))
    with pytest.raises(ShapeError, match="mbconv"):
        mbconv_forward(x, make_mbconv(3, rng(48)))
    with pytest.raises(ShapeError, match="ffn"):
        ffn_forward(x, make_ffn(3, 12, rng(49)))


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


@pytest.mark.parametrize("mode", ["intra_only", "inter_only"])
def test_block_config_running_other_stages_rejected(mode):
    # a "full" config would run both stages in a block whose mode names one
    with pytest.raises(ValueError, match=mode):
        make_dual_block(8, mode, block_cfg(mode="parallel"), rng(12))


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
