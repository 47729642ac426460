"""Finite-difference audits for every differentiable op.

Everything runs under f64; the acceptance bar is 1e-4 but most ops land
far below it. Partition assignments are integer state, not inputs, so
they are fixed per check.
"""
import numpy as np
import pytest

from dualformer import precision
from dualformer.attention import vanilla_attention
from dualformer.conv import _depthwise, conv2d
from dualformer.gradcheck import grad_check
from dualformer.mhpa import (
    MhpaHeadParams,
    channel_to_spatial,
    global_local_aggregate,
    inter_partition_attention,
    intra_partition_attention,
    mhpa_head_forward,
)
from dualformer.norms import _conv_norm, batch_norm, conv_bn, layer_norm_channels, make_batch_norm
from dualformer.partition import NormVectors
from dualformer.tensor import (
    Tensor,
    _make,
    add,
    add_bias,
    concat,
    gather_segments,
    gelu,
    matmul,
    mul,
    narrow,
    one_hot,
    segment_sum,
    sigmoid,
    softmax,
    tmean,
    transpose,
    tsum,
)

TOL = 1e-4


@pytest.fixture(autouse=True)
def _f64():
    with precision.precision("f64"):
        yield


def leaf(rng, shape, offset=0.0, scale=1.0):
    return Tensor(offset + scale * rng.normal(size=shape), requires_grad=True)


def map_leaf(rng, shape):
    """Draw a (B, C, H, W) leaf and hand it over channels-last."""
    return Tensor(rng.normal(size=shape).transpose(0, 2, 3, 1), requires_grad=True)


def check(fn, inputs, seed=0):
    worst = grad_check(fn, inputs, seed=seed)
    assert worst <= TOL, f"worst relative error {worst:.3e}"


@pytest.mark.parametrize("seed", range(10))
def test_arithmetic_ops(seed):
    r = np.random.default_rng(seed)
    a = leaf(r, (3, 4))
    b = leaf(r, (3, 4))
    check(lambda x, y: mul(add(x, y), mul(x, y)), [a, b], seed=seed)
    check(lambda x: add(mul(x, 3.0), 1.0), [leaf(r, (5,))], seed=seed)


@pytest.mark.parametrize("seed", range(10))
def test_unary_functions(seed):
    r = np.random.default_rng(seed)
    check(lambda x: sigmoid(x), [leaf(r, (4, 3))], seed=seed)
    check(lambda x: gelu(x), [leaf(r, (4, 3))], seed=seed)


@pytest.mark.parametrize("seed", range(5))
def test_broadcast_gradients_unreduce(seed):
    r = np.random.default_rng(seed)
    check(lambda x, y: mul(x, y), [leaf(r, (2, 3)), leaf(r, (1,))], seed=seed)
    check(lambda x, y: add_bias(x, y), [leaf(r, (2, 3, 5)), leaf(r, (5,))], seed=seed)


@pytest.mark.parametrize("seed", range(5))
def test_reductions(seed):
    r = np.random.default_rng(seed)
    x = leaf(r, (3, 4, 2))
    check(lambda t: tsum(t), [x], seed=seed)
    check(lambda t: tmean(t, axis=1), [x], seed=seed)
    check(lambda t: tmean(t), [x], seed=seed)


@pytest.mark.parametrize("seed", range(5))
def test_shape_ops(seed):
    r = np.random.default_rng(seed)
    x = leaf(r, (2, 3, 4))
    check(lambda t: transpose(t, (2, 0, 1)), [x], seed=seed)
    # viewed in and out, at channel_to_spatial's unfold of 8 channels at rate 2
    y = leaf(r, (1, 2, 3, 8))
    check(lambda t: transpose(t, (0, 1, 4, 2, 5, 3), shape=(1, 2, 3, 2, 2, 2),
                              out_shape=(1, 4, 6, 2)), [y], seed=seed)
    check(lambda t: narrow(t, 1, 1, 2), [x], seed=seed)
    a, b = leaf(r, (2, 3)), leaf(r, (2, 2))
    check(lambda u, v: concat([u, v], axis=1), [a, b], seed=seed)


@pytest.mark.parametrize("seed", range(10))
def test_matmul_grad(seed):
    r = np.random.default_rng(seed)
    check(lambda a, b: matmul(a, b), [leaf(r, (3, 4)), leaf(r, (4, 2))], seed=seed)
    check(lambda a, b: matmul(a, b), [leaf(r, (2, 3, 4)), leaf(r, (2, 4, 2))], seed=seed)


def test_matmul_broadcast_batch_grad():
    r = np.random.default_rng(7)
    # shared right operand over a batched left operand
    check(lambda a, b: matmul(a, b), [leaf(r, (3, 2, 4)), leaf(r, (4, 5))])


@pytest.mark.parametrize("seed", range(10))
def test_softmax_grad(seed):
    r = np.random.default_rng(seed)
    check(lambda x: softmax(x, axis=-1), [leaf(r, (4, 6))], seed=seed)


@pytest.mark.parametrize("seed", range(5))
def test_segment_ops_grads(seed):
    r = np.random.default_rng(seed)
    for lead in ((), (2,)):
        buckets = one_hot(r.integers(0, 4, size=lead + (9,)), 4, np.float64)
        check(lambda x: segment_sum(x, buckets), [leaf(r, lead + (9, 3))], seed=seed)
        check(lambda t: gather_segments(t, buckets), [leaf(r, lead + (4, 3))], seed=seed)


@pytest.mark.parametrize("stride,padding,groups", [(1, 1, 1), (2, 1, 1), (1, 0, 1), (2, 1, 4)])
def test_conv2d_grads(stride, padding, groups):
    # the bias is added inside the conv's node, so each case audits it too
    r = np.random.default_rng(stride * 7 + padding + groups)
    cin, cout = 4, 4
    x = map_leaf(r, (2, cin, 5, 5))
    w = leaf(r, (cout, cin // groups, 3, 3), scale=0.5)
    b = leaf(r, (cout,))
    check(
        lambda xx, ww, bb: conv2d(xx, ww, bb, stride=stride, padding=padding, groups=groups),
        [x, w, b],
    )


def test_conv2d_1x1_grads():
    # the pointwise path reads the map itself as its columns
    r = np.random.default_rng(20)
    check(lambda x, w, b: conv2d(x, w, b),
          [map_leaf(r, (2, 3, 4, 4)), leaf(r, (5, 3, 1, 1), scale=0.5), leaf(r, (5,))])


def test_layer_norm_grad():
    r = np.random.default_rng(11)
    x = map_leaf(r, (2, 5, 3, 3))
    gamma = leaf(r, (5,), offset=1.0, scale=0.1)
    beta = leaf(r, (5,), scale=0.1)
    check(lambda a, g, b: layer_norm_channels(a, g, b), [x, gamma, beta])


def test_batch_norm_train_grad():
    r = np.random.default_rng(12)
    bn = make_batch_norm(4)
    bn.gamma.data[:] = 1.0 + 0.1 * r.normal(size=4)
    bn.beta.data[:] = 0.1 * r.normal(size=4)
    x = map_leaf(r, (3, 4, 2, 2))
    check(lambda a, g, b: batch_norm(a, bn), [x, bn.gamma, bn.beta])


def folded_depthwise_bn(x, w, bn, train):
    """Depthwise conv→BN as MBConv's node runs it, one node over (x, w, gamma, beta)."""
    stage = lambda h, k, start: _depthwise(h, k, 1, 1, True, start)
    out, backward = _conv_norm(stage, x.data, w, bn, train, "folded")
    return _make(out, (x, w, bn.gamma, bn.beta), backward, "folded")


def test_batch_norm_eval_grad():
    # eval-mode batch norm folded into conv_bn's dense stride-2 kernel, and
    # into the taps of a depthwise one
    r = np.random.default_rng(13)
    bn = make_batch_norm(4)
    bn.running_mean = r.normal(size=4)
    bn.running_var = 0.5 + r.random(4)
    bn.gamma.data[:] = 1.0 + 0.3 * r.normal(size=4)
    bn.beta.data[:] = r.normal(size=4)
    for stride, groups in ((2, 1), (1, 4)):
        x = map_leaf(r, (2, 4, 4, 4))
        w = leaf(r, (4, 4 // groups, 3, 3), scale=0.5)
        if groups == 1:
            fn = lambda a, ww, g, b: conv_bn(a, ww, bn, False, stride=stride, padding=1)
        else:
            fn = lambda a, ww, g, b: folded_depthwise_bn(a, ww, bn, False)
        check(fn, [x, w, bn.gamma, bn.beta])


def test_vanilla_attention_grad():
    r = np.random.default_rng(13)
    x = leaf(r, (6, 4))
    wq, wk, wv = (leaf(r, (4, 4), scale=0.5) for _ in range(3))
    check(lambda a, q, k, v: vanilla_attention(a, q, k, v), [x, wq, wk, wv])


def _head(r, d):
    dh = max(1, d // 4)
    t = lambda *s: Tensor(0.5 * r.normal(size=s), requires_grad=True)
    return MhpaHeadParams(
        token_w=t(d, d), token_b=t(d),
        imp_w1=t(d, dh), imp_b1=t(dh),
        imp_w2=t(dh, 1), imp_b2=t(1),
        agg_w=t(2 * d, d), agg_b=t(d),
        norms=NormVectors(r.standard_normal((3, d))),
    )


def _buckets(r, n, k):
    return one_hot(r.integers(0, k, size=n), k, np.float64)


def _node(stage, parents):
    """An array stage's ``(out, backward)`` as one autodiff node over ``parents``."""
    out, backward = stage
    return _make(out, tuple(parents), backward, "stage")


def test_intra_partition_grad():
    r = np.random.default_rng(14)
    buckets = _buckets(r, 10, 4)
    x = leaf(r, (10, 3), offset=1.5, scale=0.3)  # weights stay positive
    xt = leaf(r, (10, 3))
    check(lambda *a: _node(intra_partition_attention(x.data, xt.data, buckets), a), [x, xt])


def test_inter_partition_grad():
    r = np.random.default_rng(15)
    buckets = _buckets(r, 12, 4)
    head = _head(r, 3)
    xt = leaf(r, (12, 3))
    check(
        lambda *a: _node(inter_partition_attention(xt.data, buckets, head), a),
        [xt, head.imp_w1, head.imp_b1, head.imp_w2, head.imp_b2],
    )


def test_aggregate_grad():
    r = np.random.default_rng(16)
    buckets = _buckets(r, 8, 4)
    head = _head(r, 3)
    intra = leaf(r, (8, 3))
    inter = leaf(r, (4, 3))
    check(
        lambda *a: _node(global_local_aggregate(intra.data, inter.data, buckets, head), a),
        [intra, inter, head.agg_w, head.agg_b],
    )


def test_channel_to_spatial_grad():
    r = np.random.default_rng(17)
    skip = map_leaf(r, (2, 1, 8, 8))
    y = map_leaf(r, (2, 4, 4, 4))
    check(lambda a, s: channel_to_spatial(a, 2, s), [y, skip])


def test_head_forward_grad_frozen_partition():
    r = np.random.default_rng(18)
    d, n, k = 4, 9, 8
    head = _head(r, d)
    tokens = leaf(r, (2, n, d))
    assign = r.integers(0, k, size=(2, n))
    params = [tokens, head.token_w, head.token_b, head.imp_w1, head.imp_b1,
              head.imp_w2, head.imp_b2, head.agg_w, head.agg_b]
    check(lambda *args: mhpa_head_forward(tokens, head, k, assign=assign)[0], params)


def test_gradcheck_rejects_unreached_input():
    r = np.random.default_rng(19)
    a, b = leaf(r, (3,)), leaf(r, (3,))
    with pytest.raises(RuntimeError):
        grad_check(lambda x, y: mul(x, x), [a, b])
