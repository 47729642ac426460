"""Layer norm, batch norm and conv→BN on channels-last maps against
per-channel loop oracles, and the fused norms' gradients against numpy
oracles: the chain rule taken op by op through the composed norm in train
mode, and a loop over the conv's windows in eval mode, where a depthwise
conv→BN is the fold into the taps that MBConv's node runs."""
import numpy as np
import pytest

from dualformer import precision
from dualformer.conv import _depthwise
from dualformer.norms import (
    BN_EPS,
    LN_EPS,
    _conv_norm,
    batch_norm,
    conv_bn,
    layer_norm_channels,
    make_batch_norm,
)
from dualformer.tensor import ShapeError, Tensor, _make, constant, graph_records, tsum


@pytest.fixture(autouse=True)
def _f64():
    with precision.precision("f64"):
        yield


def off_default_bn(r, c):
    """Batch norm state with running stats, gamma and beta all off their init values."""
    bn = make_batch_norm(c)
    bn.running_mean = r.normal(size=c)
    bn.running_var = 0.2 + 2.0 * r.random(c)
    bn.gamma.data[:] = 1.0 + 0.5 * r.normal(size=c)
    bn.beta.data[:] = r.normal(size=c)
    return bn


def conv_windows(x, w, stride, padding, groups):
    """``(xp, ho, wo, window)``: the padded input, the output size, and a
    function giving the index of the input window behind output (n, i, j, c)."""
    _, h, wd, _ = x.shape
    o, cg, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1

    def window(n, i, j, c):
        first = 0 if groups == 1 else c
        return (n, slice(i * stride, i * stride + kh), slice(j * stride, j * stride + kw),
                slice(first, first + cg))

    return xp, ho, wo, window


def conv_bn_eval_oracle(x, w, bn, stride, padding, groups):
    """Per output value: the conv by its definition, then eval batch norm."""
    xp, ho, wo, window = conv_windows(x, w, stride, padding, groups)
    out = np.empty((x.shape[0], ho, wo, w.shape[0]))
    for n, i, j, c in np.ndindex(*out.shape):
        conv = np.sum(xp[window(n, i, j, c)] * w[c].transpose(1, 2, 0))
        rm, rv = bn.running_mean[c], bn.running_var[c]
        out[n, i, j, c] = (conv - rm) / np.sqrt(rv + BN_EPS) * bn.gamma.data[c] + bn.beta.data[c]
    return out


def conv_bn_eval_grad_oracle(x, w, bn, g, stride, padding, groups):
    """(dx, dw, dgamma, dbeta) of ``sum(g * conv_bn_eval(x))``: each output's
    gradient g * gamma / sqrt(var + eps) is scattered back over its window."""
    xp, ho, wo, window = conv_windows(x, w, stride, padding, groups)
    dxp, dw = np.zeros_like(xp), np.zeros_like(w)
    dgamma, dbeta = np.zeros(w.shape[0]), np.zeros(w.shape[0])
    for n, i, j, c in np.ndindex(*g.shape):
        win = window(n, i, j, c)
        rstd = 1.0 / np.sqrt(bn.running_var[c] + BN_EPS)
        conv = np.sum(xp[win] * w[c].transpose(1, 2, 0))
        dconv = g[n, i, j, c] * bn.gamma.data[c] * rstd
        dxp[win] += dconv * w[c].transpose(1, 2, 0)
        dw[c] += dconv * xp[win].transpose(2, 0, 1)
        dgamma[c] += g[n, i, j, c] * (conv - bn.running_mean[c]) * rstd
        dbeta[c] += g[n, i, j, c]
    h, wd = x.shape[1:3]
    return dxp[:, padding : padding + h, padding : padding + wd], dw, dgamma, dbeta


# (cin, cout, k, stride, padding, groups): stem/transition, MBConv expand, depthwise
CONV_BN_CASES = [(3, 5, 3, 2, 1, 1), (4, 6, 1, 1, 0, 1), (5, 5, 3, 1, 1, 5)]


def eval_conv_bn(x, w, bn, stride, padding, groups):
    """Eval conv→BN: ``conv_bn`` for a dense conv; for a depthwise one, the
    norm folded into the taps, as one node over (x, w, gamma, beta)."""
    if groups == 1:
        return conv_bn(x, w, bn, False, stride, padding)
    stage = lambda h, k, start: _depthwise(h, k, stride, padding, x.requires_grad, start)
    out, backward = _conv_norm(stage, x.data, w, bn, False, "folded")
    return _make(out, (x, w, bn.gamma, bn.beta), backward, "folded")


def test_batch_norm_eval_matches_loop_oracle():
    # eval-mode batch norm exists only inside conv_bn, after the conv
    r = np.random.default_rng(0)
    for cin, cout, k, stride, padding, groups in CONV_BN_CASES:
        bn = off_default_bn(r, cout)
        x = 3.0 + 2.0 * r.normal(size=(2, 6, 5, cin))
        w = r.normal(size=(cout, cin // groups, k, k))
        want = conv_bn_eval_oracle(x, w, bn, stride, padding, groups)
        got = eval_conv_bn(constant(x), constant(w), bn, stride, padding, groups).data
        assert np.abs(got - want).max() <= 1e-12, (cin, cout, k, stride, groups)


@pytest.mark.parametrize("case", CONV_BN_CASES, ids=["dense_s2", "dense_1x1", "depthwise"])
def test_batch_norm_eval_grads_match_loop_oracle(case):
    cin, cout, k, stride, padding, groups = case
    r = np.random.default_rng(5)
    bn = off_default_bn(r, cout)
    x = Tensor(3.0 + 2.0 * r.normal(size=(2, 6, 5, cin)), requires_grad=True)
    w = Tensor(r.normal(size=(cout, cin // groups, k, k)), requires_grad=True)
    out = eval_conv_bn(x, w, bn, stride, padding, groups)
    if groups == 1:  # one node, the norm folded into the conv
        assert graph_records(out) == [("conv_bn", (id(x), id(w), id(bn.gamma), id(bn.beta)),
                                       id(out))]
    g = r.normal(size=out.shape)
    tsum(out * constant(g)).backward()
    want = conv_bn_eval_grad_oracle(x.data, w.data, bn, g, stride, padding, groups)
    for what, got, ref in zip(("dx", "dw", "dgamma", "dbeta"),
                              (x.grad, w.grad, bn.gamma.grad, bn.beta.grad), want):
        assert got.shape == ref.shape, what
        assert np.abs(got - ref).max() <= 1e-12, what


def test_batch_norm_eval_leaves_buffers_and_is_rowwise():
    r = np.random.default_rng(1)
    bn = off_default_bn(r, 3)
    rm, rv = bn.running_mean.copy(), bn.running_var.copy()
    x, w = r.normal(size=(3, 2, 2, 3)), constant(r.normal(size=(3, 1, 3, 3)))
    whole = eval_conv_bn(constant(x), w, bn, 1, 1, 3).data
    first = eval_conv_bn(constant(x[:1]), w, bn, 1, 1, 3).data
    assert np.array_equal(whole[:1], first)
    assert np.array_equal(bn.running_mean, rm) and np.array_equal(bn.running_var, rv)


@pytest.mark.parametrize("name", ["f32", "f64"])
def test_make_batch_norm_is_identity_in_the_default_dtype(name):
    with precision.precision(name):
        bn = make_batch_norm(3)
        dt = precision.default_dtype()
    state = (bn.gamma.data, bn.beta.data, bn.running_mean, bn.running_var)
    assert [a.dtype for a in state] == [dt] * 4
    assert [a.tolist() for a in state] == [[1.0] * 3, [0.0] * 3, [0.0] * 3, [1.0] * 3]
    assert bn.gamma.requires_grad and bn.beta.requires_grad


def test_batch_norm_eval_rejects_negative_running_var():
    bn = make_batch_norm(2)
    bn.running_var = np.array([1.0, -1.0])
    with pytest.raises(FloatingPointError):
        conv_bn(constant(np.ones((1, 2, 2, 2))), constant(np.ones((2, 2, 1, 1))), bn, False)


def test_conv_bn_eval_checks_its_kernel_and_norm():
    x = constant(np.ones((1, 3, 3, 2)))
    with pytest.raises(ShapeError, match="conv_bn"):  # kernel for 3 channels
        conv_bn(x, constant(np.ones((4, 3, 1, 1))), make_batch_norm(4), False)
    with pytest.raises(ShapeError, match="conv_bn"):  # stride below 1
        conv_bn(x, constant(np.ones((4, 2, 1, 1))), make_batch_norm(4), False, stride=0)
    with pytest.raises(ShapeError, match="conv_bn"):  # norm for 3 of 4 output channels
        conv_bn(x, constant(np.ones((4, 2, 1, 1))), make_batch_norm(3), False)


def composed_norm(x, gamma, beta, g, axes, eps):
    """(output, dx, dgamma, dbeta) of the norm composed from separate steps
    (mean, subtract, square, mean, sqrt, the per-channel affine) under the
    upstream gradient ``g``, each step's gradient taken by the chain rule."""
    count = np.prod([x.shape[a] for a in axes])
    m = x.mean(axis=axes, keepdims=True)
    xc = x - m
    v = (xc * xc).mean(axis=axes, keepdims=True)
    r = 1.0 / np.sqrt(v + eps)
    xn = xc * r
    out = xn * gamma + beta
    affine_axes = (0, 1, 2)
    dgamma, dbeta = (g * xn).sum(axis=affine_axes), g.sum(axis=affine_axes)
    dxn = g * gamma
    dr = (dxn * xc).sum(axis=axes, keepdims=True)
    dv = dr * -0.5 * r**3
    dxc = dxn * r + dv * 2.0 * xc / count
    dx = dxc - dxc.sum(axis=axes, keepdims=True) / count
    return out, dx, dgamma, dbeta


def fused_and_composed(norm, x, gamma, beta, g):
    """(output, dx, dgamma, dbeta) of the fused norm and of the composed one
    under the upstream gradient ``g``; the fused norm must be one graph node."""
    leaves = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
    if norm == "batch":
        bn = make_batch_norm(x.shape[-1])
        bn.gamma, bn.beta = leaves[1], leaves[2]
        out = batch_norm(leaves[0], bn)
        axes, eps = (0, 1, 2), BN_EPS
    else:
        out = layer_norm_channels(*leaves)
        axes, eps = (3,), LN_EPS
    assert out._node.parents == tuple(leaves)
    tsum(out * constant(g)).backward()
    fused = [out.data] + [t.grad for t in leaves]
    return fused, composed_norm(x, gamma, beta, g, axes, eps)


# C = 1, a 1x1 map, a single row, and a general map
FUSED_SHAPES = [(3, 4, 5, 6), (4, 3, 2, 1), (2, 1, 1, 5), (1, 1, 1, 3), (5, 1, 1, 1)]


@pytest.mark.parametrize("norm", ["batch", "layer"])
@pytest.mark.parametrize("shape", FUSED_SHAPES)
def test_fused_norm_matches_composed_ops(norm, shape):
    r = np.random.default_rng(4)
    c = shape[-1]
    x = 2.0 + r.normal(size=shape)
    gamma, beta = 1.0 + 0.5 * r.normal(size=c), r.normal(size=c)
    fused, composed = fused_and_composed(norm, x, gamma, beta, r.normal(size=shape))
    for what, got, want in zip(("out", "dx", "dgamma", "dbeta"), fused, composed):
        assert got.shape == want.shape, what
        assert np.abs(got - want).max() <= 1e-12, what


@pytest.mark.parametrize("bad", [np.inf, np.nan, 1e200])
def test_fused_norm_rejects_non_finite_statistics(bad):
    # 1e200 squares past the float64 range: the variance overflows
    x = np.ones((2, 2, 2, 3))
    x[0, 0, 0, 0] = bad
    with pytest.raises(FloatingPointError):
        batch_norm(constant(x), make_batch_norm(3))
    with pytest.raises(FloatingPointError):
        layer_norm_channels(constant(x), constant(np.ones(3)), constant(np.zeros(3)))


def test_batch_norm_train_matches_loop_oracle():
    r = np.random.default_rng(2)
    bn = off_default_bn(r, 4)
    rm, rv = bn.running_mean.copy(), bn.running_var.copy()
    x = 1.0 + r.normal(size=(3, 2, 5, 4))
    want = np.empty_like(x)
    for c in range(4):
        v = x[..., c]
        m, var = v.mean(), ((v - v.mean()) ** 2).mean()
        want[..., c] = (v - m) / np.sqrt(var + BN_EPS) * bn.gamma.data[c] + bn.beta.data[c]
        rm[c] = 0.9 * rm[c] + 0.1 * m
        rv[c] = 0.9 * rv[c] + 0.1 * var
    got = batch_norm(constant(x), bn).data
    assert np.abs(got - want).max() <= 1e-12
    assert np.allclose(bn.running_mean, rm, rtol=0, atol=1e-14)
    assert np.allclose(bn.running_var, rv, rtol=0, atol=1e-14)


def test_layer_norm_matches_loop_oracle():
    r = np.random.default_rng(3)
    x = 2.0 + r.normal(size=(2, 3, 4, 6))
    gamma, beta = 1.0 + 0.5 * r.normal(size=6), r.normal(size=6)
    want = np.empty_like(x)
    for idx in np.ndindex(*x.shape[:3]):
        v = x[idx]
        m, var = v.mean(), ((v - v.mean()) ** 2).mean()
        want[idx] = (v - m) / np.sqrt(var + LN_EPS) * gamma + beta
    got = layer_norm_channels(constant(x), constant(gamma), constant(beta)).data
    assert np.abs(got - want).max() <= 1e-12

