"""Layer norm, batch norm and conv→BN on channels-last maps against
per-channel loop oracles."""
import numpy as np
import pytest

from dualformer import precision
from dualformer.norms import (
    BN_EPS,
    LN_EPS,
    batch_norm,
    conv_bn,
    layer_norm_channels,
    make_batch_norm,
)
from dualformer.tensor import constant


@pytest.fixture(autouse=True)
def _f64():
    with precision.precision("f64"):
        yield


def off_default_bn(r, c):
    """Batch norm state with running stats, gamma and beta all off their init values."""
    bn = make_batch_norm(c, np.float64)
    bn.running_mean = r.normal(size=c)
    bn.running_var = 0.2 + 2.0 * r.random(c)
    bn.gamma.data[:] = 1.0 + 0.5 * r.normal(size=c)
    bn.beta.data[:] = r.normal(size=c)
    return bn


def conv_bn_eval_oracle(x, w, bn, stride, padding, groups):
    """Per output value: the conv by its definition, then eval batch norm."""
    b, h, wd, _ = x.shape
    o, cg, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    out = np.empty((b, ho, wo, o))
    for n, i, j, c in np.ndindex(b, ho, wo, o):
        first = 0 if groups == 1 else c
        win = xp[n, i * stride : i * stride + kh, j * stride : j * stride + kw, first : first + cg]
        conv = np.sum(win * w[c].transpose(1, 2, 0))
        rm, rv = bn.running_mean[c], bn.running_var[c]
        out[n, i, j, c] = (conv - rm) / np.sqrt(rv + BN_EPS) * bn.gamma.data[c] + bn.beta.data[c]
    return out


# (cin, cout, k, stride, padding, groups): stem/transition, MBConv expand, depthwise
CONV_BN_CASES = [(3, 5, 3, 2, 1, 1), (4, 6, 1, 1, 0, 1), (5, 5, 3, 1, 1, 5)]


def test_batch_norm_eval_matches_loop_oracle():
    # eval-mode batch norm exists only inside conv_bn, after the conv
    r = np.random.default_rng(0)
    for cin, cout, k, stride, padding, groups in CONV_BN_CASES:
        bn = off_default_bn(r, cout)
        x = 3.0 + 2.0 * r.normal(size=(2, 6, 5, cin))
        w = r.normal(size=(cout, cin // groups, k, k))
        want = conv_bn_eval_oracle(x, w, bn, stride, padding, groups)
        got = conv_bn(constant(x), constant(w), bn, False, stride, padding, groups).data
        assert np.abs(got - want).max() <= 1e-12, (cin, cout, k, stride, groups)


def test_batch_norm_eval_leaves_buffers_and_is_rowwise():
    r = np.random.default_rng(1)
    bn = off_default_bn(r, 3)
    rm, rv = bn.running_mean.copy(), bn.running_var.copy()
    x, w = r.normal(size=(3, 2, 2, 3)), constant(r.normal(size=(3, 1, 3, 3)))
    whole = conv_bn(constant(x), w, bn, False, padding=1, groups=3).data
    first = conv_bn(constant(x[:1]), w, bn, False, padding=1, groups=3).data
    assert np.array_equal(whole[:1], first)
    assert np.array_equal(bn.running_mean, rm) and np.array_equal(bn.running_var, rv)


def test_batch_norm_eval_rejects_negative_running_var():
    bn = make_batch_norm(2, np.float64)
    bn.running_var = np.array([1.0, -1.0])
    with pytest.raises(FloatingPointError):
        conv_bn(constant(np.ones((1, 2, 2, 2))), constant(np.ones((2, 2, 1, 1))), bn, False)


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

