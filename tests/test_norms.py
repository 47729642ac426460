"""Layer and batch norm on channels-last maps against per-channel loop oracles."""
import numpy as np
import pytest

from dualformer import precision
from dualformer.norms import BN_EPS, LN_EPS, batch_norm, layer_norm_channels, make_batch_norm
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


def test_batch_norm_eval_matches_loop_oracle():
    r = np.random.default_rng(0)
    bn = off_default_bn(r, 5)
    x = 3.0 + 2.0 * r.normal(size=(2, 4, 3, 5))
    want = np.empty_like(x)
    for c in range(5):
        rm, rv = bn.running_mean[c], bn.running_var[c]
        g, b = bn.gamma.data[c], bn.beta.data[c]
        want[..., c] = (x[..., c] - rm) / np.sqrt(rv + BN_EPS) * g + b
    got = batch_norm(constant(x), bn, train=False).data
    assert np.abs(got - want).max() <= 1e-12


def test_batch_norm_eval_leaves_buffers_and_is_rowwise():
    r = np.random.default_rng(1)
    bn = off_default_bn(r, 3)
    rm, rv = bn.running_mean.copy(), bn.running_var.copy()
    x = r.normal(size=(3, 2, 2, 3))
    whole = batch_norm(constant(x), bn, train=False).data
    first = batch_norm(constant(x[:1]), bn, train=False).data
    assert np.array_equal(whole[:1], first)
    assert np.array_equal(bn.running_mean, rm) and np.array_equal(bn.running_var, rv)


def test_batch_norm_eval_rejects_negative_running_var():
    bn = make_batch_norm(2, np.float64)
    bn.running_var = np.array([1.0, -1.0])
    with pytest.raises(FloatingPointError):
        batch_norm(constant(np.ones((1, 2, 2, 2))), bn, train=False)


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
    got = batch_norm(constant(x), bn, train=True).data
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

