"""conv2d against a six-loop reference implementation, the dense stage's
forward and backward in both window orders against a per-pixel loop, and
the depthwise stage against a per-pixel, per-tap loop and against whole-map
per-tap sums.

conv2d takes channels-last (B, H, W, C) maps; the six-loop oracle and its
test data stay NCHW and are transposed at the call with ``nhwc``.
"""
import numpy as np
import pytest

from dualformer import conv as conv_module
from dualformer import precision
from dualformer.conv import _dense, _depthwise, conv2d, conv_out_size
from dualformer.tensor import ShapeError, Tensor, constant, graph_records, tsum


def conv_oracle(x, w, b=None, stride=1, padding=1, groups=1):
    """Direct translation of the definition, one loop per index."""
    bs, cin, h, wd = x.shape
    cout, cin_g, kh, kw = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (x.shape[2] - kh) // stride + 1
    wo = (x.shape[3] - kw) // stride + 1
    out = np.zeros((bs, cout, ho, wo), dtype=np.float64)
    per_group = cout // groups
    for n in range(bs):
        for o in range(cout):
            g = o // per_group
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for c in range(cin_g):
                        for u in range(kh):
                            for v in range(kw):
                                acc += (
                                    x[n, g * cin_g + c, i * stride + u, j * stride + v]
                                    * w[o, c, u, v]
                                )
                    out[n, o, i, j] = acc
            if b is not None:
                out[n, o] += b[o]
    return out


def rng(seed=0):
    return np.random.default_rng(seed)


def nhwc(a):
    return np.ascontiguousarray(np.asarray(a).transpose(0, 2, 3, 1))


def test_out_size_formula():
    assert conv_out_size(8, 3, 1, 1) == 8
    assert conv_out_size(8, 3, 2, 1) == 4
    assert conv_out_size(7, 3, 2, 1) == 4
    assert conv_out_size(4, 1, 4, 0) == 1


def test_kernel_exceeding_extent_rejected():
    with pytest.raises(ShapeError):
        conv2d(constant(nhwc(np.ones((1, 1, 2, 2)))), constant(np.ones((1, 1, 5, 5))))


def test_identity_kernel_passthrough():
    x = rng(1).normal(size=(2, 3, 5, 5)).astype(np.float32)
    w = np.zeros((3, 3, 1, 1), dtype=np.float32)
    for c in range(3):
        w[c, c, 0, 0] = 1.0
    out = conv2d(constant(nhwc(x)), constant(w))
    assert np.array_equal(out.data, nhwc(x))


def test_ones_kernel_equals_window_sum():
    x = np.ones((1, 1, 4, 4), dtype=np.float32)
    w = np.ones((1, 1, 3, 3), dtype=np.float32)
    out = conv2d(constant(nhwc(x)), constant(w), padding=0)
    assert np.all(out.data == 9.0)


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
def test_dense_conv_matches_oracle(stride, padding):
    r = rng(stride * 10 + padding)
    with precision.precision("f64"):
        x = r.normal(size=(2, 3, 6, 7))
        w = r.normal(size=(4, 3, 3, 3))
        b = r.normal(size=4)
        got = conv2d(constant(nhwc(x)), constant(w), constant(b), stride=stride, padding=padding)
        want = nhwc(conv_oracle(x, w, b, stride=stride, padding=padding))
        assert np.allclose(got.data, want, atol=1e-10)


@pytest.mark.parametrize("stride", [1, 2, 4])
def test_depthwise_conv_matches_oracle(stride):
    r = rng(stride)
    with precision.precision("f64"):
        x = r.normal(size=(2, 5, 8, 8))
        w = r.normal(size=(5, 1, 3, 3))
        b = r.normal(size=5)
        got = conv2d(constant(nhwc(x)), constant(w), constant(b), stride=stride, padding=1, groups=5)
        want = nhwc(conv_oracle(x, w, b, stride=stride, padding=1, groups=5))
        assert np.allclose(got.data, want, atol=1e-10)


def test_1x1_conv_matches_oracle():
    r = rng(9)
    with precision.precision("f64"):
        x = r.normal(size=(2, 4, 5, 5))
        w = r.normal(size=(8, 4, 1, 1))
        got = conv2d(constant(nhwc(x)), constant(w))
        want = nhwc(conv_oracle(x, w, padding=0))
        assert np.allclose(got.data, want, atol=1e-10)


@pytest.mark.parametrize("shape,stride,padding,groups", [
    ((4, 3, 3, 3), 2, 1, 1),
    ((4, 3, 1, 1), 1, 0, 1),
    ((3, 1, 3, 3), 1, 1, 3),
])
def test_bias_is_added_in_the_conv_node(shape, stride, padding, groups):
    # bitwise the biasless conv plus the bias, with the bias gradient summed
    # over batch and map (to f32 rounding), in one node whose third parent is the bias
    r = rng(12)
    x = constant(nhwc(r.normal(size=(2, 3, 6, 6)).astype(np.float32)))
    w = Tensor(r.normal(size=shape).astype(np.float32), requires_grad=True)
    b = Tensor(r.normal(size=shape[0]).astype(np.float32), requires_grad=True)
    y = conv2d(x, w, b, stride=stride, padding=padding, groups=groups)
    plain = conv2d(x, w, stride=stride, padding=padding, groups=groups)
    assert np.array_equal(y.data, plain.data + b.data)
    assert [op for op, _, _ in graph_records(y)] == ["conv2d"]
    assert y._node.parents == (x, w, b)
    g = r.normal(size=y.shape).astype(np.float32)
    _, dw, db = y._node.backward_fn(g)
    assert np.array_equal(dw, plain._node.backward_fn(g)[1])
    want = g.astype(np.float64).sum(axis=(0, 1, 2))
    assert np.abs(db - want).max() <= 1e-5 * np.abs(want).max()


def test_bias_must_fit_the_output_channels_and_the_input_dtype():
    x = constant(nhwc(np.ones((1, 4, 5, 5))))
    for w in (constant(np.ones((2, 4, 3, 3))), constant(np.ones((4, 1, 3, 3)))):
        groups = 4 if w.shape[1] == 1 else 1
        for bad in ((4,) if groups == 1 else (2,), (1,), (w.shape[0], 1), ()):
            with pytest.raises(ShapeError, match="conv2d"):
                conv2d(x, w, constant(np.ones(bad)), groups=groups)
        # an f64 bias would be rounded into the f32 map in place
        with pytest.raises(TypeError, match="conv2d"):
            conv2d(x, w, constant(np.ones(w.shape[0]), dtype=np.float64), groups=groups)


def test_group_conv_rejects_bad_channel_split():
    x = constant(nhwc(np.ones((1, 4, 5, 5))))
    w = constant(np.ones((6, 2, 3, 3)))
    with pytest.raises(ShapeError):
        conv2d(x, w, groups=3)  # 6 outputs not divisible into 3 groups of 4/3 inputs


def test_channel_mismatch_rejected():
    x = constant(nhwc(np.ones((1, 4, 5, 5))))
    w = constant(np.ones((2, 3, 3, 3)))
    with pytest.raises(ShapeError):
        conv2d(x, w)


def test_conv_backward_frozen_value():
    # single 1x1 weight: loss = sum(w * x) so dw = sum(x), dx = w everywhere
    x_data = rng(3).normal(size=(1, 1, 3, 3)).astype(np.float64)
    with precision.precision("f64"):
        x = Tensor(nhwc(x_data), requires_grad=True)
        w = Tensor(np.array([[[[2.0]]]]), requires_grad=True)
        tsum(conv2d(x, w)).backward()
        assert w.grad[0, 0, 0, 0] == pytest.approx(x_data.sum())
        assert np.allclose(x.grad, 2.0)


@pytest.mark.parametrize("shape,stride,padding,groups", [
    ((4, 3, 3, 3), 2, 1, 1),  # the stem's first conv
    ((5, 3, 1, 1), 1, 0, 1),
    ((3, 1, 3, 3), 1, 1, 3),
])
def test_constant_input_gets_no_dx(shape, stride, padding, groups):
    # like matmul: a constant input costs its kernel gradient only, bitwise
    # the same one a differentiable input gives
    r = rng(11)
    with precision.precision("f64"):
        x_data = nhwc(r.normal(size=(2, 3, 6, 6)))
        w_data = r.normal(size=shape)
        g = None
        grads = []
        for needs_dx in (True, False):
            x = Tensor(x_data, requires_grad=needs_dx)
            w = Tensor(w_data, requires_grad=True)
            y = conv2d(x, w, stride=stride, padding=padding, groups=groups)
            if g is None:
                g = r.normal(size=y.shape)
            dx, _ = y._node.backward_fn(g)
            tsum(y * constant(g)).backward()
            if needs_dx:
                assert np.array_equal(x.grad, dx)
            else:
                assert dx is None and x.grad is None
            grads.append(w.grad)
        assert np.array_equal(grads[0], grads[1])


# -- the dense stage ---------------------------------------------------------


def dense_loop(x, w, g, stride, padding):
    """(out, dx, dw) of a dense conv in f64, one output pixel at a time; ``g``
    is the gradient at the output."""
    b, h, wd, _ = x.shape
    o, _, kh, kw = w.shape
    xp = np.pad(x.astype(np.float64), ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    ho, wo = (h + 2 * padding - kh) // stride + 1, (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((b, ho, wo, o))
    dxp, dw = np.zeros_like(xp), np.zeros(w.shape)
    for n, i, j in np.ndindex(b, ho, wo):
        rows, cols = slice(i * stride, i * stride + kh), slice(j * stride, j * stride + kw)
        window = xp[n, rows, cols].transpose(2, 0, 1)  # (C, kh, kw)
        out[n, i, j] = np.einsum("ocuv,cuv->o", w, window)
        dxp[n, rows, cols] += np.einsum("o,ocuv->uvc", g[n, i, j], w)
        dw += g[n, i, j][:, None, None, None] * window
    return out, dxp[:, padding : padding + h, padding : padding + wd], dw


# (map (B, H, W, C), kernel (O, C, kh, kw), stride, padding): tap-major
# windows where the output pixels are at least the output channels, (C, kh,
# kw) windows where they are fewer; a 3-channel stem conv, a strided 1x1, a
# 2x3 kernel, and a stride wider than the kernel
DENSE_CASES = [((2, 6, 7, 3), (4, 3, 3, 3), 2, 1), ((1, 5, 5, 4), (6, 4, 3, 3), 1, 1),
               ((2, 4, 4, 8), (40, 8, 3, 3), 2, 1), ((1, 6, 6, 3), (5, 3, 1, 1), 2, 0),
               ((2, 5, 7, 3), (4, 3, 2, 3), 1, 0), ((1, 9, 9, 2), (3, 2, 3, 3), 4, 1),
               ((2, 1, 1, 5), (7, 5, 1, 1), 1, 0)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape,kernel,stride,padding", DENSE_CASES)
def test_dense_stage_matches_loop_oracle(shape, kernel, stride, padding, dtype):
    r = rng(60 + stride)
    x = r.normal(size=shape).astype(dtype)
    w = r.normal(size=kernel).astype(dtype)
    out, backward = _dense(x, w, stride, padding, True)
    g = r.normal(size=out.shape).astype(dtype)
    dx, dw = backward(g)
    tol = 1e-12 if dtype == np.float64 else 1e-5
    for got, want in zip((out, dx, dw), dense_loop(x, w, g, stride, padding)):
        assert got.dtype == dtype and got.shape == want.shape and got.flags.c_contiguous
        assert np.abs(got - want).max() <= tol * max(1.0, np.abs(want).max())


# -- the depthwise stage -----------------------------------------------------


def depthwise_loop(x, w, g, stride, padding):
    """(out, dx, dw) of a depthwise conv in f64, one output pixel and one tap
    at a time; ``g`` is the gradient at the output."""
    b, h, wd, c = x.shape
    kh, kw = w.shape[2:]
    xp = np.pad(x.astype(np.float64), ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    ho, wo = (h + 2 * padding - kh) // stride + 1, (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((b, ho, wo, c))
    dxp, dw = np.zeros_like(xp), np.zeros((c, 1, kh, kw))
    for n, i, j in np.ndindex(b, ho, wo):
        for u, v in np.ndindex(kh, kw):
            pix = xp[n, i * stride + u, j * stride + v]
            out[n, i, j] += pix * w[:, 0, u, v]
            dxp[n, i * stride + u, j * stride + v] += g[n, i, j] * w[:, 0, u, v]
            dw[:, 0, u, v] += g[n, i, j] * pix
    return out, dxp[:, padding : padding + h, padding : padding + wd], dw


def depthwise_per_tap(x, w, g, stride, padding):
    """(out, dx, dw) by whole-map shifted products, one tap after another in
    (u, v) order: the sums every depthwise output and dx element keep."""
    c = x.shape[-1]
    kh, kw = w.shape[2:]
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    ho, wo = g.shape[1:3]
    taps = [(slice(None), slice(u, u + stride * ho, stride), slice(v, v + stride * wo, stride))
            for u in range(kh) for v in range(kw)]
    wd = np.ascontiguousarray(w.reshape(c, kh * kw).T)
    out = xp[taps[0]] * wd[0]
    for t in range(1, kh * kw):
        out += xp[taps[t]] * wd[t]
    dxp = np.zeros_like(xp)
    dwd = np.empty_like(wd)
    for t, sl in enumerate(taps):
        dxp[sl] += g * wd[t]
        dwd[t] = np.einsum("bijc,bijc->c", g, xp[sl])
    dx = dxp[:, padding : padding + x.shape[1], padding : padding + x.shape[2]]
    return out, dx, dwd.T.reshape(w.shape)


# (map (B, H, W, C), stride): Micro's 1x1 stage-4 map, an odd width, a square
# map, and a height of 11 rows, which 2-row blocks do not divide
DEPTHWISE_CASES = [((2, 1, 1, 3), 1), ((1, 6, 7, 4), 1), ((2, 8, 8, 5), 2), ((1, 11, 5, 3), 1),
                   ((2, 11, 9, 2), 2), ((1, 9, 9, 3), 4)]


@pytest.fixture(params=[None, 2], ids=["one_block", "row_blocks"])
def block_rows(request, monkeypatch):
    """Blocks of the map's whole height, or of about two rows."""
    if request.param is not None:
        def two_rows(rows, row_bytes):
            return max(1, min(rows, request.param))
        monkeypatch.setattr(conv_module, "_row_block", two_rows)
    return request.param


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape,stride", DEPTHWISE_CASES)
def test_depthwise_stage_matches_loop_oracle(shape, stride, dtype, block_rows):
    r = rng(30 + stride)
    x = r.normal(size=shape).astype(dtype)
    w = r.normal(size=(shape[-1], 1, 3, 3)).astype(dtype)
    out, backward = _depthwise(x, w, stride, 1, True)
    g = r.normal(size=out.shape).astype(dtype)
    dx, dw = backward(g)
    tol = 1e-12 if dtype == np.float64 else 1e-5
    for got, want in zip((out, dx, dw), depthwise_loop(x, w, g, stride, 1)):
        assert got.dtype == dtype and got.shape == want.shape
        assert np.abs(got - want).max() <= tol * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("shape,stride", DEPTHWISE_CASES)
def test_depthwise_stage_keeps_the_per_tap_order_bitwise(shape, stride, block_rows):
    # tiled tap rows and row blocks change which elements one multiply
    # covers, not what each element sums or in which order
    r = rng(40 + stride)
    x = r.normal(size=shape).astype(np.float32)
    w = r.normal(size=(shape[-1], 1, 3, 3)).astype(np.float32)
    out, backward = _depthwise(x, w, stride, 1, True)
    g = r.normal(size=out.shape).astype(np.float32)
    for got, want in zip((out, *backward(g)), depthwise_per_tap(x, w, g, stride, 1)):
        assert got.tobytes() == want.tobytes()


def test_depthwise_stage_starts_the_sum_at_its_start():
    r = rng(50)
    x = r.normal(size=(2, 5, 6, 3))
    w = r.normal(size=(3, 1, 3, 3))
    start = r.normal(size=3)
    got, _ = _depthwise(x, w, 1, 1, False, start)
    want, _ = _depthwise(x, w, 1, 1, False)
    assert np.abs(got - (want + start)).max() <= 1e-12
