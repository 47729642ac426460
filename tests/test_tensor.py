"""Autodiff core: forward values against numpy/loop oracles, graph semantics."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualformer import precision
from dualformer import tensor as tensor_module
from dualformer.tensor import _make, _softmax
from dualformer.tensor import (
    GraphError,
    ShapeError,
    Tensor,
    add,
    add_bias,
    concat,
    constant,
    gather_segments,
    gelu,
    graph_records,
    matmul,
    mul,
    narrow,
    no_grad,
    one_hot,
    segment_sum,
    sigmoid,
    softmax,
    tmean,
    transpose,
    tsum,
)
from dualformer.train import cross_entropy


def rng(seed=0):
    return np.random.default_rng(seed)


# -- construction ------------------------------------------------------------


def test_default_dtype_is_f32():
    assert constant([1.0, 2.0]).dtype == np.float32


def test_storage_is_contiguous():
    base = np.arange(12, dtype=np.float32).reshape(3, 4)
    t = Tensor(base[:, ::2])
    assert t.data.flags["C_CONTIGUOUS"]


def test_precision_context_switches_dtype():
    with precision.precision("f64"):
        assert constant([1.0]).dtype == np.float64
    assert constant([1.0]).dtype == np.float32


# -- elementwise forward -----------------------------------------------------


def test_matmul_frozen_2x2():
    a = constant([[1.0, 2.0], [3.0, 4.0]])
    b = constant([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_against_loop_oracle():
    r = rng(1)
    with precision.precision("f64"):
        for _ in range(20):
            n, k, m = r.integers(1, 6, size=3)
            a = r.normal(size=(n, k))
            b = r.normal(size=(k, m))
            want = np.zeros((n, m))
            for i in range(n):
                for j in range(m):
                    for q in range(k):
                        want[i, j] += a[i, q] * b[q, j]
            got = matmul(constant(a), constant(b)).data
            assert np.allclose(got, want, atol=1e-12)


def test_matmul_batched_matches_numpy():
    r = rng(2)
    a = r.normal(size=(3, 2, 4)).astype(np.float32)
    b = r.normal(size=(3, 4, 5)).astype(np.float32)
    got = matmul(constant(a), constant(b)).data
    assert np.allclose(got, a @ b, atol=1e-6)


def test_matmul_inner_dim_mismatch():
    with pytest.raises(ShapeError):
        matmul(constant(np.ones((2, 3))), constant(np.ones((4, 2))))


@pytest.mark.parametrize(
    "op,ref",
    [
        (sigmoid, lambda x: 1.0 / (1.0 + np.exp(-x))),
    ],
)
def test_unary_matches_numpy(op, ref):
    x = rng(3).normal(size=(4, 5)).astype(np.float64)
    with precision.precision("f64"):
        assert np.allclose(op(constant(x)).data, ref(x), atol=1e-12)


def test_gelu_matches_tanh_form():
    x = rng(5).normal(size=(64,)).astype(np.float64)
    c = np.sqrt(2.0 / np.pi)
    want = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))
    with precision.precision("f64"):
        assert np.allclose(gelu(constant(x)).data, want, atol=1e-12)


def test_gelu_f32_within_2ulp_of_f64():
    # In f32, 1 + tanh cancels for negative x, so the error is bounded on the
    # scale of the input, not of the (tiny) output: ulps of x.
    x = np.concatenate([np.linspace(-20.0, 20.0, 400_001), rng(6).uniform(-20, 20, 100_000)])
    x = x.astype(np.float32)
    x64 = x.astype(np.float64)
    c = np.sqrt(2.0 / np.pi)
    want = 0.5 * x64 * (1.0 + np.tanh(c * (x64 + 0.044715 * x64**3)))
    got = gelu(constant(x, dtype=np.float32)).data
    assert got.dtype == np.float32
    ulps = np.abs(got.astype(np.float64) - want) / np.spacing(np.abs(x)).astype(np.float64)
    assert ulps.max() <= 2.0


def test_gelu_f32_keeps_relative_accuracy_below_minus_4():
    # 1 + tanh(u) cancels here and x * sigmoid(2u) does not. What remains is
    # the f32 rounding of 2u, which exp turns into a relative error of about
    # |2u| eps; |2u| reaches 49 at x = -8.
    x = np.concatenate([np.linspace(-8.0, -4.0, 400_001), rng(7).uniform(-8, -4, 100_000)])
    x = x.astype(np.float32)
    x64 = x.astype(np.float64)
    two_u = 2.0 * np.sqrt(2.0 / np.pi) * (x64 + 0.044715 * x64**3)
    want = x64 / (1.0 + np.exp(-two_u))
    got = gelu(constant(x, dtype=np.float32)).data.astype(np.float64)
    rel = np.abs(got - want) / np.abs(want)
    assert np.all(rel <= 2.0 * np.abs(two_u) * np.finfo(np.float32).eps)


@pytest.mark.parametrize("dtype,big", [(np.float32, [1e13, 1e20, 3e38]),
                                       (np.float64, [1e13, 1e103, 1e300])])
def test_gelu_where_the_cube_overflows(dtype, big):
    x = np.array(big + [-v for v in big], dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = gelu(constant(x, dtype=dtype)).data
    n = len(big)
    assert np.isfinite(out).all()
    assert np.array_equal(out[:n], x[:n])
    assert np.all(out[n:] == 0.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_grad_where_the_square_overflows(dtype):
    # x*x overflows here while tanh has long saturated: the slopes are 1 and 0
    big = 1e20 if dtype == np.float32 else 1e160
    x = Tensor(np.array([big, -big], dtype=dtype), requires_grad=True, dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tsum(gelu(x)).backward()
    assert x.grad.dtype == dtype
    assert x.grad.tolist() == [1.0, 0.0]


def gelu_one_shot(x):
    """GELU's arithmetic over the whole array at once: the sigmoid of 2u by
    multiplies, its reciprocal, then one product."""
    with np.errstate(over="ignore"):
        s = x * x
        s *= -2.0 * tensor_module._GELU_C * tensor_module._GELU_A
        s -= 2.0 * tensor_module._GELU_C
        s *= x
        np.exp(s, out=s)
        s += 1.0
        np.reciprocal(s, out=s)
    return x * s, s


def gelu_grad_one_shot(x, s, g):
    """``g`` times GELU's derivative ``s (1 + (1 - s) 2c x (1 + 3A x^2))``
    over the whole array at once, ``x`` clamped at the saturation point."""
    c, a = tensor_module._GELU_C, tensor_module._GELU_A
    xc = np.clip(x, -tensor_module._GELU_SAT, tensor_module._GELU_SAT)
    dx = xc * xc
    dx *= 6.0 * c * a
    dx += 2.0 * c
    dx *= xc
    dx *= 1.0 - s
    dx += 1.0
    dx *= s
    dx *= g
    return dx


@pytest.mark.parametrize("chunk", [7, 1 << 15])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_chunked_gelu_is_bitwise_the_one_shot_form(dtype, chunk, monkeypatch):
    # 7-element chunks do not divide the 1,000 values, so the last is short;
    # the default chunk holds them all in one pass of the same loop
    monkeypatch.setattr(tensor_module, "_GELU_CHUNK", chunk)
    sat = tensor_module._GELU_SAT
    edges = [0.0, -0.0, sat, -sat, np.nextafter(sat, 0), -np.nextafter(sat, 0), 1e20, -1e20,
             np.finfo(dtype).max, -np.finfo(dtype).max, np.finfo(dtype).tiny]
    x = np.concatenate([edges, 6.0 * rng(8).normal(size=1000 - len(edges))]).astype(dtype)
    x = x.reshape(10, 100)
    g = rng(9).normal(size=x.shape).astype(dtype)
    want, want_s = gelu_one_shot(x)
    want_dx = gelu_grad_one_shot(x, want_s, g)
    for keep in (False, True):
        for owned in (False, True):
            arg = x.copy()
            out, backward = tensor_module._gelu(arg, keep, owned)
            assert out.tobytes() == want.tobytes(), (keep, owned)
            # the stage writes over x only when the caller owns it and keeps no graph
            in_place = owned and not keep
            assert (out is arg) == in_place, (keep, owned)
            if not in_place:
                assert arg.tobytes() == x.tobytes(), (keep, owned)
            if not keep:
                assert backward is None
                continue
            assert backward(g).tobytes() == want_dx.tobytes(), owned
    assert gelu(constant(x, dtype=dtype)).data.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_equals_two_branch_form(dtype):
    def two_branch(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    for shape in [(7,), (5, 3, 2), (2, 16, 196, 16)]:
        x = (5.0 * rng(8).normal(size=shape)).astype(dtype)
        x.flat[:3] = [0.0, -0.0, -800.0]
        got = sigmoid(constant(x, dtype=dtype)).data
        assert got.dtype == dtype
        assert np.array_equal(got, two_branch(x))


def test_sigmoid_extreme_inputs_stay_finite():
    x = constant([-500.0, 500.0])
    out = sigmoid(x).data
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(0.0, abs=1e-30)
    assert out[1] == pytest.approx(1.0)


# -- broadcasting rules ------------------------------------------------------


def test_broadcast_equal_shapes_and_scalar():
    a = constant(np.ones((2, 3)))
    assert add(a, a).shape == (2, 3)
    assert add(a, 2.0).shape == (2, 3)
    assert mul(3.0, a).shape == (2, 3)


def test_broadcast_size_one_axes_rejected():
    a = constant(np.ones((2, 1, 3)))
    with pytest.raises(ShapeError):
        add(a, constant(np.ones((1, 4, 3))))
    with pytest.raises(ShapeError):
        mul(a, constant(np.ones((2, 4, 3))))


def test_broadcast_rank_promotion_rejected():
    with pytest.raises(ShapeError):
        add(constant(np.ones((2, 3))), constant(np.ones(3)))


def test_broadcast_incompatible_sizes_rejected():
    with pytest.raises(ShapeError):
        add(constant(np.ones((2, 3))), constant(np.ones((2, 4))))


def test_mixed_dtypes_rejected():
    a = constant(np.ones(3), dtype=np.float32)
    b = constant(np.ones(3), dtype=np.float64)
    with pytest.raises(TypeError):
        add(a, b)


def test_add_bias_matches_reshape_oracle():
    r = rng(6)
    x = r.normal(size=(2, 3, 5)).astype(np.float32)
    b = r.normal(size=5).astype(np.float32)
    got = add_bias(constant(x), constant(b)).data
    assert np.allclose(got, x + b.reshape(1, 1, 5), atol=1e-7)
    for bad in ((3, 5), (15,), (4,), (2, 3, 5)):
        with pytest.raises(ShapeError):
            add_bias(constant(x), constant(np.ones(bad)))


# -- reductions and shape ops -------------------------------------------------


def test_sum_mean_axes_match_numpy():
    x = rng(7).normal(size=(2, 3, 4)).astype(np.float64)
    with precision.precision("f64"):
        t = constant(x)
        assert np.allclose(tsum(t).data, x.sum())
        assert np.allclose(tmean(t, axis=(1, 2)).data, x.mean(axis=(1, 2)))


def test_transpose_concat_narrow_values():
    x = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    t = constant(x)
    assert np.array_equal(transpose(t, (2, 0, 1)).data, x.transpose(2, 0, 1))
    # viewed in, permuted, viewed out: numpy's reshape, transpose, reshape
    got = transpose(t, (1, 0, 2, 3), shape=(2, 3, 2, 2), out_shape=(6, 4))
    assert np.array_equal(got.data, x.reshape(2, 3, 2, 2).transpose(1, 0, 2, 3).reshape(6, 4))
    got = transpose(t, (1, 0), shape=(6, 4))
    assert np.array_equal(got.data, x.reshape(6, 4).T)
    assert np.array_equal(transpose(t, (0, 1, 2), out_shape=(24,)).data, x.reshape(24))
    assert np.array_equal(narrow(t, 2, 1, 2).data, x[:, :, 1:3])
    cat = concat([t, t], axis=1)
    assert np.array_equal(cat.data, np.concatenate([x, x], axis=1))


def test_transpose_is_one_node_whose_backward_inverts_it():
    x = Tensor(np.arange(24.0).reshape(2, 12), requires_grad=True, dtype=np.float64)
    y = transpose(x, (0, 2, 1), shape=(2, 3, 4), out_shape=(8, 3))
    assert [op for op, _, _ in graph_records(y)] == ["transpose"]
    g = np.arange(24.0).reshape(8, 3) * 0.5
    (dx,) = y._node.backward_fn(g)
    assert np.array_equal(dx, g.reshape(2, 4, 3).transpose(0, 2, 1).reshape(2, 12))


@pytest.mark.parametrize("axes,shape,out_shape", [
    ((1, 0), (5, 5), None),  # 24 elements do not view as 25
    ((1, 0), (4, 6), (5, 5)),
    ((0, 0, 1), None, None),  # not a permutation
    ((1, 0), None, None),  # rank 3 needs three axes
])
def test_transpose_rejects_bad_views_and_axes(axes, shape, out_shape):
    with pytest.raises(ShapeError, match="transpose"):
        transpose(constant(np.ones((2, 3, 4))), axes, shape=shape, out_shape=out_shape)


def test_narrow_out_of_range():
    with pytest.raises(ShapeError):
        narrow(constant(np.ones((2, 3))), 1, 2, 5)


# -- softmax -------------------------------------------------------------


def test_softmax_rows_sum_to_one_and_match_oracle():
    x = rng(8).normal(size=(5, 7)).astype(np.float64)
    with precision.precision("f64"):
        got = softmax(constant(x), axis=1).data
    want = np.empty_like(x)
    for i in range(x.shape[0]):
        e = np.exp(x[i] - x[i].max())
        want[i] = e / e.sum()
    assert np.allclose(got, want, atol=1e-12)
    assert np.allclose(got.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_shift_invariance():
    x = rng(9).normal(size=(3, 4)).astype(np.float64)
    with precision.precision("f64"):
        a = softmax(constant(x), axis=-1).data
        b = softmax(constant(x + 100.0), axis=-1).data
    assert np.allclose(a, b, atol=1e-12)


def test_softmax_huge_logits_stay_finite():
    out = softmax(constant([[1000.0, 999.0]]), axis=-1).data
    assert np.all(np.isfinite(out))


def test_masked_softmax_matches_loop_oracle():
    # the array softmax that ``softmax`` and the MHPA inter node share; the
    # inter node is the one caller that passes a mask
    r = rng(20)
    x = r.normal(scale=3.0, size=(2, 6, 3))
    mask = r.random((2, 6, 1)) < 0.6
    mask[:, 0] = True  # every slice keeps an entry
    mask[1, 3] = False
    # a masked entry far above the rest would overflow exp if shifted by the
    # unmasked max; masking first makes it exactly zero
    x[1, ~mask[1, :, 0], 0] = 1000.0
    got = _softmax(x, -2, mask)
    want = np.zeros_like(x)
    for b in range(2):
        for j in range(3):
            keep = np.flatnonzero(mask[b, :, 0])
            e = np.exp(x[b, keep, j] - x[b, keep, j].max())
            want[b, keep, j] = e / e.sum()
    assert np.allclose(got, want, atol=1e-12)
    assert np.all(got[~np.broadcast_to(mask, x.shape)] == 0.0)
    # no finite softmax: a slice with every entry masked, or an infinite score
    with pytest.raises(FloatingPointError):
        _softmax(x, -2, mask & (np.arange(2) == 0)[:, None, None])
    x[0, 0, 0] = np.inf
    with pytest.raises(FloatingPointError):
        _softmax(x, -2, mask)


# -- segment ops ---------------------------------------------------------


def test_segment_sum_matches_loop():
    r = rng(10)
    x = r.normal(size=(9, 4)).astype(np.float64)
    seg = r.integers(0, 5, size=9)
    with precision.precision("f64"):
        got = segment_sum(constant(x), one_hot(seg, 5, np.float64)).data
    want = np.zeros((5, 4))
    for i, s in enumerate(seg):
        want[s] += x[i]
    assert np.allclose(got, want, atol=1e-12)


def test_segment_sum_batched_matches_loop():
    r = rng(11)
    x = r.normal(size=(2, 6, 3)).astype(np.float64)
    seg = r.integers(0, 4, size=(2, 6))
    with precision.precision("f64"):
        got = segment_sum(constant(x), one_hot(seg, 4, np.float64)).data
    want = np.zeros((2, 4, 3))
    for b in range(2):
        for i in range(6):
            want[b, seg[b, i]] += x[b, i]
    assert np.allclose(got, want, atol=1e-12)


def test_gather_segments_matches_indexing():
    r = rng(12)
    table = r.normal(size=(4, 3)).astype(np.float32)
    seg = r.integers(0, 4, size=7)
    got = gather_segments(constant(table), one_hot(seg, 4, np.float32)).data
    assert np.array_equal(got, table[seg])
    # batched (B, n) ids against a per-instance loop
    table = r.normal(size=(2, 4, 3)).astype(np.float32)
    seg = r.integers(0, 4, size=(2, 6))
    got = gather_segments(constant(table), one_hot(seg, 4, np.float32)).data
    want = np.zeros((2, 6, 3), dtype=np.float32)
    for b in range(2):
        for i in range(6):
            want[b, i] = table[b, seg[b, i]]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("ids", [[0, -1, 1], [0, 4, 1], [0.0, 1.0, 2.0]], ids=["neg", "K", "float"])
def test_bucket_and_label_ops_reject_bad_ids(ids):
    ids = np.array(ids)
    with pytest.raises(ShapeError):
        one_hot(ids, 4, np.float32)
    with pytest.raises(ShapeError):
        cross_entropy(constant(np.ones((3, 4))), ids)


# -- graph semantics -----------------------------------------------------


def test_sum_backward_hands_on_a_contiguous_gradient():
    # a broadcast view would send the next backward's matmuls down numpy's
    # strided loop; the copy is made once, where the view is made
    seen = []
    x = Tensor(np.ones((3, 4)), requires_grad=True)
    mid = _make(x.data.copy(), (x,), lambda g: (seen.append(g) or g,), "probe")
    tsum(mid).backward()
    assert seen[0].shape == (3, 4)
    assert seen[0].flags["C_CONTIGUOUS"] and seen[0].flags["WRITEABLE"]


def test_backward_needs_scalar():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(GraphError):
        mul(a, a).backward()


def test_backward_on_constant_graph_raises():
    with pytest.raises(GraphError):
        tsum(constant([1.0, 2.0])).backward()


def test_leaf_gradient_accumulates_across_backwards():
    a = Tensor(np.full((3,), 2.0), requires_grad=True)
    tsum(mul(a, a)).backward()
    first = a.grad.copy()
    tsum(mul(a, a)).backward()
    assert np.allclose(a.grad, 2.0 * first)
    a.zero_grad()
    assert a.grad is None


def test_no_grad_suppresses_graph():
    a = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        out = mul(a, a)
    assert out._node is None


def test_intermediate_tensors_do_not_hold_grads():
    a = Tensor(np.ones(3), requires_grad=True)
    mid = mul(a, a)
    tsum(mid).backward()
    assert mid.grad is None
    assert a.grad is not None


def test_graph_records_topological_order():
    a = Tensor(np.ones(2), requires_grad=True)
    out = tsum(mul(add(a, 1.0), a))
    recs = graph_records(out)
    names = [r[0] for r in recs]
    assert names.index("add") < names.index("mul") < names.index("sum")
    seen = set()
    for _, inputs, output in recs:
        seen.add(output)
    assert len(seen) == len(recs)  # one record per produced tensor


def test_chain_rule_frozen_value():
    # d/dx sum((x + 1) * x) at x=2 is 2x + 1 = 5
    a = Tensor(np.array([2.0]), requires_grad=True)
    tsum(mul(add(a, 1.0), a)).backward()
    assert a.grad[0] == pytest.approx(5.0)


def test_matmul_backward_frozen_value():
    # loss = sum(A @ B); dA = ones @ B^T, dB = A^T @ ones
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    b = Tensor(np.array([[5.0, 6.0], [7.0, 8.0]]), requires_grad=True)
    tsum(matmul(a, b)).backward()
    assert np.allclose(a.grad, np.ones((2, 2)) @ b.data.T)
    assert np.allclose(b.grad, a.data.T @ np.ones((2, 2)))


def test_operator_sugar_routes_through_ops():
    a = Tensor(np.full((2,), 3.0), requires_grad=True)
    out = (a + 1.0) * a + 2.0
    assert np.allclose(out.data, [14.0, 14.0])
    assert [r[0] for r in graph_records(out)] == ["add", "mul", "add"]
    out = (a * 2.0).sum()
    assert out.item() == 12.0
    assert [r[0] for r in graph_records(out)] == ["mul", "sum"]


# -- property tests ------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6), st.integers(1, 6),
    st.integers(0, 2**31 - 1),
)
def test_softmax_normalization_property(n, d, seed):
    x = np.random.default_rng(seed).normal(scale=5.0, size=(n, d))
    with precision.precision("f64"):
        out = softmax(constant(x), axis=-1).data
    assert np.all(out >= 0)
    assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 20), st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_segment_sum_total_preserved(n, k, seed):
    r = np.random.default_rng(seed)
    x = r.normal(size=(n, 3))
    seg = r.integers(0, k, size=n)
    with precision.precision("f64"):
        out = segment_sum(constant(x), one_hot(seg, k, np.float64)).data
    assert np.allclose(out.sum(axis=0), x.sum(axis=0), atol=1e-9)
