"""Partition attention ops against brute-force loop oracles, plus the
pipeline invariants: normalization, equivariance, identity behavior.

Maps are drawn and checked as (B, C, H, W) and handed to the layer
channels-last through ``nhwc``.
"""
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualformer import mhpa, precision, tensor
from dualformer.mhpa import (
    EPS,
    MhpaConfig,
    MhpaHeadParams,
    channel_to_spatial,
    global_local_aggregate,
    inter_partition_attention,
    intra_partition_attention,
    mhpa_forward,
    mhpa_head_forward,
    partition_attention,
    partition_to_grayscale,
    segment_counts,
)
from dualformer.blocks import make_mhpa
from dualformer.conv import conv2d
from dualformer.norms import layer_norm_channels
from dualformer.partition import NormVectors, hash_codes
from dualformer.tensor import (
    ShapeError, Tensor, add, concat, constant, gather_segments, gelu, graph_records, matmul,
    mul, narrow, one_hot, segment_sum, sigmoid, softmax, tsum,
)


def np_gelu(x):
    c = np.sqrt(2.0 / np.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))


def intra_oracle(x, xt, assign, num_clusters):
    out = np.zeros_like(xt)
    for k in range(num_clusters):
        idx = np.flatnonzero(assign == k)
        if idx.size == 0:
            continue
        for c in range(x.shape[1]):
            w = x[idx, c] / (x[idx, c].sum() + EPS)
            out[idx, c] = w * xt[idx, c] / (w.sum() + EPS)
    return out


def inter_oracle(xt, assign, num_clusters, head):
    d = xt.shape[1]
    counts = np.bincount(assign, minlength=num_clusters)
    descr = np.zeros((num_clusters, d))
    for k in range(num_clusters):
        if counts[k]:
            descr[k] = xt[assign == k].mean(axis=0)
    h = np_gelu(descr @ head.imp_w1.data + head.imp_b1.data)
    scores = (h @ head.imp_w2.data + head.imp_b2.data).ravel()
    mask = counts > 0
    e = np.where(mask, np.exp(scores - scores[mask].max()), 0.0)
    coeff = e / e.sum()
    return descr * coeff[:, None]


def aggregate_oracle(intra, inter, assign, head):
    n = intra.shape[0]
    out = np.zeros((n, head.agg_w.shape[1]))
    for i in range(n):
        fused = np.concatenate([intra[i], inter[assign[i]]])
        out[i] = fused @ head.agg_w.data + head.agg_b.data
    return out


def c2s_oracle(x, rate):
    b, ck2, h, w = x.shape
    c = ck2 // (rate * rate)
    out = np.zeros((b, c, h * rate, w * rate), dtype=x.dtype)
    for n in range(b):
        for ch in range(c):
            for dy in range(rate):
                for dx in range(rate):
                    out[n, ch, dy::rate, dx::rate] = x[n, ch * rate * rate + dy * rate + dx]
    return out


def nhwc(a):
    return np.ascontiguousarray(np.asarray(a).transpose(0, 2, 3, 1))


def make_head(r, d):
    dh = max(1, d // 4)
    t = lambda *s: constant(0.5 * r.normal(size=s))
    return MhpaHeadParams(
        token_w=t(d, d), token_b=t(d),
        imp_w1=t(d, dh), imp_b1=t(dh),
        imp_w2=t(dh, 1), imp_b2=t(1),
        agg_w=t(2 * d, d), agg_b=t(d),
        norms=NormVectors(r.standard_normal((3, d))),
    )


def rand_assign(r, n, k):
    return r.integers(0, k, size=n)


def buckets(assign, k):
    """The one-hot bucket matrix the attention stages take, in the current dtype."""
    return one_hot(assign, k, precision.default_dtype())


def node_of(stage, parents):
    """An array stage's ``(out, backward)`` as one autodiff node over ``parents``."""
    out, backward = stage
    return tensor._make(out, tuple(parents), backward, "stage")


# -- intra ---------------------------------------------------------------


def test_intra_frozen_hand_case():
    # one bucket, one channel: weights 2/8 and 6/8, weight sum 1, so the
    # outputs are w_i * values: [0.25*4, 0.75*2] = [1.0, 1.5] up to eps
    x = np.array([[2.0], [6.0]])
    xt = np.array([[4.0], [2.0]])
    out, _ = intra_partition_attention(x, xt, buckets(np.array([0, 0]), 1))
    assert np.allclose(out, [[1.0], [1.5]], atol=1e-5)


def test_intra_matches_oracle_many_instances():
    r = np.random.default_rng(0)
    with precision.precision("f64"):
        for _ in range(120):
            n = int(r.integers(1, 33))
            d = int(r.integers(1, 9))
            k = int(r.integers(1, 9))
            x = np.abs(r.normal(size=(n, d))) + 0.1
            xt = r.normal(size=(n, d))
            assign = rand_assign(r, n, k)
            got, _ = intra_partition_attention(x, xt, buckets(assign, k))
            assert np.allclose(got, intra_oracle(x, xt, assign, k), atol=1e-6)


def test_intra_shape_mismatch_rejected():
    # the node checks the gate's shape once for the intra stage
    head = make_head(np.random.default_rng(0), 2)
    b = buckets(np.zeros(3, dtype=np.int64), 2)
    tokens = constant(np.ones((3, 2)))
    with pytest.raises(ShapeError, match="gate"):
        partition_attention(constant(np.ones((3, 3))), tokens, b, head, "full")
    with pytest.raises(ShapeError, match="gate"):
        partition_attention(constant(np.ones((4, 2))), tokens, b, head, "full")


@settings(max_examples=200, deadline=None)
@given(
    st.floats(1.0, 3.0), st.floats(-0.5, 0.5), st.integers(0, 2**31 - 1),
)
def test_intra_singleton_identity(weight, value, seed):
    # a lone token's output is its value; the eps terms contribute a
    # relative error of about eps * (1 + 1/weight), under 2e-6 here
    r = np.random.default_rng(seed)
    n = int(r.integers(1, 9))
    lone = int(r.integers(0, n))
    x = np.abs(r.normal(size=(n, 1))) + 0.1
    xt = r.normal(size=(n, 1))
    x[lone, 0] = weight
    xt[lone, 0] = value
    assign = np.zeros(n, dtype=np.int64)
    assign[lone] = 1  # token sits alone in bucket 1
    with precision.precision("f64"):
        out, _ = intra_partition_attention(x, xt, buckets(assign, 2))
    assert abs(out[lone, 0] - value) <= 2e-6


# -- inter ---------------------------------------------------------------


def test_inter_matches_oracle_many_instances():
    r = np.random.default_rng(1)
    with precision.precision("f64"):
        for _ in range(120):
            n = int(r.integers(1, 33))
            d = int(r.integers(1, 9))
            k = int(r.integers(1, 9))
            xt = r.normal(size=(n, d))
            assign = rand_assign(r, n, k)
            head = make_head(r, d)
            got, _ = inter_partition_attention(xt, buckets(assign, k), head)
            want = inter_oracle(xt, assign, k, head)
            assert np.allclose(got, want, atol=1e-6)


def test_inter_single_bucket_returns_descriptor():
    r = np.random.default_rng(2)
    with precision.precision("f64"):
        xt = r.normal(size=(7, 3))
        assign = np.zeros(7, dtype=np.int64)
        out, _ = inter_partition_attention(xt, buckets(assign, 1), make_head(r, 3))
    # coefficient over a single bucket is exactly one
    assert np.allclose(out[0], xt.mean(axis=0), atol=1e-12)


def test_inter_empty_buckets_are_zero_rows():
    r = np.random.default_rng(3)
    xt = r.normal(size=(5, 2)).astype(np.float32)
    assign = np.array([0, 0, 3, 3, 3])
    out, _ = inter_partition_attention(xt, buckets(assign, 8), make_head(r, 2))
    for k in range(8):
        if k not in (0, 3):
            assert np.all(out[k] == 0.0)


def test_inter_empty_bucket_scoring_far_above_the_rest_stays_finite():
    # two tokens of 20.0 in bucket 0 and bucket 1 empty: bucket 0 scores -160
    # and the empty bucket 0, so shifted by the non-empty max the empty
    # bucket's exp is e^160, which overflows float32 unless masked first
    d = 4
    full = lambda v, *s: constant(np.full(s, v))
    head = MhpaHeadParams(
        token_w=constant(np.eye(d)), token_b=full(0.0, d),
        imp_w1=full(1.0, d, 2), imp_b1=full(0.0, 2),
        imp_w2=full(-1.0, 2, 1), imp_b2=full(0.0, 1),
        # the output is the token's inter row: [0; I] picks it out of [intra, inter]
        agg_w=constant(np.eye(2 * d, d, k=-d)), agg_b=full(0.0, d),
        norms=NormVectors(np.ones((3, d))),
    )
    tokens = full(20.0, 2, d)
    out, _ = mhpa_head_forward(tokens, head, 2, assign=np.zeros(2, dtype=np.int64))
    # one non-empty bucket: its coefficient is exactly 1 and its row the mean
    assert np.array_equal(out.data, np.full((2, d), 20.0, dtype=np.float32))


def test_segment_counts_per_row_and_range_checked():
    assign = np.array([[0, 2, 2], [1, 1, 3]])
    assert segment_counts(assign, 4).tolist() == [[1, 0, 2, 0], [0, 2, 0, 1]]
    assert segment_counts(assign[0], 4).tolist() == [1, 0, 2, 0]
    # id 4 in the first row would otherwise land in the second row's bucket 0
    bad = np.array([[0, 4, 2], [1, 1, 3]])
    with pytest.raises(ShapeError):
        segment_counts(bad, 4)
    with pytest.raises(ShapeError):
        segment_counts(np.array([[0, -1]]), 4)
    with pytest.raises(ShapeError):
        segment_counts(np.array([[0.0, 1.0]]), 4)


def test_inter_zeroed_predictor_gives_uniform_coefficients():
    # identical scores -> softmax is uniform over the non-empty buckets
    r = np.random.default_rng(4)
    with precision.precision("f64"):
        xt = r.normal(size=(8, 3))
        assign = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        head = make_head(r, 3)
        head.imp_w1.data[:] = 0.0
        head.imp_b1.data[:] = 0.0
        head.imp_w2.data[:] = 0.0
        head.imp_b2.data[:] = 0.0
        out, _ = inter_partition_attention(xt, buckets(assign, 4), head)
        for k in range(4):
            want = 0.25 * xt[assign == k].mean(axis=0)
            assert np.allclose(out[k], want, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 32), st.integers(1, 6), st.integers(1, 8), st.integers(0, 2**31 - 1))
def test_inter_coefficients_sum_to_one(n, d, k, seed):
    r = np.random.default_rng(seed)
    xt = r.normal(size=(n, d)) + 1.0  # keep descriptors away from zero
    assign = rand_assign(r, n, k)
    with precision.precision("f64"):
        head = make_head(r, d)
        out, _ = inter_partition_attention(xt, buckets(assign, k), head)
    total = 0.0
    recovered = False
    counts = np.bincount(assign, minlength=k)
    descr = np.zeros((k, d))
    for kk in range(k):
        if counts[kk]:
            descr[kk] = xt[assign == kk].mean(axis=0)
            c = int(np.argmax(np.abs(descr[kk])))
            if abs(descr[kk, c]) > 1e-6:
                total += out[kk, c] / descr[kk, c]
                recovered = True
    if recovered:
        assert abs(total - 1.0) <= 1e-6


# -- aggregate -----------------------------------------------------------


def test_aggregate_matches_oracle_many_instances():
    r = np.random.default_rng(5)
    with precision.precision("f64"):
        for _ in range(120):
            n = int(r.integers(1, 33))
            d = int(r.integers(1, 9))
            k = int(r.integers(1, 9))
            assign = rand_assign(r, n, k)
            head = make_head(r, d)
            intra = r.normal(size=(n, d))
            inter = r.normal(size=(k, d))
            got, _ = global_local_aggregate(intra, inter, buckets(assign, k), head)
            want = aggregate_oracle(intra, inter, assign, head)
            assert np.allclose(got, want, atol=1e-6)


def test_aggregate_wrong_bucket_rows_rejected():
    # a bucket matrix with a row per token of another batch: the aggregate
    # would look up bucket rows for tokens that are not there
    r = np.random.default_rng(6)
    head = make_head(r, 3)
    tokens = constant(np.ones((5, 3)))
    for assign in (np.array([0, 1, 2, 3]), np.zeros((2, 5), dtype=np.int64)):
        with pytest.raises(ShapeError, match="bucket matrix"):
            partition_attention(tokens, tokens, buckets(assign, 4), head, "full")


# -- the node and its stages against the composed ops ----------------------
#
# The head as it was composed from public tensor ops before it became one
# node with hand-derived backward stages. Autodiff through these is the
# oracle for the node's and each stage's forward and every gradient, in f64.


def divide(a, b):
    """Elementwise ``a / b`` of equal-shape tensors with the textbook
    derivatives, for the composed intra step; the library has no division op."""

    def backward(g):
        return g / b.data, -g * a.data / (b.data * b.data)

    return tensor._make(a.data / b.data, (a, b), backward, "div")


def spread(a, d):
    """(..., 1) columns repeated over d columns, as a matmul with a ones row."""
    return matmul(a, constant(np.ones((1, d))))


def view(a, shape):
    """``a`` as ``shape``, numpy's reshape both ways, so the oracles stay
    independent of the library's layout op."""
    return tensor._make(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),), "view")


def bias_add(x, b, w):
    """``x @ w``'s bias added to ``x``: the bias as (..., 1, k) rows through
    w's leading axes, repeated over x's rows by a matmul with a ones column."""
    rows = view(b, w.shape[:-2] + (1, w.shape[-1]))
    return add(x, matmul(constant(np.ones(x.shape[:-1] + (1,))), rows))


def composed_intra(x, x_tilde, buckets):
    sums = segment_sum(x, buckets)
    w = divide(x, gather_segments(sums, buckets) + EPS)
    wsums = segment_sum(w, buckets)
    return divide(w * x_tilde, gather_segments(wsums, buckets) + EPS)


def composed_inter(x_tilde, buckets, head):
    counts = buckets.sum(axis=-2)
    d = x_tilde.shape[-1]
    inv = np.broadcast_to((1.0 / np.maximum(counts, 1))[..., None], counts.shape + (d,))
    descr = mul(segment_sum(x_tilde, buckets), constant(inv, dtype=x_tilde.dtype))
    h = gelu(bias_add(matmul(descr, head.imp_w1), head.imp_b1, head.imp_w1))
    scores = bias_add(matmul(h, head.imp_w2), head.imp_b2, head.imp_w2)
    # -inf on empty buckets before the softmax masks them as the node does
    mask = np.where(counts > 0, 0.0, -np.inf)[..., None]
    return mul(descr, spread(softmax(add(scores, constant(mask)), axis=-2), d))


def composed_aggregate(intra, inter, buckets, head):
    fused = concat([intra, gather_segments(inter, buckets)], axis=-1)
    return bias_add(matmul(fused, head.agg_w), head.agg_b, head.agg_w)


def composed_head(tokens, head, num_clusters, assign, attend):
    b = one_hot(assign, num_clusters, tokens.dtype)
    gate = sigmoid(tokens)
    xt = bias_add(matmul(tokens, head.token_w), head.token_b, head.token_w)
    if attend == "inter_only":
        intra = constant(np.zeros(xt.shape))
    else:
        intra = composed_intra(gate, xt, b)
    if attend == "intra_only":
        inter = constant(np.zeros(xt.shape[:-2] + (num_clusters, xt.shape[-1])))
    else:
        inter = composed_inter(xt, b, head)
    return composed_aggregate(intra, inter, b, head)


def leaf_head(r, d, heads=None):
    """A head whose tensors are gradient leaves; with ``heads``, stacked as
    ``make_mhpa`` builds it: weights with a leading head axis and each bias
    the heads' biases concatenated."""
    lead = () if heads is None else (heads,)
    dh = max(1, d // 4)
    t = lambda *s: Tensor(0.5 * r.normal(size=lead + s), requires_grad=True)
    v = lambda k: Tensor(0.5 * r.normal(size=(heads or 1) * k), requires_grad=True)
    return MhpaHeadParams(
        token_w=t(d, d), token_b=v(d), imp_w1=t(d, dh), imp_b1=v(dh),
        imp_w2=t(dh, 1), imp_b2=v(1), agg_w=t(2 * d, d), agg_b=v(d),
        norms=NormVectors(r.standard_normal(lead + (3, d))),
    )


def head_leaves(head):
    return [v for v in vars(head).values() if isinstance(v, Tensor)]


def grads_of(fn, leaves, weight):
    """Output and the gradient of every leaf, for the loss sum(out * weight)."""
    for t in leaves:
        t.zero_grad()
    out = fn()
    tsum(mul(out, constant(weight))).backward()
    return out.data, [t.grad for t in leaves]


def assert_node_matches(node, composed, leaves, r):
    """The node's output is one graph node, and its output and every leaf's
    gradient match the composed ops to 1e-12."""
    got = node()
    assert len(graph_records(got)) == 1 + sum(t._node is not None for t in leaves)
    weight = r.normal(size=got.shape)
    out, grads = grads_of(node, leaves, weight)
    want, want_grads = grads_of(composed, leaves, weight)
    scale = max(1.0, np.abs(want).max())
    assert np.abs(out - want).max() <= 1e-12 * scale
    for t, g, w in zip(leaves, grads, want_grads):
        assert g is not None and g.shape == t.shape
        assert np.abs(g - w).max() <= 1e-12 * max(1.0, np.abs(w).max()), t.shape


# (lead, n, heads): single-head tokens with and without batch axes, and the
# stacked (B, heads, n, d) layout; n = 1 is a stage-3/4 head at 32x32
LAYOUTS = [((), 11, None), ((3,), 9, None), ((2, 3), 7, 3), ((4, 2), 1, 2)]


def layout_buckets(r, lead, n, k=8):
    """A bucket matrix that leaves buckets 1 and 5 empty everywhere."""
    assign = r.choice([0, 2, 3, 4, 6, 7], size=lead + (n,))
    return one_hot(assign, k, np.float64)


@pytest.mark.parametrize("lead,n,heads", LAYOUTS)
def test_intra_node_matches_composed(lead, n, heads):
    r = np.random.default_rng(40 + n)
    with precision.precision("f64"):
        b = layout_buckets(r, lead, n)
        x = Tensor(np.abs(r.normal(size=lead + (n, 4))) + 0.1, requires_grad=True)
        xt = Tensor(r.normal(size=lead + (n, 4)), requires_grad=True)
        assert_node_matches(lambda: node_of(intra_partition_attention(x.data, xt.data, b), (x, xt)),
                            lambda: composed_intra(x, xt, b), [x, xt], r)


@pytest.mark.parametrize("lead,n,heads", LAYOUTS)
def test_inter_node_matches_composed(lead, n, heads):
    r = np.random.default_rng(50 + n)
    with precision.precision("f64"):
        b = layout_buckets(r, lead, n)
        head = leaf_head(r, 4, heads)
        xt = Tensor(r.normal(size=lead + (n, 4)), requires_grad=True)
        leaves = [xt, head.imp_w1, head.imp_b1, head.imp_w2, head.imp_b2]
        assert_node_matches(lambda: node_of(inter_partition_attention(xt.data, b, head), leaves),
                            lambda: composed_inter(xt, b, head), leaves, r)


@pytest.mark.parametrize("lead,n,heads", LAYOUTS)
def test_aggregate_node_matches_composed(lead, n, heads):
    r = np.random.default_rng(60 + n)
    with precision.precision("f64"):
        b = layout_buckets(r, lead, n)
        head = leaf_head(r, 4, heads)
        intra = Tensor(r.normal(size=lead + (n, 4)), requires_grad=True)
        inter = Tensor(r.normal(size=lead + (8, 4)), requires_grad=True)
        leaves = [intra, inter, head.agg_w, head.agg_b]
        assert_node_matches(
            lambda: node_of(global_local_aggregate(intra.data, inter.data, b, head), leaves),
            lambda: composed_aggregate(intra, inter, b, head), leaves, r)


@pytest.mark.parametrize("attend", ["full", "intra_only", "inter_only"])
@pytest.mark.parametrize("lead,n,heads", LAYOUTS)
def test_head_forward_matches_composed(lead, n, heads, attend):
    r = np.random.default_rng(70 + n)
    with precision.precision("f64"):
        head = leaf_head(r, 4, heads)
        tokens = Tensor(r.normal(size=lead + (n, 4)), requires_grad=True)
        assign = r.choice([0, 2, 3, 4, 6, 7], size=lead + (n,))
        weight = r.normal(size=lead + (n, 4))
        leaves = [tokens] + head_leaves(head)
        out, grads = grads_of(
            lambda: mhpa_head_forward(tokens, head, 8, assign=assign, attend=attend)[0],
            leaves, weight)
        want, want_grads = grads_of(lambda: composed_head(tokens, head, 8, assign, attend),
                                    leaves, weight)
    assert np.abs(out - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    for t, g, w in zip(leaves, grads, want_grads):
        if w is None:  # intra_only leaves the importance predictor unused
            assert attend == "intra_only" and g is None
            continue
        assert np.abs(g - w).max() <= 1e-12 * max(1.0, np.abs(w).max()), t.shape


@pytest.mark.parametrize("attend", ["full", "intra_only", "inter_only"])
def test_head_batch_is_one_node(attend):
    # the gate is a sigmoid of the tokens; everything after it, the value
    # projection included, is the one partition_attention node
    r = np.random.default_rng(75)
    with precision.precision("f64"):
        head = leaf_head(r, 4, 2)
        tokens = Tensor(r.normal(size=(3, 2, 5, 4)), requires_grad=True)
        out, _ = mhpa_head_forward(tokens, head, 8, attend=attend)
    gate = out._node.parents[0]
    assert [rec[0] for rec in graph_records(out)] == ["sigmoid", "partition_attention"]
    assert gate._node.name == "sigmoid" and gate._node.parents == (tokens,)
    assert out._node.parents == (gate, tokens, *(getattr(head, n) for n in (
        "token_w", "token_b", "imp_w1", "imp_b1", "imp_w2", "imp_b2", "agg_w", "agg_b")))
    tsum(out).backward()
    # a skipped stage's tensors get no gradient, and its half of agg_w a zero one
    assert (tokens.grad is not None) and (head.token_b.grad is not None)
    assert (head.imp_w1.grad is None) == (attend == "intra_only")
    top, bot = head.agg_w.grad[:, :4], head.agg_w.grad[:, 4:]
    assert (not top.any()) == (attend == "inter_only")
    assert (not bot.any()) == (attend == "intra_only")


def test_ops_reject_mixed_dtypes_and_misfit_heads():
    # the node checks every dtype and every head tensor's shape, once
    r = np.random.default_rng(80)
    b = one_hot(r.integers(0, 4, size=5), 4, np.float64)
    x64 = constant(np.abs(r.normal(size=(5, 3))), dtype=np.float64)
    x32 = constant(x64.data, dtype=np.float32)
    head32 = make_head(r, 3)
    with precision.precision("f64"):
        head = make_head(r, 3)
        narrow_head = make_head(r, 2)
        stacked = leaf_head(r, 3, 2)
    for gate, tokens, h in ((x32, x64, head), (x64, x32, head), (x64, x64, head32)):
        with pytest.raises(TypeError):
            partition_attention(gate, tokens, b, h, "full")
    with pytest.raises(ShapeError, match="token_w"):
        partition_attention(x64, x64, b, narrow_head, "full")
    with pytest.raises(ShapeError, match="head axes"):
        partition_attention(x64, x64, b, stacked, "full")
    head.agg_b = constant(np.zeros(4), dtype=np.float64)
    with pytest.raises(ShapeError, match="agg_b"):
        partition_attention(x64, x64, b, head, "full")


def test_intra_nonfinite_denominator_raises():
    # a weight of -eps alone in its bucket leaves the reciprocal infinite,
    # and a NaN weight leaves it NaN
    b = one_hot(np.array([0, 1]), 2, np.float64)
    for bad in (-EPS, np.nan):
        x = np.array([[1.0], [bad]])
        with pytest.raises(FloatingPointError):
            intra_partition_attention(x, x, b)


# -- spatial shuffles ------------------------------------------------------


def test_channel_to_spatial_frozen_mapping():
    # 16 channels at one pixel unfold to one 4-channel 2x2 tile:
    # channel c*4 + dy*2 + dx lands at spatial (dy, dx) of channel c
    x = np.arange(16, dtype=np.float32).reshape(1, 16, 1, 1)
    skip = constant(nhwc(np.zeros((1, 4, 2, 2), dtype=np.float32)))
    out = channel_to_spatial(constant(nhwc(x)), 2, skip).data
    want = np.array(
        [[[0.0, 1.0], [2.0, 3.0]],
         [[4.0, 5.0], [6.0, 7.0]],
         [[8.0, 9.0], [10.0, 11.0]],
         [[12.0, 13.0], [14.0, 15.0]]]
    )[None]
    assert np.array_equal(out, nhwc(want))


def test_channel_to_spatial_matches_loop_oracle():
    r = np.random.default_rng(7)
    for rate in (1, 2, 3):
        x = r.normal(size=(2, 5 * rate * rate, 3, 4)).astype(np.float64)
        skip = r.normal(size=(2, 5, 3 * rate, 4 * rate))
        with precision.precision("f64"):
            got = channel_to_spatial(constant(nhwc(x)), rate, constant(nhwc(skip))).data
        assert np.allclose(got, nhwc(c2s_oracle(x, rate) + skip), atol=1e-12)


def test_channel_to_spatial_skip_shape_enforced():
    x = constant(nhwc(np.ones((1, 4, 2, 2))))
    with pytest.raises(ShapeError):
        channel_to_spatial(x, 2, constant(nhwc(np.ones((1, 1, 3, 4)))))


# -- head pipeline ---------------------------------------------------------


def test_head_forward_composes_public_ops():
    r = np.random.default_rng(9)
    with precision.precision("f64"):
        n, d, k = 10, 4, 8
        head = make_head(r, d)
        tokens = r.normal(size=(n, d))
        assign = hash_codes(tokens, head.norms.beta)
        t = constant(tokens)
        out, used = mhpa_head_forward(t, head, k)
        assert np.array_equal(used, assign)
        gate = sigmoid(t).data
        xt = tokens @ head.token_w.data + head.token_b.data
        b = buckets(assign, k)
        intra, _ = intra_partition_attention(gate, xt, b)
        inter, _ = inter_partition_attention(xt, b, head)
        want, _ = global_local_aggregate(intra, inter, b, head)
        assert np.allclose(out.data, want, atol=1e-10)


def test_head_forward_batched_matches_per_instance():
    r = np.random.default_rng(10)
    with precision.precision("f64"):
        head = make_head(r, 3)
        tokens = r.normal(size=(4, 7, 3))
        out, assign = mhpa_head_forward(constant(tokens), head, 8)
        for b in range(4):
            single, sa = mhpa_head_forward(constant(tokens[b]), head, 8)
            assert np.array_equal(sa, assign[b])
            assert np.allclose(single.data, out.data[b], atol=1e-10)


def test_head_forward_attend_variants():
    r = np.random.default_rng(11)
    with precision.precision("f64"):
        head = make_head(r, 4)
        tokens = r.normal(size=(9, 4))
        assign = r.integers(0, 8, size=9)
        full, _ = mhpa_head_forward(constant(tokens), head, 8, assign=assign)
        intra_only, _ = mhpa_head_forward(
            constant(tokens), head, 8, assign=assign, attend="intra_only"
        )
        inter_only, _ = mhpa_head_forward(
            constant(tokens), head, 8, assign=assign, attend="inter_only"
        )
        # the aggregation is linear, so the two halves sum to the full
        # output minus one extra bias contribution
        bias = head.agg_b.data
        assert np.allclose(
            intra_only.data + inter_only.data, full.data + bias, atol=1e-9
        )
        assert not np.allclose(intra_only.data, full.data, atol=1e-3)


def test_head_forward_builds_one_bucket_matrix(monkeypatch):
    # the assignment becomes one one-hot per head call, and the bucket ops
    # take that matrix, not ids and a bucket count
    calls = []

    def counting(ids, num_classes, dtype):
        calls.append(num_classes)
        return one_hot(ids, num_classes, dtype)

    monkeypatch.setattr(mhpa, "one_hot", counting)
    monkeypatch.setattr(tensor, "one_hot", counting)
    r = np.random.default_rng(12)
    head = make_head(r, 4)
    mhpa_head_forward(constant(r.normal(size=(2, 9, 4))), head, 8)
    assert calls == [8]
    ops = (partition_attention, intra_partition_attention, inter_partition_attention,
           global_local_aggregate, tensor.segment_sum, tensor.gather_segments)
    for op in ops:
        names = list(inspect.signature(op).parameters)
        assert "buckets" in names and "num_clusters" not in names, op.__name__


@pytest.mark.parametrize("ids", [[0, -1, 1], [0, 4, 1], [0.0, 1.0, 2.0]], ids=["neg", "K", "float"])
def test_head_forward_rejects_bad_replayed_ids(ids):
    head = make_head(np.random.default_rng(13), 2)
    with pytest.raises(ShapeError):
        mhpa_head_forward(constant(np.ones((3, 2))), head, 4, assign=np.array(ids))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 16), st.integers(1, 6), st.integers(1, 8), st.integers(0, 2**31 - 1))
def test_within_cluster_permutation_equivariance(n, d, k, seed):
    # permuting tokens that share a bucket permutes outputs the same way
    r = np.random.default_rng(seed)
    x = np.abs(r.normal(size=(n, d))) + 0.1
    xt = r.normal(size=(n, d))
    assign = r.integers(0, k, size=n)
    counts = np.bincount(assign, minlength=k)
    big = int(np.argmax(counts))
    members = np.flatnonzero(assign == big)
    perm = np.arange(n)
    perm[members] = members[r.permutation(members.size)]
    with precision.precision("f64"):
        base, _ = intra_partition_attention(x, xt, buckets(assign, k))
        shuffled, _ = intra_partition_attention(x[perm], xt[perm], buckets(assign[perm], k))
    assert np.allclose(shuffled, base[perm], atol=1e-9)


# -- layer forward -----------------------------------------------------------


def layer_setup(seed=0, channels=8, heads=2, rate=2):
    r = np.random.default_rng(seed)
    cfg = MhpaConfig(downsample_rate=rate, hash_bits=3, num_heads=heads)
    params = make_mhpa(channels, cfg, r)
    return cfg, params


def test_layer_preserves_shape_and_identity_at_init():
    cfg, params = layer_setup()
    x = constant(nhwc(np.random.default_rng(1).normal(size=(2, 8, 4, 4)).astype(np.float32)))
    out = mhpa_forward(x, params, cfg)
    assert out.shape == x.shape
    # expansion conv starts at zero, so the layer is the identity
    assert np.array_equal(out.data, x.data)


def test_layer_frozen_replay_is_bitwise():
    cfg, params = layer_setup(seed=2)
    params.up_w.data[:] = 0.01 * np.random.default_rng(3).normal(size=params.up_w.shape)
    x = constant(nhwc(np.random.default_rng(4).normal(size=(2, 8, 4, 4)).astype(np.float32)))
    sites = {}
    out1 = mhpa_forward(x, params, cfg, sites=sites)
    replay = {head: {"assignment": e["assignment"]} for head, e in sites.items()}
    out2 = mhpa_forward(x, params, cfg, sites=replay)
    assert np.array_equal(out1.data, out2.data)
    assert list(sites) == [params]  # one site per layer, (B, heads, n)
    assert sites[params]["assignment"].shape == (2, cfg.num_heads, 4)
    assert sites[params]["shape"] == (2, 2)  # 4x4 map, rate 2
    assert all(set(e) == {"assignment"} for e in replay.values())  # replay records nothing


def per_head_loop(x, params, cfg):
    """The layer with one single-head call per head, ``params.heads[hi]``, on
    its narrowed channel slice, the heads' outputs concatenated. Returns the
    output and each head's assignment."""
    b, _, _, c = x.shape
    k = cfg.downsample_rate
    d = c // cfg.num_heads
    normed = layer_norm_channels(x, params.ln_gamma, params.ln_beta)
    down = conv2d(normed, params.down_w, params.down_b, stride=k, padding=1, groups=c)
    hs, ws = down.shape[1:3]
    toks = view(down, (b, hs * ws, c))
    outs, assigns = [], []
    for hi in range(cfg.num_heads):
        out, assign = mhpa_head_forward(narrow(toks, 2, hi * d, d), params.heads[hi],
                                        cfg.num_clusters, attend=cfg.attend)
        outs.append(out)
        assigns.append(assign)
    up = conv2d(view(concat(outs, axis=-1), (b, hs, ws, c)), params.up_w, params.up_b)
    return channel_to_spatial(up, k, x), assigns


def loop_setup(heads, attend, seed):
    r = np.random.default_rng(seed)
    cfg = MhpaConfig(downsample_rate=2, hash_bits=3, num_heads=heads, attend=attend)
    params = make_mhpa(8, cfg, r)
    # unit-scale weights, so the heads move the output by O(1)
    for t in [params.up_w, *(v for v in vars(params.heads).values() if isinstance(v, Tensor))]:
        t.data[:] = 0.5 * r.normal(size=t.shape)
    return cfg, params, constant(r.normal(size=(2, 12, 12, 8)))


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("attend", ["full", "intra_only", "inter_only"])
def test_layer_matches_per_head_loop(heads, attend):
    with precision.precision("f64"):
        cfg, params, x = loop_setup(heads, attend, seed=20 + heads)
        sites = {}
        got = mhpa_forward(x, params, cfg, sites=sites)
        want, assigns = per_head_loop(x, params, cfg)
    assert np.abs(got.data - want.data).max() <= 1e-12
    stored = sites[params]["assignment"]
    assert [stored[:, hi].tolist() for hi in range(heads)] == [a.tolist() for a in assigns]
    assert sites[params]["shape"] == (6, 6)


def test_layer_replay_of_wrong_shape_rejected():
    # a layer replays one (B, heads, n) assignment for all its heads
    cfg, params, x = loop_setup(4, "full", seed=30)
    for shape in [(2, 36), (2, 3, 36), (2, 4, 35), (1, 4, 36)]:
        sites = {params: {"assignment": np.zeros(shape, dtype=np.int64)}}
        with pytest.raises(ShapeError, match="assignment"):
            mhpa_forward(x, params, cfg, sites=sites)
        assert set(sites[params]) == {"assignment"}  # a failed replay records nothing


def test_layer_rejects_indivisible_grid():
    cfg, params = layer_setup(rate=2)
    x = constant(nhwc(np.ones((1, 8, 5, 4), dtype=np.float32)))
    with pytest.raises(ShapeError):
        mhpa_forward(x, params, cfg)


def test_partition_to_grayscale_levels():
    gray = partition_to_grayscale(np.arange(8), 8, (2, 4))
    assert gray.dtype == np.uint8
    assert gray.ravel().tolist() == [0, 36, 73, 109, 146, 182, 219, 255]
    flat = partition_to_grayscale(np.zeros(4, dtype=np.int64), 1, (2, 2))
    assert np.all(flat == 0)
