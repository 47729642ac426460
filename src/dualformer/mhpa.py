"""Partition-wise attention.

The layer replaces dot-product attention entirely. Per head, tokens are
bucketed by LSH (no gradient through the assignment), reweighted inside each
bucket (intra), summarized per bucket and reweighted across buckets (inter),
and the two views are fused back per token. Around the heads sit a strided
depthwise downsample and a channel-to-spatial expansion that restores the
input resolution through a skip connection. Maps are channels-last
(B, H, W, C), so the token grid is a view of the downsampled map, and each
layout change (head split, head merge, unfold) is one transpose node.

Shape grammar: a head takes (..., n, d) tokens with an integer bucket
assignment of shape (..., n); any leading axes are batch axes. The head
checks the ids once, turning them into one (..., n, K) one-hot bucket matrix
that every attention stage takes: bucket sums are ``bucketsᵀ @ x`` and
lookups ``buckets @ table``. Heads never interact before the expansion conv,
so a layer stores its heads stacked and runs them as one batch: (B, heads,
n, d) tokens against one head whose weights carry a leading head axis.

A head batch is one autodiff node, ``partition_attention``, fed by the
sigmoid gate and the tokens. Its forward projects the values x̃, then runs
the intra, inter and aggregate stages; its hand-derived backward runs them
in reverse and sums weight gradients over the batch axes. The stages are
array functions that return their output and a backward closure; the node
checks every shape and dtype once, and an ablation arm skips the stage it
drops. Weights are (d, ·), or (heads, d, ·) when stacked. A bias is a
vector in both, the heads' biases concatenated, so the optimizer's rank
rule never decays it; it adds as ``b.reshape(w.shape[:-2] + (1, k))``.

Division safety: every data-dependent denominator in the intra weighting
carries +1e-6, and intra inputs are expected to be nonnegative (the layer
gates them through a sigmoid first). Bucket coefficients in the inter step
are a softmax that masks empty buckets before the exp, so they sum to one
and an empty bucket gets weight exactly zero however high it scores.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conv import conv2d
from .norms import layer_norm_channels
from .partition import NormVectors, hash_codes
from .tensor import (
    ShapeError,
    Tensor,
    _check_fit,
    _gelu,
    _guard_finite,
    _make,
    _softmax,
    _softmax_grad,
    _unbroadcast,
    one_hot,
    sigmoid,
    transpose,
)

EPS = 1e-6


# each weight of a head with the bias added to its product
_PAIRS = (("token_w", "token_b"), ("imp_w1", "imp_b1"), ("imp_w2", "imp_b2"), ("agg_w", "agg_b"))


def head_shapes(d: int, dh: int | None = None) -> tuple[tuple[int, int], ...]:
    """One head's weight shapes over d-channel tokens, in ``_PAIRS`` order,
    the importance predictor ``dh`` wide (built max(1, d // 4) wide); each
    bias is as long as its weight's last axis."""
    dh = max(1, d // 4) if dh is None else dh
    return (d, d), (d, dh), (dh, 1), (2 * d, d)


@dataclass
class MhpaHeadParams:
    """Learnable state of a layer's heads: token projection, importance
    predictor, aggregation projection, and the frozen hashing hyperplanes.

    A layer stores its heads as one stacked struct: each weight and the
    normals carry a leading head axis, and each bias is the heads' biases
    concatenated. ``head[i]`` is head ``i`` alone, shaped as on the right.
    """

    token_w: Tensor  # (heads, d, d) stacked; (d, d) alone
    token_b: Tensor  # (heads·d,); (d,)
    imp_w1: Tensor  # (heads, d, dh); (d, dh)
    imp_b1: Tensor  # (heads·dh,); (dh,)
    imp_w2: Tensor  # (heads, dh, 1); (dh, 1)
    imp_b2: Tensor  # (heads,); (1,)
    agg_w: Tensor  # (heads, 2d, d); (2d, d)
    agg_b: Tensor  # (heads·d,); (d,)
    norms: NormVectors  # beta (heads, bits, d); (bits, d)

    def __getitem__(self, i: int) -> MhpaHeadParams:
        """Head ``i`` of a stacked head, each tensor a view into the stacked
        one with its ``requires_grad``; gradients of a forward through the
        views stay on the views."""
        views = {}
        for wn, bn in _PAIRS:
            w, b = getattr(self, wn), getattr(self, bn)
            views[wn] = Tensor._wrap(w.data[i], w.requires_grad, None)
            views[bn] = Tensor._wrap(b.data.reshape(w.shape[0], -1)[i], b.requires_grad, None)
        return MhpaHeadParams(**views, norms=NormVectors(self.norms.beta[i]))


@dataclass
class MhpaConfig:
    downsample_rate: int = 1
    hash_bits: int = 3
    num_heads: int = 1
    attend: str = "full"  # full | intra_only | inter_only

    @property
    def num_clusters(self) -> int:
        return 1 << self.hash_bits


@dataclass(eq=False)
class MhpaParams:
    """One attention layer over a C-channel map. Compared and hashed by
    identity, so a layer keys its hash site in ``mhpa_forward``."""

    ln_gamma: Tensor  # (C,)
    ln_beta: Tensor  # (C,)
    down_w: Tensor  # (C, 1, 3, 3) depthwise
    down_b: Tensor  # (C,)
    up_w: Tensor  # (C*k*k, C, 1, 1)
    up_b: Tensor  # (C*k*k,)
    heads: MhpaHeadParams  # stacked


# -- attention ops --------------------------------------------------------


def segment_counts(assign: np.ndarray, num_clusters: int) -> np.ndarray:
    """Tokens per bucket, (..., num_clusters), of an integer assignment."""
    return one_hot(assign, num_clusters, np.int64).sum(axis=-2)


def _weight_grad(a: np.ndarray, g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Gradient at ``w`` of ``a @ w``, summed over the batch axes."""
    return _unbroadcast(np.matmul(np.swapaxes(a, -1, -2), g), w.shape)


def _bias_rows(b: Tensor, w: Tensor) -> np.ndarray:
    """The bias of ``x @ w`` as (..., 1, k) rows through w's leading axes."""
    return b.data.reshape(w.shape[:-2] + (1, w.shape[-1]))


def _bias_grad(g: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Gradient at a bias added as ``rows``, summed over the batch axes."""
    return _unbroadcast(g, rows.shape).reshape(-1)


def intra_partition_attention(x: np.ndarray, x_tilde: np.ndarray, buckets: np.ndarray):
    """Reweight tokens inside each bucket: the intra stage, on arrays.

    Per bucket and per channel: w_i = x_i / (sum_j x_j + eps), then
    out_i = (w_i * x̃_i) / (sum_j w_j + eps). ``x`` supplies the weights and
    is expected to be nonnegative (gate it upstream); ``x_tilde`` supplies
    the values. Each denominator is one reciprocal per bucket, looked up per
    token, and a non-finite one raises ``FloatingPointError``. Returns
    ``(out, backward)``; ``backward(g)`` gives the gradients at ``x`` and
    ``x_tilde``.
    """
    op = "intra_partition_attention"
    bt = np.swapaxes(buckets, -1, -2)
    # per-bucket reciprocals (..., K, d); every (n, d) buffer is written in
    # place, since each fresh one costs its page faults
    with np.errstate(divide="ignore", invalid="ignore"):
        ra = _guard_finite(1.0 / (bt @ x + EPS), op)
        w = buckets @ ra
        w *= x
        rb = _guard_finite(1.0 / (bt @ w + EPS), op)
    out = buckets @ rb
    out *= w
    out *= x_tilde

    def backward(g):
        # with Σ a bucket sum, looked up back per token: dx̃ = g w rb,
        # dw = rb (g x̃ - Σ g out) and dx = ra (dw - Σ dw w)
        dw = buckets @ rb
        dw *= g
        dxt = dw * w
        dw *= x_tilde
        buf = dxt * x_tilde  # g out
        dw -= np.matmul(buckets, rb * (bt @ buf), out=buf)
        sum_dww = bt @ np.multiply(dw, w, out=buf)
        dx = dw
        dx *= np.matmul(buckets, ra, out=buf)
        dx -= np.matmul(buckets, ra * sum_dww, out=buf)
        return dx, dxt

    return out, backward


def inter_partition_attention(x_tilde: np.ndarray, buckets: np.ndarray, head: MhpaHeadParams):
    """The inter stage, on arrays: bucket descriptors scaled by importance.

    Each bucket's descriptor is the mean of its tokens; a two-layer
    importance predictor scores every bucket and a softmax over buckets
    (restricted to non-empty ones) produces coefficients summing to one.
    The output is one row per bucket, (..., num_clusters, d), zeros for
    empty buckets. Returns ``(out, backward)``; ``backward(g)`` gives the
    gradients at ``x_tilde`` and the predictor's four tensors.
    """
    w1, w2 = head.imp_w1.data, head.imp_w2.data
    r1, r2 = _bias_rows(head.imp_b1, head.imp_w1), _bias_rows(head.imp_b2, head.imp_w2)
    counts = buckets.sum(axis=-2)
    # an empty bucket's sum is a zero row, so its descriptor stays exactly zero
    inv = (1.0 / np.maximum(counts, 1))[..., None]
    descr = np.swapaxes(buckets, -1, -2) @ x_tilde
    descr *= inv
    z = descr @ w1 + r1
    h, gelu_backward = _gelu(z, True, True)
    scores = h @ w2 + r2  # (..., K, 1)
    coeff = _softmax(scores, -2, (counts > 0)[..., None])
    out = descr * coeff

    def backward(g):
        dscores = _softmax_grad(coeff, (g * descr).sum(axis=-1, keepdims=True), -2)
        dz = gelu_backward(dscores @ np.swapaxes(w2, -1, -2))
        ddescr = g * coeff
        ddescr += dz @ np.swapaxes(w1, -1, -2)
        ddescr *= inv
        return (buckets @ ddescr, _weight_grad(descr, dz, w1), _bias_grad(dz, r1),
                _weight_grad(h, dscores, w2), _bias_grad(dscores, r2))

    return out, backward


def global_local_aggregate(intra, inter, buckets: np.ndarray, head: MhpaHeadParams):
    """The aggregate stage, on arrays: ``[intra, inter row] @ agg_w + agg_b``
    per token, with the bucket rows projected before the lookup, so no
    (n, 2d) concatenation is formed. A view given as ``None`` (a stage an
    ablation arm skips) is dropped, and its half of ``agg_w`` gets a zero
    gradient. Returns ``(out, backward)``; ``backward(g)`` gives the
    gradients at ``intra``, ``inter`` (``None`` if dropped), ``agg_w`` and
    ``agg_b``.
    """
    w = head.agg_w.data
    rows = _bias_rows(head.agg_b, head.agg_w)
    d = w.shape[-1]
    top, bot = w[..., :d, :], w[..., d:, :]
    out = None if intra is None else intra @ top
    if inter is not None:
        looked_up = buckets @ (inter @ bot)
        out = looked_up if out is None else np.add(out, looked_up, out=out)
    out += rows

    def backward(g):
        dintra = dinter = None
        dw = np.zeros_like(w)
        if intra is not None:
            dw[..., :d, :] = _weight_grad(intra, g, top)
            dintra = g @ np.swapaxes(top, -1, -2)
        if inter is not None:
            gp = np.swapaxes(buckets, -1, -2) @ g  # at the projected bucket rows
            dw[..., d:, :] = _weight_grad(inter, gp, bot)
            dinter = gp @ np.swapaxes(bot, -1, -2)
        return dintra, dinter, dw, _bias_grad(g, rows)

    return out, backward


def _check_node(op: str, parents: tuple[Tensor, ...], buckets: np.ndarray) -> None:
    """Every shape and dtype the stages rely on, checked once: ``parents`` are
    the gate, the tokens and a head's tensors in ``_PAIRS`` order, each in
    the bucket matrix's dtype."""
    gate, tokens, *head = parents
    d, lead, dh = tokens.shape[-1], head[0].shape[:-2], head[2].shape[-1]
    if tokens.shape[-2 - len(lead):-2] != lead:
        raise ShapeError(f"{op}: head axes {lead} do not fit tokens {tokens.shape}")
    _check_fit(f"{op}: gate, tokens and bucket matrix {buckets.shape}", buckets.dtype,
               ((gate, tokens.shape), (tokens, buckets.shape[:-1] + (d,))))
    for (wn, bn), w, b, shape in zip(_PAIRS, head[::2], head[1::2], head_shapes(d, dh)):
        _check_fit(f"{op}: {wn} and {bn}", buckets.dtype,
                   ((w, lead + shape), (b, (math.prod(lead) * shape[1],))))


def partition_attention(gate: Tensor, tokens: Tensor, buckets: np.ndarray,
                        head: MhpaHeadParams, attend: str) -> Tensor:
    """A head batch as one autodiff node, whose parents are the gate, the
    tokens and the head's eight tensors. The forward projects the values
    x̃ = tokens @ ``token_w`` + ``token_b``, then runs the intra stage
    (weights from ``gate``), the inter stage and the aggregate; ``attend``
    ``"intra_only"`` or ``"inter_only"`` skips the other stage, whose inputs
    get no gradient. The backward runs the stages in reverse and sums dx̃
    in place."""
    op = "partition_attention"
    parents = (gate, tokens, *(getattr(head, name) for pair in _PAIRS for name in pair))
    _check_node(op, parents, buckets)
    w = head.token_w.data
    rows = _bias_rows(head.token_b, head.token_w)
    xt = tokens.data @ w
    xt += rows
    intra = inter = None
    if attend != "inter_only":
        intra, intra_backward = intra_partition_attention(gate.data, xt, buckets)
    if attend != "intra_only":
        inter, inter_backward = inter_partition_attention(xt, buckets, head)
    out, aggregate_backward = global_local_aggregate(intra, inter, buckets, head)

    def backward(g):
        dintra, dinter, dagg_w, dagg_b = aggregate_backward(g)
        dgate = dxt = None
        dimp = (None,) * 4
        if intra is not None:
            dgate, dxt = intra_backward(dintra)
        if inter is not None:
            dxt_inter, *dimp = inter_backward(dinter)
            dxt = dxt_inter if dxt is None else np.add(dxt, dxt_inter, out=dxt)
        # one sum over the batch and token axes, as add_bias reduces; the
        # axis-by-axis sums of _bias_grad would round differently
        dtb = dxt.sum(axis=tuple(range(dxt.ndim - rows.ndim)) + (dxt.ndim - 2,))
        return (dgate, dxt @ np.swapaxes(w, -1, -2), _weight_grad(tokens.data, dxt, w),
                dtb.reshape(-1), *dimp, dagg_w, dagg_b)

    return _make(out, parents, backward, op)


def channel_to_spatial(x: Tensor, rate: int, skip: Tensor) -> Tensor:
    """Unfold channel blocks into rate x rate spatial tiles, then add the skip.

    Channel index c*rate*rate + dy*rate + dx lands on spatial offset (dy, dx)
    of output channel c, through one view-permute-view :func:`transpose`
    node. ``skip`` must already have the output shape.
    """
    b, h, w, ck2 = x.shape
    if rate < 1 or ck2 % (rate * rate):
        raise ShapeError(
            f"channel_to_spatial: {ck2} channels not divisible by rate^2={rate * rate}"
        )
    c = ck2 // (rate * rate)
    if skip.shape != (b, h * rate, w * rate, c):
        raise ShapeError(
            f"channel_to_spatial: skip {skip.shape} != expected {(b, h * rate, w * rate, c)}"
        )
    unfolded = transpose(x, (0, 1, 4, 2, 5, 3), shape=(b, h, w, c, rate, rate),
                         out_shape=skip.shape)
    return unfolded + skip


# -- layer forward -------------------------------------------------------


def mhpa_head_forward(
    tokens: Tensor,
    head: MhpaHeadParams,
    num_clusters: int,
    assign: np.ndarray | None = None,
    attend: str = "full",
) -> tuple[Tensor, np.ndarray]:
    """Run one head over (..., n, d) tokens; returns (output, assignment).

    The weight path gates raw tokens through a sigmoid node; the rest, value
    projection included, is one :func:`partition_attention` node. When
    ``assign`` is given it is used verbatim (frozen partitions); otherwise
    tokens are hashed, in f64, against the head's hyperplanes. A stacked
    head runs every head at once on (..., heads, n, d).
    """
    if assign is None:
        assign = hash_codes(
            tokens.data.astype(np.float64, copy=False), np.asarray(head.norms.beta, dtype=np.float64)
        )
    if assign.shape != tokens.shape[:-1]:
        raise ShapeError(
            f"mhpa_head_forward: assignment {assign.shape} does not match tokens {tokens.shape}"
        )
    buckets = one_hot(assign, num_clusters, tokens.dtype)
    out = partition_attention(sigmoid(tokens), tokens, buckets, head, attend)
    return out, assign


def mhpa_forward(
    x: Tensor,
    params: MhpaParams,
    cfg: MhpaConfig,
    sites: dict | None = None,
) -> Tensor:
    """Full layer over a (B, H, W, C) map, resolution preserved.

    Pipeline: channel layer norm -> strided 3x3 depthwise downsample (rate k)
    -> partition attention on the token grid, all heads in one batch
    -> 1x1 conv expanding
    C to C*k^2 -> channel-to-spatial unfold with the raw input as skip. With
    the expansion conv zeroed the layer is exactly the identity.

    ``sites`` maps layers to their hash sites. A layer with an entry replays
    its ``"assignment"``, (B, heads, n), verbatim (frozen partitions). A
    layer without one hashes all heads' tokens in one call and stores
    ``{"assignment", "shape"}`` under itself, ``"shape"`` being the
    (H/k, W/k) token grid.
    """
    if x.ndim != 4:
        raise ShapeError(f"mhpa_forward: expected (B, H, W, C), got {x.shape}")
    b, h, w, c = x.shape
    k = cfg.downsample_rate
    if k < 1 or h % k or w % k:
        raise ShapeError(f"mhpa_forward: map {h}x{w} not divisible by downsample rate {k}")
    heads = cfg.num_heads
    if params.heads.token_w.shape[:-2] != (heads,) or c % heads:
        raise ShapeError(f"mhpa_forward: {c} channels do not split into {heads} heads")
    d = c // heads

    normed = layer_norm_channels(x, params.ln_gamma, params.ln_beta)
    down = conv2d(normed, params.down_w, params.down_b, stride=k, padding=1, groups=c)
    hs, ws = down.shape[1:3]
    toks = transpose(down, (0, 2, 1, 3), shape=(b, hs * ws, heads, d))  # (B, heads, n, d)
    site = None if sites is None else sites.get(params)
    out, assign = mhpa_head_forward(toks, params.heads, cfg.num_clusters,
                                    assign=None if site is None else np.asarray(site["assignment"]),
                                    attend=cfg.attend)
    if sites is not None and site is None:
        sites[params] = {"assignment": assign, "shape": (hs, ws)}

    merged = transpose(out, (0, 2, 1, 3), out_shape=(b, hs, ws, c))
    up = conv2d(merged, params.up_w, params.up_b)
    return channel_to_spatial(up, k, x)


def partition_to_grayscale(assignment: np.ndarray, num_clusters: int, shape) -> np.ndarray:
    """Map bucket ids on a token grid to 8-bit gray levels (id * 255/(K-1))."""
    grid = assignment.reshape(shape)
    if num_clusters == 1:
        return np.zeros(shape, dtype=np.uint8)
    scale = 255.0 / (num_clusters - 1)
    return np.round(grid * scale).astype(np.uint8)
