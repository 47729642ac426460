"""End-to-end acceptance checklist.

Ten checks, one test each, every test printing a single verdict line so a
run log reads as a checklist. Tolerances are pinned in the constants
below. A failing check here is a measured fact about this implementation
at desk scale, not a flaky threshold; see docs/calibration.md for the
budget arithmetic behind check 1 and the comment above ``ABLATION`` for
the training setup and measurements behind check 7.
"""
import dataclasses
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from dualformer import precision
from dualformer.attention import vanilla_attention
from dualformer.blocks import (
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
from dualformer.conv import _depthwise, conv2d
from dualformer.data import make_shapes
from dualformer.flops import (
    count_flops,
    partition_attention_flops,
    vanilla_attention_flops,
)
from dualformer.gradcheck import grad_check
from dualformer.mhpa import (
    EPS,
    MhpaHeadParams,
    channel_to_spatial,
    global_local_aggregate,
    inter_partition_attention,
    intra_partition_attention,
    mhpa_head_forward,
    partition_attention,
)
from dualformer.model import (
    PRESETS,
    build_model,
    capture_partitions,
    count_params,
    forward,
    forward_features,
    get_preset,
    named_parameters,
)
from dualformer.analysis import high_frequency_mean, radial_log_amplitude
from dualformer.norms import _conv_norm, batch_norm, conv_bn, layer_norm_channels, make_batch_norm
from dualformer.partition import (
    NormVectors,
    kmeans_assign,
    kmeans_objective,
    lsh_assign,
    sample_norm_vectors,
)
from dualformer.tensor import (
    Tensor,
    _make,
    add_bias,
    concat,
    constant,
    gather_segments,
    gelu,
    matmul,
    narrow,
    one_hot,
    segment_sum,
    sigmoid,
    softmax,
    tmean,
    transpose,
    tsum,
)
from dualformer.train import cross_entropy, train_toy

# pinned tolerances and budgets
PARAM_TOL = 0.15
FLOP_TOL = 0.25
ORACLE_ATOL = 1e-6
GRAD_TOL = 1e-4
MHPA_RATIO = (3.5, 4.5)
VANILLA_RATIO = (14.0, 18.0)
MIN_SPEEDUP = 1.2
MIN_VAL_ACC = 0.90
COEFF_ATOL = 1e-6
CASES = 200

PARAM_TARGETS = {"T": 5.5e6, "XS": 10.5e6, "S": 22.6e6, "B": 74.0e6}
FLOP_TARGETS = {"T": 1.3e9, "XS": 2.3e9, "S": 4.4e9, "B": 15.8e9}
REFERENCE_DEPTHS = {
    "T": (2, 2, 4, 2),
    "XS": (2, 2, 4, 2),
    "S": (4, 4, 7, 3),
    "B": (6, 12, 25, 7),
}
REFERENCE_CHANNELS = {
    "T": (64, 128, 256, 320),
    "XS": (64, 128, 320, 368),
    "S": (64, 128, 320, 512),
    "B": (64, 128, 368, 560),
}

# one training regimen for every mode comparison below; chosen up front
# (package defaults, mid-size budget) rather than tuned per outcome.
#
# Check 7 trains preset Micro at 32x32 in each mode on 800 shapes (640
# train / 160 val), 8 epochs, batch 64, AdamW lr 3e-3, wd 0.05, seed 0,
# and fails with these measurements:
#   mode        params   MACs    train loss  val loss  val acc
#   parallel    343,192  1.07 M  0.099502    0.213     0.906
#   series      531,052  1.59 M  0.054926    0.187     0.925
#   intra_only  343,192  1.07 M  0.099537    0.214     0.906
#   inter_only  343,192  1.07 M  0.099529    0.213     0.906
# (inter_only is not one of the fixture's arms; same setup, run apart.)
# - The series arm runs MBConv and attention at full width one after the
#   other, so it carries 1.55x the parameters and 1.48x the MACs of the
#   parallel arm; it also wins on validation loss and accuracy, so a
#   validation metric would not change the verdict. A cost-matched serial
#   arm cannot be built cleanly from ModelConfig's fields: scaling all
#   widths by 16/16, 14/16 or 12/16 (stage-1 width must stay even) gives
#   the series arm +55%, +19% or -12% of the parallel parameters.
# - At 32x32 each attention layer sees 4, 4, 1 and 1 tokens per image
#   (stages 1-4, after the 4, 2, 2, 1 downsample) spread over 8 buckets,
#   so intra_only, inter_only and parallel match in train loss to four
#   digits at every epoch; the intra_only half passes by 3.5e-5, a margin
#   this setup cannot resolve.
# Whether the paper compares the two wirings at equal cost needs its
# ablation table; until then the assertion stays as written and fails.
ABLATION = dict(n=800, epochs=8, batch_size=64, lr=3e-3, weight_decay=0.05, seed=0)
FOURIER_PROBE_SIZE = 64
FOURIER_BINS = 8


def verdict(num: int, name: str, ok: bool, detail: str) -> str:
    line = f"[check {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line, flush=True)
    return line


# -- shared trained models -------------------------------------------------


@pytest.fixture(scope="module")
def toy_run():
    images, labels = make_shapes(2000, seed=0)
    model = build_model(get_preset("Micro"), seed=0)
    start = time.perf_counter()
    report = train_toy(model, images, labels, epochs=30, batch_size=64, seed=0)
    elapsed = time.perf_counter() - start
    return model, report, elapsed


@pytest.fixture(scope="module")
def ablation_runs():
    images, labels = make_shapes(ABLATION["n"], seed=0)
    out = {}
    for mode in ("parallel", "series", "intra_only", "attn_only"):
        cfg = dataclasses.replace(get_preset("Micro"), mode=mode)
        model = build_model(cfg, seed=ABLATION["seed"])
        report = train_toy(
            model,
            images,
            labels,
            epochs=ABLATION["epochs"],
            batch_size=ABLATION["batch_size"],
            lr=ABLATION["lr"],
            weight_decay=ABLATION["weight_decay"],
            seed=ABLATION["seed"],
        )
        out[mode] = (model, report.epochs[-1]["train_loss"])
    return out


# -- 1: configuration fidelity and size budgets ------------------------------


def test_check_01_preset_fidelity_and_budgets():
    start = time.perf_counter()
    problems = []
    for name in ("T", "XS", "S", "B"):
        cfg = get_preset(name)
        if cfg.depths != REFERENCE_DEPTHS[name]:
            problems.append(f"{name} depths {cfg.depths}")
        if cfg.channels != REFERENCE_CHANNELS[name]:
            problems.append(f"{name} channels {cfg.channels}")
        params = count_params(build_model(cfg, seed=0))
        rel = params / PARAM_TARGETS[name] - 1.0
        if abs(rel) > PARAM_TOL:
            problems.append(f"{name} params {params/1e6:.2f}M off target {rel:+.1%}")
        flops = count_flops(cfg, 224, 224)["total"]
        rel = flops / FLOP_TARGETS[name] - 1.0
        if abs(rel) > FLOP_TOL:
            problems.append(f"{name} flops {flops/1e9:.2f}G off target {rel:+.1%}")
    elapsed = time.perf_counter() - start
    if elapsed > 10.0:
        problems.append(f"took {elapsed:.1f}s (budget 10s)")
    line = verdict(
        1,
        "preset fidelity and size budgets",
        not problems,
        "; ".join(problems) if problems else f"4 presets inside budgets in {elapsed:.1f}s",
    )
    assert not problems, line


# -- 2: brute-force oracle equivalence ---------------------------------------


def np_gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2 / math.pi) * (x + 0.044715 * x**3)))


def oracle_intra(x, xt, assign, k):
    out = np.zeros_like(xt)
    for c in range(k):
        idx = np.flatnonzero(assign == c)
        if idx.size == 0:
            continue
        for j in range(x.shape[1]):
            w = x[idx, j] / (x[idx, j].sum() + EPS)
            out[idx, j] = w * xt[idx, j] / (w.sum() + EPS)
    return out


def oracle_inter(xt, assign, k, head):
    d = xt.shape[1]
    counts = np.bincount(assign, minlength=k)
    descr = np.zeros((k, d))
    for c in range(k):
        if counts[c]:
            descr[c] = xt[assign == c].mean(axis=0)
    h = np_gelu(descr @ head.imp_w1.data + head.imp_b1.data)
    scores = (h @ head.imp_w2.data + head.imp_b2.data).ravel()
    mask = counts > 0
    e = np.where(mask, np.exp(scores - scores[mask].max()), 0.0)
    return descr * (e / e.sum())[:, None]


def oracle_aggregate(intra, inter, assign, head):
    out = np.zeros((intra.shape[0], head.agg_w.shape[1]))
    for i in range(intra.shape[0]):
        out[i] = np.concatenate([intra[i], inter[assign[i]]]) @ head.agg_w.data
        out[i] += head.agg_b.data
    return out


def oracle_head(tokens, assign, k, head, attend):
    """A whole head from the loop oracles: the sigmoid gate and the value
    projection, then intra and inter (an ablation arm's dropped view is
    zero) fused per token."""
    xt = tokens @ head.token_w.data + head.token_b.data
    intra = np.zeros_like(xt)
    if attend != "inter_only":
        intra = oracle_intra(1.0 / (1.0 + np.exp(-tokens)), xt, assign, k)
    inter = np.zeros((k, xt.shape[1]))
    if attend != "intra_only":
        inter = oracle_inter(xt, assign, k, head)
    return oracle_aggregate(intra, inter, assign, head)


def nhwc(a):
    """(B, C, H, W) data in the channels-last layout the model runs on."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1))


def oracle_c2s(x, rate, skip):
    b, ck2, h, w = x.shape
    c = ck2 // (rate * rate)
    out = skip.copy()
    for n in range(b):
        for ch in range(c):
            for dy in range(rate):
                for dx in range(rate):
                    out[n, ch, dy::rate, dx::rate] += x[n, ch * rate * rate + dy * rate + dx]
    return out


def oracle_lsh(tokens, beta):
    # hyperplane b contributes bit b (first plane is the least significant)
    n = tokens.shape[0]
    codes = np.zeros(n, dtype=np.int64)
    for i in range(n):
        code = 0
        for b in range(beta.shape[0]):
            dot = 0.0
            for j in range(tokens.shape[1]):
                dot += tokens[i, j] * beta[b, j]
            if dot >= 0.0:
                code += 1 << b
        codes[i] = code
    return codes


def oracle_vanilla(x, wq, wk, wv):
    q, k, v = x @ wq, x @ wk, x @ wv
    de = q.shape[1]
    out = np.zeros_like(v)
    for i in range(q.shape[0]):
        s = q[i] @ k.T / math.sqrt(de)
        e = np.exp(s - s.max())
        out[i] = (e / e.sum()) @ v
    return out


def oracle_depthwise(x, w, g, stride, padding):
    """(out, dx, dw) of a depthwise conv, one output pixel and one tap at a
    time; ``g`` is the gradient at the output."""
    b, h, wd, c = x.shape
    kh, kw = w.shape[2:]
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    ho, wo = (h + 2 * padding - kh) // stride + 1, (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((b, ho, wo, c))
    dxp, dw = np.zeros_like(xp), np.zeros_like(w)
    for n in range(b):
        for i in range(ho):
            for j in range(wo):
                for u in range(kh):
                    for v in range(kw):
                        pix = xp[n, i * stride + u, j * stride + v]
                        out[n, i, j] += pix * w[:, 0, u, v]
                        dxp[n, i * stride + u, j * stride + v] += g[n, i, j] * w[:, 0, u, v]
                        dw[:, 0, u, v] += g[n, i, j] * pix
    return out, dxp[:, padding : padding + h, padding : padding + wd], dw


def rand_head(r, d):
    dh = max(1, d // 4)
    t = lambda *s: constant(0.5 * r.normal(size=s))
    return MhpaHeadParams(
        token_w=t(d, d), token_b=t(d),
        imp_w1=t(d, dh), imp_b1=t(dh),
        imp_w2=t(dh, 1), imp_b2=t(1),
        agg_w=t(2 * d, d), agg_b=t(d),
        norms=NormVectors(r.standard_normal((3, d))),
    )


def test_check_02_loop_oracle_equivalence():
    start = time.perf_counter()
    r = np.random.default_rng(42)
    worst = {name: 0.0 for name in
             ("intra", "inter", "aggregate", "head", "channel_to_spatial", "lsh", "vanilla",
              "depthwise")}
    rt = np.random.default_rng(43)  # the head's tokens, so every other op keeps its draws
    rd = np.random.default_rng(44)  # the depthwise stage's maps, for the same reason
    with precision.precision("f64"):
        for i in range(110):
            n = int(r.integers(1, 33))
            d = int(r.integers(1, 9))
            k = int(r.integers(1, 9))
            assign = r.integers(0, k, size=n)
            head = rand_head(r, d)

            x = np.abs(r.normal(size=(n, d))) + 0.1
            xt = r.normal(size=(n, d))
            buckets = one_hot(assign, k, np.float64)
            got, _ = intra_partition_attention(x, xt, buckets)
            worst["intra"] = max(worst["intra"],
                                 np.abs(got - oracle_intra(x, xt, assign, k)).max())

            got, _ = inter_partition_attention(xt, buckets, head)
            worst["inter"] = max(worst["inter"],
                                 np.abs(got - oracle_inter(xt, assign, k, head)).max())

            intra_np = r.normal(size=(n, d))
            inter_np = r.normal(size=(k, d))
            got, _ = global_local_aggregate(intra_np, inter_np, buckets, head)
            worst["aggregate"] = max(
                worst["aggregate"],
                np.abs(got - oracle_aggregate(intra_np, inter_np, assign, head)).max(),
            )

            attend = ("full", "intra_only", "inter_only")[i % 3]
            tokens = rt.normal(size=(n, d))
            got, _ = mhpa_head_forward(constant(tokens), head, k, assign=assign, attend=attend)
            worst["head"] = max(
                worst["head"],
                np.abs(got.data - oracle_head(tokens, assign, k, head, attend)).max(),
            )

            rate = int(r.integers(1, 4))
            h = int(r.integers(1, 5))
            c = int(r.integers(1, 5))
            grid = r.normal(size=(2, c * rate * rate, h, h))
            skip = r.normal(size=(2, c, h * rate, h * rate))
            got = channel_to_spatial(constant(nhwc(grid)), rate, constant(nhwc(skip))).data
            worst["channel_to_spatial"] = max(
                worst["channel_to_spatial"],
                np.abs(got - nhwc(oracle_c2s(grid, rate, skip))).max(),
            )

            bits = int(r.integers(1, 4))
            tokens = r.normal(size=(n, d))
            beta = r.standard_normal((bits, d))
            got = lsh_assign(tokens, NormVectors(beta)).assignment
            diff = int((got != oracle_lsh(tokens, beta)).sum())
            worst["lsh"] = max(worst["lsh"], float(diff))

            de = int(r.integers(1, 9))
            xa = r.normal(size=(n, d))
            wq, wk, wv = (r.normal(size=(d, de)) for _ in range(3))
            got = vanilla_attention(
                constant(xa), constant(wq), constant(wk), constant(wv)
            ).data
            worst["vanilla"] = max(
                worst["vanilla"], np.abs(got - oracle_vanilla(xa, wq, wk, wv)).max()
            )

            # forward, dx and dw of the depthwise stage, at MBConv's stride 1
            # and the attention downsample's 2 and 4, down to a 1x1 map
            shape = (int(rd.integers(1, 3)), *rd.integers(1, 8, size=2), int(rd.integers(1, 5)))
            stride = (1, 2, 4)[i % 3]
            xd, wdw = rd.normal(size=shape), rd.normal(size=(shape[-1], 1, 3, 3))
            out, backward = _depthwise(xd, wdw, stride, 1, True)
            gd = rd.normal(size=out.shape)
            for got, want in zip((out, *backward(gd)), oracle_depthwise(xd, wdw, gd, stride, 1)):
                worst["depthwise"] = max(worst["depthwise"], np.abs(got - want).max())
    elapsed = time.perf_counter() - start
    bad = {k: v for k, v in worst.items() if v > ORACLE_ATOL}
    ok = not bad and elapsed < 60.0
    detail = (
        f"110 instances/op, worst dev {max(worst.values()):.1e}, {elapsed:.1f}s"
        if ok
        else f"deviations {bad}, {elapsed:.1f}s"
    )
    line = verdict(2, "loop-oracle equivalence at 1e-6", ok, detail)
    assert ok, line


# -- 3: finite-difference gradient audit ----------------------------------


def leaf(r, *shape):
    return Tensor(r.normal(size=shape), requires_grad=True)


def map_leaf(r, *shape):
    """A (B, C, H, W) draw handed over channels-last."""
    return Tensor(nhwc(r.normal(size=shape)), requires_grad=True)


def op_inventory(r):
    """One representative gradient check per differentiable op."""
    a = lambda: leaf(r, 3, 4)
    assign = r.integers(0, 3, size=6)
    buckets = one_hot(assign, 3, np.float64)
    head = rand_head(r, 4)
    for t in vars(head).values():  # as gradient leaves
        if isinstance(t, Tensor):
            t.requires_grad = True
    # off-default gamma and beta, so their gradients are audited standalone
    bn = make_batch_norm(3)
    rb = np.random.default_rng(19)
    bn.gamma.data[:] = 1.0 + 0.3 * rb.normal(size=3)
    bn.beta.data[:] = rb.normal(size=3)
    # eval mode folds the norm into the conv's kernel and start; off-default
    # buffers, gamma and beta (from their own stream) exercise every term
    rs = np.random.default_rng(17)

    def conv_bn_case(train, cin, stride, groups):
        bn_conv = make_batch_norm(4)
        bn_conv.running_mean = rs.normal(size=4)
        bn_conv.running_var = 0.5 + rs.random(4)
        bn_conv.gamma.data[:] = 1.0 + 0.3 * rs.normal(size=4)
        bn_conv.beta.data[:] = rs.normal(size=4)

        def fn(x, w, g, b):
            if groups == 1:
                return conv_bn(x, w, bn_conv, train, stride, padding=1)
            # a depthwise conv→BN runs inside MBConv's node, folded in eval
            stage = lambda h, k, start: _depthwise(h, k, stride, 1, True, start)
            out, backward = _conv_norm(stage, x.data, w, bn_conv, train, "folded")
            return _make(out, (x, w, g, b), backward, "folded")

        return fn, [map_leaf(r, 2, cin, 6, 6), leaf(r, 4, cin // groups, 3, 3), bn_conv.gamma,
                    bn_conv.beta]

    # the branch nodes from their own stream; nonzero terminals, and in eval
    # off-default running buffers and a zero gamma entry, which the fold
    # into the kernels must not divide by
    rm = np.random.default_rng(37)

    def branch_leaves(p):
        for t in vars(p).values():
            if isinstance(t, Tensor):
                t.data[...] = 0.5 * rm.normal(size=t.shape)
                t.requires_grad = True
        return [t for t in vars(p).values() if isinstance(t, Tensor)]

    def mbconv_case(train):
        p = make_mbconv(2, rm)
        for bn in (p.bn1, p.bn2):
            bn.running_mean = rm.normal(size=8)
            bn.running_var = 0.5 + rm.random(8)
            bn.gamma.data[:] = 1.0 + 0.3 * rm.normal(size=8)
            bn.gamma.data[0] = 0.0
            bn.beta.data[:] = rm.normal(size=8)
        weights = branch_leaves(p)
        params = [weights[0], p.bn1.gamma, p.bn1.beta, weights[1], p.bn2.gamma, p.bn2.beta,
                  *weights[2:]]
        return (f"mbconv_{'train' if train else 'eval'}",
                lambda x, *_: mbconv_forward(x, p, train), [map_leaf(rm, 2, 2, 3, 3), *params])
    # stacked-head leaves from their own stream, so every other entry keeps
    # the data it drew before
    rh = np.random.default_rng(23)
    stacked_leaf = lambda *s: Tensor(0.5 * rh.normal(size=s), requires_grad=True)
    stacked = MhpaHeadParams(
        token_w=stacked_leaf(2, 4, 4), token_b=stacked_leaf(8),
        imp_w1=stacked_leaf(2, 4, 2), imp_b1=stacked_leaf(4),
        imp_w2=stacked_leaf(2, 2, 1), imp_b2=stacked_leaf(2),
        agg_w=stacked_leaf(2, 8, 4), agg_b=stacked_leaf(8),
        norms=NormVectors(rh.standard_normal((2, 3, 4))),
    )
    stacked_buckets = one_hot(rh.choice([0, 2], size=(2, 2, 5)), 3, np.float64)
    # the head batch node, single and stacked, in every mode: the gate
    # (positive, as a sigmoid's output is), the tokens and every head tensor
    # are audited, except what the mode's skipped stage would have used
    rn = np.random.default_rng(31)
    skipped = {"full": (), "intra_only": ("imp_w1", "imp_b1", "imp_w2", "imp_b2"),
               "inter_only": ("gate",)}

    def node_case(h, b, attend):
        shape = b.shape[:-1] + (4,)
        named = {"gate": Tensor(0.2 + rn.random(shape), requires_grad=True),
                 "tokens": Tensor(rn.normal(size=shape), requires_grad=True),
                 **{k: v for k, v in vars(h).items() if isinstance(v, Tensor)}}
        return (
            f"partition_attention_{'stacked' if h is stacked else 'single'}_{attend}",
            lambda *_: partition_attention(named["gate"], named["tokens"], b, h, attend),
            [t for k, t in named.items() if k not in skipped[attend]],
        )

    # the loss from its own stream too; logits of a few units put the softmax
    # off its flat middle
    rc = np.random.default_rng(29)
    ce_labels = rc.integers(0, 5, size=4)
    ce_logits = Tensor(3.0 * rc.normal(size=(4, 5)), requires_grad=True)
    cases = [
        ("add", lambda x, y: x + y, [a(), a()]),
        ("mul", lambda x, y: x * y, [a(), a()]),
        ("sigmoid", sigmoid, [a()]),
        ("gelu", gelu, [a()]),
        ("sum", tsum, [a()]),
        ("mean", lambda x: tmean(x, axis=0), [a()]),
        ("transpose", lambda x: transpose(x, (1, 0)), [a()]),
        # viewed in and out, as channel_to_spatial unfolds 8 channels at rate 2
        ("transpose_viewed",
         lambda x: transpose(x, (0, 1, 4, 2, 5, 3), shape=(1, 2, 2, 2, 2, 2),
                             out_shape=(1, 4, 4, 2)),
         [map_leaf(r, 1, 8, 2, 2)]),
        ("concat", lambda x, y: concat([x, y], axis=1), [a(), a()]),
        ("narrow", lambda x: narrow(x, 1, 1, 2), [a()]),
        ("add_bias", add_bias, [a(), leaf(r, 4)]),
        ("matmul", matmul, [leaf(r, 3, 4), leaf(r, 4, 2)]),
        ("matmul_constant_left", matmul,
         [constant(np.eye(3)[assign.reshape(2, 3)].swapaxes(-1, -2)), leaf(r, 2, 3, 4)]),
        ("softmax", lambda x: softmax(x, axis=-1), [a()]),
        ("segment_sum", lambda x: segment_sum(x, buckets), [leaf(r, 6, 4)]),
        ("gather_segments", lambda t: gather_segments(t, buckets), [leaf(r, 3, 4)]),
        # a conv adds its bias inside its own node, audited with the kernel
        ("conv2d", lambda x, w, b: conv2d(x, w, b, stride=2, padding=1),
         [map_leaf(r, 2, 3, 6, 6), leaf(r, 4, 3, 3, 3), leaf(r, 4)]),
        ("conv2d_grouped", lambda x, w: conv2d(x, w, stride=1, padding=1, groups=4),
         [map_leaf(r, 1, 4, 5, 5), leaf(r, 4, 1, 3, 3)]),
        ("conv2d_1x1", lambda x, w, b: conv2d(x, w, b),
         [map_leaf(r, 2, 3, 4, 4), leaf(r, 5, 3, 1, 1), leaf(r, 5)]),
        ("conv2d_depthwise_s2",
         lambda x, w, b: conv2d(x, w, b, stride=2, padding=1, groups=4),
         [map_leaf(r, 1, 4, 6, 6), leaf(r, 4, 1, 3, 3), leaf(r, 4)]),
        ("layer_norm_channels", layer_norm_channels,
         [map_leaf(r, 2, 3, 4, 4), leaf(r, 3), leaf(r, 3)]),
        ("batch_norm_train", lambda x, g, b: batch_norm(x, bn),
         [map_leaf(r, 2, 3, 4, 4), bn.gamma, bn.beta]),
        ("conv_bn_eval", *conv_bn_case(False, 3, stride=2, groups=1)),
        ("conv_bn_eval_depthwise", *conv_bn_case(False, 4, stride=1, groups=4)),
        ("conv_bn_train", *conv_bn_case(True, 3, stride=2, groups=1)),
        ("conv_bn_train_depthwise", *conv_bn_case(True, 4, stride=1, groups=4)),
        ("vanilla_attention", vanilla_attention,
         [leaf(r, 6, 4), leaf(r, 4, 3), leaf(r, 4, 3), leaf(r, 4, 3)]),
        ("channel_to_spatial", lambda x, s: channel_to_spatial(x, 2, s),
         [map_leaf(r, 1, 8, 2, 2), map_leaf(r, 1, 2, 4, 4)]),
        ("cross_entropy", lambda x: cross_entropy(x, ce_labels), [ce_logits]),
    ]
    # head-stacked (B, heads, n, d) tokens against a stacked head, (heads, ...)
    # weights and (heads·k,) biases; bucket 1 is empty in every row, so the
    # inter softmax's mask is audited too
    for attend in skipped:
        cases.append(node_case(head, buckets, attend))
        cases.append(node_case(stacked, stacked_buckets, attend))
    cases += [mbconv_case(True), mbconv_case(False)]
    ffn = make_ffn(3, 5, rm)
    cases.append(("ffn", lambda x, *_: ffn_forward(x, ffn),
                  [map_leaf(rm, 2, 3, 3, 3), *branch_leaves(ffn)]))
    return cases


def test_check_03_gradient_audit():
    start = time.perf_counter()
    failures = []
    with precision.precision("f64"):
        r = np.random.default_rng(7)
        for name, fn, inputs in op_inventory(r):
            err = grad_check(fn, inputs, seed=0)
            if err > GRAD_TOL:
                failures.append(f"{name} {err:.2e}")
            if any(t.grad is not None for t in inputs if not t.requires_grad):
                failures.append(f"{name} gave a constant a gradient")
        n_ops = len(op_inventory(np.random.default_rng(7)))

        model = build_model(get_preset("Micro"), seed=0)
        images, labels = make_shapes(8, seed=0)
        images, labels = images[:2], labels[:2]
        frozen = [e["assignment"] for e in capture_partitions(model, images)]

        def loss_fn(*_):
            return cross_entropy(forward(model, images, frozen=frozen), labels)

        params = [p for _, p in named_parameters(model)]
        model_err = grad_check(loss_fn, params, max_checks_per_input=2, seed=0)
        if model_err > GRAD_TOL:
            failures.append(f"whole-model {model_err:.2e}")
    elapsed = time.perf_counter() - start
    if elapsed > 300.0:
        failures.append(f"took {elapsed:.0f}s (budget 300s)")
    ok = not failures
    detail = (
        f"{n_ops} ops + whole Micro ({len(params)} tensors, worst {model_err:.1e}) "
        f"in {elapsed:.0f}s"
        if ok
        else "; ".join(failures)
    )
    line = verdict(3, "finite-difference gradient audit at 1e-4", ok, detail)
    assert ok, line


# -- 4: token-count scaling of analytic cost ---------------------------------


def test_check_04_attention_cost_scaling():
    n, d = 784, 64
    mhpa_ratio = partition_attention_flops(4 * n, d) / partition_attention_flops(n, d)
    vanilla_ratio = vanilla_attention_flops(4 * n, d) / vanilla_attention_flops(n, d)
    ok = (
        MHPA_RATIO[0] <= mhpa_ratio <= MHPA_RATIO[1]
        and VANILLA_RATIO[0] <= vanilla_ratio <= VANILLA_RATIO[1]
    )
    line = verdict(
        4,
        "linear vs quadratic token scaling",
        ok,
        f"partition {mhpa_ratio:.2f}x (want {MHPA_RATIO}), "
        f"dense {vanilla_ratio:.2f}x (want {VANILLA_RATIO}) on 4x tokens",
    )
    assert ok, line


# -- 5: partitioner throughput ----------------------------------------------


def test_check_05_partitioner_throughput():
    # one token buffer for both partitioners; K=8 is 3 hash bits
    n, d, repeats = 3136, 64, 9
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    tokens = rng.standard_normal((n, d))
    norms = sample_norm_vectors(3, d, rng)
    runs = {
        "lsh": lambda: lsh_assign(tokens, norms),
        "kmeans": lambda: kmeans_assign(tokens, norms.num_clusters, max_iters=5, seed=0),
    }
    rates = {}
    for name, run in runs.items():
        run()  # warm-up
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            run()
            times.append(time.perf_counter() - t0)
        rates[name] = n / float(np.median(times))
    elapsed = time.perf_counter() - start
    speedup = rates["lsh"] / rates["kmeans"]
    ok = speedup >= MIN_SPEEDUP and elapsed < 120.0
    line = verdict(
        5,
        "hash partitioner vs k-means throughput",
        ok,
        f"{speedup:.2f}x (floor {MIN_SPEEDUP}x) at n=3136 d=64 K=8, {elapsed:.0f}s",
    )
    assert ok, line


# -- 6: toy training reaches accuracy ----------------------------------------


@pytest.mark.slow
def test_check_06_toy_training_accuracy(toy_run):
    _, report, elapsed = toy_run
    acc = report.final_val_acc
    ok = acc >= MIN_VAL_ACC and elapsed < 600.0
    line = verdict(
        6,
        "synthetic-shapes training",
        ok,
        f"val acc {acc:.3f} (floor {MIN_VAL_ACC}) after 30 epochs in {elapsed:.0f}s",
    )
    assert ok, line


# -- 7: mode ablation ordering ------------------------------------------------


@pytest.mark.slow
def test_check_07_ablation_ordering(ablation_runs):
    par = ablation_runs["parallel"][1]
    ser = ablation_runs["series"][1]
    intra = ablation_runs["intra_only"][1]
    ok = par <= ser and par <= intra
    line = verdict(
        7,
        "dual-branch ablation ordering",
        ok,
        f"final train loss parallel {par:.6f} vs series {ser:.6f} "
        f"vs intra_only {intra:.6f} (want parallel lowest)",
    )
    assert ok, line


# -- 8: high-frequency spectrum gap -------------------------------------------


def stage3_high_freq(model):
    probe, _ = make_shapes(64, seed=99, size=FOURIER_PROBE_SIZE)
    feats = forward_features(model, probe, 3)
    radii, db = radial_log_amplitude(feats, num_bins=FOURIER_BINS)
    return high_frequency_mean(radii, db)


@pytest.mark.slow
def test_check_08_fourier_high_frequency_gap(ablation_runs):
    dual = stage3_high_freq(ablation_runs["parallel"][0])
    attn = stage3_high_freq(ablation_runs["attn_only"][0])
    ok = dual > attn
    line = verdict(
        8,
        "trained dual features keep more high frequency than attention-only",
        ok,
        f"top-quartile mean {dual:+.2f} dB vs {attn:+.2f} dB at stage 3",
    )
    assert ok, line


# -- 9: randomized invariants --------------------------------------------------


def test_check_09_invariant_suite():
    start = time.perf_counter()
    r = np.random.default_rng(11)
    problems = []

    for _ in range(CASES):  # partitions are disjoint and exhaustive
        n, d = int(r.integers(1, 64)), int(r.integers(1, 9))
        bits = int(r.integers(1, 4))
        tokens = r.normal(size=(n, d))
        p = lsh_assign(tokens, NormVectors(r.standard_normal((bits, d))))
        if p.assignment.shape != (n,):
            problems.append("partition shape")
            break
        if p.assignment.min() < 0 or p.assignment.max() >= p.num_clusters:
            problems.append("partition out of range")
            break

    for _ in range(CASES):  # hashing ignores positive rescaling
        n, d = int(r.integers(1, 48)), int(r.integers(1, 9))
        norms = NormVectors(r.standard_normal((3, d)))
        tokens = r.normal(size=(n, d))
        scale = float(r.uniform(0.01, 1000.0))
        a = lsh_assign(tokens, norms).assignment
        b = lsh_assign(tokens * scale, norms).assignment
        if not np.array_equal(a, b):
            problems.append("scale invariance")
            break

    with precision.precision("f64"):
        for _ in range(CASES):  # bucket coefficients form a probability vector
            n, d, k = int(r.integers(1, 33)), int(r.integers(1, 9)), int(r.integers(1, 9))
            assign = r.integers(0, k, size=n)
            head = rand_head(r, d)
            xt = r.normal(size=(n, d)) + 0.5
            out, _ = inter_partition_attention(xt, one_hot(assign, k, np.float64), head)
            counts = np.bincount(assign, minlength=k)
            total = 0.0
            recoverable = True
            for c in range(k):
                if counts[c] == 0:
                    if np.abs(out[c]).max() != 0.0:
                        problems.append("empty bucket not zero")
                        recoverable = False
                    continue
                descr = xt[assign == c].mean(axis=0)
                denom = float(descr @ descr)
                if denom < 1e-12:
                    recoverable = False
                    continue
                total += float(out[c] @ descr) / denom
            if not recoverable:
                continue
            if abs(total - 1.0) > COEFF_ATOL:
                problems.append(f"coefficient sum {total}")
                break

        for _ in range(CASES):  # a bucket of one token passes its value through
            d = int(r.integers(1, 9))
            x = r.uniform(1.0, 3.0, size=(1, d))
            xt = r.uniform(-0.5, 0.5, size=(1, d))
            out, _ = intra_partition_attention(
                x, xt, one_hot(np.zeros(1, dtype=np.int64), 1, np.float64)
            )
            if np.abs(out - xt).max() > 2e-6:
                problems.append("singleton identity")
                break

        for _ in range(CASES):  # shuffling tokens inside buckets shuffles outputs
            n, d, k = int(r.integers(2, 33)), int(r.integers(1, 9)), int(r.integers(1, 5))
            assign = r.integers(0, k, size=n)
            x = np.abs(r.normal(size=(n, d))) + 0.1
            xt = r.normal(size=(n, d))
            perm = np.arange(n)
            for c in range(k):
                idx = np.flatnonzero(assign == c)
                perm[idx] = idx[r.permutation(idx.size)]
            base, _ = intra_partition_attention(x, xt, one_hot(assign, k, np.float64))
            shuf, _ = intra_partition_attention(
                x[perm], xt[perm], one_hot(assign[perm], k, np.float64)
            )
            if np.abs(shuf - base[perm]).max() > 1e-9:
                problems.append("permutation equivariance")
                break

    for _ in range(CASES):  # Lloyd iterations never worsen the objective
        n, d, k = int(r.integers(8, 41)), int(r.integers(1, 5)), int(r.integers(2, 5))
        tokens = r.normal(size=(n, d))
        seed = int(r.integers(0, 999))
        objs = [
            kmeans_objective(tokens, kmeans_assign(tokens, k, max_iters=m, seed=seed))
            for m in range(1, 5)
        ]
        if any(b > a + 1e-9 for a, b in zip(objs, objs[1:])):
            problems.append(f"objective rose: {objs}")
            break

    elapsed = time.perf_counter() - start
    if elapsed > 180.0:
        problems.append(f"took {elapsed:.0f}s (budget 180s)")
    ok = not problems
    line = verdict(
        9,
        "randomized invariant families",
        ok,
        f"6 families x {CASES} cases in {elapsed:.0f}s" if ok else "; ".join(problems),
    )
    assert ok, line


# -- 10: bitwise determinism ---------------------------------------------------


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "dualformer.cli", *map(str, args)],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_check_10_bitwise_determinism(tmp_path):
    blobs = []
    for tag in ("a", "b"):
        ckpt = tmp_path / f"{tag}.ckpt"
        csv = tmp_path / f"{tag}.csv"
        res = run_cli(
            "train", "--preset", "Micro", "--threads", "1", "--seed", "3",
            "--n", "32", "--epochs", "2", "--batch", "16",
            "--out", ckpt, "--metrics", csv,
        )
        assert res.returncode == 0, res.stderr
        blobs.append((ckpt.read_bytes(), csv.read_text()))
    same_ckpt = blobs[0][0] == blobs[1][0]
    same_csv = blobs[0][1] == blobs[1][1]
    ok = same_ckpt and same_csv
    line = verdict(
        10,
        "single-thread reruns are bitwise identical",
        ok,
        f"checkpoint bytes equal: {same_ckpt}, metrics CSV equal: {same_csv}",
    )
    assert ok, line
