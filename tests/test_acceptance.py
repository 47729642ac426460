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
from dualformer.conv import conv2d
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
from dualformer.norms import batch_norm, conv_bn, layer_norm_channels, make_batch_norm
from dualformer.partition import (
    NormVectors,
    kmeans_assign,
    kmeans_objective,
    lsh_assign,
    sample_norm_vectors,
)
from dualformer.tensor import (
    Tensor,
    add_bias,
    concat,
    constant,
    gather_segments,
    gelu,
    matmul,
    narrow,
    reshape,
    segment_sum,
    select_index,
    sigmoid,
    softmax,
    stack,
    texp,
    tlog,
    tmean,
    transpose,
    tsqrt,
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
             ("intra", "inter", "aggregate", "channel_to_spatial", "lsh", "vanilla")}
    with precision.precision("f64"):
        for _ in range(110):
            n = int(r.integers(1, 33))
            d = int(r.integers(1, 9))
            k = int(r.integers(1, 9))
            assign = r.integers(0, k, size=n)
            head = rand_head(r, d)

            x = np.abs(r.normal(size=(n, d))) + 0.1
            xt = r.normal(size=(n, d))
            got = intra_partition_attention(constant(x), constant(xt), assign, k).data
            worst["intra"] = max(worst["intra"],
                                 np.abs(got - oracle_intra(x, xt, assign, k)).max())

            got = inter_partition_attention(constant(xt), assign, k, head).data
            worst["inter"] = max(worst["inter"],
                                 np.abs(got - oracle_inter(xt, assign, k, head)).max())

            intra_np = r.normal(size=(n, d))
            inter_np = r.normal(size=(k, d))
            got = global_local_aggregate(
                constant(intra_np), constant(inter_np), assign, head
            ).data
            worst["aggregate"] = max(
                worst["aggregate"],
                np.abs(got - oracle_aggregate(intra_np, inter_np, assign, head)).max(),
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


def leaf(r, *shape, positive=False):
    data = r.normal(size=shape)
    if positive:
        data = np.abs(data) + 0.5
    return Tensor(data, requires_grad=True)


def map_leaf(r, *shape):
    """A (B, C, H, W) draw handed over channels-last."""
    return Tensor(nhwc(r.normal(size=shape)), requires_grad=True)


def op_inventory(r):
    """One representative gradient check per differentiable op."""
    a = lambda: leaf(r, 3, 4)
    pos = lambda: leaf(r, 3, 4, positive=True)
    assign = r.integers(0, 3, size=6)
    head = rand_head(r, 4)
    bn = make_batch_norm(3, np.float64)
    # eval mode applies the norm as a scale and shift on the conv; off-default
    # buffers, gamma and beta (from their own stream) exercise every term
    rs = np.random.default_rng(17)

    def conv_bn_case(train, cin, stride, groups):
        bn_conv = make_batch_norm(4, np.float64)
        bn_conv.running_mean = rs.normal(size=4)
        bn_conv.running_var = 0.5 + rs.random(4)
        bn_conv.gamma.data[:] = 1.0 + 0.3 * rs.normal(size=4)
        bn_conv.beta.data[:] = rs.normal(size=4)
        return (
            lambda x, w, g, b: conv_bn(x, w, bn_conv, train, stride, padding=1, groups=groups),
            [map_leaf(r, 2, cin, 6, 6), leaf(r, 4, cin // groups, 3, 3), bn_conv.gamma,
             bn_conv.beta],
        )
    cases = [
        ("add", lambda x, y: x + y, [a(), a()]),
        ("sub", lambda x, y: x - y, [a(), a()]),
        ("mul", lambda x, y: x * y, [a(), a()]),
        ("div", lambda x, y: x / y, [a(), pos()]),
        ("neg", lambda x: -x, [a()]),
        ("exp", texp, [a()]),
        ("log", tlog, [pos()]),
        ("sqrt", tsqrt, [pos()]),
        ("sigmoid", sigmoid, [a()]),
        ("gelu", gelu, [a()]),
        ("sum", lambda x: tsum(x, axis=1), [a()]),
        ("mean", lambda x: tmean(x, axis=0, keepdims=True), [a()]),
        ("reshape", lambda x: reshape(x, (4, 3)), [a()]),
        ("transpose", lambda x: transpose(x, (1, 0)), [a()]),
        ("concat", lambda x, y: concat([x, y], axis=1), [a(), a()]),
        ("narrow", lambda x: narrow(x, 1, 1, 2), [a()]),
        ("add_bias", lambda x, b: add_bias(x, b, axis=1), [a(), leaf(r, 4)]),
        ("matmul", matmul, [leaf(r, 3, 4), leaf(r, 4, 2)]),
        ("matmul_constant_left", matmul,
         [constant(np.eye(3)[assign.reshape(2, 3)].swapaxes(-1, -2)), leaf(r, 2, 3, 4)]),
        ("softmax", lambda x: softmax(x, axis=-1), [a()]),
        ("segment_sum", lambda x: segment_sum(x, assign, 3), [leaf(r, 6, 4)]),
        ("gather_segments", lambda t: gather_segments(t, assign), [leaf(r, 3, 4)]),
        ("select_index", lambda x: select_index(x, np.array([2, 0, 1])), [a()]),
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
        ("batch_norm_train", lambda x: batch_norm(x, bn),
         [map_leaf(r, 2, 3, 4, 4)]),
        ("conv_bn_eval", *conv_bn_case(False, 3, stride=2, groups=1)),
        ("conv_bn_eval_depthwise", *conv_bn_case(False, 4, stride=1, groups=4)),
        ("conv_bn_train", *conv_bn_case(True, 3, stride=2, groups=1)),
        ("conv_bn_train_depthwise", *conv_bn_case(True, 4, stride=1, groups=4)),
        ("vanilla_attention", vanilla_attention,
         [leaf(r, 6, 4), leaf(r, 4, 3), leaf(r, 4, 3), leaf(r, 4, 3)]),
        ("intra_attention", lambda x, xt: intra_partition_attention(x, xt, assign, 3),
         [leaf(r, 6, 4, positive=True), leaf(r, 6, 4)]),
        ("inter_attention", lambda xt: inter_partition_attention(xt, assign, 3, head),
         [leaf(r, 6, 4)]),
        ("aggregate", lambda i1, i2: global_local_aggregate(i1, i2, assign, head),
         [leaf(r, 6, 4), leaf(r, 3, 4)]),
        ("channel_to_spatial", lambda x, s: channel_to_spatial(x, 2, s),
         [map_leaf(r, 1, 8, 2, 2), map_leaf(r, 1, 2, 4, 4)]),
        ("stack", lambda x, y: stack([x, y]), [a(), a()]),
    ]
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
    return high_frequency_mean(radii, db, cutoff=0.75)


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
            out = inter_partition_attention(constant(xt), assign, k, head).data
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
            out = intra_partition_attention(
                constant(x), constant(xt), np.zeros(1, dtype=np.int64), 1
            ).data
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
            base = intra_partition_attention(constant(x), constant(xt), assign, k).data
            shuf = intra_partition_attention(
                constant(x[perm]), constant(xt[perm]), assign[perm], k
            ).data
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
