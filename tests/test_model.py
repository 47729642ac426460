"""Model assembly: preset fidelity, parameter accounting, config text,
flop formulas, checkpoints."""
import collections
import dataclasses
import io
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualformer import blocks as blocks_module
from dualformer import checkpoint as checkpoint_module
from dualformer import model as model_module
from dualformer import precision
from dualformer.blocks import MODES, attention_stages
from dualformer.checkpoint import (
    CheckpointError,
    load_checkpoint,
    read_checkpoint_stream,
    save_checkpoint,
    write_checkpoint_stream,
)
from dualformer.flops import (
    conv2d_flops,
    count_flops,
    linear_flops,
    mhpa_layer_flops,
    partition_attention_flops,
    vanilla_attention_flops,
)
from dualformer.model import (
    ConfigError,
    PRESETS,
    ModelConfig,
    build_model,
    capture_partitions,
    config_from_text,
    config_to_text,
    count_params,
    default_heads,
    forward,
    forward_features,
    get_preset,
    hash_sites,
    iter_state,
    named_parameters,
)
from dualformer.conv import conv2d
from dualformer.init import INIT_STD, truncated_normal
from dualformer.mhpa import MhpaConfig
from dualformer.norms import BN_EPS
from dualformer.tensor import ShapeError, constant, gelu, graph_records
from dualformer.train import cross_entropy


# -- presets and config --------------------------------------------------


def test_preset_depths_and_channels():
    assert PRESETS["T"].depths == (2, 2, 4, 2)
    assert PRESETS["T"].channels == (64, 128, 256, 320)
    assert PRESETS["XS"].depths == (2, 2, 4, 2)
    assert PRESETS["XS"].channels == (64, 128, 320, 368)
    assert PRESETS["S"].depths == (4, 4, 7, 3)
    assert PRESETS["S"].channels == (64, 128, 320, 512)
    assert PRESETS["B"].depths == (6, 12, 25, 7)
    assert PRESETS["B"].channels == (64, 128, 368, 560)
    assert PRESETS["Micro"].channels == (16, 32, 64, 128)
    assert PRESETS["Micro"].num_classes == 4


def test_head_rule_largest_divisor_under_cap():
    # cap is channels // 32, head count divides the attention half
    assert default_heads(64) == 2
    assert default_heads(128) == 4
    assert default_heads(256) == 8
    assert default_heads(320) == 10
    assert default_heads(368) == 8   # cap 11, but 11 does not divide 184
    assert default_heads(512) == 16
    assert default_heads(560) == 14  # cap 17 -> largest divisor of 280 is 14
    assert default_heads(16) == 1
    assert PRESETS["Micro"].heads == (1, 1, 2, 4)


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        get_preset("XXL")


@pytest.mark.parametrize(
    "field,value",
    [
        ("depths", (1, 1, 1)),
        ("channels", (15, 32, 64, 128)),
        ("num_classes", 1),
        ("mode", "zigzag"),
    ],
)
def test_config_validation_rejects(field, value):
    cfg = dataclasses.replace(PRESETS["Micro"], **{field: value})
    with pytest.raises(ConfigError):
        cfg.validate()


def test_config_text_roundtrip():
    for name, cfg in PRESETS.items():
        again = config_from_text(config_to_text(cfg))
        assert again == cfg, name


def test_config_text_rejects_unknown_key():
    text = config_to_text(PRESETS["Micro"]) + "vibes=high\n"
    with pytest.raises(ConfigError):
        config_from_text(text)


def test_config_text_rejects_bad_bool():
    text = config_to_text(PRESETS["Micro"]) + "share_partitions=maybe\n"
    with pytest.raises(ConfigError, match="share_partitions"):
        config_from_text(text)


@pytest.mark.parametrize(
    "line",
    ["depths=1,x,1,1", "split_ratio=abc", "num_classes=4.5", "channels=16,,64,128",
     "ffn_ratio=abc"],
)
def test_config_text_rejects_non_numeric_values(line):
    # the bad line replaces the key's own, so the error is not a repeated key
    key = line.split("=")[0]
    kept = [ln for ln in config_to_text(PRESETS["Micro"]).splitlines() if ln.split("=")[0] != key]
    with pytest.raises(ConfigError, match=key) as exc:
        config_from_text("\n".join(kept + [line]) + "\n")
    assert "given twice" not in str(exc.value)


# every config text written before a retired option was made a constant,
# with the value it carried then; Micro's derived heads are 1,1,2,4
PARENT_KEYS = {
    "resample_norms": "false",
    "share_partitions": "false",
    "split_ratio": "0.5",
    "hash_bits": "3,3,3,3",
    "downsample_rates": "4,2,2,1",
    "heads": "1,1,2,4",
}


def test_config_text_legacy_resample_norms_line(micro_ckpt):
    # configs written before these options were removed carry their one value
    text = config_to_text(PRESETS["Micro"])
    for key, only in PARENT_KEYS.items():
        assert key not in text
        assert config_from_text(f"{text}{key}={only}\n") == PRESETS["Micro"]
        for val in ("true", "maybe", "0.25", "2,2,2,2", "4,2,2,2", "1,1,1,1"):
            with pytest.raises(ConfigError, match=key):
                config_from_text(f"{text}{key}={val}\n")
    # heads are accepted only as the channels derive them
    t = config_to_text(PRESETS["T"])
    assert config_from_text(f"{t}heads=2,4,8,10\n") == PRESETS["T"]
    with pytest.raises(ConfigError, match="heads"):
        config_from_text(f"{t}heads=1,1,2,4\n")
    start, end = _config_span(micro_ckpt)
    line = b"share_partitions=true\n"
    patched = (micro_ckpt[:8] + struct.pack("<I", end - start + len(line))
               + micro_ckpt[start:end] + line + micro_ckpt[end:])
    with pytest.raises(CheckpointError) as exc:
        read_checkpoint_stream(io.BytesIO(patched))
    assert isinstance(exc.value.__cause__, ConfigError)


def test_config_text_rejects_repeated_key(micro_ckpt):
    text = config_to_text(PRESETS["Micro"])
    lineno = len(text.splitlines()) + 1
    with pytest.raises(ConfigError, match=f"line {lineno}: key 'depths'"):
        config_from_text(text + "depths=2,2,2,2\n")
    start, end = _config_span(micro_ckpt)
    line = b"depths=2,2,2,2\n"
    patched = (micro_ckpt[:8] + struct.pack("<I", end - start + len(line))
               + micro_ckpt[start:end] + line + micro_ckpt[end:])
    with pytest.raises(CheckpointError) as exc:
        read_checkpoint_stream(io.BytesIO(patched))
    assert isinstance(exc.value.__cause__, ConfigError)


# -- parameter accounting --------------------------------------------------


def micro_param_oracle(cfg: ModelConfig) -> int:
    """Closed-form recount, written against the layer definitions."""

    def conv(cin, cout, k, grouped=False, bias=True):
        per_in = 1 if grouped else cin
        return cout * per_in * k * k + (cout if bias else 0)

    def conv_bn(cin, cout, k, grouped=False):
        # no conv bias, which the batch norm's mean would cancel
        return conv(cin, cout, k, grouped, bias=False) + 2 * cout  # gamma, beta

    def mbconv(c):
        h = 4 * c
        return conv_bn(c, h, 1) + conv_bn(h, h, 3, grouped=True) + conv(h, c, 1)

    def mhpa(c, heads, rate):
        d = c // heads
        dh = max(1, d // 4)
        per_head = (d * d + d) + (d * dh + dh) + (dh + 1) + (2 * d * d + d)
        return (
            2 * c                        # layer norm
            + conv(c, c, 3, grouped=True)  # downsample
            + heads * per_head
            + conv(c, c * rate * rate, 1)  # expansion
        )

    def ffn(c):
        h = int(round(cfg.ffn_ratio * c))
        return conv(c, h, 1) + conv(h, c, 1)

    total = 0
    c1 = cfg.channels[0]
    mid = max(2, c1 // 2)
    total += conv_bn(3, mid, 3) + conv_bn(mid, c1, 3)  # stem
    for i in range(4):
        c = cfg.channels[i]
        if i:
            total += conv_bn(cfg.channels[i - 1], c, 3)
        conv_c = c // 2
        per_block = mbconv(conv_c) + mhpa(c - conv_c, cfg.heads[i], (4, 2, 2, 1)[i])
        per_block += 2 * c + ffn(c)
        total += per_block * cfg.depths[i]
    total += cfg.channels[-1] * cfg.num_classes + cfg.num_classes
    return total


def test_micro_param_count_matches_closed_form():
    cfg = get_preset("Micro")
    model = build_model(cfg, seed=0)
    assert count_params(model) == micro_param_oracle(cfg)


def test_t_param_count_matches_closed_form():
    cfg = get_preset("T")
    model = build_model(cfg, seed=0)
    assert count_params(model) == micro_param_oracle(cfg)


def test_same_seed_same_bits_different_seed_differs():
    a = build_model(get_preset("Micro"), seed=9)
    b = build_model(get_preset("Micro"), seed=9)
    c = build_model(get_preset("Micro"), seed=10)
    state_a = {k: v.copy() for k, v in iter_state(a)}
    diffs = 0
    for k, v in iter_state(b):
        assert np.array_equal(state_a[k], v), k
    for k, v in iter_state(c):
        diffs += int(not np.array_equal(state_a[k], v))
    assert diffs > 0


def test_truncated_normal_matches_whole_array_resampling():
    # the init redraws only the outliers and tests only the redraws; this
    # oracle retests the whole array each round, so builds stay bitwise only
    # if both consume the same draws in the same order
    def oracle(rng, shape):
        vals = rng.standard_normal(shape)
        bad = np.abs(vals) > 2.0
        while bad.any():
            vals[bad] = rng.standard_normal(int(bad.sum()))
            bad = np.abs(vals) > 2.0
        return vals * INIT_STD

    for seed in range(20):
        for shape in [(64, 64), (16, 1), (3,), (8, 1, 3, 3)]:
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            got = truncated_normal(a, shape)
            assert got.tobytes() == oracle(b, shape).tobytes()
            assert a.standard_normal() == b.standard_normal()  # same stream position
            assert np.abs(got).max() <= 2 * INIT_STD


def test_state_walk_covers_buffers():
    model = build_model(get_preset("Micro"), seed=0)
    names = [name for name, _ in iter_state(model)]
    params = [name for name, _ in named_parameters(model)]
    assert [n for n in names if n in set(params)] == params  # same order
    buffers = [n for n in names if n not in set(params)]
    assert any("running_mean" in n for n in buffers)
    assert any("norms.beta" in n for n in buffers)
    assert not any("running" in n for n in params)


# -- forward -----------------------------------------------------------------


def test_forward_shapes_and_determinism():
    model = build_model(get_preset("Micro"), seed=0)
    x = np.random.default_rng(0).normal(size=(3, 3, 32, 32)).astype(np.float32)
    a = forward(model, x)
    b = forward(model, x)
    assert a.shape == (3, 4)
    assert np.array_equal(a.data, b.data)


def test_forward_batch_consistency():
    model = build_model(get_preset("Micro"), seed=1)
    x = np.random.default_rng(1).normal(size=(4, 3, 32, 32)).astype(np.float32)
    full = forward(model, x).data
    for i in range(4):
        single = forward(model, x[i : i + 1]).data
        assert np.allclose(single[0], full[i], atol=1e-5)


def test_forward_validates_input():
    model = build_model(get_preset("Micro"), seed=0)
    with pytest.raises(ShapeError):
        forward(model, np.ones((2, 1, 32, 32), dtype=np.float32))
    with pytest.raises(ShapeError):
        forward(model, np.ones((2, 3, 30, 30), dtype=np.float32))


def test_forward_features_stage_shapes():
    model = build_model(get_preset("Micro"), seed=0)
    x = np.random.default_rng(2).normal(size=(2, 3, 64, 64)).astype(np.float32)
    for stage, (c, hw) in enumerate([(16, 16), (32, 8), (64, 4), (128, 2)], 1):
        feats = forward_features(model, x, stage)
        assert feats.shape == (2, c, hw, hw)
    with pytest.raises(ConfigError):
        forward_features(model, x, 5)


def fill_terminals(model, seed):
    """A fresh model zeroes each branch's last projection, so every block is
    the identity and no partition reaches the logits; seeded values wake them."""
    r = np.random.default_rng(seed)
    for stage in model.stages:
        for blk in stage.blocks:
            for branch, name in ((blk.mbconv, "proj_w"), (blk.mhpa, "up_w"), (blk.ffn, "w2")):
                if branch is not None:
                    w = getattr(branch, name)
                    w.data[...] = 0.02 * r.standard_normal(w.shape)


@pytest.mark.parametrize("mode", [m for m in MODES if m != "conv_only"])
def test_trace_replay_full_model_bitwise(mode):
    model = build_model(dataclasses.replace(get_preset("Micro"), mode=mode), seed=3)
    fill_terminals(model, 3)
    x = np.random.default_rng(3).normal(size=(2, 3, 32, 32)).astype(np.float32)
    out1 = forward(model, x)
    trace = capture_partitions(model, x)
    # one record per attention layer, one block per stage, all heads in it
    assert [e["assignment"].shape[:2] for e in trace] == [(2, h) for h in model.config.heads]
    out2 = forward(model, x, frozen=[e["assignment"] for e in trace])
    assert np.array_equal(out1.data, out2.data)
    wrong = forward(model, x, frozen=[np.zeros_like(e["assignment"]) for e in trace])
    assert not np.array_equal(out1.data, wrong.data)


@pytest.mark.parametrize("mode", MODES)
def test_every_parameter_learns(mode):
    # A tensor whose gradient the math cancels is dead weight that only weight
    # decay moves. Every tensor, the residual terminals included, is moved off
    # its init: at init the importance predictor's gradient is a product of
    # 0.02-scale weights, ~4e-15 of the largest, as small as a cancelled one.
    # Smallest live ratio at this seed: 5.9e-5; largest imp_b2: 7.6e-18.
    r = np.random.default_rng(5)
    with precision.precision("f64"):
        model = build_model(dataclasses.replace(get_preset("Micro"), mode=mode), seed=0)
        for _, p in named_parameters(model):
            p.data += 0.2 * r.standard_normal(p.shape)
        # 64x64 gives each stage-3/4 head four tokens per image; at 32x32 it
        # sees one, in one bucket, and the importance predictor is constant
        x = r.normal(size=(4, 3, 64, 64))
        cross_entropy(forward(model, x, train=True), np.arange(4)).backward()
    peak = {n: 0.0 if p.grad is None else float(np.abs(p.grad).max())
            for n, p in named_parameters(model)}
    top = max(peak.values())
    # imp_b2 adds one constant to every bucket score before a softmax that is
    # shift-invariant; intra_only drops the inter branch that scores buckets
    exempt = {"imp_b2"} | ({"imp_w1", "imp_b1", "imp_w2"} if mode == "intra_only" else set())
    dead = [n for n, g in peak.items()
            if g <= 1e-9 * top and n.rsplit(".", 1)[-1] not in exempt]
    assert dead == []


@pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
def test_frozen_count_must_match_hash_sites(delta):
    model = build_model(get_preset("Micro"), seed=3)
    x = np.random.default_rng(3).normal(size=(1, 3, 32, 32)).astype(np.float32)
    frozen = [e["assignment"] for e in capture_partitions(model, x)]
    frozen = frozen[:-1] if delta < 0 else frozen + frozen[:1]
    with pytest.raises(ShapeError, match=f"{len(frozen)} assignments for {len(frozen) - delta}"):
        forward(model, x, frozen=frozen)


def test_frozen_assignment_of_one_head_rejected():
    # a layer replays one (B, heads, n) assignment; one head's (B, n) ids do not fit
    model = build_model(get_preset("Micro"), seed=3)
    x = np.random.default_rng(3).normal(size=(1, 3, 32, 32)).astype(np.float32)
    frozen = [e["assignment"] for e in capture_partitions(model, x)]
    frozen[-1] = frozen[-1][:, 0]
    with pytest.raises(ShapeError, match="assignment"):
        forward(model, x, frozen=frozen)


# Micro's train graph from the loss, by op. Per block (4): the split's two
# narrows and its concat; one mbconv node, which adds its residual itself;
# an attention layer of 9 (layer norm, downsample, head split, sigmoid
# gate, head batch, head merge, expansion, unfold and skip add); then the
# FFN's layer norm, one ffn node and the residual add. Then 5 conv_bn
# nodes and a GELU in the stem and the transitions, the head's mean,
# matmul and bias, and the loss.
MICRO_TRAIN_GRAPH = {
    "conv2d": 8, "conv_bn": 5, "gelu": 1, "add": 8, "mbconv": 4, "ffn": 4,
    "transpose": 12, "narrow": 8, "layer_norm_channels": 8, "sigmoid": 4,
    "partition_attention": 4, "concat": 4, "mean": 1, "matmul": 1, "add_bias": 1,
    "cross_entropy": 1,
}


def test_train_graph_runs_each_head_batch_as_one_node():
    # each attention layer is a sigmoid gate and one partition_attention
    # node, fed straight by the tokens
    model = build_model(get_preset("Micro"), seed=0)
    x = np.random.default_rng(0).normal(size=(2, 3, 32, 32)).astype(np.float32)
    records = graph_records(cross_entropy(forward(model, x, train=True), np.arange(2)))
    assert collections.Counter(op for op, _, _ in records) == MICRO_TRAIN_GRAPH
    assert len(records) == 74
    made_by = {out: (op, ins) for op, ins, out in records}
    nodes = [ins for op, ins, _ in records if op == "partition_attention"]
    assert len(nodes) == 4  # one attention layer per stage
    for gate, tokens, *head in nodes:
        assert made_by[gate] == ("sigmoid", (tokens,))
        assert made_by[tokens][0] == "transpose" and len(head) == 8


def test_float_frozen_assignment_rejected():
    model = build_model(get_preset("Micro"), seed=3)
    x = np.random.default_rng(3).normal(size=(1, 3, 32, 32)).astype(np.float32)
    frozen = [e["assignment"] + 0.6 for e in capture_partitions(model, x)]
    with pytest.raises(ShapeError):
        forward(model, x, frozen=frozen)


@pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
def test_capture_partitions_records_no_graph(monkeypatch, train):
    maps = []
    features = model_module._features

    def spy(*args, **kwargs):
        maps.append(features(*args, **kwargs))
        return maps[-1]

    monkeypatch.setattr(model_module, "_features", spy)
    model = build_model(get_preset("Micro"), seed=4)
    x = np.random.default_rng(4).normal(size=(2, 3, 32, 32)).astype(np.float32)
    capture_partitions(model, x, train=train)
    assert len(maps) == 1
    assert not maps[0].requires_grad
    assert graph_records(maps[0]) == []


def test_capture_partitions_tags():
    model = build_model(get_preset("Micro"), seed=4)
    x = np.random.default_rng(4).normal(size=(1, 3, 32, 32)).astype(np.float32)
    trace = capture_partitions(model, x)
    stages = sorted({e["stage"] for e in trace})
    assert stages == [1, 2, 3, 4]
    grid = dict((e["stage"], e["shape"]) for e in trace)
    assert grid[1] == (2, 2)  # 8x8 map, rate 4
    assert grid[4] == (1, 1)


# -- flops -----------------------------------------------------------------


def test_conv_flops_pinned_example():
    # 1x1 conv, 4 -> 8 channels over a 10x10 map
    assert conv2d_flops(10, 10, 4, 8, 1) == 3200


def test_linear_and_vanilla_formulas():
    assert linear_flops(2, 3, 5) == 30
    assert vanilla_attention_flops(2, 3) == 3 * 2 * 3 * 3 + 2 * 4 * 3


def test_partition_attention_all_terms_linear_in_n():
    base = partition_attention_flops(100, 8)
    quad = partition_attention_flops(400, 8)
    fixed = partition_attention_flops(0, 8)  # constant bucket-side work
    assert quad - fixed == 4 * (base - fixed)


def test_mhpa_layer_flops_breakdown_sums():
    rep = mhpa_layer_flops(8, 8, 16, MhpaConfig(downsample_rate=2, num_heads=2))
    assert rep["total"] == rep["down"] + rep["heads"] + rep["up"]


def test_count_flops_scales_with_depth():
    cfg = get_preset("Micro")
    deeper = dataclasses.replace(cfg, depths=(2, 2, 2, 2))
    a = count_flops(cfg, 32, 32)
    b = count_flops(deeper, 32, 32)
    for sa, sb in zip(a["stages"], b["stages"]):
        assert sb["blocks"] == 2 * sa["blocks"]


@pytest.mark.parametrize("mode", ["intra_only", "inter_only"])
def test_count_flops_drops_the_stage_an_ablation_arm_skips(mode):
    # per head, intra_only skips the inter stage, K(d dh + dh + 2d), and the
    # inter half of the aggregation, n d^2; inter_only skips the intra
    # weighting, 2 n d, and the intra half
    for cfg in PRESETS.values():
        for size in (32, 224):
            full = count_flops(cfg, size, size)
            skipped = 0
            for si, stage in enumerate(full["stages"]):
                heads, rate = cfg.heads[si], cfg.mhpa_config(si).downsample_rate
                n = -(-stage["grid"][0] // rate) * -(-stage["grid"][1] // rate)
                d = (cfg.channels[si] - cfg.channels[si] // 2) // heads
                dh = max(1, d // 4)
                own = 8 * (d * dh + dh + 2 * d) if mode == "intra_only" else 2 * n * d
                skipped += cfg.depths[si] * heads * (own + n * d * d)
            arm = count_flops(dataclasses.replace(cfg, mode=mode), size, size)
            assert arm["total"] == full["total"] - skipped, (cfg.name, size)
    micro = count_flops(get_preset("Micro"), 32, 32)["total"]
    assert micro == 1_074_032
    arm = count_flops(dataclasses.replace(get_preset("Micro"), mode=mode), 32, 32)["total"]
    assert micro - arm == {"intra_only": 8_688, "inter_only": 3_200}[mode]


@pytest.mark.parametrize("mode", MODES)
def test_every_hash_site_runs_the_stages_its_stage_config_names(mode):
    cfg = dataclasses.replace(get_preset("Micro"), mode=mode)
    sites = list(hash_sites(build_model(cfg, seed=0)))
    assert len(sites) == (0 if mode == "conv_only" else 4)
    for si, _, _, site_cfg in sites:
        assert site_cfg == cfg.mhpa_config(si - 1)
        assert site_cfg.attend == attention_stages(mode)


def test_count_flops_monotonic_in_resolution():
    cfg = get_preset("Micro")
    assert count_flops(cfg, 64, 64)["total"] > count_flops(cfg, 32, 32)["total"]
    with pytest.raises(ValueError):
        count_flops(cfg, 33, 32)


# -- checkpoints ---------------------------------------------------------


def test_checkpoint_roundtrip_bitwise_forward(tmp_path):
    model = build_model(get_preset("Micro"), seed=6)
    x = np.random.default_rng(6).normal(size=(2, 3, 32, 32)).astype(np.float32)
    # move the BN running stats off init so buffers matter
    forward(model, x, train=True)
    want = forward(model, x).data
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    got = forward(loaded, x).data
    assert np.array_equal(got, want)
    assert loaded.config == model.config


def test_checkpoint_keeps_hash_normals_and_partitions_bitwise(tmp_path):
    # the normals live in the model's dtype, so the f32 file stores them exactly
    model = build_model(get_preset("Micro"), seed=7)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    for (_, _, a, _), (_, _, b, _) in zip(hash_sites(model), hash_sites(loaded)):
        assert a.heads.norms.beta.dtype == np.float32
        assert a.heads.norms.beta.tobytes() == b.heads.norms.beta.tobytes()
    x = np.random.default_rng(7).normal(size=(2, 3, 32, 32)).astype(np.float32)
    for e, f in zip(capture_partitions(model, x), capture_partitions(loaded, x)):
        assert np.array_equal(e["assignment"], f["assignment"])


def test_failed_save_leaves_existing_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), build_model(get_preset("Micro"), seed=0))
    before = path.read_bytes()
    calls, write_array = [], checkpoint_module._write_array

    def fail_midway(stream, arr):
        calls.append(1)
        if len(calls) == 5:
            raise RuntimeError("disk gone")
        write_array(stream, arr)

    monkeypatch.setattr(checkpoint_module, "_write_array", fail_midway)
    with pytest.raises(RuntimeError, match="disk gone"):
        save_checkpoint(str(path), build_model(get_preset("Micro"), seed=1))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def test_checkpoint_huge_dim_in_file_is_checkpoint_error(tmp_path):
    # a file read of the size a corrupt header claims must not be allocated
    # up front; an in-memory stream cannot show this, a real file can
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), build_model(get_preset("Micro"), seed=0))
    raw = path.read_bytes()
    name = b"stem.convs[0][0]"
    at = raw.index(name) + len(name) + 4 + 4  # tensor magic, then the rank
    assert struct.unpack("<I", raw[at - 4:at]) == (4,)
    path.write_bytes(_patched(raw, at, struct.pack("<I", 0x7FFFFFFF)))
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(str(path))


def test_checkpoint_rejects_corruption(tmp_path):
    model = build_model(get_preset("Micro"), seed=0)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, model)
    raw = open(path, "rb").read()
    with pytest.raises(CheckpointError):
        read_checkpoint_stream(io.BytesIO(raw[:100]))
    with pytest.raises(CheckpointError):
        read_checkpoint_stream(io.BytesIO(b"JUNK" + raw[4:]))
    with open(path, "wb") as fh:
        fh.write(raw + b"x")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_stream_is_deterministic():
    a, b = io.BytesIO(), io.BytesIO()
    write_checkpoint_stream(a, build_model(get_preset("Micro"), seed=7))
    write_checkpoint_stream(b, build_model(get_preset("Micro"), seed=7))
    assert a.getvalue() == b.getvalue()


def bn_fed_convs(model):
    """(kernel entry, retired bias entry, kernel, norm) for every conv that a
    batch norm follows, named as checkpoints written before these convs lost
    their biases name them."""
    embeds = [("stem", model.stem)]
    embeds += [(f"stages[{i}].embed", s.embed) for i, s in enumerate(model.stages) if s.embed]
    for prefix, embed in embeds:
        for j, (w, bn) in enumerate(embed.convs):
            yield f"{prefix}.convs[{j}][0]", f"{prefix}.convs[{j}][1]", w, bn
    for i, stage in enumerate(model.stages):
        for k, block in enumerate(stage.blocks):
            p, mb = f"stages[{i}].blocks[{k}].mbconv", block.mbconv
            yield f"{p}.expand_w", f"{p}.expand_b", mb.expand_w, mb.bn1
            yield f"{p}.dw_w", f"{p}.dw_b", mb.dw_w, mb.bn2


def checkpoint_bytes(config, entries):
    """Format-1 checkpoint bytes holding ``entries`` as given."""
    text = config_to_text(config).encode("utf-8")
    buf = io.BytesIO()
    buf.write(b"DFCK" + struct.pack("<II", 1, len(text)) + text + struct.pack("<I", len(entries)))
    for name, arr in entries:
        buf.write(struct.pack("<I", len(name)) + name.encode("utf-8"))
        checkpoint_module._write_array(buf, arr)
    return buf.getvalue()


def legacy_stream(model, biases):
    """Checkpoint bytes in the layout written before conv biases were retired:
    each bias entry right after its kernel, patch-embed norms at ``[2]``."""
    entries = []
    for name, arr in iter_state(model):
        entries.append((re.sub(r"(\.convs\[\d+\])\[1\]\.", r"\1[2].", name), arr))
        if name in biases:
            entries.append(biases[name])
    return checkpoint_bytes(model.config, entries)


def per_head_entries(model):
    """Entries in the layout written before attention layers stored their
    heads stacked: head by head, one ``heads[i].x`` entry per head tensor."""
    entries, layer = [], []
    for name, arr in iter_state(model):
        if ".heads." not in name:
            entries.append((name, arr))
            continue
        layer.append((name, arr))
        if name.endswith(".norms.beta"):  # a layer's last head entry
            heads = arr.shape[0]
            for i in range(heads):
                for n, a in layer:
                    part = a[i] if a.ndim > 1 else np.split(a, heads)[i]
                    entries.append((n.replace(".heads.", f".heads[{i}]."), part))
            layer = []
    return entries


def test_checkpoint_legacy_conv_biases_fold_into_running_mean(tmp_path, monkeypatch):
    model = build_model(get_preset("Micro"), seed=4)
    fill_terminals(model, 4)
    r = np.random.default_rng(4)
    x = r.normal(size=(2, 3, 64, 64)).astype(np.float32)
    forward(model, x, train=True)  # running stats off init
    convs = list(bn_fed_convs(model))
    assert len(convs) == 13
    biases, bias_of = {}, {}
    for w_name, b_name, w, bn in convs:
        b = (0.5 * r.standard_normal(w.shape[0])).astype(np.float32)
        bn.running_mean = bn.running_mean + b  # what the biased conv fed it
        bn.gamma.data[:] = 1.0 + 0.3 * r.standard_normal(w.shape[0])
        bn.beta.data[:] = 0.3 * r.standard_normal(w.shape[0])
        biases[w_name] = (b_name, b)
        bias_of[id(w)] = b

    def legacy_conv_bn(x, w, bn, train, stride=1, padding=0, groups=1):
        """The math before: a biased conv, then batch norm on running stats."""
        b = constant(bias_of[id(w)])
        y = conv2d(x, w, b, stride=stride, padding=padding, groups=groups).data
        scale = bn.gamma.data / np.sqrt(bn.running_var + BN_EPS)
        return constant((y - bn.running_mean) * scale + bn.beta.data)

    def legacy_mbconv(x, p, train=False):
        """MBConv composed from the ops, each conv→BN as it ran before."""
        h = gelu(legacy_conv_bn(x, p.expand_w, p.bn1, train))
        h = gelu(legacy_conv_bn(h, p.dw_w, p.bn2, train, padding=1, groups=h.shape[-1]))
        return x + conv2d(h, p.proj_w, p.proj_b)

    monkeypatch.setattr(blocks_module, "conv_bn", legacy_conv_bn)
    monkeypatch.setattr(blocks_module, "mbconv_forward", legacy_mbconv)
    want = forward(model, x).data
    monkeypatch.undo()
    path = tmp_path / "legacy.ckpt"
    path.write_bytes(legacy_stream(model, biases))
    loaded = load_checkpoint(str(path))
    got = forward(loaded, x).data
    assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()
    # the biases matter: a reader that dropped them would be far off
    ignored = forward(model, x).data
    assert np.abs(ignored - want).max() > 1e-2 * np.abs(want).max()


def test_checkpoint_with_retired_config_keys_loads_bitwise(tmp_path):
    # the header a Micro checkpoint carried while the retired keys were fields
    text = (b"name=Micro\ndepths=1,1,1,1\nchannels=16,32,64,128\nheads=1,1,2,4\n"
            b"hash_bits=3,3,3,3\ndownsample_rates=4,2,2,1\nsplit_ratio=0.5\n"
            b"ffn_ratio=4.0\nnum_classes=4\nmode=parallel\n")
    # the state it stores is a fresh build's, through the f32 file format
    current = tmp_path / "new.ckpt"
    save_checkpoint(str(current), build_model(get_preset("Micro"), seed=0))
    raw = current.read_bytes()
    _, end = _config_span(raw)
    path = tmp_path / "old.ckpt"
    path.write_bytes(raw[:8] + struct.pack("<I", len(text)) + text + raw[end:])
    old, new = load_checkpoint(str(path)), load_checkpoint(str(current))
    assert old.config == new.config == get_preset("Micro")
    got, want = list(iter_state(old)), list(iter_state(new))
    assert [n for n, _ in got] == [n for n, _ in want]
    for (name, a), (_, b) in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    x = np.random.default_rng(8).normal(size=(2, 3, 32, 32)).astype(np.float32)
    assert forward(old, x).data.tobytes() == forward(new, x).data.tobytes()


def test_checkpoint_legacy_bias_of_wrong_shape_is_checkpoint_error():
    model = build_model(get_preset("Micro"), seed=0)
    w_name, b_name, w, _ = next(bn_fed_convs(model))
    raw = legacy_stream(model, {w_name: (b_name, np.zeros(w.shape[0] + 1, np.float32))})
    with pytest.raises(CheckpointError, match="retired entry"):
        read_checkpoint_stream(io.BytesIO(raw))


def test_checkpoint_with_per_head_entries_loads_bitwise(tmp_path):
    model = build_model(get_preset("Micro"), seed=9)
    r = np.random.default_rng(9)
    for _, p in named_parameters(model):  # every head bias and terminal off zero
        p.data += 0.05 * r.standard_normal(p.shape)
    entries = per_head_entries(model)
    names = [n for n, _ in entries]
    assert "stages[3].blocks[0].mhpa.heads[3].imp_b2" in names
    assert not any(".heads." in n for n in names)
    path, current = tmp_path / "per_head.ckpt", tmp_path / "stacked.ckpt"
    path.write_bytes(checkpoint_bytes(model.config, entries))
    save_checkpoint(str(current), model)
    loaded = load_checkpoint(str(path))
    # the file format rounds the hash normals to f32, so the state matches
    # the stacked file's, and the logits the writer's
    for (name, a), (_, b) in zip(iter_state(loaded), iter_state(load_checkpoint(str(current)))):
        assert a.tobytes() == b.tobytes(), name
    x = r.normal(size=(2, 3, 32, 32)).astype(np.float32)
    assert forward(loaded, x).data.tobytes() == forward(model, x).data.tobytes()


@pytest.mark.parametrize("edit", ["missing", "repeated", "zero-padded", "unequal"])
def test_checkpoint_per_head_entries_that_do_not_stack_are_checkpoint_error(edit):
    model = build_model(get_preset("Micro"), seed=0)
    entries = per_head_entries(model)
    at = [n for n, _ in entries].index("stages[3].blocks[0].mhpa.heads[1].token_w")
    name, arr = entries[at]
    if edit == "missing":
        del entries[at]
    elif edit == "repeated":
        entries[at] = (name.replace("heads[1]", "heads[0]"), arr)
    elif edit == "zero-padded":  # a name of its own, but head 0 again
        entries[at] = (name.replace("heads[1]", "heads[00]"), arr)
    else:
        entries[at] = (name, arr[:-1])
    with pytest.raises(CheckpointError, match="heads.token_w|repeats"):
        read_checkpoint_stream(io.BytesIO(checkpoint_bytes(model.config, entries)))


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_checkpoint_file_layout_decodes_independently(dtype):
    # the layout the checkpoint module documents, decoded with struct and
    # numpy alone, against every entry iter_state yields
    with precision.precision(dtype):
        model = build_model(get_preset("Micro"), seed=2)
    r = np.random.default_rng(2)
    for _, arr in iter_state(model):  # no entry left at a constant init value
        arr += r.standard_normal(arr.shape).astype(arr.dtype)
    buf = io.BytesIO()
    write_checkpoint_stream(buf, model)
    raw, at = buf.getvalue(), 0

    def take(n):
        nonlocal at
        at += n
        assert at <= len(raw)
        return raw[at - n:at]

    def u32():
        return struct.unpack("<I", take(4))[0]

    assert take(4) == b"DFCK" and u32() == 1
    assert take(u32()).decode("utf-8") == config_to_text(model.config)
    want = list(iter_state(model))
    assert u32() == len(want)
    for name, arr in want:
        assert take(u32()).decode("utf-8") == name
        assert take(4) == b"DFT1"
        rank = u32()
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        assert dims == arr.shape, name
        got = np.frombuffer(take(4 * int(np.prod(dims))), dtype="<f4")
        assert got.tobytes() == np.ascontiguousarray(arr, dtype=np.float32).tobytes(), name
    assert at == len(raw)
    cfg, state = read_checkpoint_stream(io.BytesIO(raw))
    assert cfg == model.config
    assert list(state) == [n for n, _ in want]


@pytest.mark.parametrize("edit", ["verbatim", "legacy norm name", "stacked and per-head"])
def test_checkpoint_repeated_entry_name_is_checkpoint_error(edit):
    model = build_model(get_preset("Micro"), seed=0)
    entries = list(iter_state(model))
    at = {n: i for i, (n, _) in enumerate(entries)}
    if edit == "verbatim":
        entries.append(entries[at["head_b"]])
    elif edit == "legacy norm name":  # read as stem.convs[0][1].gamma
        entries.insert(0, ("stem.convs[0][2].gamma", entries[at["stem.convs[0][1].gamma"]][1]))
    else:  # a per-head entry merges into a stacked name the file holds
        stacked = entries[at["stages[3].blocks[0].mhpa.heads.token_w"]][1]
        entries.append(("stages[3].blocks[0].mhpa.heads[0].token_w", stacked[0]))
    with pytest.raises(CheckpointError, match="repeats"):
        read_checkpoint_stream(io.BytesIO(checkpoint_bytes(model.config, entries)))


@pytest.fixture(scope="module")
def micro_ckpt():
    buf = io.BytesIO()
    write_checkpoint_stream(buf, build_model(get_preset("Micro"), seed=0))
    return buf.getvalue()


def _config_span(raw):
    (text_len,) = struct.unpack("<I", raw[8:12])
    return 12, 12 + text_len


def _patched(raw, offset, new):
    return raw[:offset] + new + raw[offset + len(new):]


def test_checkpoint_non_utf8_config_is_checkpoint_error(micro_ckpt):
    start, _ = _config_span(micro_ckpt)
    with pytest.raises(CheckpointError) as exc:
        read_checkpoint_stream(io.BytesIO(_patched(micro_ckpt, start, b"\xff")))
    assert isinstance(exc.value.__cause__, UnicodeDecodeError)


def test_checkpoint_non_utf8_entry_name_is_checkpoint_error(micro_ckpt):
    _, end = _config_span(micro_ckpt)
    name_at = end + 4 + 4  # entry count, then the first name length
    with pytest.raises(CheckpointError) as exc:
        read_checkpoint_stream(io.BytesIO(_patched(micro_ckpt, name_at, b"\xff")))
    assert isinstance(exc.value.__cause__, UnicodeDecodeError)


def test_checkpoint_entry_errors_name_the_entry(micro_ckpt):
    name = "stages[1].blocks[0].ffn.w1"
    at = micro_ckpt.index(name.encode()) + len(name)
    with pytest.raises(CheckpointError, match=re.escape(f"entry {name!r}: bad magic")):
        read_checkpoint_stream(io.BytesIO(_patched(micro_ckpt, at, b"JUNK")))
    with pytest.raises(CheckpointError, match=re.escape(f"entry {name!r}: truncated")):
        read_checkpoint_stream(io.BytesIO(micro_ckpt[:at + 10]))


@pytest.mark.parametrize("old,new", [(b"depths=1", b"depths=x"), (b"depths=", b"dexths=")])
def test_checkpoint_corrupt_config_is_checkpoint_error(micro_ckpt, old, new):
    start, end = _config_span(micro_ckpt)
    at = micro_ckpt.index(old, start, end)
    with pytest.raises(CheckpointError) as exc:
        read_checkpoint_stream(io.BytesIO(_patched(micro_ckpt, at, new)))
    assert isinstance(exc.value.__cause__, ConfigError)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_checkpoint_reader_fuzz_raises_only_checkpoint_error(micro_ckpt, data):
    # the format has no checksum yet, so a corrupted payload may load silently;
    # what may not happen is any error other than CheckpointError
    raw = bytearray(micro_ckpt)
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="keep")]
    else:
        # half the edits land in the header, config text and first entries
        where = st.one_of(st.integers(0, 1023), st.integers(0, len(raw) - 1))
        for _ in range(data.draw(st.integers(1, 3), label="edits")):
            raw[data.draw(where, label="at")] = data.draw(st.integers(0, 255), label="byte")
    try:
        read_checkpoint_stream(io.BytesIO(bytes(raw)))
    except CheckpointError:
        pass
