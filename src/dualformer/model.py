"""Four-stage backbone assembly, presets, parameter accounting, state walking.

Resolution path for an H x W input: stem /4, then /2 at each stage
transition, so stage i runs at H/2^(i+1). Inputs must be divisible by 32 so
the last stage has at least one token and every attention layer's
downsample rate divides its grid. Images come in and feature maps go out as
(B, C, H, W); inside, every activation is channels-last (B, H, W, C).
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import precision
from .blocks import (
    DualBlockParams,
    MODES,
    PatchEmbedParams,
    SPLIT_RATIO,
    attention_stages,
    dual_block_forward,
    make_dual_block,
    make_patch_embed,
    patch_embed_forward,
    split_channels,
)
from .init import trunc_normal, zeros_param
from .mhpa import MhpaConfig
from .tensor import ShapeError, Tensor, add_bias, constant, matmul, no_grad, tmean, transpose

NUM_STAGES = 4
# Shared by every preset (docs/calibration.md): K = 2^HASH_BITS partitions
# per head, and the stride of each stage's attention downsample.
HASH_BITS = 3
DOWNSAMPLE_RATES = (4, 2, 2, 1)


class ConfigError(ValueError):
    """Invalid model configuration."""


def default_heads(channels: int) -> int:
    """Largest divisor of the attention-branch width not above channels/32."""
    _, branch = split_channels(channels, "parallel")
    cap = max(1, channels // 32)
    for h in range(min(cap, branch), 0, -1):
        if branch % h == 0:
            return h
    return 1


@dataclass(frozen=True)
class ModelConfig:
    name: str = "custom"
    depths: tuple = (1, 1, 1, 1)
    channels: tuple = (16, 32, 64, 128)
    ffn_ratio: float = 4.0
    num_classes: int = 1000
    mode: str = "parallel"

    @property
    def heads(self) -> tuple:
        """Attention heads per stage, derived from the widths."""
        return tuple(default_heads(c) for c in self.channels)

    def validate(self) -> None:
        for fname in _INT_TUPLES:
            seq = getattr(self, fname)
            if len(seq) != NUM_STAGES or any(int(v) < 1 for v in seq):
                raise ConfigError(f"{fname} must be {NUM_STAGES} positive ints, got {seq}")
        if self.mode not in MODES:
            raise ConfigError(f"mode {self.mode!r} not in {MODES}")
        if self.ffn_ratio <= 0:
            raise ConfigError(f"ffn_ratio must be positive, got {self.ffn_ratio}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be at least 2, got {self.num_classes}")
        for i, c in enumerate(self.channels, 1):
            # an even width splits into two non-empty halves that the heads divide
            if c % 2:
                raise ConfigError(f"stage {i}: channels must be even, got {c}")

    def mhpa_config(self, stage: int) -> MhpaConfig:
        """Stage ``stage``'s (0-based) attention layers, running ``mode``'s stages."""
        return MhpaConfig(
            downsample_rate=DOWNSAMPLE_RATES[stage],
            hash_bits=HASH_BITS,
            num_heads=self.heads[stage],
            attend=attention_stages(self.mode),
        )


# Per-variant FFN ratios are not given in the paper text held here. The T,
# S and B values are calibrated to the parameter and MAC budgets, which one
# shared ratio cannot meet (docs/calibration.md); XS keeps the default 4.0.
PRESETS: dict[str, ModelConfig] = {
    "T": ModelConfig("T", (2, 2, 4, 2), (64, 128, 256, 320), ffn_ratio=3.0),
    "XS": ModelConfig("XS", (2, 2, 4, 2), (64, 128, 320, 368)),
    "S": ModelConfig("S", (4, 4, 7, 3), (64, 128, 320, 512), ffn_ratio=5.0),
    "B": ModelConfig("B", (6, 12, 25, 7), (64, 128, 368, 560), ffn_ratio=5.25),
    "Micro": ModelConfig("Micro", (1, 1, 1, 1), (16, 32, 64, 128), num_classes=4),
}


def get_preset(name: str) -> ModelConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}, expected one of {sorted(PRESETS)}")
    return PRESETS[name]


# -- flat key=value config text -----------------------------------------------

_INT_TUPLES = ("depths", "channels")


def _ints(seq) -> str:
    return ",".join(str(int(v)) for v in seq)


# Keys of options since made constant, each with the one value the program
# wrote for it; None stands for the heads that the channels derive.
_RETIRED_KEYS = {
    "resample_norms": "false",
    "share_partitions": "false",
    "split_ratio": repr(SPLIT_RATIO),
    "hash_bits": _ints([HASH_BITS] * NUM_STAGES),
    "downsample_rates": _ints(DOWNSAMPLE_RATES),
    "heads": None,
}


def config_to_text(cfg: ModelConfig) -> str:
    lines = []
    for f in dataclasses.fields(cfg):
        key, val = f.name, getattr(cfg, f.name)
        if key in _INT_TUPLES:
            val = _ints(val)
        elif isinstance(val, float):
            val = repr(val)
        lines.append(f"{key}={val}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> ModelConfig:
    kv = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in kv:
            raise ConfigError(f"config line {lineno}: key {key!r} given twice")
        kv[key] = val
    retired = {key: kv.pop(key) for key in _RETIRED_KEYS if key in kv}
    known = {f.name for f in dataclasses.fields(ModelConfig)}
    unknown = set(kv) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    args = {}
    for key, val in kv.items():
        try:
            if key in _INT_TUPLES:
                args[key] = tuple(int(v) for v in val.split(","))
            elif key == "ffn_ratio":
                args[key] = float(val)
            elif key == "num_classes":
                args[key] = int(val)
            else:
                args[key] = val
        except ValueError as exc:
            raise ConfigError(f"config key {key}: cannot parse {val!r}: {exc}") from exc
    cfg = ModelConfig(**args)
    cfg.validate()
    for key, val in retired.items():
        only = _RETIRED_KEYS[key] or _ints(cfg.heads)
        if val != only:
            raise ConfigError(f"{key}={val} is no longer supported; the only value is {only}")
    return cfg


# -- model ---------------------------------------------------------------


@dataclass
class StageParams:
    embed: PatchEmbedParams | None
    blocks: list[DualBlockParams] = field(default_factory=list)


@dataclass
class Model:
    config: ModelConfig
    stem: PatchEmbedParams
    stages: list[StageParams]
    head_w: Tensor
    head_b: Tensor
    dtype: np.dtype = None


def build_model(cfg: ModelConfig, seed: int = 0) -> Model:
    """Materialize weights for a config. Same seed, same bits.

    Truncated-normal init everywhere except the residual terminal
    projections (inverted-bottleneck project, attention expansion, FFN
    second conv), which start at zero, so a fresh model maps features
    through the blocks untouched.
    """
    cfg.validate()
    rng = np.random.default_rng(seed)
    c1 = cfg.channels[0]
    stem = make_patch_embed([3, max(2, c1 // 2), c1], rng)
    stages = []
    for si in range(NUM_STAGES):
        embed = None
        if si > 0:
            embed = make_patch_embed([cfg.channels[si - 1], cfg.channels[si]], rng)
        blocks = [
            make_dual_block(
                cfg.channels[si],
                cfg.mode,
                cfg.mhpa_config(si),
                rng,
                ffn_ratio=cfg.ffn_ratio,
            )
            for _ in range(cfg.depths[si])
        ]
        stages.append(StageParams(embed=embed, blocks=blocks))
    head_w = trunc_normal(rng, (cfg.channels[-1], cfg.num_classes))
    head_b = zeros_param(cfg.num_classes)
    return Model(
        config=cfg,
        stem=stem,
        stages=stages,
        head_w=head_w,
        head_b=head_b,
        dtype=precision.default_dtype(),
    )


def hash_sites(model: Model):
    """Yield (stage, block, layer, config) for every attention layer in
    traversal order, stage and block counting from 1. A layer is one hash
    site, hashing all its heads at once."""
    for si, stage in enumerate(model.stages, 1):
        for bi, block in enumerate(stage.blocks, 1):
            if block.mhpa is not None:
                yield si, bi, block.mhpa, block.mhpa_cfg


def _features(model: Model, images, train: bool, sites=None, stages: int = NUM_STAGES):
    """Stem, then stages 1..``stages``; returns the feature map leaving the last."""
    if not isinstance(images, Tensor):
        images = constant(np.asarray(images), dtype=model.dtype)
    elif images.dtype != model.dtype:
        images = constant(images.data.astype(model.dtype))
    if images.ndim != 4 or images.shape[1] != 3:
        raise ShapeError(f"expected images (B, 3, H, W), got {images.shape}")
    h, w = images.shape[2], images.shape[3]
    if h % 32 or w % 32 or h < 32 or w < 32:
        raise ShapeError(f"input resolution {h}x{w} must be a positive multiple of 32")

    x = patch_embed_forward(transpose(images, (0, 2, 3, 1)), model.stem, train)
    for stage in model.stages[:stages]:
        if stage.embed is not None:
            x = patch_embed_forward(x, stage.embed, train)
        for block in stage.blocks:
            x = dual_block_forward(x, block, train=train, sites=sites)
    return x


def forward(model: Model, images, train: bool = False, frozen=None) -> Tensor:
    """Images (B, 3, H, W) to logits (B, num_classes).

    ``frozen`` is a sequence of partition assignments, one (B, heads, n)
    array per attention layer in :func:`hash_sites` order: the
    ``"assignment"`` entries :func:`capture_partitions` returns.
    """
    sites = None
    if frozen is not None:
        layers = [layer for _, _, layer, _ in hash_sites(model)]
        if len(frozen) != len(layers):
            raise ShapeError(f"frozen: {len(frozen)} assignments for {len(layers)} hash sites")
        sites = {layer: {"assignment": a} for layer, a in zip(layers, frozen)}
    x = _features(model, images, train, sites)
    pooled = tmean(x, axis=(1, 2))  # (B, C)
    return add_bias(matmul(pooled, model.head_w), model.head_b)


def forward_features(model: Model, images, stage: int) -> Tensor:
    """Eval-mode (B, C, H, W) map leaving ``stage`` (1-based); later stages do not run."""
    if not 1 <= stage <= NUM_STAGES:
        raise ConfigError(f"stage must be 1..{NUM_STAGES}, got {stage}")
    return transpose(_features(model, images, False, stages=stage), (0, 3, 1, 2))


def capture_partitions(model: Model, images, train: bool = False) -> list:
    """Run the stages and return one dict per attention layer in
    :func:`hash_sites` order, with keys ``stage``, ``block``, ``assignment``
    (bucket ids, (B, heads, n)), ``shape`` (the token grid) and
    ``num_clusters``.

    The head has no hash sites, so it does not run, and no graph is recorded.
    """
    sites: dict = {}
    with no_grad():
        _features(model, images, train, sites)
    return [
        {"stage": si, "block": bi, "assignment": sites[layer]["assignment"],
         "shape": sites[layer]["shape"], "num_clusters": cfg.num_clusters}
        for si, bi, layer, cfg in hash_sites(model)
    ]


# -- state walking -----------------------------------------------------------


def _leaves(obj, prefix: str = ""):
    """Yield (name, Tensor or ndarray) over a params tree.

    Deterministic order: dataclass field order, list index order.
    """
    if isinstance(obj, (Tensor, np.ndarray)):
        yield prefix, obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            if f.name not in ("config", "dtype"):
                yield from _leaves(getattr(obj, f.name), f"{prefix}.{f.name}" if prefix else f.name)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{prefix}[{i}]")
    # scalars, strings and None carry no state


def iter_state(obj):
    """Yield (name, array) over every tensor in a params tree: learnable
    tensors, running stats and hash hyperplanes alike."""
    for name, leaf in _leaves(obj):
        yield name, leaf.data if isinstance(leaf, Tensor) else leaf


def named_parameters(model: Model) -> list[tuple[str, Tensor]]:
    """(name, Tensor) for every learnable tensor, in :func:`iter_state` order."""
    return [(n, t) for n, t in _leaves(model) if isinstance(t, Tensor) and t.requires_grad]


def count_params(model: Model) -> int:
    """Exact number of learnable scalars."""
    return sum(int(t.size) for _, t in named_parameters(model))
