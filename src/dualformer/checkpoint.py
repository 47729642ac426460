"""Single-file model checkpoints.

Layout, all little-endian: magic ``DFCK``, u32 format version, u32 byte
length of the flat key=value config text followed by that text (UTF-8),
u32 entry count, then per entry a u32 name length, the name, and the
array in the tensor stream format. Entries cover every learnable tensor
plus the non-learnable state a forward depends on (normalization running
stats, hash hyperplanes), so a save/load pair reproduces eval-mode
outputs bit for bit at f32.

Files written before the conv biases that batch norm cancels were removed
carry those biases as entries; the reader folds each into its norm's
running mean (:data:`_RETIRED_BIASES`).
"""
from __future__ import annotations

import re
import struct
from typing import BinaryIO

from .model import ConfigError, Model, build_model, config_from_text, config_to_text, iter_state
from .tensor_io import TensorFormatError, _read_exact, read_tensor_stream, write_tensor_stream

MAGIC = b"DFCK"
VERSION = 1

# Retired conv-bias entry -> the batch norm that follows the conv, in current
# names. ``bn(conv(x) + b)`` with running mean ``m`` equals ``bn(conv(x))``
# with running mean ``m - b`` in eval. Patch-embed convs were (w, b, bn) and
# are (w, bn), so their norm entries also move from ``[2]`` to ``[1]``.
_RETIRED_BIASES = (
    (re.compile(r"(.+\.mbconv)\.expand_b"), r"\1.bn1"),
    (re.compile(r"(.+\.mbconv)\.dw_b"), r"\1.bn2"),
    (re.compile(r"(.+\.convs\[\d+\])\[1\]"), r"\1[1]"),
)
_OLD_EMBED_BN = re.compile(r"(\.convs\[\d+\])\[2\]\.")


class CheckpointError(ValueError):
    """Malformed checkpoint, or one that does not fit the model it describes."""


def write_checkpoint_stream(stream: BinaryIO, model: Model) -> None:
    entries = list(iter_state(model))
    text = config_to_text(model.config).encode("utf-8")
    stream.write(MAGIC)
    stream.write(struct.pack("<I", VERSION))
    stream.write(struct.pack("<I", len(text)))
    stream.write(text)
    stream.write(struct.pack("<I", len(entries)))
    for name, arr, _ in entries:
        encoded = name.encode("utf-8")
        stream.write(struct.pack("<I", len(encoded)))
        stream.write(encoded)
        write_tensor_stream(stream, arr)


def read_checkpoint_stream(stream: BinaryIO):
    """Returns (config, {name: f32 array}, entry names in file order).

    Malformed bytes of any kind raise :class:`CheckpointError`.
    """
    try:
        if _read_exact(stream, 4) != MAGIC:
            raise CheckpointError("bad checkpoint magic")
        (version,) = struct.unpack("<I", _read_exact(stream, 4))
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        (text_len,) = struct.unpack("<I", _read_exact(stream, 4))
        cfg = config_from_text(_read_exact(stream, text_len).decode("utf-8"))
        (count,) = struct.unpack("<I", _read_exact(stream, 4))
        state = {}
        order = []
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read_exact(stream, 4))
            name = _read_exact(stream, name_len).decode("utf-8")
            try:
                state[name] = read_tensor_stream(stream)
            except TensorFormatError as exc:
                raise CheckpointError(f"entry {name!r}: {exc}") from exc
            order.append(name)
    except (TensorFormatError, ConfigError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc
    return cfg, *_fold_retired_biases(state, order)


def _fold_retired_biases(state: dict, order: list) -> tuple[dict, list]:
    """Rename entries to current names and subtract each retired conv bias
    from the running mean of the batch norm it fed."""
    state = {_OLD_EMBED_BN.sub(r"\1[1].", n): arr for n, arr in state.items()}
    order = [_OLD_EMBED_BN.sub(r"\1[1].", n) for n in order]
    for name in list(state):
        for pattern, norm in _RETIRED_BIASES:
            if match := pattern.fullmatch(name):
                bias = state.pop(name)
                mean = match.expand(norm) + ".running_mean"
                if mean not in state or state[mean].shape != bias.shape:
                    raise CheckpointError(
                        f"retired entry {name!r} {bias.shape} does not fit {mean!r}"
                    )
                state[mean] = state[mean] - bias
    return state, [n for n in order if n in state]


def save_checkpoint(path: str, model: Model) -> None:
    with open(path, "wb") as fh:
        write_checkpoint_stream(fh, model)


def load_checkpoint(path: str) -> Model:
    """Rebuild a model from a checkpoint file."""
    with open(path, "rb") as fh:
        cfg, state, order = read_checkpoint_stream(fh)
        if fh.read(1):
            raise CheckpointError("trailing bytes after checkpoint payload")
    model = build_model(cfg, seed=0)
    slots = list(iter_state(model))
    names = [n for n, _, _ in slots]
    if names != order:
        missing = set(names) - set(order)
        extra = set(order) - set(names)
        raise CheckpointError(
            f"checkpoint entries do not line up with the rebuilt model "
            f"(missing {sorted(missing)[:3]}, unexpected {sorted(extra)[:3]})"
        )
    for name, arr, _ in slots:
        stored = state[name]
        if stored.shape != arr.shape:
            raise CheckpointError(
                f"entry {name!r}: stored shape {stored.shape} != model shape {arr.shape}"
            )
        arr[...] = stored.astype(arr.dtype)
    return model
