"""Single-file model checkpoints. This module owns every byte of the format.

Layout, all little-endian:

    magic    4 bytes  b"DFCK"
    version  u32      1
    config   u32 byte length, then the flat key=value config text (UTF-8)
    count    u32 number of entries, then per entry:
      name   u32 byte length, then the name (UTF-8)
      magic  4 bytes  b"DFT1"
      rank   u32, at most 8
      dims   rank * u32
      values prod(dims) * f32, row-major

Entries cover every learnable tensor plus the non-learnable state a forward
depends on (normalization running stats, hash hyperplanes), so a save/load
pair reproduces eval-mode outputs bit for bit at f32; f64 values round on
save. Malformed bytes of any kind raise :class:`CheckpointError`.

Older files load too: the reader folds the retired conv biases into their
norms' running means (:data:`_RETIRED_BIASES`), and merges the per-head
``heads[i].*`` entries into stacked ones (:func:`_merge_head_entries`).
"""
from __future__ import annotations

import math
import os
import re
import struct
import sys
from contextlib import contextmanager
from typing import BinaryIO

import numpy as np

from .model import (ConfigError, Model, ModelConfig, build_model, config_from_text,
                    config_to_text, iter_state)

MAGIC = b"DFCK"
VERSION = 1
ENTRY_MAGIC = b"DFT1"
MAX_RANK = 8
# On a real file one fh.read(n) allocates all n bytes before it reads any, so
# a corrupt size field would raise MemoryError; reads above this go by chunks.
READ_CHUNK = 1 << 20

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
_PER_HEAD = re.compile(r"(.+\.heads)\[(\d+)\](\..+)")


class CheckpointError(ValueError):
    """Malformed checkpoint, or one that does not fit the model it describes."""


def _write_array(stream: BinaryIO, arr: np.ndarray) -> None:
    """An entry's array: magic, rank, dims, then the values as f32, row-major
    whatever the array's own memory order."""
    arr = np.asarray(arr, dtype=np.float32)
    stream.write(ENTRY_MAGIC + struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape))
    stream.write(arr.tobytes(order="C"))


def write_checkpoint_stream(stream: BinaryIO, model: Model) -> None:
    entries = list(iter_state(model))
    text = config_to_text(model.config).encode("utf-8")
    stream.write(MAGIC + struct.pack("<II", VERSION, len(text)) + text)
    stream.write(struct.pack("<I", len(entries)))
    for name, arr in entries:
        encoded = name.encode("utf-8")
        stream.write(struct.pack("<I", len(encoded)) + encoded)
        _write_array(stream, arr)


def _read_exact(stream: BinaryIO, n: int, what: str) -> bytes:
    """``n`` bytes of ``what``, read by chunks; a short read is an error."""
    buf = stream.read(min(n, READ_CHUNK))
    if len(buf) < n:
        buf = bytearray(buf)
        while len(buf) < n and (part := stream.read(min(n - len(buf), READ_CHUNK))):
            buf += part
    if len(buf) != n:
        raise CheckpointError(f"{what}: truncated stream: wanted {n} bytes, got {len(buf)}")
    return buf


def _read_u32(stream: BinaryIO, what: str) -> int:
    return struct.unpack("<I", _read_exact(stream, 4, what))[0]


def _read_text(stream: BinaryIO, what: str) -> str:
    """A u32 byte length, then that many bytes of UTF-8."""
    raw = _read_exact(stream, _read_u32(stream, what), what)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{what}: not UTF-8: {exc}") from exc


def _read_array(stream: BinaryIO, what: str) -> np.ndarray:
    """An array as :func:`_write_array` lays it out, as f32."""
    magic = _read_exact(stream, 4, what)
    if magic != ENTRY_MAGIC:
        raise CheckpointError(f"{what}: bad magic {magic!r}, expected {ENTRY_MAGIC!r}")
    rank = _read_u32(stream, what)
    if rank > MAX_RANK:
        raise CheckpointError(f"{what}: implausible rank {rank}")
    dims = struct.unpack(f"<{rank}I", _read_exact(stream, 4 * rank, what))
    count = math.prod(dims)
    if 4 * count > sys.maxsize:
        raise CheckpointError(f"{what}: implausible tensor shape {dims}")
    payload = _read_exact(stream, 4 * count, what)
    return np.frombuffer(payload, "<f4", count).reshape(dims).copy()  # the view is read-only


def _put(state: dict, name: str, arr) -> None:
    if name in state:
        raise CheckpointError(f"entry {name!r} repeats")
    state[name] = arr


def read_checkpoint_stream(stream: BinaryIO) -> tuple[ModelConfig, dict]:
    """(config, {name: f32 array}), the entries in file order under current names."""
    if _read_exact(stream, 4, "checkpoint magic") != MAGIC:
        raise CheckpointError("bad checkpoint magic")
    version = _read_u32(stream, "checkpoint version")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    text = _read_text(stream, "config text")
    try:
        cfg = config_from_text(text)
    except ConfigError as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc
    state = {}
    for i in range(_read_u32(stream, "entry count")):
        name = _read_text(stream, f"entry {i} name")
        arr = _read_array(stream, f"entry {name!r}")
        _put(state, _OLD_EMBED_BN.sub(r"\1[1].", name), arr)
    return cfg, _merge_head_entries(_fold_retired_biases(state))


def _fold_retired_biases(state: dict) -> dict:
    """Subtract each retired conv bias from the running mean of the batch
    norm it fed, in place."""
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
    return state


def _merge_head_entries(state: dict) -> dict:
    """Merge per-head entries ``heads[i].x``, i = 0..h-1, into the stacked
    ``heads.x`` in the first one's place: weights and normals stack along a
    new leading axis, and biases, the rank-1 entries, concatenate."""
    merged, groups = {}, {}
    for name, arr in state.items():
        match = _PER_HEAD.fullmatch(name)
        if match is None:
            _put(merged, name, arr)
            continue
        stacked, i = match[1] + match[3], int(match[2])
        if stacked not in groups:
            _put(merged, stacked, None)  # filled below, keeping its place
        heads = groups.setdefault(stacked, {})
        if i in heads:
            raise CheckpointError(f"entry {name!r} repeats head {i}")
        heads[i] = arr
    for stacked, heads in groups.items():
        parts = [heads.get(i) for i in range(len(heads))]
        if any(p is None or p.shape != parts[0].shape for p in parts):
            raise CheckpointError(
                f"per-head entries of {stacked!r} are not heads 0..{len(heads) - 1} "
                f"of one shape: {sorted((i, p.shape) for i, p in heads.items())}"
            )
        merged[stacked] = np.concatenate(parts) if parts[0].ndim == 1 else np.stack(parts)
    return merged


@contextmanager
def atomic_open(path: str, mode: str):
    """Open a temp file beside ``path`` and rename it over ``path`` on success,
    so a failed write leaves an existing file as it was and no partial file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_checkpoint(path: str, model: Model) -> None:
    with atomic_open(path, "wb") as fh:
        write_checkpoint_stream(fh, model)


def load_checkpoint(path: str) -> Model:
    """Rebuild a model from a checkpoint file."""
    with open(path, "rb") as fh:
        cfg, state = read_checkpoint_stream(fh)
        if fh.read(1):
            raise CheckpointError("trailing bytes after checkpoint payload")
    model = build_model(cfg, seed=0)
    slots = list(iter_state(model))
    names = [n for n, _ in slots]
    if names != list(state):
        missing, extra = set(names) - set(state), set(state) - set(names)
        raise CheckpointError(
            f"checkpoint entries do not line up with the rebuilt model "
            f"(missing {sorted(missing)[:3]}, unexpected {sorted(extra)[:3]})"
        )
    for name, arr in slots:
        stored = state[name]
        if stored.shape != arr.shape:
            raise CheckpointError(
                f"entry {name!r}: stored shape {stored.shape} != model shape {arr.shape}"
            )
        arr[...] = stored.astype(arr.dtype)
    return model
