"""Binary tensor serialization.

Layout, all little-endian:

    magic   4 bytes  b"DFT1"
    rank    u32
    dims    rank * u32
    payload prod(dims) * f32, row-major

Payloads are always written as float32; float64 tensors round on save.
"""
from __future__ import annotations

import struct
import sys

import numpy as np

MAGIC = b"DFT1"
# On a real file one fh.read(n) allocates all n bytes before it reads any, so
# a corrupt size field would raise MemoryError; reads above this go by chunks.
READ_CHUNK = 1 << 20


class TensorFormatError(ValueError):
    """Corrupt or truncated tensor blob."""


def write_tensor_stream(fh, arr: np.ndarray) -> None:
    # ascontiguousarray would flatten rank-0 tensors to rank 1
    arr = np.asarray(arr, dtype=np.float32)
    if not arr.flags["C_CONTIGUOUS"]:
        arr = arr.copy(order="C")
    fh.write(MAGIC)
    fh.write(struct.pack("<I", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(arr.tobytes(order="C"))


def _read_exact(fh, n: int) -> bytes:
    buf = fh.read(min(n, READ_CHUNK))
    if len(buf) < n:
        buf = bytearray(buf)
        while len(buf) < n and (part := fh.read(min(n - len(buf), READ_CHUNK))):
            buf += part
    if len(buf) != n:
        raise TensorFormatError(f"truncated stream: wanted {n} bytes, got {len(buf)}")
    return buf


def read_tensor_stream(fh) -> np.ndarray:
    magic = _read_exact(fh, 4)
    if magic != MAGIC:
        raise TensorFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    (rank,) = struct.unpack("<I", _read_exact(fh, 4))
    if rank > 8:
        raise TensorFormatError(f"implausible rank {rank}")
    dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank)) if rank else ()
    count = 1
    for d in dims:
        count *= d
    if 4 * count > sys.maxsize:
        raise TensorFormatError(f"implausible tensor shape {dims}")
    payload = _read_exact(fh, 4 * count)
    arr = np.frombuffer(payload, dtype="<f4", count=count).reshape(dims)
    return arr.copy()  # frombuffer views are read-only

