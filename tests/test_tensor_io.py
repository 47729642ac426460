"""Binary tensor stream format: roundtrips and corruption handling."""
import io
import struct

import numpy as np
import pytest

from dualformer.tensor_io import (
    TensorFormatError,
    load_tensor,
    read_tensor_stream,
    save_tensor,
    tensor_bytes,
    write_tensor_stream,
)


def roundtrip(arr):
    buf = io.BytesIO()
    write_tensor_stream(buf, arr)
    buf.seek(0)
    return read_tensor_stream(buf)


def test_roundtrip_exact_f32():
    arr = np.random.default_rng(0).normal(size=(3, 4, 5)).astype(np.float32)
    got = roundtrip(arr)
    assert got.dtype == np.float32
    assert np.array_equal(got, arr)


def test_f64_payload_rounds_to_f32():
    arr = np.array([1.0 + 1e-12], dtype=np.float64)
    got = roundtrip(arr)
    assert got.dtype == np.float32
    assert got[0] == np.float32(arr[0])


def test_scalar_and_empty_shapes():
    assert roundtrip(np.float32(7.0).reshape(())).shape == ()
    assert roundtrip(np.zeros((0, 3), dtype=np.float32)).shape == (0, 3)


def test_non_contiguous_input_serializes_in_c_order():
    base = np.arange(12, dtype=np.float32).reshape(3, 4)
    view = base.T  # fortran-ordered view
    got = roundtrip(view)
    assert np.array_equal(got, np.ascontiguousarray(view))


def test_layout_bytes():
    arr = np.array([[1.0, 2.0]], dtype=np.float32)
    raw = tensor_bytes(arr)
    assert raw[:4] == b"DFT1"
    rank = struct.unpack("<I", raw[4:8])[0]
    dims = struct.unpack("<2I", raw[8:16])
    assert rank == 2 and dims == (1, 2)
    assert np.frombuffer(raw[16:], dtype="<f4").tolist() == [1.0, 2.0]


def test_bad_magic_rejected():
    with pytest.raises(TensorFormatError):
        read_tensor_stream(io.BytesIO(b"NOPE" + b"\x00" * 16))


def test_truncated_payload_rejected():
    raw = tensor_bytes(np.ones((2, 2), dtype=np.float32))
    with pytest.raises(TensorFormatError):
        read_tensor_stream(io.BytesIO(raw[:-3]))


def test_absurd_rank_rejected():
    buf = b"DFT1" + struct.pack("<I", 99)
    with pytest.raises(TensorFormatError):
        read_tensor_stream(io.BytesIO(buf))


def test_overflowing_dims_rejected():
    buf = b"DFT1" + struct.pack("<9I", 8, *[0xFFFFFFFF] * 8)
    with pytest.raises(TensorFormatError):
        read_tensor_stream(io.BytesIO(buf))


def test_file_roundtrip_and_trailing_bytes(tmp_path):
    path = tmp_path / "t.dft"
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    save_tensor(str(path), arr)
    assert np.array_equal(load_tensor(str(path)), arr)
    with open(path, "ab") as fh:
        fh.write(b"junk")
    with pytest.raises(TensorFormatError):
        load_tensor(str(path))
