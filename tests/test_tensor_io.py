"""The array part of a checkpoint entry: roundtrips and corruption handling."""
import io
import struct

import numpy as np
import pytest

from dualformer.checkpoint import READ_CHUNK, CheckpointError, _read_array, _write_array


def read_entry(fh):
    """One entry's array, read as the checkpoint reader reads it."""
    return _read_array(fh, "entry 't'")


def encoded(arr):
    buf = io.BytesIO()
    _write_array(buf, arr)
    return buf.getvalue()


def roundtrip(arr):
    return read_entry(io.BytesIO(encoded(arr)))


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
    raw = encoded(arr)
    assert raw[:4] == b"DFT1"
    rank = struct.unpack("<I", raw[4:8])[0]
    dims = struct.unpack("<2I", raw[8:16])
    assert rank == 2 and dims == (1, 2)
    assert np.frombuffer(raw[16:], dtype="<f4").tolist() == [1.0, 2.0]


def test_bad_magic_rejected():
    with pytest.raises(CheckpointError):
        read_entry(io.BytesIO(b"NOPE" + b"\x00" * 16))


def test_truncated_payload_rejected():
    raw = encoded(np.ones((2, 2), dtype=np.float32))
    with pytest.raises(CheckpointError):
        read_entry(io.BytesIO(raw[:-3]))


def test_absurd_rank_rejected():
    buf = b"DFT1" + struct.pack("<I", 99)
    with pytest.raises(CheckpointError):
        read_entry(io.BytesIO(buf))


def test_overflowing_dims_rejected():
    buf = b"DFT1" + struct.pack("<9I", 8, *[0xFFFFFFFF] * 8)
    with pytest.raises(CheckpointError):
        read_entry(io.BytesIO(buf))


def test_multi_chunk_payload_from_file(tmp_path):
    # a payload over one read chunk goes through the chunked path of a real file
    arr = np.arange(READ_CHUNK // 4 + 5, dtype=np.float32)
    path = tmp_path / "t.dft"
    path.write_bytes(encoded(arr))
    with open(path, "rb") as fh:
        assert np.array_equal(read_entry(fh), arr)
    path.write_bytes(encoded(arr)[:-3])
    with open(path, "rb") as fh, pytest.raises(CheckpointError, match="truncated"):
        read_entry(fh)
