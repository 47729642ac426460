"""Global float precision switch.

Everything runs in float32 by default. Gradient audits flip the default to
float64 so finite differences have enough headroom; the switch only affects
tensors created after the call, existing tensors keep their dtype.
"""
from __future__ import annotations

import contextlib

import numpy as np

_NAMES = {"f32": np.float32, "f64": np.float64}
_default = np.float32


def set_default_dtype(name: str) -> None:
    """Set the default float dtype: 'f32' or 'f64'."""
    global _default
    if name not in _NAMES:
        raise ValueError(f"unknown precision {name!r}, expected one of {sorted(_NAMES)}")
    _default = _NAMES[name]


def default_dtype():
    return _default


@contextlib.contextmanager
def precision(name):
    """Temporarily switch the default dtype. Used by tests and the grad audit."""
    global _default
    prev = _default
    set_default_dtype(name)
    try:
        yield
    finally:
        _default = prev
