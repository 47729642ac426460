"""Weight initialization helpers."""
from __future__ import annotations

import numpy as np

from . import precision
from .tensor import Tensor

INIT_STD = 0.02


def trunc_normal(rng: np.random.Generator, shape) -> Tensor:
    """Normal(0, INIT_STD) resampled until every draw lies within two deviations."""
    vals = rng.standard_normal(shape)
    bad = np.abs(vals) > 2.0
    while bad.any():
        vals[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(vals) > 2.0
    return Tensor(vals * INIT_STD, requires_grad=True, dtype=precision.default_dtype())


def zeros_param(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True, dtype=precision.default_dtype())


def ones_param(shape) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True, dtype=precision.default_dtype())
