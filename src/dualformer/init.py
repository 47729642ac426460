"""Weight initialization helpers."""
from __future__ import annotations

import numpy as np

from . import precision
from .tensor import Tensor

INIT_STD = 0.02


def truncated_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal(0, INIT_STD) resampled until every draw lies within two deviations."""
    vals = rng.standard_normal(shape)
    bad = np.flatnonzero(np.abs(vals) > 2.0)
    while bad.size:  # redraw the outliers in index order, testing only the redraws
        redraw = rng.standard_normal(bad.size)
        vals.flat[bad] = redraw
        bad = bad[np.abs(redraw) > 2.0]
    return vals * INIT_STD


def trunc_normal(rng: np.random.Generator, shape) -> Tensor:
    return Tensor(truncated_normal(rng, shape), requires_grad=True, dtype=precision.default_dtype())


def zeros_param(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True, dtype=precision.default_dtype())


def ones_param(shape) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True, dtype=precision.default_dtype())
