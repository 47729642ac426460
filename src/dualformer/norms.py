"""Normalization layers over channels-last (B, H, W, C) feature maps."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, add_bias, constant, mul, reshape, tmean, tsqrt

BN_MOMENTUM = 0.1
BN_EPS = 1e-5
LN_EPS = 1e-5


def _normalize(xc: Tensor, v: Tensor, eps: float) -> Tensor:
    """``xc / sqrt(v + eps)`` with the division on the small statistics tensor."""
    return xc * (1.0 / tsqrt(v + eps))


def _affine(xn: Tensor, scale: Tensor, shift: Tensor) -> Tensor:
    """Per-channel ``xn * scale + shift``: two full-map passes."""
    return add_bias(mul(xn, reshape(scale, (1, 1, 1, scale.shape[0]))), shift, axis=-1)


def layer_norm_channels(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize each spatial position across its channel vector."""
    m = tmean(x, axis=-1, keepdims=True)
    xc = x - m
    v = tmean(xc * xc, axis=-1, keepdims=True)
    return _affine(_normalize(xc, v, LN_EPS), gamma, beta)


@dataclass
class BatchNorm2d:
    """Affine batch norm state; running stats are buffers, not parameters."""

    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray


def make_batch_norm(channels: int, dtype) -> BatchNorm2d:
    return BatchNorm2d(
        gamma=Tensor(np.ones(channels), requires_grad=True, dtype=dtype),
        beta=Tensor(np.zeros(channels), requires_grad=True, dtype=dtype),
        running_mean=np.zeros(channels, dtype=dtype),
        running_var=np.ones(channels, dtype=dtype),
    )


def batch_norm(x: Tensor, bn: BatchNorm2d, train: bool) -> Tensor:
    """Batch norm over (batch, height, width) per channel.

    Training mode normalizes with (differentiable) batch statistics and
    updates the running buffers as a side effect; inference mode uses the
    buffers as constants, so rows of a batch stay independent. There the
    whole norm folds into one per-channel scale and shift, built from (C,)
    tensors so gamma and beta keep their gradients.
    """
    if not train:
        rm = constant(bn.running_mean, dtype=x.dtype)
        rv = constant(bn.running_var, dtype=x.dtype)
        scale = bn.gamma * (1.0 / tsqrt(rv + BN_EPS))
        return _affine(x, scale, bn.beta - rm * scale)
    c = bn.gamma.shape[0]
    m = tmean(x, axis=(0, 1, 2), keepdims=True)
    xc = x - m
    v = tmean(xc * xc, axis=(0, 1, 2), keepdims=True)
    mom = BN_MOMENTUM
    bn.running_mean = (1 - mom) * bn.running_mean + mom * m.data.reshape(c).astype(
        bn.running_mean.dtype
    )
    bn.running_var = (1 - mom) * bn.running_var + mom * v.data.reshape(c).astype(
        bn.running_var.dtype
    )
    return _affine(_normalize(xc, v, BN_EPS), bn.gamma, bn.beta)
