"""Normalization layers over channels-last (B, H, W, C) feature maps."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conv import conv2d
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


def batch_norm(x: Tensor, bn: BatchNorm2d) -> Tensor:
    """Training-mode batch norm over (batch, height, width) per channel.

    Normalizes with (differentiable) batch statistics and updates the running
    buffers as a side effect. Inference-mode batch norm is the eval branch of
    :func:`conv_bn`.
    """
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


def conv_bn(
    x: Tensor, w: Tensor, bn: BatchNorm2d, train: bool,
    stride: int = 1, padding: int = 0, groups: int = 1,
) -> Tensor:
    """``conv2d`` with no bias, which the batch mean would cancel, then batch
    norm over its output channels.

    Training mode normalizes with batch statistics (:func:`batch_norm`).
    Inference mode uses the running buffers as constants, so rows of a batch
    stay independent and the norm is one per-channel ``scale`` and ``shift``
    on the conv's output, built from (C,) tensors so gamma and beta keep
    their gradients. Folding ``scale`` into the kernel (``w * scale``) would
    allocate a kernel-sized temporary on every call; on eval-T224 that left
    peak RSS bimodal from run to run under glibc malloc (131-139 MB or
    170-178 MB), where this form stays at 131-139 MB.
    """
    y = conv2d(x, w, stride=stride, padding=padding, groups=groups)
    if train:
        return batch_norm(y, bn)
    rm = constant(bn.running_mean, dtype=x.dtype)
    rv = constant(bn.running_var, dtype=x.dtype)
    scale = bn.gamma * (1.0 / tsqrt(rv + BN_EPS))
    return _affine(y, scale, bn.beta - rm * scale)
