"""Normalization layers over channels-last (B, H, W, C) feature maps.

Every norm is one autodiff node in both modes: train-mode batch norm and
layer norm with the closed-form backward of Ioffe & Szegedy
(arXiv:1502.03167), and eval-mode batch norm as a per-channel scale and
shift. Each views the map as (N, C) and takes every per-channel sum (over
the N rows) and every per-row sum (over the C channels) as one
matrix-vector product against a ones vector: numpy's reductions over the
leading axes of a map with few channels run several times slower than BLAS.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conv import conv2d
from .init import ones_param, zeros_param
from .tensor import Tensor, _check_vectors, _coerce, _guard_finite, _make

BN_MOMENTUM = 0.1
BN_EPS = 1e-5
LN_EPS = 1e-5


def _fused_norm(x: Tensor, gamma: Tensor, beta: Tensor, per_channel: bool, eps: float, op: str):
    """``(x - mean) / sqrt(var + eps) * gamma + beta`` as one autodiff node.

    ``x`` is viewed as (N, C); the statistics run per channel over the N rows
    (``per_channel``, batch norm) or per row over the C channels (layer
    norm). Returns the output with the mean and the variance. A non-finite
    statistic raises ``FloatingPointError``.
    """
    x = _coerce(x)
    c = x.shape[-1]
    _check_vectors((gamma, beta), c, x.dtype, op)
    x2 = x.data.reshape(-1, c)
    ones_n, ones_c = np.ones(x2.shape[0], x2.dtype), np.ones(c, x2.dtype)
    if per_channel:
        n, total = x2.shape[0], lambda a: ones_n @ a
    else:
        n, total = c, lambda a: (a @ ones_c)[:, None]
    m = total(x2) / n
    with np.errstate(over="ignore", invalid="ignore"):
        xhat = x2 - m
        v = total(xhat * xhat) / n
        std = np.sqrt(v + eps)
    rstd = 1.0 / _guard_finite(std, op)
    xhat *= rstd
    out = xhat * gamma.data
    out += beta.data

    def backward(g):
        g2 = g.reshape(x2.shape)
        gx = g2 * xhat
        dgamma, dbeta = ones_n @ gx, ones_n @ g2
        # dx = rstd (gh - mean(gh) - x-hat mean(gh x-hat)) over the normalized
        # axis, where gh = g gamma is the gradient at x-hat
        gh = g2 * gamma.data
        if per_channel:  # gamma is constant down a column: reuse the parameter sums
            sum_gh, sum_ghx = gamma.data * dbeta, gamma.data * dgamma
        else:
            gx *= gamma.data
            sum_gh, sum_ghx = total(gh), total(gx)
        np.multiply(xhat, sum_ghx / n, out=gx)
        gx += sum_gh / n
        gh -= gx
        gh *= rstd
        return gh.reshape(x.shape), dgamma, dbeta

    return _make(out.reshape(x.shape), (x, gamma, beta), backward, op), m, v


def layer_norm_channels(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize each spatial position across its channel vector."""
    return _fused_norm(x, gamma, beta, False, LN_EPS, "layer_norm_channels")[0]


@dataclass
class BatchNorm2d:
    """Affine batch norm state; running stats are buffers, not parameters."""

    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray


def make_batch_norm(channels: int) -> BatchNorm2d:
    """Identity batch norm in the default dtype, running buffers included."""
    gamma, beta = ones_param(channels), zeros_param(channels)
    return BatchNorm2d(gamma, beta, np.zeros_like(beta.data), np.ones_like(gamma.data))


def batch_norm(x: Tensor, bn: BatchNorm2d) -> Tensor:
    """Training-mode batch norm over (batch, height, width) per channel.

    Normalizes with (differentiable) batch statistics and updates the running
    buffers as a side effect. Inference-mode batch norm is the eval branch of
    :func:`conv_bn`.
    """
    y, m, v = _fused_norm(x, bn.gamma, bn.beta, True, BN_EPS, "batch_norm")
    mom = BN_MOMENTUM
    bn.running_mean = (1 - mom) * bn.running_mean + mom * m.astype(bn.running_mean.dtype)
    bn.running_var = (1 - mom) * bn.running_var + mom * v.astype(bn.running_var.dtype)
    return y


def _running_norm(y: Tensor, bn: BatchNorm2d) -> Tensor:
    """Inference batch norm as one autodiff node: ``y * scale + shift`` per
    channel, with ``scale = gamma / sqrt(running_var + eps)`` and ``shift =
    beta - running_mean * scale``, in ``y``'s dtype.

    The running buffers are constants, so rows of a batch stay independent
    and the gradient reaches ``y``, gamma and beta only. A non-finite scale
    (a negative running variance, say) raises ``FloatingPointError``.
    """
    op = "batch_norm_eval"
    c = y.shape[-1]
    _check_vectors((bn.gamma, bn.beta), c, y.dtype, op)
    rm = bn.running_mean.astype(y.dtype, copy=False)
    rv = bn.running_var.astype(y.dtype, copy=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / np.sqrt(rv + BN_EPS)
    _guard_finite(inv, op)
    scale = bn.gamma.data * inv
    shift = bn.beta.data - rm * scale
    out = y.data * scale
    out += shift

    def backward(g):
        g2 = g.reshape(-1, c)
        ones = np.ones(g2.shape[0], g2.dtype)
        dbeta = ones @ g2
        dgamma = inv * (ones @ (g2 * y.data.reshape(-1, c)) - rm * dbeta)
        return g * scale, dgamma, dbeta

    return _make(out, (y, bn.gamma, bn.beta), backward, op)


def conv_bn(
    x: Tensor, w: Tensor, bn: BatchNorm2d, train: bool,
    stride: int = 1, padding: int = 0, groups: int = 1,
) -> Tensor:
    """``conv2d`` with no bias, which the batch mean would cancel, then batch
    norm over its output channels.

    Training mode normalizes with batch statistics (:func:`batch_norm`).
    Inference mode uses the running buffers (:func:`_running_norm`): one
    per-channel ``scale`` and ``shift`` on the conv's output. Folding
    ``scale`` into the kernel (``w * scale``) would allocate a kernel-sized
    temporary on every call; on eval-T224 that left peak RSS bimodal from run
    to run under glibc malloc (131-139 MB or 170-178 MB), where this form
    stays at 131-139 MB.
    """
    y = conv2d(x, w, stride=stride, padding=padding, groups=groups)
    return batch_norm(y, bn) if train else _running_norm(y, bn)
