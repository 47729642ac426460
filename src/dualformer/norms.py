"""Normalization layers over channels-last (B, H, W, C) feature maps.

Every norm is one autodiff node in both modes: layer norm, and batch norm
after a conv (:func:`conv_bn`), with the closed-form backward of Ioffe &
Szegedy (arXiv:1502.03167) on batch statistics in training and folded into
the conv in inference. Each views the map as (N, C) and takes every
per-channel sum (over the N rows) and every per-row sum (over the C
channels) as one matrix-vector product against a ones vector: numpy's
reductions over the leading axes of a map with few channels run several
times slower than BLAS. The array math is shared with the MBConv node:
:func:`_normalize`, the running buffers' :func:`_running_affine`, and
:func:`_conv_norm`, a conv stage then batch norm, folded into the conv in
eval.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conv import _stage
from .init import ones_param, zeros_param
from .tensor import Tensor, _channel_sum, _check_fit, _coerce, _guard_finite, _make

BN_MOMENTUM = 0.1
BN_EPS = 1e-5
LN_EPS = 1e-5


def _normalize(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, per_channel: bool,
               eps: float, op: str):
    """``(x - mean) / sqrt(var + eps) * gamma + beta`` on arrays.

    ``x`` is viewed as (N, C); the statistics run per channel over the N rows
    (``per_channel``, batch norm) or per row over the C channels (layer
    norm). Returns ``(out, backward, mean, var)``; ``backward(g)`` gives the
    gradients at ``x``, ``gamma`` and ``beta``. A non-finite statistic raises
    ``FloatingPointError``.
    """
    c = x.shape[-1]
    x2 = x.reshape(-1, c)
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
    out = xhat * gamma
    out += beta

    def backward(g):
        g2 = g.reshape(x2.shape)
        gx = g2 * xhat
        dgamma, dbeta = ones_n @ gx, ones_n @ g2
        # dx = rstd (gh - mean(gh) - x-hat mean(gh x-hat)) over the normalized
        # axis, where gh = g gamma is the gradient at x-hat
        gh = g2 * gamma
        if per_channel:  # gamma is constant down a column: reuse the parameter sums
            sum_gh, sum_ghx = gamma * dbeta, gamma * dgamma
        else:
            gx *= gamma
            sum_gh, sum_ghx = total(gh), total(gx)
        np.multiply(xhat, sum_ghx / n, out=gx)
        gx += sum_gh / n
        gh -= gx
        gh *= rstd
        return gh.reshape(x.shape), dgamma, dbeta

    return out.reshape(x.shape), backward, m, v


def _fused_norm(x: Tensor, gamma: Tensor, beta: Tensor, per_channel: bool, eps: float, op: str):
    """:func:`_normalize` as one autodiff node over (x, gamma, beta); returns
    the output with the mean and the variance."""
    x = _coerce(x)
    c = x.shape[-1:]
    _check_fit(op, x.dtype, ((gamma, c), (beta, c)))
    out, backward, m, v = _normalize(x.data, gamma.data, beta.data, per_channel, eps, op)
    return _make(out, (x, gamma, beta), backward, op), m, v


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
    buffers as a side effect. The model's batch norms run in this op order
    inside :func:`conv_bn` and MBConv's node, through :func:`_conv_norm`.
    """
    y, m, v = _fused_norm(x, bn.gamma, bn.beta, True, BN_EPS, "batch_norm")
    _update_running(bn, m, v)
    return y


def _update_running(bn: BatchNorm2d, m: np.ndarray, v: np.ndarray) -> None:
    """Move the running buffers toward one batch's mean and variance."""
    mom = BN_MOMENTUM
    bn.running_mean = (1 - mom) * bn.running_mean + mom * m.astype(bn.running_mean.dtype)
    bn.running_var = (1 - mom) * bn.running_var + mom * v.astype(bn.running_var.dtype)


def _running_affine(bn: BatchNorm2d, dtype, op: str):
    """Inference batch norm as per-channel arrays in ``dtype``: ``(scale,
    shift, inv, rm)`` with ``inv = 1 / sqrt(running_var + eps)``, ``scale =
    gamma * inv`` and ``shift = beta - rm * scale``, ``rm`` the running mean.

    The caller has checked gamma and beta against its map. A non-finite
    ``inv`` (a negative running variance, say) raises ``FloatingPointError``.
    """
    rm = bn.running_mean.astype(dtype, copy=False)
    rv = bn.running_var.astype(dtype, copy=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / np.sqrt(rv + BN_EPS)
    _guard_finite(inv, op)
    scale = bn.gamma.data * inv
    return scale, bn.beta.data - rm * scale, inv, rm


def _conv_norm(conv, x: np.ndarray, w: Tensor, bn: BatchNorm2d, train: bool, op: str):
    """A conv stage, then batch norm over its output channels, on arrays.

    ``conv(x, w, start)`` is a stage of ``conv`` that returns ``(out,
    backward)``, adding the (O,) ``start`` to its output. Training mode
    normalizes the bias-free conv with batch statistics and moves the
    running buffers, in :func:`batch_norm`'s op order. Inference mode folds
    the norm into the conv: the kernel is ``w * scale`` per output channel,
    O·C·kh·kw multiplies, and ``shift`` is the start. Returns ``(out, backward)``; ``backward(g)`` gives the
    gradients at ``x``, ``w``, gamma and beta. The caller checks the tensors.
    """
    if train:
        y, conv_backward = conv(x, w.data, None)
        out, norm_backward, m, v = _normalize(y, bn.gamma.data, bn.beta.data, True, BN_EPS, op)
        _update_running(bn, m, v)

        def backward(g):
            dy, dgamma, dbeta = norm_backward(g)
            return (*conv_backward(dy), dgamma, dbeta)

        return out, backward
    c = w.shape[0]
    scale, shift, inv, rm = _running_affine(bn, x.dtype, op)
    per_out = scale.reshape((c,) + (1,) * (w.ndim - 1))
    out, conv_backward = conv(x, w.data * per_out, shift)

    def backward(g):
        # the chain rule through w * scale and shift; a zero gamma divides nothing
        dx, dw_folded = conv_backward(g)
        dbeta = _channel_sum(g)
        dscale = (dw_folded * w.data).reshape(c, -1).sum(axis=1)
        return dx, dw_folded * per_out, inv * (dscale - rm * dbeta), dbeta

    return out, backward


def conv_bn(
    x: Tensor, w: Tensor, bn: BatchNorm2d, train: bool, stride: int = 1, padding: int = 0,
) -> Tensor:
    """A dense conv with no bias, which the batch mean would cancel, then
    batch norm over its output channels: the stem and the stage transitions.

    One ``conv_bn`` node over (x, w, gamma, beta) in both modes, built by
    :func:`_conv_norm` as MBConv's node builds its own: training mode runs
    :func:`batch_norm`'s op order on batch statistics, and inference folds
    the norm into the kernel. That fold writes a fresh kernel per call, at
    the last transition larger than the output map, so it leans on the
    package's allocator policy (``__init__``) to keep peak RSS steady.
    """
    x, w = _coerce(x), _coerce(w)
    stage, shape = _stage("conv_bn", x, w, stride, padding, 1)
    _check_fit("conv_bn", x.dtype, ((w, shape), (bn.gamma, shape[:1]), (bn.beta, shape[:1])))
    conv = lambda a, k, start: stage(a, k, stride, padding, x.requires_grad, start)
    out, backward = _conv_norm(conv, x.data, w, bn, train, "conv_bn")
    return _make(out, (x, w, bn.gamma, bn.beta), backward, "conv_bn")
