"""2-d convolution (cross-correlation) over channels-last maps.

Activations are (B, H, W, C); kernels are OIHW. Kernels are applied without
flipping. Only dense (groups=1) and depthwise (groups == in_channels)
layouts are supported. Dense convs run as one matmul over (C, kh, kw)
windows, which is already the order of ``w.reshape(O, -1)``; a 1x1 kernel
uses the map itself as the columns. Depthwise convs shift and add over the
kernel taps, forward and backward, so nothing here loops per pixel.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import ShapeError, Tensor, _check_vectors, _coerce, _make


def conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    eff = size + 2 * padding
    if kernel > eff:
        raise ShapeError(
            f"conv2d: kernel {kernel} exceeds padded input extent {eff}"
        )
    return (eff - kernel) // stride + 1


def conv2d(x, w, b=None, stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """Correlate ``x[B,H,W,C]`` with ``w[O,C/groups,kh,kw]``.

    ``groups`` must be 1 (dense) or equal to the channel count (depthwise,
    where ``w`` has shape ``[C,1,kh,kw]``). A bias ``b[O]`` in ``x``'s dtype,
    when given, is added per output channel in place, in the conv's own node.
    """
    x, w = _coerce(x), _coerce(w)
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d: expected 4-d input and kernel, got {x.shape} and {w.shape}")
    if stride < 1 or padding < 0:
        raise ShapeError(f"conv2d: bad stride/padding ({stride}, {padding})")
    B, H, W, C = x.shape
    O, Cg, kh, kw = w.shape
    if groups == 1:
        if Cg != C:
            raise ShapeError(f"conv2d: kernel expects {Cg} channels, input has {C}")
    elif groups == C:
        if Cg != 1 or O != C:
            raise ShapeError(f"conv2d: depthwise kernel must be [{C},1,kh,kw], got {w.shape}")
    else:
        raise ShapeError(f"conv2d: groups={groups} unsupported (use 1 or channels={C})")
    if b is not None:
        b = _coerce(b)
        _check_vectors((b,), O, x.dtype, "conv2d")
    ho = conv_out_size(H, kh, stride, padding)
    wo = conv_out_size(W, kw, stride, padding)
    pointwise = kh == kw == 1 and stride == 1 and padding == 0
    xp = x.data if pointwise else np.pad(
        x.data, ((0, 0), (padding, padding), (padding, padding), (0, 0))
    )
    # input pixels that kernel tap (u, v) reads, one per output pixel
    taps = [
        (slice(None), slice(u, u + stride * ho, stride), slice(v, v + stride * wo, stride))
        for u in range(kh)
        for v in range(kw)
    ]

    if groups == 1:
        if pointwise:
            cols = xp.reshape(B * H * W, C)
        else:
            win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
            cols = win.reshape(B * ho * wo, C * kh * kw)  # (C, kh, kw) per row
        w2 = w.data.reshape(O, C * kh * kw)
        out = (cols @ w2.T).reshape(B, ho, wo, O)

        # like matmul, a constant input (the image at the stem) costs no dx
        def grads(g):
            g2 = g.reshape(B * ho * wo, O)
            dw = (g2.T @ cols).reshape(w.shape)
            if not x.requires_grad:
                return None, dw
            dcols = g2 @ w2
            if pointwise:
                return dcols.reshape(x.shape), dw
            dcols = dcols.reshape(B, ho, wo, C, kh * kw)
            dxp = np.zeros_like(xp)
            for t, sl in enumerate(taps):
                dxp[sl] += dcols[..., t]
            dx = dxp[:, padding : padding + H, padding : padding + W]
            return np.ascontiguousarray(dx), dw
    else:
        wd = np.ascontiguousarray(w.data.reshape(C, kh * kw).T)  # (kh*kw, C)
        out = xp[taps[0]] * wd[0]
        for t in range(1, kh * kw):
            out += xp[taps[t]] * wd[t]

        def grads(g):
            dwd = np.empty_like(wd)
            for t, sl in enumerate(taps):
                dwd[t] = np.einsum("bijc,bijc->c", g, xp[sl])
            dw = dwd.T.reshape(w.shape)
            if not x.requires_grad:
                return None, dw
            dxp = np.zeros_like(xp)
            for t, sl in enumerate(taps):
                dxp[sl] += g * wd[t]
            dx = dxp[:, padding : padding + H, padding : padding + W]
            return np.ascontiguousarray(dx), dw

    if b is None:
        return _make(out, (x, w), grads, "conv2d")
    out += b.data

    def backward(g):
        return (*grads(g), g.sum(axis=(0, 1, 2)))

    return _make(out, (x, w, b), backward, "conv2d")
