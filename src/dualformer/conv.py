"""2-d convolution (cross-correlation) over channels-last maps.

Activations are (B, H, W, C); kernels are OIHW. Kernels are applied without
flipping. Only dense (groups=1) and depthwise (groups == in_channels)
layouts are supported. Dense convs run as one matmul over windows read
through a strided view of one zero-bordered copy of the map, tap-major
(kh, kw, C) where the map outweighs the kernel, so each window copies in
runs of kw*C contiguous values; a 1x1 kernel uses the map itself as the
columns. Depthwise convs shift and add over the kernel taps, forward and
backward, so nothing here loops per pixel: each tap's (C,) weights are
tiled to a (wo, C) row, so at stride 1 one multiply of the forward runs a
whole contiguous output row, and the forward's taps run over blocks of
output rows sized to stay in a core's L2 cache, through one reused product
buffer. The depthwise backward multiplies the whole gradient map by one
tap's (C,) weights at a time. Every depthwise output and ``dx`` element
still sums its taps in kernel order.

The array math is two stages, :func:`_dense` and :func:`_depthwise`, each
returning ``(out, backward)``. :func:`conv2d` wraps them as one autodiff
node; eval-mode ``norms.conv_bn`` and the MBConv and FFN nodes in ``blocks``
call them directly.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import ShapeError, Tensor, _channel_sum, _check_vectors, _coerce, _make

# bytes of one block of output rows in the depthwise stage; the block, its
# product buffer and the input rows it reads stay within a core's L2 (2 MiB)
_BLOCK_BYTES = 1 << 19


def conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    eff = size + 2 * padding
    if kernel > eff:
        raise ShapeError(
            f"conv2d: kernel {kernel} exceeds padded input extent {eff}"
        )
    return (eff - kernel) // stride + 1


def _pad(x: np.ndarray, padding: int) -> np.ndarray:
    """A C-contiguous copy of ``x[B,H,W,C]`` inside a zero border ``padding``
    wide on both spatial axes; only the border is zeroed."""
    if padding == 0:
        return np.ascontiguousarray(x)
    B, H, W, C = x.shape
    p = padding
    xp = np.empty((B, H + 2 * p, W + 2 * p, C), x.dtype)
    xp[:, :p] = 0
    xp[:, p + H :] = 0
    xp[:, p : p + H, :p] = 0
    xp[:, p : p + H, p + W :] = 0
    xp[:, p : p + H, p : p + W] = x
    return xp


def _dense(x: np.ndarray, w: np.ndarray, stride: int, padding: int, need_dx: bool,
           start: np.ndarray | None = None):
    """Dense conv of ``x[B,H,W,C]`` with ``w[O,C,kh,kw]``, on arrays: one
    matmul over the windows, plus ``start`` (a (O,) bias) when given.
    Returns ``(out, backward)``; ``backward(g)`` gives ``(dx, dw)``, with
    ``dx`` None unless ``need_dx``.

    Windows are tap-major, (kh, kw, C), when there are at least as many
    output pixels as output channels: each kernel row of a window is then kw*C
    contiguous values of the zero-bordered map, and the copy saved outweighs
    reordering the kernel forward and ``dw`` back. Otherwise they are
    (C, kh, kw), the kernel's own order.
    """
    B, H, W, C = x.shape
    O, _, kh, kw = w.shape
    ho = conv_out_size(H, kh, stride, padding)
    wo = conv_out_size(W, kw, stride, padding)
    pointwise = kh == kw == 1 and stride == 1 and padding == 0
    tap_major = not pointwise and B * ho * wo >= O
    if pointwise:
        cols = x.reshape(B * H * W, C)
    else:
        xp = _pad(x, padding)
        # strides from the shape: numpy may report any stride for an axis of length 1
        sc = xp.itemsize
        sw = C * sc
        sh = xp.shape[2] * sw
        lead = (xp.shape[1] * sh, stride * sh, stride * sw)
        if tap_major:
            win = as_strided(xp, (B, ho, wo, kh, kw * C), lead + (sh, sc), writeable=False)
        else:
            win = as_strided(xp, (B, ho, wo, C, kh, kw), lead + (sc, sh, sw), writeable=False)
        cols = win.reshape(B * ho * wo, C * kh * kw)
    w2 = (w.transpose(0, 2, 3, 1) if tap_major else w).reshape(O, C * kh * kw)
    out = (cols @ w2.T).reshape(B, ho, wo, O)
    if start is not None:
        out += start

    # like matmul, a constant input (the image at the stem) costs no dx
    def backward(g):
        g2 = g.reshape(B * ho * wo, O)
        dw = g2.T @ cols
        if tap_major:
            dw = np.ascontiguousarray(dw.reshape(O, kh, kw, C).transpose(0, 3, 1, 2))
        else:
            dw = dw.reshape(w.shape)
        if not need_dx:
            return None, dw
        dcols = g2 @ w2
        if pointwise:
            return dcols.reshape(x.shape), dw
        dxp = np.zeros_like(xp)
        if tap_major:
            # the forward's window view, over dx: row u of the windows of
            # every m-th output column covers kw*C contiguous values that no
            # other window of the group touches, so a group adds in one pass
            dwin = as_strided(dxp, win.shape, win.strides)
            dcols = dcols.reshape(win.shape)
            m = -(-kw // stride)
            for u in range(kh):
                for r in range(m):
                    dwin[:, :, r::m, u] += dcols[:, :, r::m, u]
        else:
            dcols = dcols.reshape(B, ho, wo, C, kh, kw)
            for u in range(kh):
                for v in range(kw):
                    dxp[:, u : u + stride * ho : stride, v : v + stride * wo : stride] += \
                        dcols[..., u, v]
        dx = dxp[:, padding : padding + H, padding : padding + W]
        return np.ascontiguousarray(dx), dw

    return out, backward


def _row_block(rows: int, row_bytes: int) -> int:
    """Rows per block of a map of ``rows`` rows of ``row_bytes`` each: blocks
    of ``_BLOCK_BYTES``, or one block when the whole map is at most twice
    that, where splitting it only adds calls."""
    if rows * row_bytes <= 2 * _BLOCK_BYTES:
        return rows
    return max(1, _BLOCK_BYTES // row_bytes)


def _depthwise(x: np.ndarray, w: np.ndarray, stride: int, padding: int,
               need_dx: bool, start: np.ndarray | None = None):
    """Depthwise conv of ``x[B,H,W,C]`` with ``w[C,1,kh,kw]``, on arrays.

    Each output element is its kernel taps summed in (u, v) order, with
    ``start`` (a (C,) vector, when given) added to the first tap's product.
    Returns ``(out, backward)``; ``backward(g)`` gives ``(dx, dw)``, with
    ``dx`` None unless ``need_dx``.
    """
    B, H, W, C = x.shape
    kh, kw = w.shape[2:]
    ho = conv_out_size(H, kh, stride, padding)
    wo = conv_out_size(W, kw, stride, padding)
    xp = _pad(x, padding)
    wd = np.ascontiguousarray(w.reshape(C, kh * kw).T)  # tap t is (u, v) = divmod(t, kw)
    rows = np.tile(wd[:, None, :], (1, wo, 1))  # each tap's weights as one output row
    block = _row_block(ho, B * wo * C * x.itemsize)
    buf = np.empty((B, block, wo, C), x.dtype)
    out = np.empty((B, ho, wo, C), x.dtype)
    for i0 in range(0, ho, block):
        i1 = min(ho, i0 + block)
        acc, prod = out[:, i0:i1], buf[:, : i1 - i0]
        for t in range(kh * kw):
            u, v = divmod(t, kw)
            src = xp[:, u + stride * i0 : u + stride * i1 : stride, v : v + stride * wo : stride]
            if t == 0:
                np.multiply(src, rows[0], out=acc)
                if start is not None:
                    acc += start
            else:
                acc += np.multiply(src, rows[t], out=prod)

    def backward(g):
        dwd = np.empty_like(wd)
        for t in range(kh * kw):
            u, v = divmod(t, kw)
            sl = xp[:, u : u + stride * ho : stride, v : v + stride * wo : stride]
            dwd[t] = np.einsum("bijc,bijc->c", g, sl)
        dw = dwd.T.reshape(w.shape)
        if not need_dx:
            return None, dw
        dxp = np.zeros_like(xp)
        for t in range(kh * kw):
            u, v = divmod(t, kw)
            dxp[:, u : u + stride * ho : stride, v : v + stride * wo : stride] += g * wd[t]
        dx = dxp[:, padding : padding + H, padding : padding + W]
        return np.ascontiguousarray(dx), dw

    return out, backward


def _stage(op: str, x: Tensor, w: Tensor, stride: int, padding: int, groups: int):
    """The conv stage, :func:`_dense` or :func:`_depthwise`, that correlates
    ``x`` with ``w`` at ``groups``, once their shapes and the stride and
    padding are checked."""
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"{op}: expected 4-d input and kernel, got {x.shape} and {w.shape}")
    if stride < 1 or padding < 0:
        raise ShapeError(f"{op}: bad stride/padding ({stride}, {padding})")
    C = x.shape[-1]
    O, Cg = w.shape[:2]
    if groups == 1:
        if Cg != C:
            raise ShapeError(f"{op}: kernel expects {Cg} channels, input has {C}")
        return _dense
    if groups == C:
        if Cg != 1 or O != C:
            raise ShapeError(f"{op}: depthwise kernel must be [{C},1,kh,kw], got {w.shape}")
        return _depthwise
    raise ShapeError(f"{op}: groups={groups} unsupported (use 1 or channels={C})")


def conv2d(x, w, b=None, stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """Correlate ``x[B,H,W,C]`` with ``w[O,C/groups,kh,kw]``.

    ``groups`` must be 1 (dense) or equal to the channel count (depthwise,
    where ``w`` has shape ``[C,1,kh,kw]``). A bias ``b[O]`` in ``x``'s dtype,
    when given, is added per output channel in place, in the conv's own node.
    """
    x, w = _coerce(x), _coerce(w)
    stage = _stage("conv2d", x, w, stride, padding, groups)
    if b is not None:
        b = _coerce(b)
        _check_vectors((b,), w.shape[0], x.dtype, "conv2d")
    out, grads = stage(x.data, w.data, stride, padding, x.requires_grad)
    if b is None:
        return _make(out, (x, w), grads, "conv2d")
    out += b.data

    def backward(g):
        return (*grads(g), _channel_sum(g))

    return _make(out, (x, w, b), backward, "conv2d")
