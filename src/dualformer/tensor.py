"""Dense tensors with reverse-mode automatic differentiation.

Storage is a C-contiguous numpy array; the graph is recorded per output
tensor as an op node holding the parent tensors and a backward closure.
``Tensor.backward()`` walks the graph in reverse topological order and
accumulates gradients into leaves that require them.

Broadcasting is deliberately restricted: elementwise binary ops accept
exactly-matching shapes or a scalar (one element) paired with a tensor.
Anything else raises ``ShapeError``. A layout change is one :func:`transpose`
node, which may view its input and its output under new shapes. A conv adds
its bias in its own node; :func:`add_bias` adds the classifier head's along
the last axis. Matmul follows numpy's batched semantics on leading axes.

Softmax checks its output and raises ``FloatingPointError`` instead of
letting NaN/Inf propagate. The closed-form nodes that other modules build
with :func:`_make` (the norms, the intra-partition step, the loss) guard
their divisors and outputs the same way, through :func:`_guard_finite`.
"""
from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from . import precision


class ShapeError(ValueError):
    """Operand shapes violate the documented shape algebra."""


class GraphError(RuntimeError):
    """Autodiff graph misuse (non-scalar loss, backward without graph, ...)."""


_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording (inference fast path)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class OpNode:
    """Record of one forward op: name, parent tensors, backward closure."""

    __slots__ = ("name", "parents", "backward_fn")

    def __init__(self, name, parents, backward_fn):
        self.name = name
        self.parents = parents
        self.backward_fn = backward_fn


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype or precision.default_dtype())
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _wrap(data: np.ndarray, requires_grad: bool, node: OpNode | None) -> "Tensor":
        t = Tensor.__new__(Tensor)
        t.data = data
        t.requires_grad = requires_grad
        t.grad = None
        t._node = node
        return t

    # -- basic introspection --------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"

    # -- backward -------------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar loss.

        Gradients accumulate into ``.grad`` of every leaf tensor with
        ``requires_grad``; each leaf receives exactly one accumulated write
        per call, so calling backward twice doubles leaf gradients.
        """
        if self.data.size != 1:
            raise GraphError(f"backward() needs a scalar loss, got shape {self.shape}")
        if self._node is None and not self.requires_grad:
            raise GraphError("backward() on a constant with no graph")

        topo = _topo_order(self)
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for t in reversed(topo):
            g = grads.pop(id(t), None)
            if g is None:
                continue
            node = t._node
            if node is None:
                if t.requires_grad:
                    t.grad = np.array(g) if t.grad is None else t.grad + g
                continue
            parent_grads = node.backward_fn(g)
            for p, pg in zip(node.parents, parent_grads):
                if pg is None or not p.requires_grad:
                    continue
                acc = grads.get(id(p))
                grads[id(p)] = pg if acc is None else acc + pg

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    # numpy must not hijack `ndarray op Tensor`
    __array_ufunc__ = None

    def sum(self):
        return tsum(self)


def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative DFS post-order; deep graphs must not hit the recursion limit."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            order.append(t)
            continue
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.append((t, True))
        if t._node is not None:
            for p in t._node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
    return order


def graph_records(root: Tensor):
    """Flat view of the graph below ``root`` as (op, input_ids, output_id).

    Topologically ordered: every input id appears as an output id earlier in
    the list or belongs to a leaf. Graph-shape tests read it, and the
    benchmark's tracer counts ``eval_graph_nodes`` with it.
    """
    records = []
    for t in _topo_order(root):
        if t._node is not None:
            records.append((t._node.name, tuple(id(p) for p in t._node.parents), id(t)))
    return records


# -- op plumbing ----------------------------------------------------------


def _recording(parents) -> bool:
    """Whether an op over ``parents`` records a graph node."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _make(out_data, parents, backward_fn, name) -> Tensor:
    req = _recording(parents)
    node = OpNode(name, parents, backward_fn) if req else None
    return Tensor._wrap(out_data, req, node)


def constant(data, dtype=None) -> Tensor:
    """Wrap raw data as a non-differentiable tensor."""
    return Tensor(data, requires_grad=False, dtype=dtype)


def _coerce(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if isinstance(x, (int, float, np.integer, np.floating)):
        dt = like.dtype if like is not None else precision.default_dtype()
        return Tensor._wrap(np.asarray(x, dtype=dt), False, None)
    raise TypeError(
        f"expected Tensor or scalar, got {type(x).__name__}; wrap arrays with constant()"
    )


def _coerce_pair(a, b) -> tuple[Tensor, Tensor]:
    if isinstance(a, Tensor):
        a2, b2 = a, _coerce(b, like=a)
    else:
        b2 = _coerce(b)
        a2 = _coerce(a, like=b2)
    if a2.dtype != b2.dtype:
        raise TypeError(f"mixed dtypes: {a2.dtype} vs {b2.dtype}")
    return a2, b2


def _check_elementwise(sa, sb, op: str) -> None:
    if sa == sb or math.prod(sa) == 1 or math.prod(sb) == 1:
        return
    raise ShapeError(
        f"{op}: shapes {sa} and {sb} do not combine; only exact matches and scalars do"
    )


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient back down to the operand's shape."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _check_fit(op: str, dtype, fits) -> None:
    """Each ``(tensor, shape)`` of ``fits`` must have that shape, else
    ``ShapeError``, and ``dtype``, which mixing it in would promote or round,
    else ``TypeError``."""
    for t, shape in fits:
        if t.shape != shape:
            raise ShapeError(f"{op}: shape {t.shape} does not fit, {shape} expected")
        if t.dtype != dtype:
            raise TypeError(f"{op}: mixed dtypes: {dtype} vs {t.dtype}")


def _channel_sum(g: np.ndarray) -> np.ndarray:
    """``g`` summed over every axis but the last, as one matrix-vector
    product against a ones vector: numpy's reduction over the leading axes of
    a map with few channels runs many times slower than BLAS."""
    c = g.shape[-1]
    return np.ones(g.size // c, g.dtype) @ g.reshape(-1, c)


def _guard_finite(arr: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"{op} produced non-finite values")
    return arr


# -- elementwise arithmetic -------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    _check_elementwise(a.shape, b.shape, "add")
    out = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(out, (a, b), backward, "add")


def mul(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    _check_elementwise(a.shape, b.shape, "mul")
    out = a.data * b.data

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(out, (a, b), backward, "mul")


# -- elementwise functions ----------------------------------------------------


def sigmoid(a) -> Tensor:
    a = _coerce(a)
    x = a.data
    # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, as exp(min(x, 0)) over
    # 1 + exp(-|x|), so exp never overflows. Branch-free: selecting on the
    # sign with np.where took 1.8 ms on a (3136, 64) float32 map of random
    # signs, six times the two exps
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    e += 1.0
    out = np.minimum(x, 0.0)
    np.exp(out, out=out)
    out /= e

    def backward(g):
        dx = g * out
        dx *= 1.0 - out
        return (dx,)

    return _make(out, (a,), backward, "sigmoid")


_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715
_GELU_SAT = 1e4  # far past where the sigmoid of the GELU argument is exactly 0 or 1
# elements per GELU chunk: its input, sigmoid and output stay in a core's L2
_GELU_CHUNK = 1 << 15


def _gelu(x: np.ndarray, keep: bool, owned: bool):
    """GELU's array stage, ``gelu(x) = x * sigmoid(2u)``: ``(out, backward)``.

    The passes run over chunks of ``_GELU_CHUNK`` elements, so each stays in
    cache. With ``keep`` the sigmoid is kept whole and ``backward(g)`` gives
    the gradient at ``x``; without it ``backward`` is None, the sigmoid fills
    one chunk-sized buffer, and ``out`` is written over ``x`` when the caller
    ``owned`` it.
    """
    n = x.size
    out = x if owned and not keep else np.empty(x.shape, x.dtype)
    s = np.empty(n if keep else min(n, _GELU_CHUNK), x.dtype)
    xf, of = x.reshape(-1), out.reshape(-1)
    # -2u = x (-2c - 2cA x^2) by multiplies (float32 ``x**3`` takes numpy's
    # slow pow loop), in one buffer that becomes the sigmoid in place. x^2
    # overflows for huge |x|, but the sigmoid saturates to the right limit.
    with np.errstate(over="ignore"):
        for i in range(0, n, _GELU_CHUNK):
            j = min(n, i + _GELU_CHUNK)
            xc = xf[i:j]
            sc = s[i:j] if keep else s[:j - i]
            np.multiply(xc, xc, out=sc)
            sc *= -2.0 * _GELU_C * _GELU_A
            sc -= 2.0 * _GELU_C
            sc *= xc
            np.exp(sc, out=sc)
            sc += 1.0
            np.reciprocal(sc, out=sc)
            np.multiply(xc, sc, out=of[i:j])
    if not keep:
        return out, None
    s = s.reshape(x.shape)

    def backward(g):
        # d/dx = s (1 + (1 - s) * 2c x (1 + 3A x^2)). Clamped so the
        # polynomial cannot overflow into 0 * inf: past the clamp s(1 - s) is
        # exactly zero in float32 and float64 alike.
        xc = np.clip(x, -_GELU_SAT, _GELU_SAT)
        dx = xc * xc
        dx *= 6.0 * _GELU_C * _GELU_A
        dx += 2.0 * _GELU_C
        dx *= xc
        dx *= 1.0 - s
        dx += 1.0
        dx *= s
        dx *= g
        return dx

    return out, backward


def gelu(a) -> Tensor:
    """Smooth GELU, ``0.5 x (1 + tanh(u))`` with ``u = c (x + A x^3)``, in its
    sigmoid form ``x * sigmoid(2u)`` (:func:`_gelu`); forward and backward
    share the sigmoid.

    The sigmoid form keeps float32 relative accuracy for negative x, where
    ``1 + tanh(u)`` cancels. With no graph to record, the sigmoid is not kept.
    """
    a = _coerce(a)
    out, backward = _gelu(a.data, _recording((a,)), False)
    return _make(out, (a,), lambda g: (backward(g),), "gelu")


# -- reductions ---------------------------------------------------------------


def tsum(a) -> Tensor:
    """The sum of every element, as a scalar."""
    a = _coerce(a)
    out = a.data.sum()

    def backward(g):
        # a filled array, not a broadcast view: a matmul in the next backward
        # would take numpy's strided loop on a view in place of BLAS
        return (np.full_like(a.data, g),)

    return _make(out, (a,), backward, "sum")


def tmean(a, axis=None) -> Tensor:
    a = _coerce(a)
    axes = tuple(range(a.ndim)) if axis is None else tuple(np.atleast_1d(axis) % a.ndim)
    count = math.prod(a.shape[ax] for ax in axes)
    out = a.data.mean(axis=axes)
    shape = [1 if ax in axes else n for ax, n in enumerate(a.shape)]

    def backward(g):
        return (np.broadcast_to(g.reshape(shape), a.shape) / count,)

    return _make(out, (a,), backward, "mean")


# -- shape ops ----------------------------------------------------------------


def transpose(a, axes, shape=None, out_shape=None) -> Tensor:
    """Permute the axes of ``a`` viewed as ``shape``, and view the result as
    ``out_shape``: one node and one copy, whose backward runs the inverse.
    Either view defaults to the array as it stands."""
    a = _coerce(a)
    axes = tuple(axes)
    try:
        src = a.data if shape is None else a.data.reshape(shape)
        if sorted(axes) != list(range(src.ndim)):
            raise ValueError(f"{axes} is not a permutation of rank {src.ndim}")
        out = np.ascontiguousarray(src.transpose(axes))
        mid = out.shape
        if out_shape is not None:
            out = out.reshape(out_shape)
    except ValueError as e:
        raise ShapeError(f"transpose: {a.shape} as {shape}, {axes}, {out_shape}: {e}") from None
    inv = tuple(np.argsort(axes))

    def backward(g):
        return (np.ascontiguousarray(g.reshape(mid).transpose(inv)).reshape(a.shape),)

    return _make(out, (a,), backward, "transpose")


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = [_coerce(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat: need at least one tensor")
    nd = tensors[0].ndim
    axis = axis % nd
    for t in tensors[1:]:
        if t.ndim != nd:
            raise ShapeError(f"concat: rank mismatch {tensors[0].shape} vs {t.shape}")
        for ax in range(nd):
            if ax != axis and t.shape[ax] != tensors[0].shape[ax]:
                raise ShapeError(
                    f"concat: shapes {tensors[0].shape} and {t.shape} differ off axis {axis}"
                )
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        pieces = []
        for i in range(len(tensors)):
            sl = [slice(None)] * nd
            sl[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            pieces.append(g[tuple(sl)])
        return tuple(pieces)

    return _make(out, tuple(tensors), backward, "concat")


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis."""
    a = _coerce(a)
    axis = axis % a.ndim
    if start < 0 or start + length > a.shape[axis]:
        raise ShapeError(
            f"narrow: slice [{start}:{start + length}] out of range for axis {axis} of {a.shape}"
        )
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(start, start + length)
    out = np.ascontiguousarray(a.data[tuple(sl)])

    def backward(g):
        dx = np.zeros_like(a.data)
        dx[tuple(sl)] = g
        return (dx,)

    return _make(out, (a,), backward, "narrow")


def add_bias(a, b) -> Tensor:
    """Add a (d,) bias to every row of ``a[..., d]``; the one sanctioned
    rank-promoting add."""
    a = _coerce(a)
    b = _coerce(b, like=a)
    _check_fit("add_bias", a.dtype, ((b, a.shape[-1:]),))
    out = a.data + b.data
    reduce_axes = tuple(range(a.ndim - 1))

    def backward(g):
        return g, g.sum(axis=reduce_axes)

    return _make(out, (a, b), backward, "add_bias")


# -- matmul and softmax ---------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least rank 2, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree: {a.shape} @ {b.shape}")
    try:
        out = np.matmul(a.data, b.data)
    except ValueError as e:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}: {e}") from None

    # a constant operand (a one-hot, say) costs only its forward product
    def backward(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return _make(out, (a, b), backward, "matmul")


def _softmax(x: np.ndarray, axis: int, mask=None) -> np.ndarray:
    """Numerically stable softmax of an array along one axis (max-shifted).

    ``mask``, a boolean array that broadcasts to ``x``, keeps each slice to
    its true entries: the others are set to -inf before the max and the exp,
    so they come out exactly 0 and get no gradient. A slice with no finite
    softmax (no true entry, or a NaN or +inf entry) raises
    ``FloatingPointError``.
    """
    if mask is not None:
        x = np.where(mask, x, -np.inf)
    m = x.max(axis=axis, keepdims=True)
    with np.errstate(invalid="ignore"):  # inf - inf
        e = np.exp(x - m)
    return _guard_finite(e / e.sum(axis=axis, keepdims=True), "softmax")


def _softmax_grad(out: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """The gradient at a softmax's input, from its output ``out`` and ``g``."""
    return out * (g - (g * out).sum(axis=axis, keepdims=True))


def softmax(a, axis: int = -1) -> Tensor:
    """Softmax along one axis; see :func:`_softmax`."""
    a = _coerce(a)
    out = _softmax(a.data, axis)

    def backward(g):
        return (_softmax_grad(out, g, axis),)

    return _make(out, (a,), backward, "softmax")


# -- indexed ops -------------------------------------------------------------


def one_hot(ids, num_classes: int, dtype) -> np.ndarray:
    """(..., n) integer ids as a (..., n, num_classes) 0/1 array of ``dtype``.

    The one place ids are validated: they must have an integer dtype and lie
    in ``[0, num_classes)``, else ``ShapeError``. Every bucket and label op is
    a matmul or product against this array, which costs n·K·d multiplies where
    a scatter does n·d adds; with K = 8 buckets in every preset that is cheap.
    """
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ShapeError(f"ids must have an integer dtype, got {ids.dtype}")
    if ids.size and (ids.min() < 0 or ids.max() >= num_classes):
        raise ShapeError(
            f"ids must lie in [0, {num_classes}), got range [{ids.min()}, {ids.max()}]"
        )
    return (ids[..., None] == np.arange(num_classes)).astype(dtype)


def segment_sum(a, buckets: np.ndarray) -> Tensor:
    """Sum rows of ``a[..., n, d]`` into buckets: ``bucketsᵀ @ a``.

    ``buckets`` is the (..., n, K) :func:`one_hot` matrix of a bucket
    assignment, in ``a``'s dtype, and is a constant: no gradient flows
    through the assignment, only through the summed values. Empty buckets
    come back as zero rows.
    """
    return matmul(constant(np.swapaxes(buckets, -1, -2), dtype=buckets.dtype), a)


def gather_segments(table, buckets: np.ndarray) -> Tensor:
    """Look up each row's bucket vector, ``buckets @ table``: row ``i`` gets
    the ``table[..., K, d]`` row of the bucket that ``buckets[..., i, :]``
    marks."""
    return matmul(constant(buckets, dtype=buckets.dtype), table)
