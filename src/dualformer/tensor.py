"""Dense tensors with reverse-mode automatic differentiation.

Storage is a C-contiguous numpy array; the graph is recorded per output
tensor as an op node holding the parent tensors and a backward closure.
``Tensor.backward()`` walks the graph in reverse topological order and
accumulates gradients into leaves that require them.

Broadcasting is deliberately restricted: elementwise binary ops accept
exactly-matching shapes, a scalar paired with a tensor, or equal-rank
shapes where a mismatching axis has size 1 on one side. Anything else
raises ``ShapeError``; callers reshape explicitly. Bias addition along a
named axis goes through :func:`add_bias`. Matmul follows numpy's batched
semantics on the leading dimensions.

Division, exp, log and sqrt check their outputs and raise
``FloatingPointError`` instead of letting NaN/Inf propagate.
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

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    # numpy must not hijack `ndarray op Tensor`
    __array_ufunc__ = None

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)


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


def _make(out_data, parents, backward_fn, name) -> Tensor:
    req = _grad_enabled and any(p.requires_grad for p in parents)
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
    # scalar with tensor is always fine
    if math.prod(sa) == 1 or math.prod(sb) == 1:
        return
    if sa == sb:
        return
    if len(sa) == len(sb) and all(m == n or m == 1 or n == 1 for m, n in zip(sa, sb)):
        return
    raise ShapeError(
        f"{op}: shapes {sa} and {sb} do not combine; only exact matches, "
        "scalars, or equal-rank size-1 axes broadcast (reshape explicitly otherwise)"
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


def sub(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    _check_elementwise(a.shape, b.shape, "sub")
    out = a.data - b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _make(out, (a, b), backward, "sub")


def mul(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    _check_elementwise(a.shape, b.shape, "mul")
    out = a.data * b.data

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(out, (a, b), backward, "mul")


def div(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    _check_elementwise(a.shape, b.shape, "div")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = a.data / b.data
    _guard_finite(out, "div")

    def backward(g):
        ga = g / b.data
        gb = -g * a.data / (b.data * b.data)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _make(out, (a, b), backward, "div")


def neg(a) -> Tensor:
    a = _coerce(a)

    def backward(g):
        return (-g,)

    return _make(-a.data, (a,), backward, "neg")


# -- elementwise functions ----------------------------------------------------


def texp(a) -> Tensor:
    a = _coerce(a)
    with np.errstate(over="ignore"):
        out = np.exp(a.data)
    _guard_finite(out, "exp")

    def backward(g):
        return (g * out,)

    return _make(out, (a,), backward, "exp")


def tlog(a) -> Tensor:
    a = _coerce(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a.data)
    _guard_finite(out, "log")

    def backward(g):
        return (g / a.data,)

    return _make(out, (a,), backward, "log")


def tsqrt(a) -> Tensor:
    a = _coerce(a)
    with np.errstate(invalid="ignore"):
        out = np.sqrt(a.data)
    _guard_finite(out, "sqrt")

    def backward(g):
        return (g * (0.5 / out),)

    return _make(out, (a,), backward, "sqrt")


def sigmoid(a) -> Tensor:
    a = _coerce(a)
    x = a.data
    # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, both from e = exp(-|x|),
    # so exp never overflows
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e) / (1.0 + e)

    def backward(g):
        return (g * out * (1.0 - out),)

    return _make(out, (a,), backward, "sigmoid")


_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715
_GELU_SAT = 1e4  # far past where tanh of the GELU argument is exactly +-1


def gelu(a) -> Tensor:
    """Smooth GELU (tanh form); forward and backward use the same definition."""
    a = _coerce(a)
    x = a.data
    # The cube is two multiplies: float32 ``x**3`` takes numpy's slow pow
    # loop. One buffer goes from cube to tanh in place. The cube overflows
    # for huge |x| but tanh saturates to the right limit.
    with np.errstate(over="ignore"):
        t = x * x
        t *= x
        t *= _GELU_A
        t += x
        t *= _GELU_C
        np.tanh(t, out=t)
        out = 0.5 * x
        out *= 1.0 + t

    def backward(g):
        # clamped so x*x cannot overflow into 0 * inf: past the clamp
        # 1 - t*t is exactly zero in float32 and float64 alike
        xc = np.clip(x, -_GELU_SAT, _GELU_SAT)
        dinner = _GELU_C * (1.0 + 3.0 * _GELU_A * xc * xc)
        dx = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
        return (g * dx,)

    return _make(out, (a,), backward, "gelu")


# -- reductions ---------------------------------------------------------------


def _axis_tuple(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = _coerce(a)
    axes = _axis_tuple(axis, a.ndim)
    out = a.data.sum(axis=axes, keepdims=keepdims)

    def backward(g):
        if not keepdims:
            shape = list(a.shape)
            for ax in axes:
                shape[ax] = 1
            g = g.reshape(shape)
        return (np.broadcast_to(g, a.shape),)

    return _make(out, (a,), backward, "sum")


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = _coerce(a)
    axes = _axis_tuple(axis, a.ndim)
    count = math.prod(a.shape[ax] for ax in axes)
    out = a.data.mean(axis=axes, keepdims=keepdims)

    def backward(g):
        if not keepdims:
            shape = list(a.shape)
            for ax in axes:
                shape[ax] = 1
            g = g.reshape(shape)
        return (np.broadcast_to(g, a.shape) / count,)

    return _make(out, (a,), backward, "mean")


# -- shape ops ----------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = _coerce(a)
    try:
        out = a.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}: {e}") from None

    def backward(g):
        return (g.reshape(a.shape),)

    return _make(out, (a,), backward, "reshape")


def transpose(a, axes) -> Tensor:
    a = _coerce(a)
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"transpose: {axes} is not a permutation of rank {a.ndim}")
    out = np.ascontiguousarray(a.data.transpose(axes))
    inv = tuple(np.argsort(axes))

    def backward(g):
        return (np.ascontiguousarray(g.transpose(inv)),)

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


def stack(tensors: Sequence[Tensor]) -> Tensor:
    """Stack equal-shape tensors along a new leading axis; the gradient
    splits back along it."""
    tensors = [_coerce(t) for t in tensors]
    if not tensors:
        raise ShapeError("stack: need at least one tensor")
    for t in tensors[1:]:
        if t.shape != tensors[0].shape:
            raise ShapeError(f"stack: shapes {tensors[0].shape} and {t.shape} differ")
    out = np.stack([t.data for t in tensors])

    def backward(g):
        return tuple(g)

    return _make(out, tuple(tensors), backward, "stack")


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


def add_bias(a, b, axis: int) -> Tensor:
    """Add a 1-d bias along ``axis``; the one sanctioned rank-promoting add."""
    a = _coerce(a)
    b = _coerce(b, like=a)
    axis = axis % a.ndim
    if b.ndim != 1 or b.shape[0] != a.shape[axis]:
        raise ShapeError(f"add_bias: bias {b.shape} does not fit axis {axis} of {a.shape}")
    shape = [1] * a.ndim
    shape[axis] = b.shape[0]
    out = a.data + b.data.reshape(shape)
    reduce_axes = tuple(i for i in range(a.ndim) if i != axis)

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


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax along one axis (max-shifted)."""
    a = _coerce(a)
    x = a.data
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

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


def segment_sum(a, seg: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``a[..., n, d]`` into ``num_segments`` buckets per instance.

    ``seg`` is an integer array of shape ``a.shape[:-1]`` and is treated as a
    constant: no gradient flows through the assignment, only through the
    summed values. Empty buckets come back as zero rows.
    """
    a = _coerce(a)
    if a.ndim < 2 or seg.shape != a.shape[:-1]:
        raise ShapeError(f"segment_sum: ids {seg.shape} must match rows of {a.shape}")
    onehot = one_hot(seg, num_segments, a.dtype)
    return matmul(constant(np.swapaxes(onehot, -1, -2), dtype=a.dtype), a)


def gather_segments(table, seg: np.ndarray) -> Tensor:
    """Look up per-row bucket vectors: ``out[..., i, :] = table[..., seg[i], :]``."""
    table = _coerce(table)
    if table.ndim < 2:
        raise ShapeError(f"gather_segments: table must be at least rank 2, got {table.shape}")
    if seg.shape[:-1] != table.shape[:-2]:
        raise ShapeError(
            f"gather_segments: ids {seg.shape} do not match table {table.shape}"
        )
    onehot = one_hot(seg, table.shape[-2], table.dtype)
    return matmul(constant(onehot, dtype=table.dtype), table)


def select_index(a, idx: np.ndarray) -> Tensor:
    """Pick one column per row: ``out[i] = a[i, idx[i]]`` (label lookup)."""
    a = _coerce(a)
    if a.ndim != 2:
        raise ShapeError(f"select_index: expected a matrix, got {a.shape}")
    idx = np.asarray(idx)
    if idx.shape != (a.shape[0],):
        raise ShapeError(f"select_index: indices {idx.shape} do not match rows of {a.shape}")
    return tsum(a * constant(one_hot(idx, a.shape[1], a.dtype), dtype=a.dtype), axis=1)
