"""Finite-difference gradient audit.

Compares reverse-mode gradients against central differences
(f(x+eps) - f(x-eps)) / (2 eps), elementwise, and reports the worst
relative error |a - n| / max(|a|, |n|, 1e-8). Run it under float64; float32
has nowhere near enough headroom for the differences.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor, constant

# Smallest denominator of the relative error. Central differences on an O(1)
# objective carry ~1e-9 roundoff noise, so without it elements whose true
# gradient sits below the finite-difference noise could never certify at any
# tolerance; below FLOOR they are compared on that absolute scale instead.
FLOOR = 1e-4


def grad_check(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    eps: float = 1e-5,
    max_checks_per_input: int | None = None,
    seed: int = 0,
) -> float:
    """Audit ``fn`` at ``inputs`` and return the worst relative error.

    ``fn`` maps the given tensors to a tensor of any shape; a fixed random
    projection turns the output into a scalar so a single backward pass
    covers every output element. Every element of every input that has
    ``requires_grad`` is perturbed, unless ``max_checks_per_input`` caps the
    count, in which case a seeded subsample of elements is audited (needed
    for whole-model audits, where exhaustive differencing is days of work).
    The relative error divides by ``max(|analytic|, |numeric|, FLOOR)``.
    """
    rng = np.random.default_rng(seed)
    inputs = list(inputs)

    out = fn(*inputs)
    proj = rng.standard_normal(out.shape).astype(out.dtype, copy=False)

    def scalar() -> float:
        res = fn(*inputs)
        return float((res.data * proj).sum())

    loss = (out * constant(proj, dtype=out.dtype)).sum()
    for t in inputs:
        t.zero_grad()
    loss.backward()

    worst = 0.0
    for t in inputs:
        if not t.requires_grad:
            continue
        if t.grad is None:
            raise RuntimeError("gradient did not reach an audited input; graph disconnected?")
        analytic = t.grad.reshape(-1)
        flat = t.data.reshape(-1)
        idxs = np.arange(flat.size)
        if max_checks_per_input is not None and flat.size > max_checks_per_input:
            idxs = rng.choice(flat.size, size=max_checks_per_input, replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = scalar()
            flat[i] = orig - eps
            f_minus = scalar()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = float(analytic[i])
            denom = max(abs(a), abs(numeric), FLOOR)
            worst = max(worst, abs(a - numeric) / denom)
    return worst
