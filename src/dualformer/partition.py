"""Token partitioning: random-hyperplane LSH and Lloyd k-means.

Both produce a :class:`Partition` mapping each token to a bucket. LSH is the
production path (one projection plus bit packing, linear in token count); k-means
is the slower clustering baseline it is benchmarked against. Assignments are
plain integer arrays and never carry gradients.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor, one_hot


class PartitionError(ValueError):
    """Invalid clustering request (bad K, empty input, ...)."""


@dataclass
class NormVectors:
    """Hyperplane normals for sign hashing, one row per hash bit."""

    beta: np.ndarray  # (num_bits, dim), or (heads, num_bits, dim) stacked

    @property
    def num_bits(self) -> int:
        return self.beta.shape[-2]

    @property
    def dim(self) -> int:
        return self.beta.shape[-1]

    @property
    def num_clusters(self) -> int:
        return 1 << self.num_bits


def sample_norm_vectors(num_bits: int, dim: int, rng: np.random.Generator) -> NormVectors:
    if num_bits < 1:
        raise PartitionError(f"need at least one hash bit, got {num_bits}")
    return NormVectors(rng.standard_normal((num_bits, dim)))


@dataclass
class Partition:
    """Bucket assignment for one token matrix."""

    assignment: np.ndarray  # (n,) int64 in [0, num_clusters)
    num_clusters: int
    counts: np.ndarray = field(init=False)  # (num_clusters,) int64
    centroids: np.ndarray | None = None  # (num_clusters, d), k-means only

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Check the ids, then count them."""
        a = np.asarray(self.assignment)
        if a.ndim != 1 or a.shape[0] < 1:
            raise PartitionError(f"assignment must be a non-empty vector, got {a.shape}")
        if not np.issubdtype(a.dtype, np.integer):
            raise PartitionError(f"assignment must hold integer ids, got {a.dtype}")
        if self.num_clusters < 1:
            raise PartitionError(f"num_clusters must be positive, got {self.num_clusters}")
        if a.min() < 0 or a.max() >= self.num_clusters:
            raise PartitionError(f"assignment values outside [0, {self.num_clusters})")
        self.assignment = a.astype(np.int64, copy=False)
        self.counts = np.bincount(self.assignment, minlength=self.num_clusters)


def _as_array(tokens) -> np.ndarray:
    if isinstance(tokens, Tensor):
        tokens = tokens.data
    arr = np.asarray(tokens, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise PartitionError(f"tokens must be a non-empty (n, d) matrix, got {arr.shape}")
    return arr


def hash_codes(tokens: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Sign-hash tokens against hyperplanes: code = sum_i bit_i << i.

    A token exactly on a hyperplane (dot product zero) hashes to bit 1.
    Leading axes broadcast: tokens (..., n, d) against beta (..., bits, d),
    so (B, heads, n, d) tokens hash against (heads, bits, d) normals, each
    head against its own.
    """
    # einsum, not BLAS: after an idle spell, a 2-thread gemm on this thin
    # product took 8 ms on a 2-vCPU VM, against 0.1 ms warm
    proj = np.einsum("...nd,...bd->...nb", tokens, beta)  # (..., n, bits)
    bits = (proj >= 0.0).astype(np.int64)
    weights = (1 << np.arange(beta.shape[-2], dtype=np.int64))
    return bits @ weights


def lsh_assign(tokens, norms: NormVectors) -> Partition:
    """Bucket tokens by random-hyperplane sign hash; 2**num_bits buckets.

    Empty buckets are legal and expected; downstream ops treat them as
    zero-size groups.
    """
    arr = _as_array(tokens)
    if norms.dim != arr.shape[1]:
        raise PartitionError(
            f"norm vectors have dim {norms.dim}, tokens have dim {arr.shape[1]}"
        )
    codes = hash_codes(arr, np.asarray(norms.beta, dtype=np.float64))
    return Partition(assignment=codes, num_clusters=norms.num_clusters)


def kmeans_objective(tokens, partition: Partition) -> float:
    """Sum of squared distances from each token to its centroid."""
    arr = _as_array(tokens)
    if partition.centroids is None:
        raise PartitionError("partition has no centroids")
    diff = arr - partition.centroids[partition.assignment]
    return float((diff * diff).sum())


def _sq_dists(arr: np.ndarray, sq: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, K) squared distances ``|x|^2 - 2 x.c + |c|^2`` from the token norms
    ``sq`` without forming the (n, K, d) cube, built in one buffer.

    ``x @ (-2 c)`` is ``-2 (x @ c)`` bit for bit, as -2 is an exact scale.
    The expansion can dip a hair below zero for points at a center, so it is
    clamped there.
    """
    d2 = arr @ (-2.0 * centers).T
    d2 += sq[:, None]
    d2 += (centers * centers).sum(axis=1)
    return np.maximum(d2, 0.0, out=d2)


def kmeans_assign(tokens, num_clusters: int, max_iters: int = 5, seed: int = 0) -> Partition:
    """Lloyd's algorithm with distance-weighted seeding.

    Every distance comes from :func:`_sq_dists` against norms computed once.
    Empty clusters are reseeded to the point farthest from its own centroid,
    which can only lower the objective; the objective, read from each step's
    distance table, is asserted non-increasing across iterations.
    """
    arr = _as_array(tokens)
    n, _ = arr.shape
    if num_clusters < 1:
        raise PartitionError(f"num_clusters must be positive, got {num_clusters}")
    if num_clusters > n:
        raise PartitionError(f"num_clusters={num_clusters} exceeds token count n={n}")
    if max_iters < 1:
        raise PartitionError(f"max_iters must be positive, got {max_iters}")
    rng = np.random.default_rng(seed)
    sq = np.einsum("ij,ij->i", arr, arr)
    rows = np.arange(n)

    # distance-weighted (k-means++) seeding
    centers = np.empty((num_clusters, arr.shape[1]))
    centers[0] = arr[rng.integers(n)]
    d2 = _sq_dists(arr, sq, centers[:1])[:, 0]
    for k in range(1, num_clusters):
        total = d2.sum()
        if total <= 0.0:
            centers[k] = arr[rng.integers(n)]
        else:
            centers[k] = arr[rng.choice(n, p=d2 / total)]
        np.minimum(d2, _sq_dists(arr, sq, centers[k:k + 1])[:, 0], out=d2)

    prev_obj = np.inf
    assign = None
    for _ in range(max_iters):
        dists = _sq_dists(arr, sq, centers)
        assign = dists.argmin(axis=1)
        # repair empties before measuring: steal the worst-fit point
        counts = np.bincount(assign, minlength=num_clusters)
        for k in np.flatnonzero(counts == 0):
            errs = dists[rows, assign]
            errs[counts[assign] <= 1] = -np.inf  # do not orphan a singleton
            j = int(errs.argmax())
            counts[assign[j]] -= 1
            assign[j] = k
            counts[k] = 1
            centers[k] = arr[j]
            dists[:, k] = _sq_dists(arr, sq, centers[k:k + 1])[:, 0]
        obj = float(dists[rows, assign].sum())
        if obj > prev_obj * (1.0 + 1e-9) + 1e-9:
            raise AssertionError(
                f"k-means objective increased: {prev_obj} -> {obj}"
            )
        prev_obj = obj
        # update step
        sums = one_hot(assign, num_clusters, arr.dtype).T @ arr
        nonzero = counts > 0
        centers[nonzero] = sums[nonzero] / counts[nonzero, None]

    return Partition(
        assignment=assign,
        num_clusters=num_clusters,
        centroids=centers.copy(),
    )
