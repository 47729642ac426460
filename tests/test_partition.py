"""Hash and k-means partitioners: oracles, invariants, repair behavior."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualformer.partition import (
    NormVectors,
    Partition,
    PartitionError,
    _sq_dists,
    hash_codes,
    kmeans_assign,
    kmeans_objective,
    lsh_assign,
    sample_norm_vectors,
)
from dualformer.tensor import one_hot


def hash_oracle(tokens, beta):
    """Scalar-loop restatement: bit i is 1 iff beta_i . x >= 0."""
    n, bits = tokens.shape[0], beta.shape[0]
    codes = np.zeros(n, dtype=np.int64)
    for t in range(n):
        for i in range(bits):
            dot = 0.0
            for q in range(tokens.shape[1]):
                dot += beta[i, q] * tokens[t, q]
            if dot >= 0.0:
                codes[t] += 1 << i
    return codes


def test_hash_codes_match_oracle():
    r = np.random.default_rng(0)
    for _ in range(50):
        n, d, bits = int(r.integers(1, 20)), int(r.integers(1, 8)), int(r.integers(1, 5))
        tokens = r.normal(size=(n, d))
        beta = r.normal(size=(bits, d))
        assert np.array_equal(hash_codes(tokens, beta), hash_oracle(tokens, beta))


def test_forced_sign_patterns():
    # axis-aligned hyperplanes make codes readable by eye
    beta = np.array([[1.0, 0.0], [0.0, 1.0]])
    tokens = np.array([[2.0, 3.0], [-1.0, 5.0], [-2.0, -2.0], [4.0, -1.0]])
    # bit0 = x >= 0, bit1 = y >= 0
    assert hash_codes(tokens, beta).tolist() == [3, 2, 0, 1]


def test_boundary_token_hashes_to_one():
    beta = np.array([[1.0, 0.0]])
    tokens = np.array([[0.0, 9.0]])  # exactly on the hyperplane
    assert hash_codes(tokens, beta).tolist() == [1]


def test_lsh_assign_structure():
    r = np.random.default_rng(1)
    norms = sample_norm_vectors(3, 5, r)
    p = lsh_assign(r.normal(size=(40, 5)), norms)
    assert p.num_clusters == 8
    assert p.assignment.shape == (40,)
    assert p.counts.sum() == 40


def test_lsh_dim_mismatch_rejected():
    r = np.random.default_rng(2)
    norms = sample_norm_vectors(3, 5, r)
    with pytest.raises(PartitionError):
        lsh_assign(r.normal(size=(10, 4)), norms)


def test_partition_validate_rejects_bad_codes():
    with pytest.raises(PartitionError):
        Partition(np.array([0, 5]), 4)


@pytest.mark.parametrize("ids", [[0.6, 1.7], [-1, 0]], ids=["float", "negative"])
def test_partition_checks_ids_before_counting(ids):
    # a float id must not be truncated into range, and a negative one must
    # not reach np.bincount
    with pytest.raises(PartitionError):
        Partition(np.array(ids), 2)


def kmeans_objective_oracle(tokens, assignment, centroids):
    total = 0.0
    for i, a in enumerate(assignment):
        diff = tokens[i] - centroids[a]
        total += float(diff @ diff)
    return total


def test_kmeans_objective_matches_oracle():
    r = np.random.default_rng(3)
    tokens = r.normal(size=(25, 4))
    p = kmeans_assign(tokens, 5, seed=0)
    want = kmeans_objective_oracle(tokens, p.assignment, p.centroids)
    assert kmeans_objective(tokens, p) == pytest.approx(want, rel=1e-10)


def test_kmeans_beats_random_assignments():
    # the fitted objective should undercut 50 random assignments of same K
    r = np.random.default_rng(4)
    tokens = r.normal(size=(60, 3))
    p = kmeans_assign(tokens, 4, seed=0)
    fitted = kmeans_objective(tokens, p)
    for _ in range(50):
        assign = r.integers(0, 4, size=60)
        counts = np.bincount(assign, minlength=4)
        cents = np.zeros((4, 3))
        for k in range(4):
            if counts[k]:
                cents[k] = tokens[assign == k].mean(axis=0)
        rand_obj = kmeans_objective_oracle(tokens, assign, cents)
        assert fitted <= rand_obj + 1e-9


def test_kmeans_no_empty_clusters_when_enough_points():
    r = np.random.default_rng(5)
    tokens = r.normal(size=(50, 2))
    p = kmeans_assign(tokens, 8, seed=1)
    assert np.all(p.counts > 0)


def test_kmeans_k_larger_than_n_rejected():
    with pytest.raises(PartitionError):
        kmeans_assign(np.ones((3, 2)), 5)


def test_kmeans_exact_clusters_recovered():
    # four well-separated blobs: objective should be tiny
    r = np.random.default_rng(6)
    centers = np.array([[0, 0], [50, 0], [0, 50], [50, 50]], dtype=np.float64)
    tokens = np.vstack([c + 0.01 * r.normal(size=(10, 2)) for c in centers])
    p = kmeans_assign(tokens, 4, seed=0, max_iters=10)
    assert kmeans_objective(tokens, p) < 1.0
    # blob members agree on their bucket
    for blob in range(4):
        ids = p.assignment[blob * 10 : (blob + 1) * 10]
        assert len(set(ids.tolist())) == 1


def kmeans_reference(arr, num_clusters, max_iters, seed):
    """``kmeans_assign`` as it was before it ran on one distance table: every
    seeding step and every objective measured from the token differences.
    Returns (assignment, centroids)."""
    n = arr.shape[0]
    rng = np.random.default_rng(seed)
    centers = np.empty((num_clusters, arr.shape[1]))
    centers[0] = arr[rng.integers(n)]
    d2 = ((arr - centers[0]) ** 2).sum(axis=1)
    for k in range(1, num_clusters):
        total = d2.sum()
        if total <= 0.0:
            centers[k] = arr[rng.integers(n)]
        else:
            centers[k] = arr[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((arr - centers[k]) ** 2).sum(axis=1))
    for _ in range(max_iters):
        dists = ((arr[:, None, :] - centers[None]) ** 2).sum(axis=2)
        assign = dists.argmin(axis=1)
        counts = np.bincount(assign, minlength=num_clusters)
        for k in np.flatnonzero(counts == 0):
            errs = dists[np.arange(n), assign].copy()
            errs[counts[assign] <= 1] = -np.inf
            j = int(errs.argmax())
            counts[assign[j]] -= 1
            assign[j] = k
            counts[k] = 1
            centers[k] = arr[j]
            dists[:, k] = ((arr - centers[k]) ** 2).sum(axis=1)
        onehot = one_hot(assign, num_clusters, arr.dtype)
        sums = onehot.T @ arr
        counts = onehot.sum(axis=0)
        nonzero = counts > 0
        centers[nonzero] = sums[nonzero] / counts[nonzero, None]
    return assign, centers


def test_sq_dists_match_cube_oracle():
    r = np.random.default_rng(8)
    for n, d, k in [(1, 1, 1), (7, 3, 4), (50, 16, 8), (3136, 64, 8)]:
        arr = r.normal(size=(n, d)) * 3.0
        centers = np.vstack([arr[:1], r.normal(size=(k - 1, d))])  # one center on a point
        want = ((arr[:, None, :] - centers[None]) ** 2).sum(axis=2)
        got = _sq_dists(arr, (arr * arr).sum(axis=1), centers)
        assert got.shape == (n, k) and got.min() >= 0.0
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, want.max())


@pytest.mark.parametrize("n,d,k,iters", [
    (3136, 64, 8, 5), (3136, 64, 8, 10), (200, 5, 8, 5), (12, 2, 8, 5), (9, 1, 8, 3),
])
def test_kmeans_matches_reference(n, d, k, iters):
    # the same seeding picks, assignments and centroids as the implementation
    # that measured every distance from differences
    for seed in range(4):
        tokens = np.random.default_rng([n, d, seed]).standard_normal((n, d))
        want_assign, want_centers = kmeans_reference(tokens, k, iters, seed)
        got = kmeans_assign(tokens, k, max_iters=iters, seed=seed)
        assert np.array_equal(got.assignment, want_assign)
        assert np.array_equal(got.centroids, want_centers)
        assert kmeans_objective(tokens, got) == pytest.approx(
            float(((tokens - want_centers[want_assign]) ** 2).sum()), rel=1e-12)


def test_kmeans_fewer_distinct_points_than_clusters():
    # once every distinct point is a center, the seeding distances left are
    # zero up to the expansion's rounding, so which copy is drawn next is
    # arbitrary; the repair still fills every cluster with copies of one point
    for seed in range(20):
        tokens = np.random.default_rng(seed).standard_normal((3, 4))[np.arange(12) % 3]
        p = kmeans_assign(tokens, 5, max_iters=5, seed=seed)
        assert np.all(p.counts > 0)
        assert kmeans_objective(tokens, p) < 1e-25
        for k in range(5):
            members = tokens[p.assignment == k]
            assert np.all(members == members[0])


# -- invariants (acceptance criterion exercises these at >= 200 cases) --------


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64), st.integers(1, 8), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_partition_disjoint_exhaustive(n, d, bits, seed):
    r = np.random.default_rng(seed)
    p = lsh_assign(r.normal(size=(n, d)), sample_norm_vectors(bits, d, r))
    # every token in exactly one bucket and ids in range
    assert p.assignment.shape == (n,)
    assert p.assignment.min() >= 0 and p.assignment.max() < p.num_clusters
    assert int(p.counts.sum()) == n


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 32), st.integers(1, 8), st.integers(1, 4),
    st.floats(0.01, 1000.0), st.integers(0, 2**31 - 1),
)
def test_lsh_scale_invariance(n, d, bits, scale, seed):
    r = np.random.default_rng(seed)
    tokens = r.normal(size=(n, d))
    norms = sample_norm_vectors(bits, d, r)
    a = lsh_assign(tokens, norms).assignment
    b = lsh_assign(tokens * scale, norms).assignment
    assert np.array_equal(a, b)


@settings(max_examples=200, deadline=None)
@given(st.integers(4, 40), st.integers(1, 5), st.integers(2, 6), st.integers(0, 2**31 - 1))
def test_kmeans_objective_never_increases(n, d, k, seed):
    # kmeans_assign itself asserts per-iteration monotonicity; this drives it
    # across random workloads and sanity-checks the final counts
    r = np.random.default_rng(seed)
    tokens = r.normal(size=(n, d))
    if k > n:
        k = n
    p = kmeans_assign(tokens, k, seed=seed, max_iters=5)
    assert int(p.counts.sum()) == n
    assert p.centroids.shape == (k, d)
