import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from muse import MuseConfig, attend, muse_acausal, rel_sq_error
from muse.clustering import (
    CentroidInit,
    _repair_empties,
    cap_assign,
    clustering_from_assignments,
    decompose,
    inertia,
    init_centroids,
    kmeans,
)
from muse.numerics import make_rng
from muse.workloads import WorkloadSpec, generate

from oracles import centroid_scores, naive_cap_assign


def blob_pair(seed, n_each=40, d=4, separation=20.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_each, d)) + np.array([separation / 2] + [0.0] * (d - 1))
    b = rng.normal(size=(n_each, d)) - np.array([separation / 2] + [0.0] * (d - 1))
    return np.vstack([a, b]), np.array([0] * n_each + [1] * n_each)


def test_init_draw_ignores_token_values():
    # the draw depends only on (n, c, rng): zero, huge and shifted tokens give the same indices
    x = np.random.default_rng(0).normal(size=(20, 3))
    for c in (1, 4, 20):
        for trial in range(20):
            indices = init_centroids(x, c, make_rng(trial)).indices
            for y in (np.zeros_like(x), 1e10 * x, x + 1e4):
                init = init_centroids(y, c, make_rng(trial))
                assert np.array_equal(init.indices, indices)
                assert np.array_equal(init.centroids, y[indices])


def test_init_exhaustion_selects_every_point():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(7, 3))
    init = init_centroids(x, 7, make_rng(5))
    assert sorted(init.indices.tolist()) == list(range(7))


@pytest.mark.parametrize("c", [1, 3, 5])
def test_init_draws_c_distinct_rows(c):
    # five tokens of positive norm, one of them tiny, among fifteen zero rows
    x = np.zeros((20, 3))
    x[[2, 5, 11, 12, 19]] = np.random.default_rng(16).normal(size=(5, 3))
    x[12] *= 1e-150
    for trial in range(200):
        init = init_centroids(x, c, make_rng(trial))
        assert not init.uniform_fallback
        assert init.indices.dtype == np.int64 and len(set(init.indices.tolist())) == c
        assert np.array_equal(init.centroids, x[init.indices])


def test_init_all_zero_tokens_draw_c_distinct_rows():
    # all-zero tokens take the same draw as any other: no fallback flag
    x = np.zeros((20, 3))
    for c in (1, 3, 5):
        for trial in range(200):
            init = init_centroids(x, c, make_rng(trial))
            assert not init.uniform_fallback
            assert init.indices.dtype == np.int64 and len(set(init.indices.tolist())) == c
            assert np.array_equal(init.centroids, x[init.indices])


def selection_counts(x, trials=10_000):
    counts = np.zeros(len(x))
    for trial in range(trials):
        counts[init_centroids(x, 1, make_rng(trial)).indices[0]] += 1
    return counts


def test_init_equal_norms_uniform_chi_square():
    # all points on a sphere: selection frequencies must be uniform
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, 5))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    counts = selection_counts(x)
    chi = stats.chisquare(counts)
    assert chi.pvalue > 0.001, f"selection biased: counts={counts}, p={chi.pvalue}"


def test_init_unequal_norms_uniform_chi_square():
    # norms from 0 to 1e6: selection frequencies must still be uniform
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, 5))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x *= np.array([0.0, 1e-3, 0.5, 1.0, 2.0, 3.0, 10.0, 1e6])[:, None]
    counts = selection_counts(x)
    chi = stats.chisquare(counts)
    assert chi.pvalue > 0.001, f"selection biased: counts={counts}, p={chi.pvalue}"


def test_init_pairs_are_uniform_in_drawing_order():
    # c = 2 draws without replacement: each ordered pair (first, second) of
    # distinct tokens comes up with probability 1 / (n (n - 1)), whatever the norms
    x = np.array([[1.0, 0.0], [0.0, 2.0], [1.5, 1.5], [0.5, 0.0], [0.0, 0.0]])
    pairs = [(i, j) for i in range(5) for j in range(5) if i != j]
    counts = np.zeros(len(pairs))
    for trial in range(10_000):
        counts[pairs.index(tuple(init_centroids(x, 2, make_rng(trial)).indices.tolist()))] += 1
    chi = stats.chisquare(counts)
    assert chi.pvalue > 0.001, f"counts={counts}"


def test_init_validation():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 2))
    with pytest.raises(ValueError):
        init_centroids(x, 5, make_rng(0))
    with pytest.raises(ValueError):
        init_centroids(x, 0, make_rng(0))


def test_kmeans_c_equals_n_singletons():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(12, 3))
    cl = kmeans(x, 12, 2, 1.5, make_rng(0))
    assert sorted(cl.sizes) == [1] * 12
    assert inertia(x, cl) == pytest.approx(0.0, abs=1e-20)


def test_kmeans_identical_points_capped_valid():
    x = np.ones((10, 2))
    cl = kmeans(x, 3, 2, 1.5, make_rng(0))
    np.testing.assert_allclose(cl.centroids, np.ones((3, 2)), atol=1e-15)
    assert max(cl.sizes) <= math.ceil(1.5 * 10 / 3)
    assert sum(cl.sizes) == 10
    assert min(cl.sizes) >= 1


def test_kmeans_two_blob_recovery():
    wins = 0
    for seed in range(20):
        x, labels = blob_pair(seed)
        cl = kmeans(x, 2, 3, 1.5, make_rng(seed))
        agree = (cl.assignments == labels).mean()
        wins += max(agree, 1 - agree) == 1.0
    assert wins >= 19, f"only {wins}/20 seeds recovered the blobs"


def test_kmeans_centroid_is_member_mean():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(50, 4))
    cl = kmeans(x, 5, 2, 1.5, make_rng(1))
    for j, members in enumerate(np.split(cl.order, cl.offsets[1:-1])):
        assert np.array_equal(members, np.flatnonzero(cl.assignments == j))
        np.testing.assert_allclose(cl.centroids[j], x[members].mean(axis=0), atol=1e-10)


def test_kmeans_no_empty_clusters():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(30, 3))
        cl = kmeans(x, 8, 1, 1.5, make_rng(seed))
        assert min(cl.sizes) >= 1
        assert sorted(np.unique(cl.assignments)) == list(range(8))


def test_kmeans_inertia_monotone_uncapped():
    # with a shared init and a non-binding cap, more Lloyd iterations can
    # never increase the k-means objective
    rng = np.random.default_rng(7)
    x = rng.normal(size=(60, 4)) * np.array([3.0, 1.0, 1.0, 1.0])
    init = init_centroids(x, 6, make_rng(3))
    previous = np.inf
    for iters in range(1, 6):
        cl = kmeans(x, 6, iters, cap_ratio=6.0, rng=make_rng(0), init=init)
        val = inertia(x, cl)
        assert val <= previous + 1e-9, f"inertia rose at iters={iters}"
        previous = val


def test_kmeans_slack_cap_equals_uncapped_nearest():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(40, 3))
    cl = kmeans(x, 4, 2, cap_ratio=4.0, rng=make_rng(2))
    d = ((x[:, None, :] - cl.centroids[None, :, :]) ** 2).sum(axis=2)
    # assignment was made before the final recentering, so recompute the
    # pre-recenter centroids from the membership itself for the check
    nearest_now = d.argmin(axis=1)
    moved = (nearest_now != cl.assignments).mean()
    assert moved < 0.1, "slack-cap assignment should be near-stationary"


def test_kmeans_permutation_invariance_with_mapped_init():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(30, 3))
    perm = rng.permutation(30)
    init = init_centroids(x, 4, make_rng(4))
    inv = np.argsort(perm)
    mapped = CentroidInit(centroids=init.centroids.copy(),
                          indices=inv[init.indices],
                          uniform_fallback=init.uniform_fallback)
    a = kmeans(x, 4, 3, 1.5, make_rng(0), init=init)
    b = kmeans(x[perm], 4, 3, 1.5, make_rng(0), init=mapped)
    assert np.array_equal(a.assignments, b.assignments[inv])
    np.testing.assert_allclose(a.centroids, b.centroids, atol=1e-12)


def test_kmeans_validation():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(5, 2))
    with pytest.raises(ValueError, match="more clusters than points"):
        kmeans(x, 6, 1, 1.5, make_rng(0))
    with pytest.raises(ValueError):
        kmeans(x, 2, 0, 1.5, make_rng(0))
    for cap_ratio in (0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="cap_ratio must be finite and >= 1"):
            kmeans(x, 2, 1, cap_ratio, make_rng(0))


def test_kmeans_rejects_non_matrix_or_non_finite_tokens():
    x = np.random.default_rng(10).normal(size=(5, 2))
    with pytest.raises(ValueError, match=r"x must have shape \(n, d\), got ndim=1"):
        kmeans(x[:, 0], 2, 1, 1.5, make_rng(0))
    init = init_centroids(x, 2, make_rng(0))
    for bad in (np.nan, np.inf, -np.inf):
        y = x.copy()
        y[3, 1] = bad
        for given_init in (None, init):
            with pytest.raises(ValueError, match="x contains non-finite entries"):
                kmeans(y, 2, 1, 1.5, make_rng(0), init=given_init)


def test_overflowing_distances_are_rejected():
    # finite f32 tokens whose squared distances overflow: inf and NaN tie every
    # argmin, so without the check cap_assign's rounds would place no token
    x = (1e20 * np.random.default_rng(12).normal(size=(64, 8))).astype(np.float32)
    q = x.reshape(1, 1, 64, 8)
    k, v = np.random.default_rng(13).normal(size=(2, 1, 1, 64, 8)).astype(np.float32)
    calls = (lambda: cap_assign(x, x[:4].copy(), 16), lambda: kmeans(x, 4, 2, 1.5, make_rng(0)),
             lambda: muse_acausal(q, k, v, MuseConfig(c_q=4, c_k=4, seed=0)))
    with np.errstate(over="ignore", invalid="ignore"):
        for call in calls:
            with pytest.raises(ValueError, match="squared distances overflow float32"):
                call()


def test_overflowing_distances_raise_no_numpy_warning():
    # with warnings as errors, numpy's "overflow encountered in matmul" would
    # raise before the check; the ValueError is the only signal a caller sees
    x = (1e20 * np.random.default_rng(12).normal(size=(64, 8))).astype(np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: cap_assign(x, x[:4].copy(), 16), lambda: kmeans(x, 4, 2, 1.5, make_rng(0))):
            with pytest.raises(ValueError, match="squared distances overflow float32"):
                call()


def test_large_tokens_under_the_norm_bound_are_placed_as_their_scaled_copies():
    # f32 tokens near 1e18 keep (max ||x|| + max ||c||)^2 below finfo.max; scaling by a
    # power of two is exact and scales every score alike, so the labels cannot change
    x = (5e17 * np.random.default_rng(12).normal(size=(64, 8))).astype(np.float32)
    small = x * np.float32(2.0 ** -60)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(cap_assign(x, x[:4].copy(), 16), cap_assign(small, small[:4].copy(), 16))
        assert np.array_equal(kmeans(x, 4, 2, 1.5, make_rng(0)).assignments,
                              kmeans(small, 4, 2, 1.5, make_rng(0)).assignments)


def test_clustering_from_assignments_rejects_bad_labels():
    x = np.random.default_rng(11).normal(size=(8, 2))
    labels = np.array([0, 1, 2, 0, 1, 2, 0, 1])
    cl = clustering_from_assignments(x, labels, 3)
    assert cl.sizes.tolist() == [3, 3, 2] and cl.assignments.dtype == np.int64
    with pytest.raises(ValueError, match=r"one label per token: labels of shape \(4,\) for 8 tokens"):
        clustering_from_assignments(x, labels[:4], 3)
    with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\), got \[0, 3\]"):
        clustering_from_assignments(x, np.where(labels == 2, 3, labels), 3)
    with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\), got \[-1, 2\]"):
        clustering_from_assignments(x, np.where(labels == 1, -1, labels), 3)
    with pytest.raises(ValueError, match="labels must be integers, got float64"):
        clustering_from_assignments(x, labels.astype(np.float64), 3)
    with pytest.raises(ValueError, match="assignment leaves an empty cluster"):
        clustering_from_assignments(x, labels, 4)


def test_cap_assign_slack_identical_to_nearest():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(20, 3))
    centroids = rng.normal(size=(4, 3))
    got = cap_assign(x, centroids, cap=20)
    d = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(got, d.argmin(axis=1))


def test_cap_assign_smallest_margin_point_spills():
    # one centroid nearest to all three points, cap 2: the point with the
    # smallest preference gap moves to the far centroid
    x = np.array([[0.0, 0.0], [0.1, 0.0], [0.4, 0.0]])
    centroids = np.array([[0.05, 0.0], [10.0, 0.0]])
    got = cap_assign(x, centroids, cap=2)
    # margins |d1 - d2|: point 2 is least attached to centroid 0
    assert got.tolist() == [0, 0, 1]


def test_cap_assign_respects_cap_everywhere():
    rng = np.random.default_rng(12)
    for trial in range(20):
        x = rng.normal(size=(rng.integers(8, 40), 3))
        c = int(rng.integers(2, 6))
        centroids = rng.normal(size=(c, 3))
        cap = int(np.ceil(len(x) / c * 1.2))
        got = cap_assign(x, centroids, cap=cap)
        counts = np.bincount(got, minlength=c)
        assert counts.max() <= cap
        assert counts.sum() == len(x)


def test_cap_assign_infeasible_raises():
    x = np.zeros((5, 2))
    with pytest.raises(ValueError, match="cap"):
        cap_assign(x, np.zeros((2, 2)), cap=2)


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=50, deadline=None)
def test_cap_assign_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 30))
    c = int(rng.integers(1, min(n, 6) + 1))
    x = rng.normal(size=(n, 3))
    centroids = rng.normal(size=(c, 3))
    cap = int(np.ceil(1.5 * n / c))
    got = cap_assign(x, centroids, cap=cap)
    counts = np.bincount(got, minlength=c)
    assert counts.max() <= cap and counts.sum() == n


def capped_case(seed, n, c_frac, distinct, slack, dtype):
    """Tokens, centroids and cap where caps bind often. Few distinct points make
    duplicate tokens and exact distance ties; centroids drawn from the tokens,
    as k-means seeds them, tie exactly with duplicates."""
    rng = np.random.default_rng(seed)
    c = 1 + int(c_frac * (min(n, 20) - 1))
    x = rng.normal(size=(n, 3))
    if distinct is not None:
        x = x[rng.integers(0, min(distinct, n), size=n)]
    x = x.astype(dtype)
    centroids = x[rng.choice(n, size=c, replace=False)]
    if seed % 2:
        centroids = centroids + rng.normal(scale=0.1, size=centroids.shape).astype(dtype)
    return x, centroids, int(np.ceil(slack * n / c))


CAPPED_CASES = dict(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 60), c_frac=st.floats(0.0, 1.0),
                    distinct=st.sampled_from([1, 2, 5, None]),
                    slack=st.sampled_from([1.0, 1.1, 1.5, 4.0]),
                    dtype=st.sampled_from([np.float32, np.float64]))


@given(**CAPPED_CASES)
@settings(max_examples=300, deadline=None)
# margins that tie in exact arithmetic, which full distances, with their ||x||^2
# term, round apart where cap_assign's scores do not
@example(seed=14, n=14, c_frac=0.5625, distinct=None, slack=1.0, dtype=np.float32)
@example(seed=45126, n=26, c_frac=0.375, distinct=5, slack=1.0, dtype=np.float32)
def test_cap_assign_equals_naive_oracle(seed, n, c_frac, distinct, slack, dtype):
    x, centroids, cap = capped_case(seed, n, c_frac, distinct, slack, dtype)
    assert np.array_equal(cap_assign(x, centroids, cap), naive_cap_assign(x, centroids, cap))


@given(**CAPPED_CASES)
@settings(max_examples=150, deadline=None)
def test_cap_assign_keeps_the_most_tokens_at_their_nearest(seed, n, c_frac, distinct, slack, dtype):
    # no capped assignment can leave more than min(count_j, cap) tokens at centroid j
    # among those nearest to it, and the first round keeps exactly that many
    x, centroids, cap = capped_case(seed, n, c_frac, distinct, slack, dtype)
    nearest = np.argmin(centroid_scores(x, centroids), axis=1)
    got = cap_assign(x, centroids, cap)
    kept = np.minimum(np.bincount(nearest, minlength=len(centroids)), cap).sum()
    assert np.count_nonzero(got == nearest) == kept


def degenerate_tokens(kind, n=1024, d=16):
    if kind == "identical":
        return np.ones((n, d), dtype=np.float32)
    return np.random.default_rng(40).normal(size=(n, d)).astype(np.float32)


# identical tokens tie every distance, so every round targets one centroid;
# c close to n leaves about one slot per token
DEGENERATE = [("identical", 1024), ("identical", 1023), ("identical", 512),
              ("distinct", 1000), ("distinct", 1024)]


@pytest.mark.parametrize("kind, c", DEGENERATE)
def test_cap_assign_degenerate_inputs_valid(kind, c):
    x = degenerate_tokens(kind)
    n = len(x)
    cap = -(-n // c)
    centroids = x[np.random.default_rng(41).choice(n, size=c, replace=False)]
    got = cap_assign(x, centroids, cap)
    sizes = np.bincount(got, minlength=c)
    assert got.shape == (n,) and sizes.size == c
    assert sizes.max() <= cap and sizes.sum() == n
    # the same case on a 64-token copy (identical tokens: c = 32, 63, 64), against the oracle;
    # identical tokens take one round per centroid there too
    x, c = x[:64], c * 64 // n
    cap = -(-64 // c)
    centroids = x[np.random.default_rng(42).choice(64, size=c, replace=False)]
    assert np.array_equal(cap_assign(x, centroids, cap), naive_cap_assign(x, centroids, cap))


@pytest.mark.parametrize("kind, c", DEGENERATE)
def test_kmeans_degenerate_inputs_valid(kind, c):
    x = degenerate_tokens(kind)
    n = len(x)
    for cap_ratio in (1.0, 1.5):  # tight caps, and the default
        cl = kmeans(x, c, 1, cap_ratio, make_rng(0))
        sizes = np.bincount(cl.assignments, minlength=c)
        assert np.array_equal(cl.sizes, sizes)
        cap = math.ceil(cap_ratio * n / c)
        assert sizes.max() <= cap and sizes.sum() == n and sizes.min() >= 1, cap_ratio


def test_repair_empties_is_one_pass_that_writes_no_centroids():
    # identical tokens tie every distance: the empties take the lowest ids whose cluster keeps a member
    x, centroids, assign = np.ones((5, 2)), np.ones((4, 2)), np.array([0, 0, 0, 1, 1])
    assert _repair_empties(x, centroids, assign).tolist() == [2, 3, 0, 1, 1]
    assert assign.tolist() == [0, 0, 0, 1, 1] and np.array_equal(centroids, np.ones((4, 2)))
    # token 2 is served worst, but it is its cluster's only member, so token 1 moves
    x, centroids = np.array([[0.0], [0.1], [20.0]]), np.array([[0.0], [10.0], [50.0]])
    assert _repair_empties(x, centroids, np.array([0, 0, 1])).tolist() == [0, 2, 1]
    assert centroids.ravel().tolist() == [0.0, 10.0, 50.0]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_repair_fills_an_empty_cluster_with_the_token_served_worst(dtype):
    # duplicate starting centroids leave cluster 1 empty after the first Lloyd
    # assignment (ties go to the lowest id). Token 7 is the farthest from its
    # centroid; token 3 has the greatest score ||c||^2 - 2 x.c on the centered
    # tokens, which omits the token's own norm, so scores must not pick it
    x = np.array([[-1.0, 0], [0, 0], [1, 0], [3, 0], [10, 0], [10, 1], [10, -1], [14, 0]])
    start = np.array([[0.0, 0], [0, 0], [10, 0]])
    d2 = ((x[:, None] - start) ** 2).sum(axis=-1)
    nearest = d2.argmin(axis=1)
    worst = int(np.argmax(d2[np.arange(8), nearest]))
    xc, sc = x - x.mean(axis=0), start - x.mean(axis=0)
    by_score = int(np.argmax((sc ** 2).sum(axis=1)[nearest] - 2 * (xc * sc[nearest]).sum(axis=1)))
    assert (worst, by_score) == (7, 3)
    init = CentroidInit(centroids=start.astype(dtype), indices=np.array([1, 1, 4]), uniform_fallback=False)
    cl = kmeans(x.astype(dtype), 3, 1, cap_ratio=3.0, rng=make_rng(0), init=init)
    assert cl.order[cl.offsets[1]:cl.offsets[2]].tolist() == [worst]


def shifted_errors(kind, offsets, **spec):
    q, k, v = generate(WorkloadSpec(kind=kind, n=2048, d=16, seed=0, dtype="f32", **spec))
    sign = np.where(np.arange(16) % 2, -1, 1).astype(np.float32)
    cfg = MuseConfig(c_q=64, c_k=64, seed=0)
    return [rel_sq_error(attend(q, k + o * sign, v), muse_acausal(q, k + o * sign, v, cfg)) for o in offsets]


@pytest.mark.parametrize("kind, spec", [("isotropic_gaussian", {}),
                                        ("gaussian_mixture", dict(c_true=64, spread=0.3))])
def test_error_does_not_grow_with_a_shared_key_shift(kind, spec):
    # exact attention ignores a vector added to every key; k-means on the keys
    # as given would seed by ||k||^2 and lose its scores to cancellation
    base, *shifted = shifted_errors(kind, [0.0, 10.0, 1e2, 1e3, 1e4], **spec)
    for o, err in zip([10.0, 1e2, 1e3, 1e4], shifted):
        assert abs(err - base) <= 0.02 * base, f"offset {o}: {err:.4g} against {base:.4g} unshifted"


def test_decompose_reconstruction_within_one_ulp():
    # a two-float split cannot round-trip every entry bit-exactly, but the
    # reconstruction error is bounded by one ulp of the input everywhere
    rng = np.random.default_rng(13)
    x = rng.normal(size=(25, 4))
    cl = kmeans(x, 3, 2, 1.5, make_rng(5))
    residual = decompose(x, cl)
    part = cl.centroids[cl.assignments]
    err = np.abs(part + residual - x)
    assert (err <= np.spacing(np.abs(x) + np.abs(part))).all()
    assert (part + residual == x).mean() > 0.5


def test_decompose_zero_residual_on_replicated_centroids():
    base = np.array([[1.0, 2.0], [5.0, -1.0]])
    x = np.repeat(base, 6, axis=0)
    cl = kmeans(x, 2, 2, 1.5, make_rng(6))
    residual = decompose(x, cl)
    assert residual.shape == x.shape
    np.testing.assert_allclose(x - residual, cl.centroids[cl.assignments], atol=1e-12)
    np.testing.assert_allclose(residual, 0.0, atol=1e-12)


def test_decompose_residuals_sum_to_zero_per_cluster():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(40, 3))
    cl = kmeans(x, 5, 2, 1.5, make_rng(7))
    residual = decompose(x, cl)
    for members in np.split(cl.order, cl.offsets[1:-1]):
        np.testing.assert_allclose(residual[members].sum(axis=0), 0.0, atol=1e-10)


def test_inertia_definitions():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(30, 4))
    singletons = kmeans(x, 30, 1, 1.5, make_rng(8))
    assert inertia(x, singletons) == pytest.approx(0.0, abs=1e-18)
    single = kmeans(x, 1, 1, 1.5, make_rng(9))
    expected = 30 * float(x.var(axis=0, ddof=0).sum())
    assert inertia(x, single) == pytest.approx(expected, rel=1e-10)
