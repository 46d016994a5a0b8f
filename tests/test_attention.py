import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muse import (
    MuseConfig,
    WorkloadSpec,
    attend,
    attend_causal,
    cluster_tokens,
    generate,
    merge_partials,
    muse_acausal,
    muse_causal,
    rel_sq_error,
)
from muse.attention import KEY_TILE, TILE, AttentionResult

from oracles import naive_attend, naive_attend_causal, naive_attend_slice, naive_merge


def make_qkv(seed, b=1, h=1, n=12, d=4, dtype=np.float64):
    rng = np.random.default_rng(seed)
    shape = (b, h, n, d)
    return (rng.normal(size=shape).astype(dtype),
            rng.normal(size=shape).astype(dtype),
            rng.normal(size=shape).astype(dtype))


@pytest.mark.parametrize("seed", range(5))
def test_attend_matches_naive_oracle(seed):
    q, k, v = make_qkv(seed, b=2, h=2, n=10, d=5)
    out = attend(q, k, v)
    y, mu = naive_attend(q, k, v)
    np.testing.assert_allclose(out.y, y, atol=1e-12)
    np.testing.assert_allclose(out.mu, mu, atol=1e-12)


def test_attend_explicit_scale_matches_naive():
    q, k, v = make_qkv(3, n=8, d=4)
    out = attend(q, k, v, scale=0.7)
    y, mu = naive_attend(q, k, v, scale=0.7)
    np.testing.assert_allclose(out.y, y, atol=1e-12)
    np.testing.assert_allclose(out.mu, mu, atol=1e-12)


def test_attend_bias_matches_naive():
    q, k, v = make_qkv(4, n=9, d=3)
    rng = np.random.default_rng(9)
    bias = rng.normal(size=(1, 1, 9))
    out = attend(q, k, v, bias=bias)
    y, mu = naive_attend(q, k, v, bias=bias)
    np.testing.assert_allclose(out.y, y, atol=1e-12)
    np.testing.assert_allclose(out.mu, mu, atol=1e-12)


def test_attend_neg_inf_bias_excludes_keys():
    q, k, v = make_qkv(5, n=8, d=3)
    bias = np.zeros((1, 1, 8))
    bias[..., 4:] = -np.inf
    out = attend(q, k, v, bias=bias)
    trimmed = attend(q, k[:, :, :4], v[:, :, :4])
    np.testing.assert_allclose(out.y, trimmed.y, atol=1e-14)
    np.testing.assert_allclose(out.mu, trimmed.mu, atol=1e-14)


def test_attend_single_key_returns_value_row():
    q, k, v = make_qkv(6, n=1, d=4)
    q5 = np.repeat(q, 5, axis=2)
    out = attend(q5, k, v)
    for i in range(5):
        np.testing.assert_allclose(out.y[0, 0, i], v[0, 0, 0], atol=1e-15)


def test_attend_uniform_keys_gives_value_mean():
    rng = np.random.default_rng(7)
    q = rng.normal(size=(1, 1, 6, 4))
    k = np.zeros((1, 1, 8, 4))
    v = rng.normal(size=(1, 1, 8, 4))
    out = attend(q, k, v)
    for i in range(6):
        np.testing.assert_allclose(out.y[0, 0, i], v[0, 0].mean(axis=0), atol=1e-14)


def test_attend_fully_masked_row_raises():
    q, k, v = make_qkv(8, n=4, d=3)
    bias = np.full((1, 1, 4), -np.inf)
    with pytest.raises(ValueError, match="fully masked"):
        attend(q, k, v, bias=bias)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_attend_rejects_nan_scores_and_no_keys():
    # f32 scores of 1e20 * 1e20 * 16 overflow to +inf, and a -inf bias on one
    # of them makes inf + -inf = NaN; overflow and fully masked rows have their own tests
    q = np.full((1, 1, 3, 16), 1e20, dtype=np.float32)
    with pytest.raises(ValueError, match="NaN"):
        attend(q, q, q, bias=np.array([[[-np.inf, 0.0, 0.0]]]))
    with pytest.raises(ValueError, match="need at least one key"):
        attend(q, q[:, :, :0], q[:, :, :0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("j", [0, TILE + 1])
def test_one_unmasked_key_returns_its_value_bitwise(dtype, j):
    # the masked keys add exp(-inf) = 0 to the ones column, so the normaliser
    # is exactly 1; integer q and k make the score exact in both dtypes
    rng = np.random.default_rng(31)
    n = TILE + 5
    q = rng.integers(-3, 4, size=(1, 1, n, 4)).astype(dtype)
    k = rng.integers(-3, 4, size=(1, 1, n, 4)).astype(dtype)
    v = rng.normal(size=(1, 1, n, 4)).astype(dtype)
    bias = np.full((1, 1, n), -np.inf)
    bias[..., j] = 0.5
    out = attend(q, k, v, bias=bias, scale=1.0)
    assert np.array_equal(out.y[0, 0], np.broadcast_to(v[0, 0, j], (n, 4)))
    assert np.array_equal(out.mu[0, 0], q[0, 0] @ k[0, 0, j] + dtype(0.5))


def test_attend_shape_validation():
    q, k, v = make_qkv(0, n=6, d=3)
    with pytest.raises(ValueError, match="shape mismatch"):
        attend(q, k[:, :, :, :2], v[:, :, :, :2])
    with pytest.raises(ValueError, match="shape mismatch"):
        attend(q, k, v[:, :, :4])
    with pytest.raises(ValueError, match="bias shape"):
        attend(q, k, v, bias=np.zeros((1, 1, 5)))
    with pytest.raises(ValueError, match="scale"):
        attend(q, k, v, scale=0.0)
    q, k, v = make_qkv(0, n=6, d=0)
    for entry in (attend, attend_causal):
        with pytest.raises(ValueError, match="need d >= 1"):
            entry(q, k, v)


def test_causal_entry_points_reject_unaligned_shapes():
    q, k, v = make_qkv(1, n=8, d=3)
    with pytest.raises(ValueError, match="causal attention needs n_q == n_k"):
        attend_causal(q[:, :, :5], k, v)
    with pytest.raises(ValueError, match="identical q/k/v shapes"):
        muse_causal(q[:, :, :4], k, v, MuseConfig(c_q=2, c_k=2, seed=0), b=4)


def test_attend_f32_dtype_and_tolerance():
    q, k, v = make_qkv(9, n=16, d=8, dtype=np.float32)
    out = attend(q, k, v)
    assert out.y.dtype == np.float32 and out.mu.dtype == np.float32
    y, mu = naive_attend(q, k, v)
    assert np.abs(out.y - y).max() < 1e-5
    assert np.abs(out.mu - mu).max() < 1e-5


def test_attend_threads_bit_identical():
    q, k, v = make_qkv(10, b=3, h=2, n=20, d=6)
    a = attend(q, k, v, threads=1)
    b = attend(q, k, v, threads=4)
    assert np.array_equal(a.y, b.y) and np.array_equal(a.mu, b.mu)


def test_attend_chunked_rows_consistent():
    # n spanning several query-row tiles: repeated calls are bit-identical,
    # and each row agrees with a standalone single-query call to within
    # matmul-kernel reassociation noise
    q, k, v = make_qkv(11, n=2060, d=4)
    whole = attend(q, k, v)
    again = attend(q, k, v)
    assert np.array_equal(whole.y, again.y) and np.array_equal(whole.mu, again.mu)
    for idx in (0, TILE - 1, TILE, TILE + 1, 1023, 1024, 1025, 2059):
        single = attend(q[:, :, idx:idx + 1], k, v)
        np.testing.assert_allclose(whole.y[:, :, idx], single.y[:, :, 0], atol=1e-13)
        np.testing.assert_allclose(whole.mu[:, :, idx], single.mu[:, :, 0], atol=1e-13)


@pytest.mark.parametrize("seed", range(4))
def test_attend_causal_matches_naive(seed):
    q, k, v = make_qkv(seed, n=9, d=4)
    out = attend_causal(q, k, v)
    y, mu = naive_attend_causal(q, k, v)
    np.testing.assert_allclose(out.y, y, atol=1e-12)
    np.testing.assert_allclose(out.mu, mu, atol=1e-12)


def test_attend_causal_first_token():
    q, k, v = make_qkv(12, n=5, d=4)
    out = attend_causal(q, k, v, scale=0.5)
    np.testing.assert_allclose(out.y[0, 0, 0], v[0, 0, 0], atol=1e-15)
    assert out.mu[0, 0, 0] == pytest.approx(0.5 * float(q[0, 0, 0] @ k[0, 0, 0]), abs=1e-12)


def test_attend_causal_upper_triangle_inert():
    q, k, v = make_qkv(13, n=10, d=4)
    base = attend_causal(q, k, v)
    k2, v2 = k.copy(), v.copy()
    j = 6
    k2[:, :, j] += 3.0
    v2[:, :, j] -= 2.0
    bumped = attend_causal(q, k2, v2)
    assert np.array_equal(base.y[:, :, :j], bumped.y[:, :, :j])
    assert np.array_equal(base.mu[:, :, :j], bumped.mu[:, :, :j])
    assert not np.array_equal(base.y[:, :, j:], bumped.y[:, :, j:])


@given(seed=st.integers(0, 10 ** 6), n_parts=st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_partition_invariance(seed, n_parts):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_parts, 40))
    d = int(rng.integers(1, 8))
    pieces = np.array_split(rng.permutation(n), n_parts)
    for dtype in (np.float64, np.float32):
        q, k, v = make_qkv(seed + 1, n=n, d=d, dtype=dtype)
        full = attend(q, k, v)
        merged = merge_partials([attend(q, k[:, :, idx], v[:, :, idx]) for idx in pieces if len(idx)])
        assert merged.y.dtype == dtype
        if dtype == np.float64:
            np.testing.assert_allclose(merged.y, full.y, atol=1e-12)
            np.testing.assert_allclose(merged.mu, full.mu, atol=1e-12)
        else:
            assert rel_sq_error(full, merged) <= 1e-8


def test_partition_invariance_f32():
    q, k, v = make_qkv(16, n=30, d=6, dtype=np.float32)
    full = attend(q, k, v)
    parts = [attend(q, k[:, :, i::3], v[:, :, i::3]) for i in range(3)]
    merged = merge_partials(parts)
    assert np.abs(merged.y - full.y).max() / np.abs(full.y).max() < 1e-5
    assert merged.y.dtype == np.float32


def test_merge_matches_naive_merge():
    q, k, v = make_qkv(17, n=15, d=4)
    parts = [attend(q, k[:, :, :5], v[:, :, :5]), attend(q, k[:, :, 5:], v[:, :, 5:])]
    merged = merge_partials(parts)
    y, mu = naive_merge([(p.y, p.mu) for p in parts])
    np.testing.assert_allclose(merged.y, y, atol=1e-13)
    np.testing.assert_allclose(merged.mu, mu, atol=1e-13)


def test_merge_single_part_identity():
    q, k, v = make_qkv(18, n=9, d=4)
    part = attend(q, k, v)
    merged = merge_partials([part])
    assert np.array_equal(merged.y, part.y)
    assert np.array_equal(merged.mu, part.mu)


def test_merge_order_invariance():
    q, k, v = make_qkv(19, n=12, d=4)
    parts = [attend(q, k[:, :, i::4], v[:, :, i::4]) for i in range(4)]
    a = merge_partials(parts)
    b = merge_partials(parts[::-1])
    np.testing.assert_allclose(a.y, b.y, atol=1e-12)
    np.testing.assert_allclose(a.mu, b.mu, atol=1e-12)


def test_merge_ignores_non_participating_parts():
    q, k, v = make_qkv(20, n=8, d=3)
    full = attend(q, k, v)
    silent = AttentionResult(y=np.zeros_like(full.y), mu=np.full_like(full.mu, -np.inf))
    merged = merge_partials([full, silent])
    assert np.array_equal(merged.y, full.y)
    assert np.array_equal(merged.mu, full.mu)


def test_merge_uncovered_query_raises():
    q, k, v = make_qkv(21, n=6, d=3)
    out = attend(q, k, v)
    mu = out.mu.copy()
    mu[0, 0, 2] = -np.inf
    with pytest.raises(ValueError, match="uncovered query"):
        merge_partials([AttentionResult(y=out.y, mu=mu)])
    with pytest.raises(ValueError, match="empty merge"):
        merge_partials([])


def test_merge_shape_mismatch_raises():
    q, k, v = make_qkv(22, n=6, d=3)
    a = attend(q, k, v)
    b = attend(q[:, :, :4], k, v)
    with pytest.raises(ValueError, match="disagree on query shape"):
        merge_partials([a, b])
    narrow = AttentionResult(y=a.y[..., :2], mu=a.mu)
    with pytest.raises(ValueError, match="disagree on output shape"):
        merge_partials([a, narrow])


def test_result_shape_validation():
    with pytest.raises(ValueError, match="inconsistent result shapes"):
        AttentionResult(y=np.zeros((1, 1, 3, 2)), mu=np.zeros((1, 1, 4)))


ENTRY_POINTS = {
    "attend": attend,
    "attend_causal": attend_causal,
}


SLICED_ENTRY_POINTS = {
    **ENTRY_POINTS,
    "muse_acausal": lambda q, k, v, **kw: muse_acausal(q, k, v, MuseConfig(c_q=4, c_k=4, seed=0), **kw),
    "cluster_tokens": lambda q, k, v, **kw: cluster_tokens(q, k, MuseConfig(c_q=4, c_k=4, seed=0), **kw),
    "muse_causal": lambda q, k, v, **kw: muse_causal(q, k, v, MuseConfig(c_q=4, c_k=4, seed=0, near_min=1),
                                                    b=8, **kw),
}


@pytest.mark.parametrize("entry", SLICED_ENTRY_POINTS)
@pytest.mark.parametrize("threads", [0, -3, 2.5, "2", None])
def test_every_entry_point_rejects_bad_threads(entry, threads):
    q, k, v = make_qkv(24, n=32, d=4)
    with pytest.raises(ValueError, match="threads must be"):
        SLICED_ENTRY_POINTS[entry](q, k, v, threads=threads)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
def test_every_entry_point_rejects_bad_scale(entry, scale):
    q, k, v = make_qkv(23, n=6, d=3)
    with pytest.raises(ValueError, match="scale must be positive"):
        ENTRY_POINTS[entry](q, k, v, scale=scale)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("entry", ["attend", "attend_causal"])
def test_f32_score_overflow_is_not_reported_as_masking(entry):
    # 1e20 is finite in f32, but scale * q . k = 2.5e39 is not
    q = np.full((1, 1, 4, 16), 1e20, dtype=np.float32)
    with pytest.raises(ValueError, match="score overflow"):
        ENTRY_POINTS[entry](q, q, q)


# Tile-boundary checks against the loop oracle. The oracle runs on the rows
# next to every tile edge (plus the first and last), over the keys each row
# sees, which is what naive_attend_causal does for every row. Inputs are drawn
# in f32 and upcast for the f64 calls, so one oracle serves both dtypes.
BOUNDARY_NS = [TILE - 1, TILE, TILE + 1, 2 * TILE + 1, 1100]


def boundary_rows(n):
    edges = range(0, n, TILE)
    return sorted({r for e in edges for r in (e - 1, e, e + 1) if 0 <= r < n} | {n - 1})


def oracle_rows(q, k, v, rows, causal=False, bias=None, window=None):
    """window, if given, keeps only the last `window` keys up to each row."""
    q, k, v = q[0, 0], k[0, 0], v[0, 0]
    y, mu = [], []
    for i in rows:
        k0 = 0 if window is None else max(0, i - window + 1)
        k1 = i + 1 if causal else k.shape[0]
        bias_s = None if bias is None else bias[0, 0, k0:k1]
        yi, mi = naive_attend_slice(q[i:i + 1], k[k0:k1], v[k0:k1], bias=bias_s)
        y.append(yi[0])
        mu.append(mi[0])
    return np.array(y), np.array(mu)


def boundary_qkv(n, seed=24):
    rng = np.random.default_rng(seed + n)
    return [rng.normal(size=(1, 1, n, 16)).astype(np.float32) for _ in range(3)]


def assert_rows_match(out, rows, want, dtype):
    # f64: reassociation noise only; f32: the benchmark's 64-eps gate, relative to 1 + |want|
    tol = 1e-12 if dtype == np.float64 else 64 * float(np.finfo(np.float32).eps)
    for got, ref in ((out.y[0, 0, rows], want[0]), (out.mu[0, 0, rows], want[1])):
        assert got.dtype == dtype
        assert np.all(np.abs(got - ref) <= tol * (1.0 + np.abs(ref))), np.max(np.abs(got - ref))


@pytest.mark.parametrize("n", BOUNDARY_NS)
@pytest.mark.parametrize("masked", [False, True])
def test_attend_at_tile_boundaries(n, masked):
    q, k, v = boundary_qkv(n)
    bias = None
    if masked:
        rng = np.random.default_rng(n)
        bias = rng.normal(size=(1, 1, n))
        bias[rng.random(size=(1, 1, n)) < 0.4] = -np.inf
        bias[..., 0] = 0.0  # every row keeps one key
    rows = boundary_rows(n)
    want = oracle_rows(q, k, v, rows, bias=bias)
    for dtype in (np.float32, np.float64):
        out = attend(*(a.astype(dtype) for a in (q, k, v)), bias=bias)
        assert_rows_match(out, rows, want, dtype)


# Causal attention is sliding-window attention whose window reaches key 0 from
# every row: window None is the causal oracle, and each tile-edge window of at
# least n tokens checks the same kernel against the windowed oracle.
CAUSAL_WINDOWS = [(None, n) for n in BOUNDARY_NS] + [
    (w, n) for n in BOUNDARY_NS for w in (TILE - 1, TILE, TILE + 1) if w >= n]


@pytest.mark.parametrize("window, n", CAUSAL_WINDOWS)
def test_causal_and_sliding_at_tile_boundaries(window, n):
    q, k, v = boundary_qkv(n)
    rows = boundary_rows(n)
    want = oracle_rows(q, k, v, rows, causal=True, window=window)
    for dtype in (np.float32, np.float64):
        assert_rows_match(attend_causal(*(a.astype(dtype) for a in (q, k, v))), rows, want, dtype)


@pytest.mark.parametrize("j", [TILE - 1, TILE, TILE + 1])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_causal_strict_at_tile_boundary(j, dtype):
    q, k, v = (a.astype(dtype) for a in boundary_qkv(2 * TILE + 1))
    base = attend_causal(q, k, v)
    k2, v2 = k.copy(), v.copy()
    k2[:, :, j] += 3.0
    v2[:, :, j] -= 2.0
    bumped = attend_causal(q, k2, v2)
    assert np.array_equal(base.y[:, :, :j], bumped.y[:, :, :j])
    assert np.array_equal(base.mu[:, :, :j], bumped.mu[:, :, :j])
    assert not np.array_equal(base.y[:, :, j], bumped.y[:, :, j])


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_threads_bit_identical_across_tiles(entry):
    q, k, v = make_qkv(25, b=2, h=3, n=TILE + 44, d=6, dtype=np.float32)
    a = ENTRY_POINTS[entry](q, k, v, threads=1)
    b = ENTRY_POINTS[entry](q, k, v, threads=4)
    assert np.array_equal(a.y, b.y) and np.array_equal(a.mu, b.mu)


def chunked_reference(q, k, v, causal, chunk=512):
    """Float64 attention on query-row chunks, normalised by numpy sums: (y, mu)."""
    q, k, v = (a[0, 0].astype(np.float64) for a in (q, k, v))
    n, d = q.shape
    y, mu = np.empty((n, d)), np.empty(n)
    for lo in range(0, n, chunk):
        up = min(lo + chunk, n)
        stop = up if causal else n
        s = q[lo:up] @ k[:stop].T / np.sqrt(d)
        if causal:
            s[np.arange(stop)[None, :] > np.arange(lo, up)[:, None]] = -np.inf
        top = s.max(axis=1, keepdims=True)
        e = np.exp(s - top)
        total = e.sum(axis=1)
        y[lo:up] = e @ v[:stop] / total[:, None]
        mu[lo:up] = np.log(total) + top[:, 0]
    return y, mu


@pytest.mark.parametrize("entry", ["attend", "attend_causal"])
def test_f32_matches_float64_at_benchmark_scale(entry):
    # the normaliser is a BLAS sum over up to 4096 exps; the gate is the
    # benchmark's: 64 f32 eps relative to 1 + |ref|, for y and mu
    spec = WorkloadSpec(kind="gaussian_mixture", n=4096, d=16, c_true=64, spread=0.3,
                        dtype="f32", seed=7)
    q, k, v = generate(spec)
    out = ENTRY_POINTS[entry](q, k, v)
    want = chunked_reference(q, k, v, causal=entry == "attend_causal")
    assert_rows_match(out, slice(None), want, np.float32)


@pytest.mark.parametrize("entry", ["attend", "attend_causal"])
def test_peak_memory_stays_below_a_quarter_score_matrix(entry):
    # a dense (n, n) mask or score matrix would show up here: one f32 (n, n)
    # matrix is 67 MB at n = 4096
    n = 4096
    q, k, v = make_qkv(26, n=n, d=16, dtype=np.float32)
    tracemalloc.start()
    try:
        ENTRY_POINTS[entry](q, k, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 4 / 4, f"peak {peak / 1e6:.1f} MB"


def test_exact_kernel_holds_one_score_tile():
    # a 2048-row causal block (a near-field block of muse_causal) scores at most
    # TILE x 2048 keys per tile; holding the last tile while the next is made
    # peaks near two tiles
    n = 2048
    q, k, v = make_qkv(27, n=n, d=16, dtype=np.float32)
    tracemalloc.start()
    try:
        attend_causal(q, k, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tile = TILE * n * 4
    assert peak < 1.5 * tile, f"peak {peak / 1e6:.2f} MB = {peak / tile:.2f} tiles"


def test_exact_kernel_chunks_the_keys():
    # an acausal tile scores its keys KEY_TILE columns at a time: the peak is the
    # (n_k, d + 1) value copy plus a few TILE x KEY_TILE blocks (the score block,
    # the scaled queries and the output are one block each here), not a
    # TILE x n_k tile (8.4 MB)
    n, d = 8192, 16
    q, k, v = make_qkv(28, n=n, d=d, dtype=np.float32)
    tracemalloc.start()
    try:
        attend(q, k, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block, values = TILE * KEY_TILE * 4, n * (d + 1) * 4
    assert peak < values + 4 * block, f"peak {peak / 1e6:.2f} MB = values + {(peak - values) / block:.2f} blocks"


def score_bound(dtype):
    """L of the exact kernel: rows with scale * |q_i| * max |k_j| <= L skip the max shift."""
    return np.log(np.finfo(dtype).max) / 4


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("entry", ["attend_causal"])
@pytest.mark.parametrize("t", [TILE - 1, TILE, TILE + 1])
def test_strict_causality_across_the_bound(t, entry, dtype):
    # key and value t x 1e3 lift scale * |q_i| * max_{j <= i} |k_j| far above
    # L for every row i >= t, so those rows take the shifted route; rows < t,
    # in the same tile, must not see it
    call = ENTRY_POINTS[entry]
    q, k, v = (a.astype(dtype) for a in boundary_qkv(2 * TILE + 1))
    base = call(q, k, v)
    k2, v2 = k.copy(), v.copy()
    k2[:, :, t] *= 1e3
    v2[:, :, t] *= 1e3
    assert 0.25 * np.linalg.norm(q[0, 0, t:], axis=1).min() * np.linalg.norm(k2[0, 0, t]) > score_bound(dtype)
    bumped = call(q, k2, v2)
    assert np.array_equal(base.y[:, :, :t], bumped.y[:, :, :t])
    assert np.array_equal(base.mu[:, :, :t], bumped.mu[:, :, :t])
    assert not np.array_equal(base.y[:, :, t], bumped.y[:, :, t])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_threads_bit_identical_with_unbounded_rows(entry, dtype):
    q, k, v = make_qkv(29, b=2, h=3, n=TILE + 44, d=6, dtype=dtype)
    q[:, :, ::3] *= 60  # every third row far above the bound, in every tile
    a = ENTRY_POINTS[entry](q, k, v, threads=1)
    b = ENTRY_POINTS[entry](q, k, v, threads=4)
    assert np.array_equal(a.y, b.y) and np.array_equal(a.mu, b.mu)


def mixed_qkv(n, dtype, seed=30):
    """Inputs whose tiles mix rows on both sides of the bound, with the longest
    keys on both sides of the first KEY_TILE edge (and at 0, so every prefix has
    the same max |k|): scale * |q_i| * max |k_j| is 0.5 L on even rows, 1.5 L on
    odd ones."""
    rng = np.random.default_rng(seed)
    q, k, v = (rng.normal(size=(n, 16)) for _ in range(3))
    k_top = 4.0
    k *= 0.9 * k_top / np.linalg.norm(k, axis=1).max()
    for j in (0, KEY_TILE - 1, KEY_TILE):
        k[j] *= k_top / np.linalg.norm(k[j])
    ratio = np.where(np.arange(n) % 2 == 0, 0.5, 1.5) * score_bound(dtype)
    q *= (ratio / (0.25 * k_top) / np.linalg.norm(q, axis=1))[:, None]
    return [a[None, None].astype(dtype) for a in (q, k, v)]


MIXED_N = KEY_TILE + TILE + 1
# name: (call, whether the oracle is causal, whether the call gets a bias)
MIXED_CALLS = {
    "attend": (attend, False, False),
    "attend_bias": (attend, False, True),
    "attend_causal": (attend_causal, True, False),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("call", MIXED_CALLS)
def test_mixed_tiles_and_key_chunks_match_oracle(call, dtype):
    q, k, v = mixed_qkv(MIXED_N, dtype)
    fn, causal, with_bias = MIXED_CALLS[call]
    kwargs = {}
    if with_bias:
        rng = np.random.default_rng(MIXED_N)
        bias = rng.normal(size=(1, 1, MIXED_N))
        bias[rng.random(size=(1, 1, MIXED_N)) < 0.4] = -np.inf
        bias[..., (0, KEY_TILE - 1, KEY_TILE)] = 0.0
        kwargs["bias"] = bias
    rows = boundary_rows(MIXED_N)
    assert_rows_match(fn(q, k, v, **kwargs), rows, oracle_rows(q, k, v, rows, causal=causal, **kwargs), dtype)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_f64_all_rows_unbounded_match_oracle(entry):
    n = KEY_TILE + TILE + 1
    q, k, v = (a.astype(np.float64) for a in boundary_qkv(n))
    q, k = 30 * q, 30 * k  # scale * |q| * |k| in the thousands, against L = 177
    rows = boundary_rows(n)
    want = oracle_rows(q, k, v, rows, causal=entry == "attend_causal")
    assert_rows_match(ENTRY_POINTS[entry](q, k, v), rows, want, np.float64)


@pytest.mark.parametrize("dtype, top, v_scale", [(np.float32, 20.0, 1e31), (np.float64, 170.0, 1e250),
                                                 (np.float32, 20.0, 7e18)])
def test_values_above_the_limit_take_the_shifted_route(dtype, top, v_scale):
    # k = q and scale * |q_i| |k_j| = top < L, so the norms alone would skip the
    # shift; exp(top) * v_scale overflows the dtype, so the values must not allow it.
    # At 7e18 every |v| entry is below sqrt(finfo.max), but a squared value norm
    # overflows the dtype, which fails the bound too
    rng = np.random.default_rng(32)
    q = rng.normal(size=(1, 1, 9, 4))
    q *= np.sqrt(2 * top) / np.linalg.norm(q, axis=-1, keepdims=True)  # scale = 1 / sqrt(4)
    v = v_scale * rng.normal(size=(1, 1, 9, 4))
    q, v = q.astype(dtype), v.astype(dtype)
    with np.errstate(over="ignore"):
        assert np.abs(v).max() >= np.sqrt(np.finfo(dtype).max) or np.isinf(np.sum(v * v, axis=-1)).any()
    rows = list(range(9))
    for entry in ENTRY_POINTS:
        want = oracle_rows(q, q, v, rows, causal=entry == "attend_causal")
        assert_rows_match(ENTRY_POINTS[entry](q, q, v), rows, want, dtype)
