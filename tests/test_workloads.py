import numpy as np
import pytest

from muse import WorkloadSpec, generate, generate_detailed, load_qkv, save_qkv
from muse.clustering import CentroidInit, inertia, kmeans
from muse.numerics import make_rng


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown workload kind"):
        WorkloadSpec(kind="cauchy")
    with pytest.raises(ValueError, match="positive"):
        WorkloadSpec(n=0)
    for spread in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="spread must be positive and finite"):
            WorkloadSpec(kind="gaussian_mixture", spread=spread)
    for scale in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="centroid_scale must be finite"):
            WorkloadSpec(kind="gaussian_mixture", centroid_scale=scale)
    with pytest.raises(ValueError, match="c_true"):
        WorkloadSpec(kind="gaussian_mixture", n=8, c_true=16)
    with pytest.raises(ValueError, match="path"):
        WorkloadSpec(kind="file")
    with pytest.raises(ValueError, match="dtype"):
        WorkloadSpec(dtype="f16")


@pytest.mark.parametrize("field, value, message", [
    *((f, v, f"{f} must be an integer") for f in ("batch", "heads", "n", "d", "c_true") for v in (2.0, "2")),
    ("c_true", 0, "need 1 <= c_true <= n"),
    ("c_true", -1, "need 1 <= c_true <= n"),
    ("seed", None, "seed must be a non-negative integer"),
    ("seed", -1, "seed must be a non-negative integer"),
    ("seed", 1.5, "seed must be a non-negative integer"),
])
def test_spec_rejects_what_generate_would_trip_on(field, value, message):
    with pytest.raises(ValueError, match=message):
        WorkloadSpec(**{"kind": "gaussian_mixture", "n": 8, "c_true": 2, field: value})


def test_generate_deterministic_and_seed_sensitive():
    spec = WorkloadSpec(kind="gaussian_mixture", n=64, d=4, c_true=4, seed=7)
    a = generate(spec)
    b = generate(spec)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    c = generate(WorkloadSpec(kind="gaussian_mixture", n=64, d=4, c_true=4, seed=8))
    assert not np.array_equal(a[0], c[0])


def test_isotropic_statistics():
    spec = WorkloadSpec(kind="isotropic_gaussian", n=4096, d=16, seed=0)
    q, k, v = generate(spec)
    for x in (q, k, v):
        assert x.shape == (1, 1, 4096, 16)
        assert abs(x.mean()) < 0.02
        assert abs(x.std() - 1.0) < 0.02
    assert not np.array_equal(q, k)


def test_mixture_labels_and_structure():
    spec = WorkloadSpec(kind="gaussian_mixture", batch=2, heads=2, n=256, d=8,
                        c_true=4, spread=0.05, seed=3)
    q, k, v, info = generate_detailed(spec)
    assert info.q_labels.shape == (2, 2, 256)
    assert info.k_centroids.shape == (2, 2, 4, 8)
    assert set(np.unique(info.k_labels)) <= set(range(4))
    # tokens sit near their generating centroids at small spread
    for bi in range(2):
        for hi in range(2):
            kc = info.k_centroids[bi, hi]
            dist = np.linalg.norm(k[bi, hi] - kc[info.k_labels[bi, hi]], axis=1)
            assert dist.max() < 0.05 * 8  # ~spread * sqrt(d) scale, generous


def test_value_noise_is_rotated_key_noise():
    # within a component, ||v - v_centroid|| equals ||k - k_centroid||
    # because the value noise is the key noise through a rigid rotation
    spec = WorkloadSpec(kind="gaussian_mixture", n=128, d=8, c_true=4,
                        spread=0.3, seed=5)
    q, k, v, info = generate_detailed(spec)
    kn = k[0, 0] - info.k_centroids[0, 0][info.k_labels[0, 0]]
    vn = v[0, 0] - info.v_centroids[0, 0][info.k_labels[0, 0]]
    np.testing.assert_allclose(np.linalg.norm(kn, axis=1),
                               np.linalg.norm(vn, axis=1), rtol=1e-10)
    assert not np.allclose(kn, vn)


def test_mixture_value_key_covariance_is_real():
    # the rotation coupling makes the within-component Cov(v, k) a rigid
    # multiple of spread^2, far above the sampling-noise floor
    spec = WorkloadSpec(kind="gaussian_mixture", n=2048, d=8, c_true=1,
                        spread=0.5, seed=9)
    q, k, v, info = generate_detailed(spec)
    kn = k[0, 0] - k[0, 0].mean(axis=0)
    vn = v[0, 0] - v[0, 0].mean(axis=0)
    cov = vn.T @ kn / kn.shape[0]
    # singular values of Cov should all be about spread^2
    sv = np.linalg.svd(cov, compute_uv=False)
    np.testing.assert_allclose(sv, 0.25, rtol=0.15)


def test_centroid_scale_scales_centroids():
    a = generate_detailed(WorkloadSpec(kind="gaussian_mixture", n=64, d=4,
                                       c_true=4, centroid_scale=1.0, seed=2))[3]
    b = generate_detailed(WorkloadSpec(kind="gaussian_mixture", n=64, d=4,
                                       c_true=4, centroid_scale=2.0, seed=2))[3]
    np.testing.assert_allclose(b.k_centroids, 2.0 * a.k_centroids, atol=1e-12)


def test_spread_to_zero_limit_recovers_centroids():
    # with a single component and shrinking spread the keys collapse onto
    # the component centroid, so clustering inertia goes to zero
    errs = []
    for spread in (0.1, 0.01, 0.001):
        spec = WorkloadSpec(kind="gaussian_mixture", n=256, d=8, c_true=1,
                            spread=spread, seed=4)
        q, k, v, info = generate_detailed(spec)
        kc = info.k_centroids[0, 0][0]
        errs.append(float(np.linalg.norm(k[0, 0] - kc, axis=1).mean()))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-2


def generating_inertia(x, centroids, labels):
    r = x - centroids[labels]
    return float(np.sum(r**2))


def test_mixture_inertia_self_check_with_informed_init():
    # seeding one centroid inside each true component lets capped k-means
    # recover the generating partition, whose inertia it cannot beat by much
    spec = WorkloadSpec(kind="gaussian_mixture", n=1024, d=16, c_true=16,
                        spread=0.1, seed=11)
    q, k, v, info = generate_detailed(spec)
    x = k[0, 0]
    labels = info.k_labels[0, 0]
    seeds = [int(np.flatnonzero(labels == c)[0]) for c in range(16)]
    init = CentroidInit(centroids=x[seeds].copy(), indices=np.array(seeds),
                        uniform_fallback=False)
    out = kmeans(x, 16, iters=5, cap_ratio=3.0, rng=make_rng(0), init=init)
    truth = generating_inertia(x, info.k_centroids[0, 0], labels)
    assert inertia(x, out) <= 1.10 * truth


def test_mixture_inertia_default_init_is_bounded():
    # default uniform seeding rarely covers all components, so only a
    # loose multiple of the generating inertia is guaranteed
    spec = WorkloadSpec(kind="gaussian_mixture", n=1024, d=16, c_true=16,
                        spread=0.1, seed=12)
    q, k, v, info = generate_detailed(spec)
    x = k[0, 0]
    out = kmeans(x, 16, iters=5, cap_ratio=3.0, rng=make_rng(0))
    truth = generating_inertia(x, info.k_centroids[0, 0], info.k_labels[0, 0])
    assert inertia(x, out) <= 50.0 * truth


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_save_load_round_trip_bit_exact(tmp_path, dtype):
    spec = WorkloadSpec(kind="isotropic_gaussian", batch=2, heads=3, n=16, d=5,
                        dtype=dtype, seed=0)
    q, k, v = generate(spec)
    path = tmp_path / "w.museqkv"
    save_qkv(path, q, k, v)
    q2, k2, v2 = load_qkv(path)
    assert q2.dtype == q.dtype
    for a, b in zip((q, k, v), (q2, k2, v2)):
        assert np.array_equal(a, b) and a.shape == b.shape


def test_file_workload_kind_loads_saved_tensors(tmp_path):
    q, k, v = generate(WorkloadSpec(n=8, d=3, seed=1))
    path = tmp_path / "w.museqkv"
    save_qkv(path, q, k, v)
    q2, k2, v2 = generate(WorkloadSpec(kind="file", path=str(path)))
    assert np.array_equal(q, q2) and np.array_equal(k, k2) and np.array_equal(v, v2)


def test_save_rejects_mismatched_inputs(tmp_path):
    q, k, v = generate(WorkloadSpec(n=8, d=3, seed=1))
    with pytest.raises(ValueError, match="share one shape"):
        save_qkv(tmp_path / "x", q, k[:, :, :4], v[:, :, :4])
    with pytest.raises(ValueError, match="share one dtype"):
        save_qkv(tmp_path / "x", q.astype(np.float32), k, v)


def test_load_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad"
    p.write_bytes(b"NOTQKV00" + b"\x00" * 64)
    with pytest.raises(ValueError, match="not a MUSEQKV file"):
        load_qkv(p)


def test_load_rejects_truncation(tmp_path):
    q, k, v = generate(WorkloadSpec(n=8, d=3, seed=1))
    p = tmp_path / "w"
    save_qkv(p, q, k, v)
    blob = p.read_bytes()
    short = tmp_path / "short"
    short.write_bytes(blob[:-8])
    with pytest.raises(ValueError, match=r"truncated payload: expected \d+ bytes, got \d+"):
        load_qkv(short)
    longer = tmp_path / "long"
    longer.write_bytes(blob + b"\x00" * 8)
    with pytest.raises(ValueError, match="oversized payload"):
        load_qkv(longer)


def test_load_rejects_bad_header_fields(tmp_path):
    q, k, v = generate(WorkloadSpec(n=8, d=3, seed=1))
    p = tmp_path / "w"
    save_qkv(p, q, k, v)
    blob = bytearray(p.read_bytes())
    bad_version = tmp_path / "bv"
    tampered = blob.copy()
    tampered[8:12] = (9).to_bytes(4, "little")
    bad_version.write_bytes(tampered)
    with pytest.raises(ValueError, match="unsupported MUSEQKV version 9"):
        load_qkv(bad_version)
    bad_code = tmp_path / "bc"
    tampered = blob.copy()
    tampered[12:16] = (7).to_bytes(4, "little")
    bad_code.write_bytes(tampered)
    with pytest.raises(ValueError, match="unknown dtype code 7"):
        load_qkv(bad_code)


def test_load_rejects_non_finite_payload(tmp_path):
    q, k, v = generate(WorkloadSpec(n=8, d=3, seed=1))
    p = tmp_path / "w"
    save_qkv(p, q, k, v)
    blob = bytearray(p.read_bytes())
    # overwrite the first payload float with +inf (little-endian f64)
    blob[32:40] = b"\x00\x00\x00\x00\x00\x00\xf0\x7f"
    bad = tmp_path / "inf"
    bad.write_bytes(blob)
    with pytest.raises(ValueError, match="non-finite payload"):
        load_qkv(bad)


def test_f32_request_yields_f32_tensors():
    q, k, v = generate(WorkloadSpec(kind="gaussian_mixture", n=32, d=4,
                                    c_true=2, dtype="f32", seed=0))
    assert q.dtype == np.float32 and k.dtype == np.float32 and v.dtype == np.float32
