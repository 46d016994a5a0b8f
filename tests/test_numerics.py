import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muse import MuseConfig, WorkloadSpec, attend, error_sweep, fd_sensitivity
from muse.clustering import init_centroids, kmeans
from muse.numerics import (
    check_integer,
    check_real,
    check_seed,
    check_tensor4,
    derive_seed,
    make_rng,
    resolve_dtype,
    stable_logsumexp,
    stable_softmax,
)


def mp_logsumexp(values):
    with mpmath.workdps(60):
        finite = [mpmath.mpf(float(x)) for x in values if x != -np.inf]
        if not finite:
            return -np.inf
        return float(mpmath.log(mpmath.fsum(mpmath.exp(x) for x in finite)))


@given(st.lists(st.floats(min_value=-700, max_value=700), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_logsumexp_matches_extended_precision(values):
    got = stable_logsumexp(np.array(values), axis=-1)
    want = mp_logsumexp(values)
    assert got == pytest.approx(want, rel=1e-13, abs=1e-13)


@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=20),
    st.floats(min_value=-1e5, max_value=1e5),
)
@settings(max_examples=100, deadline=None)
def test_logsumexp_shift_identity(values, shift):
    base = stable_logsumexp(np.array(values), axis=-1)
    shifted = stable_logsumexp(np.array(values) + shift, axis=-1)
    assert shifted == pytest.approx(base + shift, rel=1e-12, abs=1e-9)


def test_logsumexp_extreme_magnitudes():
    x = np.array([1000.0, -1000.0, 0.0])
    assert stable_logsumexp(x, axis=-1) == pytest.approx(1000.0, abs=1e-12)
    assert np.isfinite(stable_logsumexp(np.full(5, -1e308), axis=-1))


def test_logsumexp_neg_inf_rows():
    x = np.array([[-np.inf, -np.inf], [0.0, -np.inf]])
    out = stable_logsumexp(x, axis=-1)
    assert out[0] == -np.inf
    assert out[1] == pytest.approx(0.0, abs=1e-15)


def test_logsumexp_rejects_nan_and_empty():
    with pytest.raises(ValueError, match="NaN"):
        stable_logsumexp(np.array([0.0, np.nan]), axis=-1)
    with pytest.raises(ValueError, match="empty reduction"):
        stable_logsumexp(np.zeros((3, 0)), axis=-1)


def test_logsumexp_axis_handling():
    x = np.arange(12, dtype=np.float64).reshape(3, 4)
    col = stable_logsumexp(x, axis=0)
    assert col.shape == (4,)
    for j in range(4):
        assert col[j] == pytest.approx(mp_logsumexp(x[:, j]), rel=1e-13)


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_softmax_rows_sum_to_one(values):
    p = stable_softmax(np.array(values), axis=-1)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert (p >= 0).all()


def test_softmax_masked_entries_exactly_zero():
    p = stable_softmax(np.array([0.0, -np.inf, 1.0]), axis=-1)
    assert p[1] == 0.0
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_softmax_fully_masked_row_raises():
    with pytest.raises(ValueError, match="fully masked"):
        stable_softmax(np.array([-np.inf, -np.inf]), axis=-1)


def test_softmax_preserves_dtype():
    p32 = stable_softmax(np.zeros(4, dtype=np.float32), axis=-1)
    assert p32.dtype == np.float32


@pytest.mark.parametrize("scores", [np.array([[-128, 0, 5, 127], [3, 3, -2, 1]], dtype=np.int8),
                                    np.array([[True, False, False], [True, True, False]])])
def test_softmax_of_integer_and_bool_scores_runs_in_float64(scores):
    # the precision of stable_logsumexp on the same scores, not float16
    p = stable_softmax(scores, axis=-1)
    assert p.dtype == stable_logsumexp(scores, axis=-1).dtype == np.float64
    assert np.array_equal(p, stable_softmax(scores.astype(np.float64), axis=-1))


@given(st.lists(st.floats(min_value=-100, max_value=100) | st.just(-np.inf), min_size=6, max_size=30),
       st.sampled_from([np.float32, np.float64]))
@settings(max_examples=100, deadline=None)
def test_softmax_and_logsumexp_share_one_shifted_exponential(values, dtype):
    s = np.array(values, dtype=dtype)[: len(values) // 3 * 3].reshape(3, -1)
    s[:, 0] = np.nan_to_num(s[:, 0], neginf=0.0)  # no fully masked row
    for axis, scores in ((-1, s), (0, np.ascontiguousarray(s.T))):
        hi = scores.max(axis=axis, keepdims=True)
        e = np.exp(scores - hi)
        total = e.sum(axis=axis, keepdims=True)
        assert np.array_equal(stable_softmax(scores, axis=axis), e / total)
        assert np.array_equal(stable_logsumexp(scores, axis=axis), np.squeeze(hi + np.log(total), axis))


def test_shifted_exponential_errors():
    # both raise through max_shift (overflow: the next test); only the softmax rejects a fully masked slice
    for fn in (stable_softmax, stable_logsumexp):
        with pytest.raises(ValueError, match="NaN"):
            fn(np.array([[0.0, np.nan], [1.0, 2.0]]))
        with pytest.raises(ValueError, match="empty"):
            fn(np.zeros((2, 0)))
    with pytest.raises(ValueError, match="fully masked"):
        stable_softmax(np.array([[0.0, 1.0], [-np.inf, -np.inf]]))
    lse = stable_logsumexp(np.array([[0.0, 1.0], [-np.inf, -np.inf]]))
    assert lse[0] == pytest.approx(np.log1p(np.e)) and lse[1] == -np.inf


def test_score_overflow_is_not_a_masked_row():
    # a +inf max means the scores overflowed; all -inf still means "fully masked"
    for fn in (stable_softmax, stable_logsumexp):
        for scores in (np.array([np.inf, 0.0]), np.array([[0.0, 1.0], [np.inf, -np.inf]], dtype=np.float32)):
            with pytest.raises(ValueError, match="score overflow"):
                fn(scores, axis=-1)
    assert stable_logsumexp(np.array([-np.inf, -np.inf]), axis=-1) == -np.inf
    assert np.array_equal(stable_logsumexp(np.array([[-np.inf, -np.inf]])), [-np.inf])
    with pytest.raises(ValueError, match="fully masked"):
        stable_softmax(np.array([[-np.inf, -np.inf]]))


def test_make_rng_reproducible():
    a = make_rng(7).normal(size=8)
    b = make_rng(7).normal(size=8)
    c = make_rng(8).normal(size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_seed_deterministic_and_path_sensitive():
    assert derive_seed(3, 1, 2) == derive_seed(3, 1, 2)
    assert derive_seed(3, 1, 2) != derive_seed(3, 2, 1)
    assert derive_seed(3, 1) != derive_seed(4, 1)
    assert derive_seed(3) != derive_seed(3, 0)


def test_derived_streams_differ():
    a = make_rng(derive_seed(0, 1)).normal(size=16)
    b = make_rng(derive_seed(0, 2)).normal(size=16)
    assert np.abs(a - b).max() > 1e-6


def test_resolve_dtype():
    assert resolve_dtype("f32") == np.float32
    assert resolve_dtype("f64") == np.float64
    with pytest.raises(ValueError, match="dtype"):
        resolve_dtype("f16")


def test_check_tensor4_validation():
    ok = np.zeros((1, 2, 3, 4))
    assert check_tensor4(ok, "x") is ok
    with pytest.raises(ValueError, match="ndim"):
        check_tensor4(np.zeros((2, 3, 4)), "x")
    with pytest.raises(ValueError, match="finite"):
        check_tensor4(np.full((1, 1, 2, 2), np.nan), "x")
    with pytest.raises(ValueError, match="float32 or float64"):
        check_tensor4(np.zeros((1, 1, 2, 2), dtype=np.int64), "x")


def test_bool_is_rejected_as_a_count_by_name():
    # True is a numbers.Integral; as a count it ran as 1 (threads, seeds)
    with pytest.raises(ValueError, match="x must be an integer, got True"):
        check_integer(True, "x")
    with pytest.raises(ValueError, match="c_q must be an integer, got True"):
        MuseConfig(c_q=True)
    q = np.zeros((1, 1, 4, 2))
    with pytest.raises(ValueError, match="threads must be an integer, got True"):
        attend(q, q, q, threads=True)
    with pytest.raises(ValueError, match="seeds must be an integer, got True"):
        error_sweep(WorkloadSpec(n=64), [MuseConfig(c_q=4, c_k=4)], seeds=True)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got False"):
        check_seed(False)


X = np.arange(12.0).reshape(6, 2)
Q = np.zeros((1, 1, 4, 2))
REJECTED = {  # each ran as 1 (a bool) or raised a bare TypeError from a comparison or numpy
    "check_real-bool": (lambda: check_real(True, "x"), "x must be a real number, got True"),
    "check_real-np.bool_": (lambda: check_real(np.bool_(True), "x"), "x must be a real number, got np.True_"),
    "MuseConfig.cap_ratio-bool": (lambda: MuseConfig(cap_ratio=True), "cap_ratio must be a real number, got True"),
    "MuseConfig.cap_ratio-str": (lambda: MuseConfig(cap_ratio="2"), "cap_ratio must be a real number, got '2'"),
    "MuseConfig.scale-bool": (lambda: MuseConfig(scale=True), "scale must be a real number, got True"),
    "MuseConfig.scale-str": (lambda: MuseConfig(scale="x"), "scale must be a real number, got 'x'"),
    "WorkloadSpec.spread-bool": (lambda: WorkloadSpec(spread=True), "spread must be a real number, got True"),
    "WorkloadSpec.spread-str": (lambda: WorkloadSpec(kind="gaussian_mixture", spread="x"),
                                "spread must be a real number, got 'x'"),
    "WorkloadSpec.centroid_scale-bool": (lambda: WorkloadSpec(centroid_scale=True),
                                         "centroid_scale must be a real number, got True"),
    "attend.scale-bool": (lambda: attend(Q, Q, Q, scale=True), "scale must be a real number, got True"),
    "attend.scale-str": (lambda: attend(Q, Q, Q, scale="1"), "scale must be a real number, got '1'"),
    "kmeans.iters-bool": (lambda: kmeans(X, 2, True, 1.5, make_rng(0)), "iters must be an integer, got True"),
    "kmeans.cap_ratio-bool": (lambda: kmeans(X, 2, 1, True, make_rng(0)), "cap_ratio must be a real number, got True"),
    "kmeans.c-bool": (lambda: kmeans(X, True, 1, 1.5, make_rng(0)), "c must be an integer, got True"),
    "kmeans.c-float": (lambda: kmeans(X, 2.0, 1, 1.5, make_rng(0)), "c must be an integer, got 2.0"),
    "init_centroids.c-bool": (lambda: init_centroids(X, True, make_rng(0)), "c must be an integer, got True"),
    "fd_sensitivity.eps-bool": (lambda: fd_sensitivity(Q, Q, Q, MuseConfig(), Q, eps=True),
                                "eps must be a real number, got True"),
    "fd_sensitivity.eps-str": (lambda: fd_sensitivity(Q, Q, Q, MuseConfig(), Q, eps="1e-3"),
                               "eps must be a real number, got '1e-3'"),
}


@pytest.mark.parametrize("call, message", REJECTED.values(), ids=REJECTED)
def test_bool_or_non_numeric_parameter_is_rejected_by_name(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
