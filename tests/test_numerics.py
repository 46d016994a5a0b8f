import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muse.numerics import (
    check_tensor4,
    derive_seed,
    make_rng,
    resolve_dtype,
    softmax_logsumexp_inplace,
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
def test_softmax_logsumexp_inplace_equals_separate_calls(values, dtype):
    s = np.array(values, dtype=dtype)[: len(values) // 3 * 3].reshape(3, -1)
    s[:, 0] = np.nan_to_num(s[:, 0], neginf=0.0)  # no fully masked row
    for axis, scores in ((-1, s), (0, np.ascontiguousarray(s.T))):
        p, lse = softmax_logsumexp_inplace(scores.copy(), axis=axis)
        assert np.array_equal(p, stable_softmax(scores, axis=axis))
        assert np.array_equal(lse, stable_logsumexp(scores, axis=axis))


def test_softmax_logsumexp_inplace_errors():
    # stable_softmax and stable_logsumexp raise through this one entry point
    with pytest.raises(ValueError, match="NaN"):
        softmax_logsumexp_inplace(np.array([[0.0, np.nan], [1.0, 2.0]]))
    with pytest.raises(ValueError, match="fully masked"):
        softmax_logsumexp_inplace(np.array([[0.0, 1.0], [-np.inf, -np.inf]]))
    with pytest.raises(ValueError, match="empty"):
        softmax_logsumexp_inplace(np.zeros((2, 0)))
    with pytest.raises(ValueError, match="score overflow"):
        softmax_logsumexp_inplace(np.array([[0.0, 1.0], [np.inf, -np.inf]], dtype=np.float32))


def test_score_overflow_is_not_a_masked_row():
    # a +inf max means the scores overflowed; all -inf still means "fully masked"
    with pytest.raises(ValueError, match="score overflow"):
        stable_logsumexp(np.array([np.inf, 0.0]), axis=-1)
    with pytest.raises(ValueError, match="score overflow"):
        stable_softmax(np.array([0.0, np.inf]), axis=-1)
    with pytest.raises(ValueError, match="score overflow"):
        softmax_logsumexp_inplace(np.array([[0.0, 1.0], [np.inf, -np.inf]], dtype=np.float32))
    assert stable_logsumexp(np.array([-np.inf, -np.inf]), axis=-1) == -np.inf
    with pytest.raises(ValueError, match="fully masked"):
        softmax_logsumexp_inplace(np.array([[-np.inf, -np.inf]]))


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
