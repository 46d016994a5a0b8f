"""Dense-tensor substrate: dtype handling, the score bound and max shift
behind every softmax in the package, the one shifted exponential behind
`stable_softmax` and `stable_logsumexp`, seeded RNG.

All attention carriers are plain numpy arrays of shape (batch, heads, n, d),
row-major. Scores may contain -inf as a mask sentinel; NaN is never legal.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

DTYPES = {"f32": np.float32, "f64": np.float64}


def resolve_dtype(dtype) -> np.dtype:
    """Accept 'f32'/'f64' or a numpy float dtype; reject anything else."""
    if isinstance(dtype, str):
        if dtype not in DTYPES:
            raise ValueError(f"unknown dtype {dtype!r}, expected one of {sorted(DTYPES)}")
        return np.dtype(DTYPES[dtype])
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dt}, expected float32 or float64")
    return dt


def check_tensor4(x: np.ndarray, name: str = "tensor") -> np.ndarray:
    """Validate a (batch, heads, n, d) array: 4 axes, float dtype, all finite."""
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValueError(f"{name} must have shape (batch, heads, n, d), got ndim={x.ndim}")
    if x.dtype not in (np.float32, np.float64):
        raise ValueError(f"{name} must be float32 or float64, got {x.dtype}")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} contains non-finite entries")
    return x


def check_integer(value, name: str) -> None:
    """Reject a value that is not a Python or numpy integer, by name. A bool
    is a `numbers.Integral` but not a count, so it is rejected too."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_seed(seed) -> None:
    """Reject a seed that is not a non-negative integer: None would draw fresh
    OS entropy, so two runs of one configuration would differ; a bool is not
    a seed either."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based (Philox) generator: identical seed gives an identical stream."""
    return np.random.Generator(np.random.Philox(seed))


def derive_seed(seed: int, *path: int) -> int:
    """Derive a child seed from a base seed and an index path.

    Uses SeedSequence spawn keys, so derived streams are independent and the
    mapping (seed, path) -> child is stable across runs and platforms.
    """
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _shifted_exp(x: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """exp(x - max) along `axis`, written over `x`, and the maxima with
    `axis` kept. `x` is a float copy of the scores, `result_type(scores,
    0.0)`, so integer and bool scores run in float64; -inf entries map to
    exactly 0. The maxima are checked with one `isfinite`; only when that
    fails does `max_shift` see them, to raise its NaN, +inf or fully-masked
    error. Raises on an empty reduction too.
    """
    if x.shape == () or x.shape[axis] == 0:
        raise ValueError("empty reduction")
    hi = np.max(x, axis=axis, keepdims=True)
    if not np.isfinite(hi).all():
        max_shift(False, lambda: hi)
    x -= hi
    np.exp(x, out=x)
    return x, hi


def stable_logsumexp(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    """max-shifted log-sum-exp along `axis`, from `_shifted_exp`; finite for
    any finite input.

    -inf entries act as mask sentinels and contribute exp(-inf) = 0; a fully
    masked slice reduces to -inf. Raises on an empty reduction, NaN input
    and a +inf score.
    """
    scores = np.asarray(scores)
    x = scores.astype(np.result_type(scores, 0.0))
    masked = np.all(x == -np.inf, axis=axis, keepdims=True)
    np.copyto(x, 0, where=masked)  # a finite shift for the fully masked slices, whose result is -inf
    e, hi = _shifted_exp(x, axis)
    lse = np.log(np.sum(e, axis=axis, keepdims=True))
    lse += hi
    np.copyto(lse, -np.inf, where=masked)
    return np.squeeze(lse, axis=axis)[()]  # a scalar for a 1-D input


def stable_softmax(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shifted softmax along `axis`, from `_shifted_exp` and one divide by
    the sums. -inf entries map to exactly 0.

    Raises on an empty reduction, NaN input, a +inf score and any fully
    masked (all -inf) slice.
    """
    scores = np.asarray(scores)
    p, _ = _shifted_exp(scores.astype(np.result_type(scores, 0.0)), axis)
    p /= np.sum(p, axis=axis, keepdims=True)
    return p


def sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared norms over the last axis, in x's dtype, from one pass with no
    full-size temporary: an f32 norm that overflows is inf and so fails any
    bound it is held to."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.einsum("...i,...i->...", x, x)


def bounded_rows(row_sq, col_sq_max, read_sq_max, dtype) -> np.ndarray:
    """Mask of the rows whose scores need no max shift before exp.

    Row i is bounded when |x_i| * max |y| <= L = log(finfo.max) / 4, from
    the squared norms `row_sq` of the rows and `col_sq_max` of the vectors
    they are scored against, and every entry that the exponentials multiply
    is below sqrt(finfo.max), which `read_sq_max`, a largest squared norm,
    bounds. By Cauchy-Schwarz every score of a bounded row lies in [-L, L],
    so its exps lie in [max**-1/4, max**1/4]: they and their row sums can
    neither overflow nor go subnormal, and their products with the entries
    stay below max for any row length under max**1/4. The arguments
    broadcast; NaN and an overflowed (inf) norm fail the bound.
    """
    info = np.finfo(dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        return (row_sq * col_sq_max <= (math.log(info.max) / 4) ** 2) & (read_sq_max < info.max)


def max_shift(bounded, row_max) -> np.ndarray | None:
    """The shift that scores take before exp: None when every row is
    `bounded`, without calling `row_max`; else the rows' score maxima that
    `row_max()` returns, with 0 in place of the bounded rows' maxima.

    Raises unless every maximum is finite: on NaN (max propagates NaN, so
    this sees every NaN score), +inf (the scores overflowed; not a mask) and
    -inf (every score of the row is masked). `bounded` broadcasts against
    the maxima; False bounds no row.
    """
    if np.all(bounded):
        return None
    hi = row_max()
    if np.isnan(hi).any():
        raise ValueError("NaN in the scores")
    if (hi == np.inf).any():
        raise ValueError("score overflow: +inf in the scores (input norms too large for the dtype)")
    if not np.isfinite(hi).all():
        raise ValueError("fully masked row")
    return np.where(bounded, 0, hi)
