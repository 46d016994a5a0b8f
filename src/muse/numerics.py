"""Dense-tensor substrate: dtype handling, stable reductions, seeded RNG.

All attention carriers are plain numpy arrays of shape (batch, heads, n, d),
row-major. Scores may contain -inf as a mask sentinel; NaN is never legal.
"""

from __future__ import annotations

import numbers

import numpy as np

DTYPES = {"f32": np.float32, "f64": np.float64}
DTYPE_CODES = {"f32": 0, "f64": 1}


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
    """Reject a value that is not a Python or numpy integer, by name."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_seed(seed) -> None:
    """Reject a seed that is not a non-negative integer: None would draw fresh
    OS entropy, so two runs of one configuration would differ."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
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


def stable_logsumexp(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    """max-shifted log-sum-exp along `axis`, by `softmax_logsumexp_inplace` on
    a float copy of `scores`; finite for any finite input.

    -inf entries act as mask sentinels and contribute exp(-inf) = 0; a fully
    masked slice reduces to -inf. Raises as `softmax_logsumexp_inplace` does
    on an empty reduction, NaN input and a +inf score.
    """
    scores = np.asarray(scores)
    x = scores.astype(np.result_type(scores, 0.0))
    masked = np.all(x == -np.inf, axis=axis, keepdims=True)
    np.copyto(x, 0, where=masked)  # a finite shift for the fully masked slices, whose result is -inf
    _, out = softmax_logsumexp_inplace(x, axis)
    np.copyto(out, -np.inf, where=np.squeeze(masked, axis=axis))
    return out[()] if out.ndim == 0 else out


def stable_softmax(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shifted softmax along `axis`, computed on a float copy of `scores`
    (`result_type(scores, 0.0)`, as in `stable_logsumexp`, so integer and bool
    scores run in float64). -inf entries map to exactly 0.

    Raises as `softmax_logsumexp_inplace` does: on an empty reduction, NaN
    input, a +inf score and any fully masked (all -inf) slice.
    """
    scores = np.asarray(scores)
    p, _ = softmax_logsumexp_inplace(scores.astype(np.result_type(scores, 0.0)), axis)
    return p


def check_score_max(hi: np.ndarray) -> None:
    """Raise unless every entry of `hi`, a max over scores, is finite: NaN
    (max propagates NaN, so this sees every NaN score), +inf (the scores
    overflowed; not a mask) and -inf (every score of the slice is masked)."""
    if np.isnan(hi).any():
        raise ValueError("NaN in the scores")
    if (hi == np.inf).any():
        raise ValueError("score overflow: +inf in the scores (input norms too large for the dtype)")
    if not np.isfinite(hi).all():
        raise ValueError("fully masked row")


def softmax_logsumexp_inplace(scores: np.ndarray, axis: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """Softmax and logsumexp along `axis` from a single exp, computed in place.

    `scores` (a writable float array) is overwritten with exp(scores - max),
    then divided by its sum, and returned together with the logsumexp
    max + log(sum), which has `axis` removed; -inf entries map to exactly 0.
    Raises on an empty reduction, and through `check_score_max` on NaN input,
    a +inf score (overflow), or a fully masked (all -inf) slice.
    """
    if scores.shape == () or scores.shape[axis] == 0:
        raise ValueError("empty reduction")
    hi = np.max(scores, axis=axis, keepdims=True)
    check_score_max(hi)
    np.subtract(scores, hi, out=scores)
    np.exp(scores, out=scores)
    total = np.sum(scores, axis=axis, keepdims=True)
    scores /= total
    lse = np.log(total)
    lse += hi
    return scores, np.squeeze(lse, axis=axis)
