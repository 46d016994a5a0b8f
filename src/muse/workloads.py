"""Workload generation and QKV file I/O.

Synthetic stand-ins for recorded attention inputs: isotropic Gaussian
tensors, and a Gaussian-mixture family whose keys/values share component
labels so that clustering structure (and a real value-key covariance) exists
to exploit. The binary MUSEQKV1 format lets recorded activations be dropped
in instead.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .numerics import check_integer, check_seed, check_tensor4, derive_seed, make_rng, resolve_dtype

MAGIC = b"MUSEQKV1"
_HEADER = struct.Struct("<6I")  # version, dtype code, batch, heads, n, d
_PAYLOAD_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}  # dtype code -> payload dtype


@dataclass
class WorkloadSpec:
    kind: str = "isotropic_gaussian"  # isotropic_gaussian | gaussian_mixture | file
    batch: int = 1
    heads: int = 1
    n: int = 1024
    d: int = 16
    c_true: int = 16
    spread: float = 0.1
    centroid_scale: float = 1.0
    seed: int = 0
    path: str | None = None
    dtype: str = "f64"

    def __post_init__(self):
        if self.kind not in ("isotropic_gaussian", "gaussian_mixture", "file"):
            raise ValueError(f"unknown workload kind {self.kind!r}")
        for name in ("batch", "heads", "n", "d", "c_true"):
            check_integer(getattr(self, name), name)
        if min(self.batch, self.heads, self.n, self.d) < 1:
            raise ValueError("batch/heads/n/d must be positive")
        check_seed(self.seed)
        if self.kind == "gaussian_mixture":
            if not 0 < self.spread < math.inf:
                raise ValueError("spread must be positive and finite")
            if not math.isfinite(self.centroid_scale):
                raise ValueError("centroid_scale must be finite")
            if not 1 <= self.c_true <= self.n:
                raise ValueError(f"need 1 <= c_true <= n, got c_true={self.c_true}, n={self.n}")
        if self.kind == "file" and not self.path:
            raise ValueError("file workload needs a path")
        resolve_dtype(self.dtype)


@dataclass
class MixtureInfo:
    """Generating labels and centroids, for self-checks and diagnostics."""

    q_labels: np.ndarray  # (batch, heads, n)
    k_labels: np.ndarray  # (batch, heads, n)
    q_centroids: np.ndarray  # (batch, heads, c_true, d)
    k_centroids: np.ndarray  # (batch, heads, c_true, d)
    v_centroids: np.ndarray  # (batch, heads, c_true, d)


def _haar_rotation(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d))
    qm, r = np.linalg.qr(a)
    return qm * np.sign(np.diag(r))


def generate(spec: WorkloadSpec):
    """(q, k, v) tensors for the given workload; deterministic per seed."""
    q, k, v, _ = generate_detailed(spec)
    return q, k, v


def generate_detailed(spec: WorkloadSpec):
    """As `generate`, also returning MixtureInfo (None for non-mixture kinds).

    Mixture: per slice, c_true component centroids at centroid_scale for q, k
    and v independently; each token picks a component (q labels independent of
    k labels, v shares k's labels) and adds isotropic noise of scale spread.
    The v noise is the k noise passed through a seeded rotation, so values are
    a rigid function of their keys within a component and the within-cluster
    value-key covariance is real signal rather than sampling noise.
    """
    if spec.kind == "file":
        q, k, v = load_qkv(spec.path)
        return q, k, v, None
    dt = resolve_dtype(spec.dtype)
    shape = (spec.batch, spec.heads, spec.n, spec.d)
    if spec.kind == "isotropic_gaussian":
        rng = make_rng(derive_seed(spec.seed, 0))
        q = rng.standard_normal(shape)
        k = rng.standard_normal(shape)
        v = rng.standard_normal(shape)
        return q.astype(dt), k.astype(dt), v.astype(dt), None

    b, h, n, d, c = spec.batch, spec.heads, spec.n, spec.d, spec.c_true
    q = np.empty(shape, dtype=np.float64)
    k = np.empty(shape, dtype=np.float64)
    v = np.empty(shape, dtype=np.float64)
    q_lab = np.empty((b, h, n), dtype=np.int64)
    k_lab = np.empty((b, h, n), dtype=np.int64)
    q_cen = np.empty((b, h, c, d))
    k_cen = np.empty((b, h, c, d))
    v_cen = np.empty((b, h, c, d))
    for bi in range(b):
        for hi in range(h):
            rng = make_rng(derive_seed(spec.seed, bi, hi))
            qc = rng.standard_normal((c, d)) * spec.centroid_scale
            kc = rng.standard_normal((c, d)) * spec.centroid_scale
            vc = rng.standard_normal((c, d)) * spec.centroid_scale
            rot = _haar_rotation(rng, d)
            ql = rng.integers(0, c, size=n)
            kl = rng.integers(0, c, size=n)
            q[bi, hi] = qc[ql] + spec.spread * rng.standard_normal((n, d))
            k_noise = spec.spread * rng.standard_normal((n, d))
            k[bi, hi] = kc[kl] + k_noise
            v[bi, hi] = vc[kl] + k_noise @ rot.T
            q_lab[bi, hi], k_lab[bi, hi] = ql, kl
            q_cen[bi, hi], k_cen[bi, hi], v_cen[bi, hi] = qc, kc, vc
    info = MixtureInfo(q_labels=q_lab, k_labels=k_lab, q_centroids=q_cen,
                       k_centroids=k_cen, v_centroids=v_cen)
    return q.astype(dt), k.astype(dt), v.astype(dt), info


def save_qkv(path, q, k, v) -> None:
    """Write q/k/v to the MUSEQKV1 binary format (see README for the layout)."""
    q = check_tensor4(q, "q")
    k = check_tensor4(k, "k")
    v = check_tensor4(v, "v")
    if q.shape != k.shape or k.shape != v.shape:
        raise ValueError("q/k/v must share one shape")
    if q.dtype != k.dtype or k.dtype != v.dtype:
        raise ValueError("q/k/v must share one dtype")
    code, le = next((c, le) for c, le in _PAYLOAD_DTYPES.items() if le.type is q.dtype.type)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(_HEADER.pack(1, code, *q.shape))
        for arr in (q, k, v):
            f.write(np.ascontiguousarray(arr, dtype=le).tobytes())


def load_qkv(path):
    """Read a MUSEQKV1 file back into (q, k, v); bit-exact round trip."""
    with open(path, "rb") as f:
        data = f.read()
    if data[: len(MAGIC)] != MAGIC:
        raise ValueError("not a MUSEQKV file")
    off = len(MAGIC)
    if len(data) < off + _HEADER.size:
        raise ValueError(
            f"truncated payload: expected at least {off + _HEADER.size} bytes, got {len(data)}"
        )
    version, code, b, h, n, d = _HEADER.unpack_from(data, off)
    if version != 1:
        raise ValueError(f"unsupported MUSEQKV version {version}")
    if code not in _PAYLOAD_DTYPES:
        raise ValueError(f"unknown dtype code {code}")
    le = _PAYLOAD_DTYPES[code]
    count = b * h * n * d
    expected = off + _HEADER.size + 3 * count * le.itemsize
    if len(data) != expected:
        kind = "truncated" if len(data) < expected else "oversized"
        raise ValueError(f"{kind} payload: expected {expected} bytes, got {len(data)}")
    body = np.frombuffer(data, dtype=le, offset=off + _HEADER.size)
    out = []
    for i in range(3):
        arr = body[i * count : (i + 1) * count].reshape(b, h, n, d)
        arr = arr.astype(le.newbyteorder("="), copy=True)
        if not np.isfinite(arr).all():
            raise ValueError("non-finite payload")
        out.append(arr)
    return tuple(out)
