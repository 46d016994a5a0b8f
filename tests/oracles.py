"""Independent reference implementations used only by the tests.

Everything here is written as plain double loops over tokens with explicit
normalization, sharing no code with the library. Deliberately slow and
obvious: these are the ground truth the fast implementations are judged
against.
"""

import math

import numpy as np


def naive_attend_slice(q, k, v, bias=None, scale=None):
    """(n_q, d), (n_k, d), (n_k, d) -> (y, mu) by explicit per-pair loops."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if scale is None:
        scale = 1.0 / math.sqrt(q.shape[1])
    n_q, d = q.shape
    n_k = k.shape[0]
    y = np.zeros((n_q, d))
    mu = np.zeros(n_q)
    for i in range(n_q):
        logits = []
        for j in range(n_k):
            s = scale * float(np.dot(q[i], k[j]))
            if bias is not None:
                s += float(bias[j])
            logits.append(s)
        hi = max(logits)
        if hi == -math.inf:
            raise ValueError("naive oracle: fully masked query row")
        weights = [math.exp(s - hi) for s in logits]
        total = sum(weights)
        mu[i] = hi + math.log(total)
        acc = np.zeros(d)
        for j in range(n_k):
            acc += (weights[j] / total) * v[j]
        y[i] = acc
    return y, mu


def naive_attend(q, k, v, bias=None, scale=None):
    """4-axis wrapper over naive_attend_slice."""
    b, h, n_q, d = q.shape
    y = np.zeros((b, h, n_q, d))
    mu = np.zeros((b, h, n_q))
    for bi in range(b):
        for hi in range(h):
            bias_s = None if bias is None else bias[bi, hi]
            y[bi, hi], mu[bi, hi] = naive_attend_slice(q[bi, hi], k[bi, hi], v[bi, hi],
                                                       bias=bias_s, scale=scale)
    return y, mu


def naive_attend_causal(q, k, v, scale=None):
    b, h, n, d = q.shape
    y = np.zeros((b, h, n, d))
    mu = np.zeros((b, h, n))
    for bi in range(b):
        for hi in range(h):
            for i in range(n):
                yi, mi = naive_attend_slice(q[bi, hi, i:i + 1], k[bi, hi, :i + 1],
                                            v[bi, hi, :i + 1], scale=scale)
                y[bi, hi, i] = yi[0]
                mu[bi, hi, i] = mi[0]
    return y, mu


def naive_attend_sliding(q, k, v, window, scale=None):
    b, h, n, d = q.shape
    y = np.zeros((b, h, n, d))
    mu = np.zeros((b, h, n))
    for bi in range(b):
        for hi in range(h):
            for i in range(n):
                lo = max(0, i - window + 1)
                yi, mi = naive_attend_slice(q[bi, hi, i:i + 1], k[bi, hi, lo:i + 1],
                                            v[bi, hi, lo:i + 1], scale=scale)
                y[bi, hi, i] = yi[0]
                mu[bi, hi, i] = mi[0]
    return y, mu


def naive_merge(parts):
    """parts: list of (y, mu) with matching query shapes."""
    mus = np.stack([mu for _, mu in parts])
    hi = mus.max(axis=0)
    mu_t = hi + np.log(np.sum(np.exp(mus - hi), axis=0))
    y_t = np.zeros_like(parts[0][0])
    for y, mu in parts:
        y_t += np.exp(mu - mu_t)[..., None] * y
    return y_t, mu_t


def naive_muse_slice(q, k, v, q_assign, k_assign, c_q, c_k, scale, ablation="full"):
    """Token-loop restatement of the two-stage clustered approximation for a
    single (n, d) slice with externally fixed cluster assignments.

    All per-cluster quantities are built with explicit loops: centroids as
    plain means, stage-1 summaries by summing exp-tilted contributions per
    key, the value-key covariance from centered outer products, and the final
    stage per individual query.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    n, d = q.shape
    qs = q * scale

    q_members = [[t for t in range(n) if q_assign[t] == i] for i in range(c_q)]
    k_members = [[u for u in range(n) if k_assign[u] == j] for j in range(c_k)]
    if any(len(m) == 0 for m in q_members) or any(len(m) == 0 for m in k_members):
        raise ValueError("naive oracle: empty cluster")
    qbar = np.stack([np.mean([qs[t] for t in m], axis=0) for m in q_members])
    kbar_c = np.stack([np.mean([k[u] for u in m], axis=0) for m in k_members])
    vbar_c = np.stack([np.mean([v[u] for u in m], axis=0) for m in k_members])

    # per-key-cluster value-key covariance, centered at plain means
    cov = np.zeros((c_k, d, d))
    for j, m in enumerate(k_members):
        for u in m:
            cov[j] += np.outer(v[u] - vbar_c[j], k[u] - kbar_c[j])
        cov[j] /= len(m)

    # stage 1: per (query cluster, key cluster) tilted summaries
    mu1 = np.zeros((c_q, c_k))
    kbar = np.zeros((c_q, c_k, d))
    vbar = np.zeros((c_q, c_k, d))
    for i in range(c_q):
        for j, m in enumerate(k_members):
            logits = [float(np.dot(qbar[i], k[u])) for u in m]
            hi = max(logits)
            w = [math.exp(s - hi) for s in logits]
            tot = sum(w)
            mu1[i, j] = hi + math.log(tot)
            kbar[i, j] = sum((w[t] / tot) * k[u] for t, u in enumerate(m))
            vbar[i, j] = sum((w[t] / tot) * v[u] for t, u in enumerate(m))

    # dipole aggregation: mu-softmax mixture of the covariances
    cov_q = np.zeros((c_q, d, d))
    for i in range(c_q):
        hi = mu1[i].max()
        w = np.exp(mu1[i] - hi)
        w /= w.sum()
        for j in range(c_k):
            cov_q[i] += w[j] * cov[j]

    v_mean = v.mean(axis=0)
    cov_uniform = cov.mean(axis=0)

    y = np.zeros((n, d))
    mu_out = np.zeros(n)
    for t in range(n):
        i = q_assign[t]
        r = qs[t] - qbar[i]
        s = np.array([float(np.dot(r, kbar[i, j])) + mu1[i, j] for j in range(c_k)])
        hi = s.max()
        w = np.exp(s - hi)
        tot = w.sum()
        mu_out[t] = hi + math.log(tot)
        if ablation == "no_monopole":
            y[t] = v_mean + cov_uniform @ r
            continue
        y[t] = sum((w[j] / tot) * vbar[i, j] for j in range(c_k))
        if ablation != "no_dipole":
            y[t] += cov_q[i] @ r
    return y, mu_out


def naive_cap_assign(x, centroids, cap):
    """The greedy capacity-capped assignment, token by token.

    Tokens go in ascending order of (nearest minus second-nearest squared
    distance), ties by token index; each takes the nearest centroid with room
    left, trying centroids in ascending distance order, ties by centroid id.
    Distances use the library's matmul formula in the input dtype, so equal
    inputs give equal ties and the result can be compared exactly.
    """
    x = np.asarray(x)
    n, c = x.shape[0], centroids.shape[0]
    if cap * c < n:
        raise ValueError(f"infeasible capacity: cap={cap} x c={c} < n={n}")
    xx = np.sum(x * x, axis=1)[:, None]
    cc = np.sum(centroids * centroids, axis=1)[None, :]
    d2 = np.maximum(xx - 2.0 * (x @ centroids.T) + cc, 0.0)
    nearest = np.argmin(d2, axis=1)
    counts = np.bincount(nearest, minlength=c)
    if np.all(counts <= cap):
        return nearest.astype(np.int64)
    if c == 1:
        return np.zeros(n, dtype=np.int64)
    part = np.partition(d2, 1, axis=1)
    order = np.argsort(part[:, 0] - part[:, 1], kind="stable")
    pref = np.argsort(d2, axis=1, kind="stable")
    assign = np.empty(n, dtype=np.int64)
    remaining = np.full(c, cap, dtype=np.int64)
    for t in order:
        for j in pref[t]:
            if remaining[j] > 0:
                assign[t] = j
                remaining[j] -= 1
                break
    return assign


def two_point_summary(qbar, k1, k2, v1, v2):
    """Closed form for a two-key cluster: tilt weight w = sigmoid(qbar . (k1 - k2))."""
    t = float(np.dot(qbar, k1 - k2))
    w = 1.0 / (1.0 + math.exp(-t))
    kbar = w * np.asarray(k1) + (1 - w) * np.asarray(k2)
    vbar = w * np.asarray(v1) + (1 - w) * np.asarray(v2)
    a, b = float(np.dot(qbar, k1)), float(np.dot(qbar, k2))
    hi = max(a, b)
    mu = hi + math.log(math.exp(a - hi) + math.exp(b - hi))
    return kbar, vbar, mu


def causal_pair_counts(n, blocks):
    """Count (query, key) coverage from a list of (q_lo, q_hi, k_lo, k_hi,
    causal_flag) block descriptors; returns an (n, n) count matrix."""
    counts = np.zeros((n, n), dtype=np.int64)
    for q_lo, q_hi, k_lo, k_hi, causal in blocks:
        for i in range(q_lo, q_hi):
            for j in range(k_lo, k_hi):
                if causal and j > i:
                    continue
                counts[i, j] += 1
    return counts
