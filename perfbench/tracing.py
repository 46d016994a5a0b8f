"""Span tracing of the muse layers from outside the program.

The traced run replaces the public functions of the program's modules with
wrappers, at the module attribute where each caller looks the name up, and
restores the originals afterwards. Each wrapper records a span (name, start,
end, parent) and keeps the call's arguments and result, so that counters are
computed after the operation, outside every timed span. A layer's self time
is its span minus the spans of its direct children.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# (module, attribute, span name). The attribute is patched in the module that
# looks it up: muse.causal calls its own `attend` binding, not muse.attention's.
HOOKS = (
    ("muse.workloads", "generate", "workloads.generate"),
    ("muse.attention", "attend", "attention.attend"),
    ("muse.attention", "attend_causal", "attention.attend_causal"),
    ("muse.attention", "stable_logsumexp", "numerics.in_attention"),
    ("muse.attention", "stable_softmax", "numerics.in_attention"),
    ("muse.clustering", "init_centroids", "clustering.init_centroids"),
    ("muse.clustering", "cap_assign", "clustering.cap_assign"),
    ("muse.multipole", "kmeans", "clustering.kmeans"),
    ("muse.multipole", "stage1", "multipole.stage1"),
    ("muse.multipole", "aggregate_dipoles", "multipole.aggregate_dipoles"),
    ("muse.multipole", "final_stage", "multipole.final_stage"),
    ("muse.multipole", "stable_logsumexp", "numerics.in_multipole"),
    ("muse.multipole", "stable_softmax", "numerics.in_multipole"),
    ("muse.multipole", "muse_acausal", "multipole.muse_acausal"),
    ("muse.causal", "attend", "attention.attend"),
    ("muse.causal", "attend_causal", "attention.attend_causal"),
    ("muse.causal", "merge_partials", "attention.merge_partials"),
    ("muse.causal", "muse_acausal", "multipole.muse_acausal"),
    ("muse.causal", "build_plan", "causal.build_plan"),
    ("muse.causal", "muse_causal", "causal.muse_causal"),
)


@dataclass
class Span:
    name: str
    parent: int  # index into the span list, -1 for a root
    args: tuple
    kwargs: dict
    t0: float = 0.0
    t1: float = 0.0
    result: object = None

    def arg(self, i: int, name: str):
        return self.args[i] if len(self.args) > i else self.kwargs[name]


class Tracer:
    """Installs the HOOKS wrappers while `active()` is entered; single-threaded."""

    def __init__(self, modules: dict):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._hooks = []
        self.missing = []
        for mod_name, attr, span_name in HOOKS:
            mod = modules[mod_name]
            orig = getattr(mod, attr, None)
            if orig is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._hooks.append((mod, attr, orig, self._wrap(span_name, orig)))

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1, args, kwargs)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.t0 = time.perf_counter()
            try:
                span.result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                self._stack.pop()
            return span.result

        return traced

    @contextmanager
    def active(self):
        for mod, attr, _, wrapper in self._hooks:
            setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, orig, _ in self._hooks:
                setattr(mod, attr, orig)

    def unrestored(self) -> list[str]:
        """Patched attributes that are not the original object (empty when restored)."""
        return [f"{mod.__name__}.{attr}" for mod, attr, orig, _ in self._hooks if getattr(mod, attr) is not orig]

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _nearest(x, centroids):
    """Nearest centroid per token, by the same matmul formula and dtype as the program."""
    xx = np.sum(x * x, axis=1)[:, None]
    cc = np.sum(centroids * centroids, axis=1)[None, :]
    return np.argmin(np.maximum(xx - 2.0 * (x @ centroids.T) + cc, 0.0), axis=1)


@dataclass
class LayerStats:
    """Per-layer totals over the traced iterations of one run.

    An iteration is one clustered call plus one exact call on the same inputs;
    `metrics()` reports times and counts per iteration.
    """

    iterations: int = 0
    ms: Counter = field(default_factory=Counter)
    self_ms: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    n: Counter = field(default_factory=Counter)
    key_cluster_max: int = 0
    key_cluster_min: int = 0
    problems: list = field(default_factory=list)

    def add(self, spans: list[Span]) -> None:
        child = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child[s.parent] += s.t1 - s.t0
        for i, s in enumerate(spans):
            dur = s.t1 - s.t0
            self.ms[s.name] += 1e3 * dur
            self.self_ms[s.name] += 1e3 * (dur - child[i])
            self.calls[s.name] += 1
            count = _COUNTERS.get(s.name)
            if count is not None:
                count(self, s, i, spans)

    def _cap_assign(self, s, i, spans):
        x, centroids, cap = s.arg(0, "x"), s.arg(1, "centroids"), s.arg(2, "cap")
        nearest = _nearest(x, centroids)
        binding = bool(np.any(np.bincount(nearest, minlength=centroids.shape[0]) > cap))
        spilled = int(np.count_nonzero(s.result != nearest))
        if not binding and spilled:
            self.problems.append(f"cap_assign spilled {spilled} tokens with caps not binding")
        self.n["cap_binding"] += binding
        self.n["spilled"] += spilled
        self.n["cap_tokens"] += x.shape[0]

    def _init_centroids(self, s, i, spans):
        self.n["init_fallbacks"] += bool(s.result.uniform_fallback)

    def _kmeans(self, s, i, spans):
        x, c, res = s.arg(0, "x"), s.arg(1, "c"), s.result
        sizes = np.asarray(res.sizes)
        if sizes.sum() != x.shape[0] or not np.array_equal(sizes, np.bincount(res.assignments, minlength=c)):
            self.problems.append(f"kmeans cluster sizes sum to {sizes.sum()}, expected n={x.shape[0]}")
        r = x.astype(np.float64) - res.centroids[res.assignments]
        self.n["inertia"] += float(np.sum(r * r))
        self.n["kmeans_tokens"] += x.shape[0]

    def _stage1(self, s, i, spans):
        sizes = [kc.shape[0] for kc in s.arg(1, "key_clusters")]
        self.n["key_slots"] += len(sizes) * max(sizes)
        self.n["key_tokens"] += sum(sizes)
        self.key_cluster_max = max(self.key_cluster_max, max(sizes))
        self.key_cluster_min = min(self.key_cluster_min or min(sizes), min(sizes))

    def _final_stage(self, s, i, spans):
        sizes = [rc.shape[0] for rc in s.arg(0, "residual_clusters")]
        self.n["query_slots"] += len(sizes) * max(sizes)
        self.n["query_tokens"] += sum(sizes)

    def _attention(self, s, i, spans):
        q, k = s.arg(0, "q"), s.arg(1, "k")
        b, h, n_q, d = q.shape
        self.n["gflop"] += 4.0 * b * h * n_q * k.shape[2] * d / 1e9

    def _muse_causal(self, s, i, spans):
        q, b = s.arg(0, "q"), s.arg(4, "b")
        bsz, h, n, d = q.shape
        rows = Counter()
        plan = None
        for c in spans[i + 1:]:
            if c.parent != i:
                continue
            if c.name == "causal.build_plan":
                plan = c.result
            elif c.name in ("multipole.muse_acausal", "attention.attend_causal", "attention.attend"):
                rows[c.name] += c.arg(0, "q").shape[2]
                self.n["causal_blocks"] += 1
        if plan is None:
            self.problems.append("muse_causal made no build_plan call")
            return
        muse_rows, exact_rows = rows["multipole.muse_acausal"], rows["attention.attend_causal"]
        if muse_rows != plan.muse_query_rows or plan.n != n or plan.b != b:
            self.problems.append(
                f"causal muse_rows={muse_rows}, build_plan({n}, {b}).muse_query_rows={plan.muse_query_rows}")
        if exact_rows != n:
            self.problems.append(f"causal exact_rows={exact_rows}, expected n={n}")
        self.n["muse_rows"] += muse_rows
        self.n["exact_rows"] += exact_rows
        self.n["fallback_rows"] += rows["attention.attend"]
        self.n["parts_mb"] += (len(plan.levels) + 1) * bsz * h * n * (d + 1) * q.dtype.itemsize / 1e6

    def metrics(self) -> dict:
        it = max(self.iterations, 1)
        ms, calls, n = self.ms, self.calls, self.n
        exact_ms = ms["attention.attend"] + ms["attention.attend_causal"]

        def ratio(a, b):
            return n[a] / n[b] if n[b] else 0.0

        return {
            "numerics.in_attention.ms": ms["numerics.in_attention"] / it,
            "numerics.in_attention.calls": calls["numerics.in_attention"] / it,
            "numerics.in_multipole.ms": ms["numerics.in_multipole"] / it,
            "numerics.in_multipole.calls": calls["numerics.in_multipole"] / it,
            "attention.attend.ms": ms["attention.attend"] / it,
            "attention.attend.calls": calls["attention.attend"] / it,
            "attention.attend_causal.ms": ms["attention.attend_causal"] / it,
            "attention.attend_causal.calls": calls["attention.attend_causal"] / it,
            "attention.merge_partials.ms": ms["attention.merge_partials"] / it,
            "attention.gflop_computed": n["gflop"] / it,
            "attention.gflop_per_s": n["gflop"] / (exact_ms / 1e3) if exact_ms else 0.0,
            "clustering.kmeans.ms": ms["clustering.kmeans"] / it,
            "clustering.kmeans.calls": calls["clustering.kmeans"] / it,
            "clustering.kmeans.self_ms": self.self_ms["clustering.kmeans"] / it,
            "clustering.init_centroids.ms": ms["clustering.init_centroids"] / it,
            "clustering.cap_assign.ms": ms["clustering.cap_assign"] / it,
            "clustering.cap_binding_frac": (
                n["cap_binding"] / calls["clustering.cap_assign"] if calls["clustering.cap_assign"] else 0.0
            ),
            "clustering.spilled_frac": ratio("spilled", "cap_tokens"),
            "clustering.init_fallbacks": n["init_fallbacks"] / it,
            "clustering.inertia_per_token": ratio("inertia", "kmeans_tokens"),
            "multipole.muse_acausal.ms": ms["multipole.muse_acausal"] / it,
            "multipole.muse_acausal.calls": calls["multipole.muse_acausal"] / it,
            "multipole.muse_acausal.self_ms": self.self_ms["multipole.muse_acausal"] / it,
            "multipole.stage1.ms": ms["multipole.stage1"] / it,
            "multipole.aggregate_dipoles.ms": ms["multipole.aggregate_dipoles"] / it,
            "multipole.final_stage.ms": ms["multipole.final_stage"] / it,
            "multipole.key_padded_frac": ratio("key_slots", "key_tokens"),
            "multipole.query_padded_frac": ratio("query_slots", "query_tokens"),
            "multipole.key_cluster_max": self.key_cluster_max,
            "multipole.key_cluster_min": self.key_cluster_min,
            "causal.muse_causal.self_ms": self.self_ms["causal.muse_causal"] / it,
            "causal.build_plan.ms": ms["causal.build_plan"] / it,
            "causal.muse_rows": n["muse_rows"] / it,
            "causal.exact_rows": n["exact_rows"] / it,
            "causal.fallback_rows": n["fallback_rows"] / it,
            "causal.blocks": n["causal_blocks"] / it,
            "causal.parts_mb_computed": n["parts_mb"] / it,
        }


_COUNTERS = {
    "clustering.cap_assign": LayerStats._cap_assign,
    "clustering.init_centroids": LayerStats._init_centroids,
    "clustering.kmeans": LayerStats._kmeans,
    "multipole.stage1": LayerStats._stage1,
    "multipole.final_stage": LayerStats._final_stage,
    "attention.attend": LayerStats._attention,
    "attention.attend_causal": LayerStats._attention,
    "causal.muse_causal": LayerStats._muse_causal,
}
