"""The benchmark's tracer wraps program functions by module attribute
(`perfbench/tracing.py`, HOOKS). A renamed or moved function would silently
read 0 in the per-layer metrics, so the contract is pinned here."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from muse import MuseConfig

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_tracer_hook_resolves():
    tracing = load_tracing()
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracing.HOOKS
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert not missing, f"tracer hooks no longer resolve: {missing}"


def test_traced_clustered_call_counts_its_layers():
    tracing = load_tracing()
    tracer = tracing.Tracer({mod: importlib.import_module(mod) for mod, _, _ in tracing.HOOKS})
    rng = np.random.default_rng(0)
    q, k, v = (rng.normal(size=(1, 2, 64, 8)).astype(np.float32) for _ in range(3))
    multipole = importlib.import_module("muse.multipole")
    with tracer.active():
        multipole.muse_acausal(q, k, v, MuseConfig(c_q=8, c_k=8, seed=0))
    assert not tracer.missing and not tracer.unrestored()
    stats = tracing.LayerStats(iterations=1)
    stats.add(tracer.take())
    metrics = stats.metrics()
    assert metrics["clustering.kmeans.calls"] == 4 and metrics["multipole.muse_acausal.calls"] == 1
    for name in ("clustering.cap_assign.ms", "multipole.stage1.ms", "multipole.final_stage.ms"):
        assert metrics[name] > 0, name
    # the dipole softmax of aggregate_dipoles is the stages' one numerics softmax
    assert metrics["numerics.in_multipole.calls"] > 0
    assert metrics["multipole.key_padded_frac"] >= 1 and metrics["multipole.query_padded_frac"] >= 1
    # the padding counters read one block per cluster: 2 slices of 64 keys and queries
    assert stats.n["key_tokens"] == stats.n["query_tokens"] == 128


def test_traced_clustered_calls_report_no_problems():
    # the spill check reads the centroids that cap_assign was given after the whole call,
    # so k-means must not write them once cap_assign has returned
    tracing = load_tracing()
    multipole = importlib.import_module("muse.multipole")
    stats = tracing.LayerStats(iterations=20)
    for seed in range(20):
        tracer = tracing.Tracer({mod: importlib.import_module(mod) for mod, _, _ in tracing.HOOKS})
        rng = np.random.default_rng(seed)
        q, k, v = (rng.normal(size=(1, 2, 64, 8)).astype(np.float32) for _ in range(3))
        with tracer.active():
            multipole.muse_acausal(q, k, v, MuseConfig(c_q=8, c_k=8, seed=seed))
        stats.add(tracer.take())
    assert not stats.problems, stats.problems


def test_traced_causal_call_matches_its_plan():
    # `run.py --trace 1` checks that the exact children of muse_causal cover n
    # rows and the clustered children cover the rows of the plan it built.
    # near_min=1 keeps the cluster-count rule, so with C = 32 > b = 8 the
    # spans 8 and 16 run in the exact near field and spans 32-128 are clustered.
    tracing = load_tracing()
    causal = importlib.import_module("muse.causal")
    for shape, c, b in (((1, 2, 512, 8), 8, 64), ((1, 1, 256, 8), 32, 8)):
        tracer = tracing.Tracer({mod: importlib.import_module(mod) for mod, _, _ in tracing.HOOKS})
        rng = np.random.default_rng(1)
        q, k, v = (rng.normal(size=shape).astype(np.float32) for _ in range(3))
        cfg = MuseConfig(c_q=c, c_k=c, seed=0, near_min=1)
        with tracer.active():
            causal.muse_causal(q, k, v, cfg, b=b)
        assert not tracer.missing and not tracer.unrestored()
        stats = tracing.LayerStats(iterations=1)
        stats.add(tracer.take())
        assert not stats.problems, (shape, c, b, stats.problems)
        metrics = stats.metrics()
        n = shape[2]
        assert metrics["causal.exact_rows"] == n and metrics["causal.fallback_rows"] == 0
        assert metrics["causal.muse_rows"] == causal.causal_plan(n, b, cfg).muse_query_rows > 0
        assert metrics["attention.merge_partials.ms"] > 0
