"""Benchmark of exact against clustered attention through the public API.

Each operation is one call: `attend`/`attend_causal` on the exact side and
`muse_acausal`/`muse_causal` on the clustered side, single-threaded with
OpenBLAS pinned to one thread. Every operation is checked (see `gate_*`).

    python3 perfbench/run.py                  # every workload, end-to-end metrics
    python3 perfbench/run.py --workload causal_mix_n8192 --seed 7 --seconds 10 --trace 1

`--trace 0` reports the end-to-end metrics of BENCHMARK.json; `--trace 1` runs
the traced loop and reports the per-layer metrics. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics. The exit
code is 1 when any operation or consistency check failed.
"""

import os

# Pinned before numpy loads OpenBLAS, which reads these once at load time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
THREADS = 1  # the `threads` argument of every call; _map_slices parallelism is not measured
MIN_SAMPLES = 11  # the tail percentile needs 10 samples beyond it
MIN_TRACED = 3  # traced iterations; the per-layer numbers are means, no tail is taken
EXACT_TOL = 64 * float(np.finfo(np.float32).eps)  # f32 exact output against the float64 reference
# The shared host's speed drifts by up to ~60% over seconds to minutes. Each timed call is
# therefore divided by speed probes taken right before and after it, and multiplied by the
# probe's median on the reference VM, so end-to-end times read as wall times on that VM at its
# median speed. The raw wall medians are printed too. The compute probe (small matmuls, exp
# in cache, an interpreter loop) tracks the clustered call; the streaming probe (exp over
# 16 MB) tracks the exact call, whose score rows stream through memory.
REFERENCE_PROBE_S = {"compute": 0.75e-3, "stream": 5.5e-3}
# The probes allocate nothing while they run: freeing a large buffer would raise glibc's mmap
# threshold and change how the program's own temporaries are allocated, and so its speed.
_rng = np.random.default_rng(0)
_PROBE_A = _rng.standard_normal((128, 128), dtype=np.float32)
_PROBE_X = _rng.standard_normal(32768, dtype=np.float32)
_PROBE_BIG = _rng.standard_normal(4_000_000, dtype=np.float32)
_PROBE_OUT = [np.empty_like(a) for a in (_PROBE_A, _PROBE_X, _PROBE_BIG)]


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict  # WorkloadSpec fields besides seed, d=16 and dtype=f32
    clusters: int  # c_q = c_k
    block: int | None  # diagonal block size b of muse_causal; None for the acausal calls
    frozen: bool  # clusters made in set-up by cluster_tokens and passed to muse_acausal
    instances: int  # input sets per run, cycled by the timed loop, so one run averages over inputs
    err_ceiling: float  # largest accepted rel_sq_error of one clustered call


WORKLOADS = {
    w.name: w
    for w in (
        # Clustering-bound: caps bind on every k-means call and clusters are small.
        Workload("acausal_iso_n1024", dict(kind="isotropic_gaussian", batch=2, heads=4, n=1024),
                 clusters=64, block=None, frozen=False, instances=4, err_ceiling=0.3),
        # Multipole-bound: k-means runs once in set-up, so the call is stage 1 and the final stage.
        Workload("acausal_mix_n4096_frozen",
                 dict(kind="gaussian_mixture", batch=1, heads=2, n=4096, c_true=64, spread=0.3),
                 clusters=64, block=None, frozen=True, instances=32, err_ceiling=0.02),
        # The causal plan: 31 muse_acausal blocks of 256-4096 rows, 32 exact diagonal blocks, one merge.
        Workload("causal_mix_n8192",
                 dict(kind="gaussian_mixture", batch=1, heads=1, n=8192, c_true=64, spread=0.3),
                 clusters=32, block=256, frozen=False, instances=16, err_ceiling=0.05),
    )
}


def import_program():
    """Import `muse` from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "muse" / "__init__.py").is_file():
        sys.exit(f"perfbench: program sources not found under {src}")
    sys.path.insert(0, str(src))
    import muse
    import muse.attention
    import muse.causal
    import muse.clustering
    import muse.multipole
    import muse.workloads

    if Path(muse.__file__).resolve().parent != (src / "muse").resolve():
        sys.exit(f"perfbench: imported muse from {muse.__file__}, expected {src / 'muse'}")
    return muse


def reference(q, k, v, causal: bool, chunk: int = 512):
    """Float64 softmax attention written apart from the program: (y, mu)."""
    q, k, v = (np.asarray(a, dtype=np.float64) for a in (q, k, v))
    b, h, n, d = q.shape
    scale = 1.0 / math.sqrt(d)
    y = np.empty(q.shape)
    mu = np.empty(q.shape[:3])
    for bi in range(b):
        for hi in range(h):
            for lo in range(0, n, chunk):
                up = min(lo + chunk, n)
                stop = up if causal else k.shape[2]
                s = (q[bi, hi, lo:up] * scale) @ k[bi, hi, :stop].T
                if causal:
                    s[:, lo:][np.arange(lo, stop)[None, :] > np.arange(lo, up)[:, None]] = -np.inf
                m = s.max(axis=1, keepdims=True)
                e = np.exp(s - m)
                z = e.sum(axis=1)
                y[bi, hi, lo:up] = (e @ v[bi, hi, :stop]) / z[:, None]
                mu[bi, hi, lo:up] = np.log(z) + m[:, 0]
    return y, mu


@dataclass
class Instance:
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    config: object  # MuseConfig
    clusters: object  # MuseClusters or None
    ref: object  # float64 AttentionResult
    first: object = None  # first clustered output; later ones must equal it bitwise
    err: float = math.nan


class Ops:
    """Counts operations and runs each one behind its correctness gate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, call, gate):
        """Time `call()`; returns (seconds, result or None). A raise or a gate problem is a failure."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception:  # the benchmark keeps going and reports the failure
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return time.perf_counter() - t0, None
        elapsed = time.perf_counter() - t0
        problem = gate(result)
        if problem:
            self.failed += 1
            print(f"perfbench: FAILED {problem}", file=sys.stderr)
        return elapsed, result


def _shape_problem(r, shape):
    if r.y.shape != shape or r.mu.shape != shape[:3]:
        return f"wrong output shape y={r.y.shape} mu={r.mu.shape}, expected {shape}"
    if not (np.isfinite(r.y).all() and np.isfinite(r.mu).all()):
        return "non-finite y or mu"
    return None


def gate_exact(inst):
    def gate(r):
        problem = _shape_problem(r, inst.q.shape)
        if problem:
            return problem
        for name, got, want in (("y", r.y, inst.ref.y), ("mu", r.mu, inst.ref.mu)):
            if not np.all(np.abs(got - want) <= EXACT_TOL * (1.0 + np.abs(want))):
                return f"exact {name} departs from the float64 reference by {np.max(np.abs(got - want)):.3g}"
        return None

    return gate


def gate_approx(muse, wl, inst):
    def gate(r):
        problem = _shape_problem(r, inst.q.shape)
        if problem:
            return problem
        if inst.first is None:
            inst.first = r
            inst.err = muse.rel_sq_error(inst.ref, r)
        elif not (np.array_equal(r.y, inst.first.y) and np.array_equal(r.mu, inst.first.mu)):
            return "clustered output is not bitwise equal to the first rep on the same inputs"
        if not inst.err <= wl.err_ceiling:
            return f"rel_sq_error {inst.err:.4g} above the ceiling {wl.err_ceiling}"
        return None

    return gate


def approx_call(muse, wl, inst):
    if wl.block is not None:
        return muse.causal.muse_causal(inst.q, inst.k, inst.v, inst.config, wl.block, threads=THREADS)
    return muse.multipole.muse_acausal(inst.q, inst.k, inst.v, inst.config, threads=THREADS,
                                       clusters=inst.clusters)


def exact_call(muse, wl, inst):
    fn = muse.attention.attend if wl.block is None else muse.attention.attend_causal
    return fn(inst.q, inst.k, inst.v, threads=THREADS)


def instance_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def set_up(muse, wl, seed, i, ops, tracer=None):
    """Inputs, float64 reference, frozen clusters and one warm-up clustered call."""
    s = instance_seed(seed, i)
    spec = muse.WorkloadSpec(seed=s, d=16, dtype="f32", **wl.spec)
    with tracer.active() if tracer else nullcontext():
        q, k, v = muse.workloads.generate(spec)
    ref = muse.AttentionResult(*reference(q, k, v, causal=wl.block is not None))
    config = muse.MuseConfig(c_q=wl.clusters, c_k=wl.clusters, kmeans_iters=1, cap_ratio=1.5, seed=s)
    clusters = muse.multipole.cluster_tokens(q, k, config, threads=THREADS) if wl.frozen else None
    inst = Instance(q, k, v, config, clusters, ref)
    ops.run(lambda: approx_call(muse, wl, inst), gate_approx(muse, wl, inst))
    return inst


def probe():
    """Seconds of two fixed pieces of work that never touch the program: {"compute", "stream"}.

    Each is the faster of two tries, so that one interrupt does not count.
    """
    a_out, x_out, big_out = _PROBE_OUT
    best = {"compute": math.inf, "stream": math.inf}
    for _ in range(2):
        t0 = time.perf_counter()
        for _ in range(8):
            np.matmul(_PROBE_A, _PROBE_A, out=a_out)
            np.exp(_PROBE_X, out=x_out).sum()
        total = 0
        for i in range(4000):
            total += i
        t1 = time.perf_counter()
        np.exp(_PROBE_BIG, out=big_out).sum()
        t2 = time.perf_counter()
        best = {"compute": min(best["compute"], t1 - t0), "stream": min(best["stream"], t2 - t1)}
    return best


class Scaled:
    """Wall times, each with a probe before and after it, and the same times scaled to REFERENCE_PROBE_S
    by the probe `kind` that tracks them ("compute", "stream", or "both" for their geometric mean)."""

    def __init__(self):
        self.probes = [probe()]
        self.raw = {}
        self.scaled = {}

    def _speed(self, p, kind):
        if kind == "both":
            return math.sqrt(self._speed(p, "compute") * self._speed(p, "stream"))
        return p[kind] / REFERENCE_PROBE_S[kind]

    def record(self, key, elapsed, kind):
        self.probes.append(probe())
        slowdown = (self._speed(self.probes[-2], kind) + self._speed(self.probes[-1], kind)) / 2
        self.raw.setdefault(key, []).append(elapsed)
        self.scaled.setdefault(key, []).append(elapsed / slowdown)

    def probe_medians(self):
        return {k: statistics.median(p[k] for p in self.probes) for k in REFERENCE_PROBE_S}


def tail(samples):
    """(value, percentile): the highest percentile with at least 10 samples beyond it."""
    s = sorted(samples)
    return s[len(s) - 11], 100.0 * (len(s) - 10) / len(s)


def pooled_error(insts):
    """rel_sq_error over all instances jointly, i.e. weighted by each reference's energy."""
    energy = [float(np.sum(i.ref.y * i.ref.y)) for i in insts]
    return sum(i.err * e for i, e in zip(insts, energy)) / sum(energy)


def openblas_threads():
    """Thread count OpenBLAS reports, or None where its library is not found."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None  # not a git checkout
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def metadata(wl, seed, trace):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": wl.name, "seed": seed, "trace": trace, "instances": wl.instances,
        "host": platform.node(), "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"], "blas_threads": openblas_threads(),
        "threads": THREADS, "commit": git_commit(),
    }


def measure(muse, wl, seed, seconds):
    """Untraced run: the end-to-end metrics."""
    ops = Ops()
    timer = Scaled()
    insts = []
    for i in range(wl.instances):
        t0 = time.perf_counter()
        insts.append(set_up(muse, wl, seed, i, ops))
        timer.record("setup", time.perf_counter() - t0, "both")
    ops.run(lambda: exact_call(muse, wl, insts[0]), gate_exact(insts[0]))  # warm-up, not timed
    start = time.perf_counter()
    reps = 0
    while time.perf_counter() - start < seconds or reps < MIN_SAMPLES:
        inst = insts[reps % len(insts)]
        reps += 1
        timer.record("approx", ops.run(lambda: approx_call(muse, wl, inst), gate_approx(muse, wl, inst))[0],
                     "compute")
        timer.record("exact", ops.run(lambda: exact_call(muse, wl, inst), gate_exact(inst))[0], "stream")
    tracemalloc.start()
    try:
        ops.run(lambda: approx_call(muse, wl, insts[0]), gate_approx(muse, wl, insts[0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    approx, exact = timer.scaled["approx"], timer.scaled["exact"]
    approx_tail, approx_pct = tail(approx)
    exact_tail, exact_pct = tail(exact)
    raw = {k: statistics.median(v) for k, v in timer.raw.items()}
    notes = [
        f"approx_tail_ms is p{approx_pct:.1f} and exact_tail_ms p{exact_pct:.1f} of {len(approx)} samples each",
        f"setup_s is the median of {wl.instances} set-ups; fail_frac = {ops.failed}/{ops.attempted}",
        f"raw wall medians: setup {raw['setup']:.4f} s, approx {1e3 * raw['approx']:.2f} ms, "
        f"exact {1e3 * raw['exact']:.2f} ms; probe medians (ms) "
        + ", ".join(f"{k} {1e3 * v:.4f} against {1e3 * REFERENCE_PROBE_S[k]:.4f}"
                    for k, v in timer.probe_medians().items()),
    ]
    metrics = {
        "setup_s": statistics.median(timer.scaled["setup"]),
        "approx_ms": 1e3 * statistics.median(approx),
        "approx_tail_ms": 1e3 * approx_tail,
        "exact_ms": 1e3 * statistics.median(exact),
        "exact_tail_ms": 1e3 * exact_tail,
        "rel_sq_error": pooled_error(insts),
        "approx_peak_mb": peak / 1e6,
    }
    return ops, metrics, notes, []


def measure_traced(muse, wl, seed, seconds):
    """Traced run: per-layer metrics, tracing overhead and the trace consistency checks."""
    from tracing import LayerStats, Tracer

    tracer = Tracer({m.__name__: m for m in (muse.workloads, muse.attention, muse.clustering,
                                              muse.multipole, muse.causal)})
    ops = Ops()
    insts = [set_up(muse, wl, seed, i, ops, tracer) for i in range(wl.instances)]
    generate = tracer.take()
    stats = LayerStats()
    problems = []
    untraced_t, traced_t = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(traced_t) < MIN_TRACED:
        inst = insts[len(traced_t) % len(insts)]
        t, _ = ops.run(lambda: approx_call(muse, wl, inst), gate_approx(muse, wl, inst))
        untraced_t.append(t)
        _, exact = ops.run(lambda: exact_call(muse, wl, inst), gate_exact(inst))
        with tracer.active():
            # gate_approx also holds the traced output bitwise equal to the untraced ones
            t, _ = ops.run(lambda: approx_call(muse, wl, inst), gate_approx(muse, wl, inst))
            _, traced_exact = ops.run(lambda: exact_call(muse, wl, inst), gate_exact(inst))
        traced_t.append(t)
        if exact is not None and traced_exact is not None and not (
            np.array_equal(exact.y, traced_exact.y) and np.array_equal(exact.mu, traced_exact.mu)
        ):
            problems.append("traced exact output differs from the untraced one")
        problems += [f"not restored after tracing: {name}" for name in tracer.unrestored()]
        stats.add(tracer.take())
        stats.iterations += 1
    problems += stats.problems
    metrics = stats.metrics()
    metrics["workloads.generate.ms"] = 1e3 * statistics.mean(s.t1 - s.t0 for s in generate)
    metrics["trace.overhead_frac"] = statistics.median(traced_t) / statistics.median(untraced_t) - 1.0
    notes = [f"{stats.iterations} traced iterations (one clustered and one exact call each); "
             f"times and counts are per iteration; fail_frac = {ops.failed}/{ops.attempted}"]
    notes += [f"not traced, the program has no {name}: its metrics read 0" for name in tracer.missing]
    return ops, metrics, notes, problems


def run_workload(muse, bench, wl, seed, seconds, trace):
    """Run one workload and print its report; returns True when everything passed."""
    meta = metadata(wl, seed, trace)
    ops, values, notes, problems = (measure_traced if trace else measure)(muse, wl, seed, seconds)
    declared = bench["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    correct = ops.failed == 0 and not problems
    print("meta " + json.dumps(meta))
    for line in notes + [f"CHECK FAILED: {p}" for p in problems]:
        print(f"{wl.name}: {line}")
    if not trace:
        print(f"{wl.name:26s} {'fail_frac':30s} {ops.failed / ops.attempted:>16.6g} 1")
    for name in units:
        print(f"{wl.name:26s} {name:30s} {values[name]:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }), flush=True)
    return correct


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, help="measuring time per workload (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    muse = import_program()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = [run_workload(muse, bench, WORKLOADS[n], args.seed, args.seconds, args.trace) for n in names]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
