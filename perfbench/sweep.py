"""Run perfbench/run.py over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 0-9                        # every workload, end-to-end
    python3 perfbench/sweep.py --workloads causal_mix_n8192 --seeds 0,1,2 --trace 1
    python3 perfbench/sweep.py --seeds 0-9 --out sweep.json       # also write the values

For each workload and metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread, the distance
between the quartiles as a share of the median. An end-to-end metric whose
spread exceeds a third of its bound in BENCHMARK.json is marked "wide".
Runs are sequential, one process at a time; a run that exits non-zero or
reports correct=false makes the sweep exit 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                continue
            runs.append(result)
            print(f"{workload} seed {seed} ({wall:.0f} s): " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        if not runs:
            continue
        report[workload] = {}
        for metric in runs[0]["metrics"]:
            s = summary([r["metrics"][metric]["value"] for r in runs])
            report[workload][metric] = s
            bound = bounds.get(metric) if not args.trace else None
            flag = "" if bound is None else ("  wide" if s["spread"] > bound / 3 else "  ok") + f" (bound {bound})"
            print(f"{workload:26s} {metric:30s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  "
                  f"q3 {s['q3']:12.6g}  spread {s['spread']:.4f}{flag}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
