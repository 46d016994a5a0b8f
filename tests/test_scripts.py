"""Run each script under scripts/ end to end, as a user would: a fresh
interpreter in the repo root with src/ on the path."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(*argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *map(str, argv)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)


def test_run_trends_writes_every_committed_report(tmp_path):
    done = run_script("scripts/run_trends.py", "--seeds", "1", "--out-dir", tmp_path)
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["cluster_count_trend.json", "ablation_ordering.json", "causal_accuracy.json",
         *(f"spread_{s}.json" for s in (0.4, 0.2, 0.1, 0.05))])
    assert done.stdout.count("<- committed") == 3


def test_near_sweep_prints_a_row():
    done = run_script("scripts/near_sweep.py", "--d", "16", "--cases", "4096:16",
                      "--spans", "2048", "--reps", "1")
    assert done.returncode == 0, done.stderr
    assert "| 4096, 16 |" in done.stdout


def test_hashcheck_is_bitwise_equal_across_processes(tmp_path):
    saved = tmp_path / "h.npz"
    first = run_script("scripts/hashcheck.py", ".", "--save", saved)
    assert first.returncode == 0, first.stderr
    second = run_script("scripts/hashcheck.py", ".", "--against", saved)
    assert second.returncode == 0, second.stderr
    assert second.stdout.splitlines()[0] == first.stdout.strip()
    compared = second.stdout.splitlines()[1:]
    assert compared and all(line.endswith(": bitwise equal") for line in compared)
