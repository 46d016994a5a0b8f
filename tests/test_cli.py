import json

import numpy as np
import pytest

from muse import load_qkv
from muse.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--dtype", "f64")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 5
    assert all(l.startswith("PASS ") for l in lines)


def test_error_sweep_comma_grid_row_count(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys,
                         "error-sweep", "--workload", "mixture",
                         "--clusters", "16,32,64", "--iters", "1",
                         "--cap-ratio", "1.5", "--n", "1024", "--d", "16",
                         "--seeds", "5", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert len(doc["rows"]) == 15
    means = [doc["aggregates"][f"C={c} iters=1 cap=1.5"]["mean"] for c in (16, 32, 64)]
    assert means[0] > means[1] > means[2], "mean error must fall as C grows"


def test_error_sweep_space_separated_grid(capsys):
    code, out, _ = run_cli(capsys,
                           "error-sweep", "--workload", "mixture",
                           "--clusters", "8", "16", "--n", "256", "--d", "8",
                           "--c-true", "8", "--seeds", "2")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 4


def test_ablate_reports_verdicts(capsys):
    code, out, _ = run_cli(capsys,
                           "ablate", "--workload", "mixture", "--n", "256",
                           "--d", "8", "--c-true", "8", "--spread", "0.3",
                           "--clusters", "16", "--seeds", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "ablation"
    assert set(doc["metadata"]["ordering_verdicts"]) == {
        "full<no_dipole", "no_dipole<single_query_cluster",
        "single_query_cluster<no_monopole"}
    assert len(doc["rows"]) == 8


def test_bench_small_budget(capsys):
    code, out, _ = run_cli(capsys,
                           "bench", "--n-list", "64", "128", "--budget", "1024",
                           "--d", "8", "--clusters", "8", "--reps", "1",
                           "--dtype", "f32")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "scaling_bench"
    assert len(doc["rows"]) == 4
    assert "doubling_ratios" in doc["aggregates"]


def test_causal_bench_degenerate_note(capsys):
    code, out, _ = run_cli(capsys,
                           "causal-bench", "--n", "256", "--block", "256",
                           "--d", "8", "--clusters", "16")
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["path"] == "exact path (no MuSe blocks)"


def test_causal_bench_hierarchical(capsys):
    code, out, _ = run_cli(capsys,
                           "causal-bench", "--n", "4096", "--block", "64",
                           "--d", "8", "--clusters", "16")
    assert code == 0
    doc = json.loads(out)
    # the default near field of 2048 rows leaves one clustered level of 2048 rows
    assert doc["metadata"]["path"] == "hierarchical"
    assert doc["metadata"]["near"] == 2048 and doc["metadata"]["muse_query_rows"] == 2048


def test_gen_qkv_then_file_workload_round_trip(capsys, tmp_path):
    qkv_path = tmp_path / "w.museqkv"
    code, out, _ = run_cli(capsys, "gen-qkv", "--n", "64", "--d", "8",
                           "--seed", "3", "--out", str(qkv_path))
    assert code == 0 and "wrote" in out
    q, k, v = load_qkv(qkv_path)
    assert q.shape == (1, 1, 64, 8)
    code, out, _ = run_cli(capsys,
                           "error-sweep", "--workload", "file", "--path",
                           str(qkv_path), "--clusters", "8", "--seeds", "1")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 1
    assert doc["rows"][0]["rel_sq_error"] < 1.0


def test_bench_rejects_a_file_workload(capsys, tmp_path):
    qkv_path = tmp_path / "w.museqkv"
    assert run_cli(capsys, "gen-qkv", "--n", "64", "--d", "8", "--out", str(qkv_path))[0] == 0
    code, out, err = run_cli(capsys, "bench", "--workload", "file", "--path", str(qkv_path),
                             "--n-list", "64", "128", "--budget", "256", "--d", "8",
                             "--clusters", "8", "--reps", "1")
    assert code == 2
    assert err.startswith("error: ") and "synthetic workloads only" in err
    assert out == ""


def test_omit_timing_is_byte_reproducible(capsys):
    argv = ["error-sweep", "--workload", "mixture", "--n", "256", "--d", "8",
            "--c-true", "8", "--clusters", "8", "--seeds", "2", "--omit-timing"]
    code_a, out_a, _ = run_cli(capsys, *argv)
    code_b, out_b, _ = run_cli(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    assert "wall_time_ms" not in out_a


def test_csv_format(capsys):
    code, out, _ = run_cli(capsys,
                           "error-sweep", "--n", "64", "--d", "8",
                           "--clusters", "8", "--seeds", "1",
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("label,c,iters,cap_ratio,seed,rel_sq_error")
    assert len(lines) == 2


def test_invalid_values_exit_nonzero(capsys):
    code, _, err = run_cli(capsys, "error-sweep", "--n", "16",
                           "--clusters", "64", "--seeds", "1")
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli(capsys, "causal-bench", "--n", "100", "--block", "10")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv, message", [
    (("bench", "--reps", "0"), "reps must be >= 1"),
    (("bench", "--n-list", "0"), "n must be >= 1"),
    (("error-sweep", "--seeds", "0"), "seeds must be >= 1"),
    (("ablate", "--seeds", "0"), "seeds must be >= 1"),
])
def test_zero_counts_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    (("error-sweep", "--seed", "-1"), "seed must be a non-negative integer"),
    (("gen-qkv", "--seed", "-1"), "seed must be a non-negative integer"),
    (("gen-qkv", "--workload", "mixture", "--c-true", "0"), "need 1 <= c_true <= n"),
])
def test_bad_seed_or_component_count_exit_2(capsys, tmp_path, argv, message):
    if argv[0] == "gen-qkv":
        argv += ("--out", str(tmp_path / "w.museqkv"))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert out == "" and not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ("bench", "--cap-ratio", "inf"),
    ("bench", "--cap-ratio", "nan"),
    ("error-sweep", "--cap-ratio", "1.5,inf", "--seeds", "1"),
    ("gen-qkv", "--workload", "mixture", "--spread", "nan"),
    ("gen-qkv", "--workload", "mixture", "--spread", "inf"),
])
def test_non_finite_values_exit_2(capsys, tmp_path, argv):
    if argv[0] == "gen-qkv":
        argv += ("--out", str(tmp_path / "w.museqkv"))
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "must be" in err and "finite" in err
    assert not list(tmp_path.iterdir())


def test_unknown_flag_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["error-sweep", "--bogus", "1"])
    assert exc.value.code != 0


def test_help_lists_every_documented_flag():
    parser = build_parser()
    helps = {}
    for name in ("error-sweep", "ablate", "bench", "causal-bench", "gen-qkv"):
        sub = next(a for a in parser._actions
                   if isinstance(a, type(parser._subparsers._group_actions[0])))
        helps[name] = sub.choices[name].format_help()
    for flag in ("--workload", "--path", "--batch", "--heads", "--n", "--d",
                 "--c-true", "--spread", "--clusters", "--iters", "--cap-ratio",
                 "--scale", "--seeds", "--seed", "--dtype", "--threads",
                 "--out", "--format"):
        assert flag in helps["error-sweep"], flag
    assert "--ablation" not in helps["ablate"]
    assert "--block" in helps["causal-bench"]
    assert "--budget" in helps["bench"]
    assert "--out" in helps["gen-qkv"]


def test_defaults_match_documented_operating_point():
    parser = build_parser()
    args = parser.parse_args(["error-sweep"])
    assert args.clusters == [[64]] and args.iters == [[1]] and args.cap_ratio == [[1.5]]
    assert args.scale is None and args.seeds == 5 and args.seed == 0
    assert args.dtype == "f64" and args.format == "json"
    bench = parser.parse_args(["bench"])
    assert bench.budget == 2 ** 18 and bench.n_list == [1024, 2048, 4096]
    causal = parser.parse_args(["causal-bench"])
    assert causal.block == 128 and causal.n == 8192
