"""Tests of the benchmark itself: python3 -m pytest perfbench/test_perfbench.py"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def cli_op(command, checked_as):
    env = workloads.cli_env()
    return workloads.Op(command, lambda: workloads.run_cli(command, env, None),
                        lambda out: workloads.check_cli(checked_as, out))


def test_nonzero_exit_and_wrong_digest_each_count_as_failed():
    ops = [
        cli_op("mersenne order 3", "mersenne order 3"),
        cli_op("mersenne order 4", "mersenne order 4"),  # not a prime: exit 2
        cli_op("mersenne order 3", "mersenne order 5"),  # exit 0, wrong output
    ]
    measured = worker.measure([ops], float("inf"), None, None)
    assert len(measured["latencies"]) == 3
    assert [e.split(":")[0] for e in measured["errors"]] == ["mersenne order 4"]
    assert measured["wrong"] == ["mersenne order 3: stdout digest differs"]
    result = {"workload": "cli-cold", "setup_samples": [0.1], "rss_self_kb": 1,
              "rss_children_kb": 1, **measured}
    assert run.end_to_end(result)["failed_ratio"]["value"] == 2 / 3


def test_gate_that_raises_is_a_wrong_answer_and_an_exception_an_error():
    def boom():
        raise ValueError("no")

    ok = workloads.Op("ok", lambda: 1, lambda v: None)
    error = workloads.Op("error", boom, lambda v: None)
    bad_gate = workloads.Op("gate", lambda: 1, lambda v: v.missing)
    measured = worker.measure([[ok, error, bad_gate]], float("inf"), None, None)
    assert measured["errors"] == ["error: ValueError: no"]
    assert len(measured["wrong"]) == 1 and measured["wrong"][0].startswith("gate: gate raised")


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    lat = [i / 1000 for i in range(1, 101)]
    result = {"workload": "nt-queries", "setup_samples": [0.1], "rss_self_kb": 1,
              "rss_children_kb": 1, "latencies": lat, "errors": [], "wrong": []}
    tail = run.end_to_end(result)["op_tail_ms"]
    assert tail["percentile"] == 90.0 and abs(tail["value"] - 90) < 1e-9
    result["latencies"] = lat[:10]
    assert "op_tail_ms" not in run.end_to_end(result)


def test_series_round_trip_gate_checks_first_output_then_its_bytes():
    for op in next(workloads.series_io(random.Random(1), True, None)):
        text, back = op.run()
        changed = text.replace("\n", "\n\n", 1)
        assert op.check((changed, back)) is not None  # first output: digest or terms
        assert op.check((text, back)) is None
        assert op.check((changed, back)) == "to_text output differs from the reference bytes"


def test_smoke_mode_passes():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [*spec["command"], "--workload", "exp-verify", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
