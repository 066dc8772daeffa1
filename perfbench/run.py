"""Benchmark of magmaexp: four workloads, end-to-end metrics, traced per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the root of a checkout; it imports the package from src/ and
fails, printing no result, when src/magmaexp is missing.

Untraced (--trace 0), the run starts MIN_SETUPS to MAX_SETUPS worker
processes, one after another: all but the last only set the workload up,
and the last also runs whole batches of ops until S seconds of op time have
passed.  Traced (--trace 1), one worker runs the ops with spans, then an
untraced worker replays the same ops; the difference of their op times is
the tracing overhead.  Every run checks every answer (see workloads.py),
prints a table of its metrics with units and sample counts, a results record
with provenance, and as its last line a JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json untraced, its per-layer metrics traced.  The record is also
written to .perfbench-out/.

--smoke runs every workload at a tiny size, traced and untraced, and checks
that every metric is present and that span self times add up to op time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("exp-verify", "series-io", "nt-queries", "cli-cold")
# set-up runs MIN_SETUPS to MAX_SETUPS times, more while the extra set-ups
# take under SETUP_BUDGET_S: a set-up of 0.1 s varies by up to half from one
# process to the next
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 9, 2.0
DEADLINE_S = 170  # a run must end within 180 s
# long enough for the 11 ops op_tail_ms needs; cli-cold ops take 0.1-0.3 s
SMOKE_SECONDS = {"cli-cold": 3.0}
# the peak memory of cli-cold is that of its command-line child processes
CHILD_RSS = {"cli-cold"}

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "failed_ratio": "ratio", "peak_rss_mb": "MB",
}
# which end-to-end metric a layer metric moves, and on which workload
PER_LAYER = {
    "trees.enumerate_trees.s": "setup_s on exp-verify, op_p50_ms on cli-cold",
    "trees.graft.calls": "op_p50_ms on exp-verify and series-io",
    "trees.canonical_rank.calls": "op_p50_ms on series-io",
    "trees.canonical_rank.s": "op_p50_ms on series-io",
    "trees.parse.calls": "op_p50_ms on series-io",
    "trees.parse.s": "op_p50_ms on series-io",
    "trees.render.calls": "op_p50_ms on series-io",
    "trees.render.s": "op_p50_ms on series-io",
    "series.mul.calls": "op_p50_ms, ops_per_s on exp-verify",
    "series.mul.s": "op_p50_ms, ops_per_s on exp-verify",
    "series.mul.pairs_visited": "op_p50_ms, ops_per_s on exp-verify (computed)",
    "series.mul.pairs_useful": "op_p50_ms, ops_per_s on exp-verify (computed)",
    "series.mul.useful_ratio": "op_p50_ms, ops_per_s on exp-verify (computed)",
    "series.derivative.s": "op_p50_ms, ops_per_s on exp-verify",
    "series.dilate.s": "op_p50_ms, ops_per_s on exp-verify",
    "series.eq.s": "op_p50_ms, ops_per_s on exp-verify",
    "series.sub.s": "op_p50_ms, ops_per_s on exp-verify",
    "series.truncate.s": "op_p50_ms, ops_per_s on exp-verify",
    "series.terms.s": "op_p50_ms, ops_per_s on series-io",
    "series.to_text.s": "op_p50_ms, ops_per_s on series-io",
    "series.to_text.bytes": "op_p50_ms, ops_per_s on series-io",
    "series.from_text.s": "op_p50_ms, ops_per_s on series-io",
    "exponential.exp_series.s": "exp-verify; cli-cold through exp coeffs",
    "exponential.a_coefficient.hits": "exp-verify; cli-cold through exp coeffs",
    "exponential.a_coefficient.misses": "exp-verify; cli-cold through exp coeffs",
    "exponential.a_hat.hits": "exp-verify; cli-cold through exp coeffs",
    "exponential.a_hat.misses": "exp-verify; cli-cold through exp coeffs",
    "exponential.a_hat_product.s": "exp-verify; cli-cold through exp coeffs",
    "exponential.a_hat_recursion_check.s": "exp-verify; cli-cold through exp coeffs",
    "exponential.coefficient_rows.s": "exp-verify; cli-cold through exp coeffs",
    "verify.run_verification.s": "op_p50_ms, ops_per_s on exp-verify",
    "verify.run_verification.self_s": "op_p50_ms, ops_per_s on exp-verify",
    "verify.checks_failed": "failed_ratio on exp-verify",
    "omega.omega.s": "op_tail_ms, ops_per_s on nt-queries",
    "omega.omega_factorization.s": "op_tail_ms, ops_per_s on nt-queries",
    "omega.omega_valuation.s": "op_tail_ms, ops_per_s on nt-queries",
    "omega.convolution_term.s": "op_tail_ms, ops_per_s on nt-queries",
    "mersenne.mersenne_factorial.s": "op_tail_ms, ops_per_s, peak_rss_mb on nt-queries",
    "mersenne.mersenne_binomial.s": "op_tail_ms, ops_per_s on nt-queries",
    "mersenne.gaussian_binomial_at_2.s": "op_tail_ms, ops_per_s on nt-queries",
    "orders.factor_mersenne.s": "op_tail_ms, ops_per_s, peak_rss_mb on nt-queries",
    "orders.pi_m.s": "op_tail_ms, ops_per_s on nt-queries",
    "orders.wieferich_search.s": "op_tail_ms, ops_per_s on nt-queries",
    "orders.mersenne_valuation.s": "op_tail_ms, ops_per_s on nt-queries",
    "orders.order_record.hits": "op_tail_ms, ops_per_s, peak_rss_mb on nt-queries",
    "orders.order_record.misses": "op_tail_ms, ops_per_s, peak_rss_mb on nt-queries",
    "primes.is_prime.calls": "op_tail_ms, ops_per_s on nt-queries",
    "primes.is_prime.s": "op_tail_ms, ops_per_s on nt-queries",
    "primes.factorize.calls": "op_tail_ms, ops_per_s on nt-queries",
    "primes.factorize.s": "op_tail_ms, ops_per_s on nt-queries",
    "primes.primes_up_to.s": "op_tail_ms, ops_per_s on nt-queries",
    "cli.import_s": "setup_s, op_p50_ms on cli-cold",
    "cli.command_s": "op_p50_ms on cli-cold",
    "cli.output_bytes": "op_p50_ms on cli-cold",
    "cli.exit_nonzero": "failed_ratio on cli-cold",
}
COMPUTED = {"series.mul.pairs_visited", "series.mul.pairs_useful", "series.mul.useful_ratio"}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes"):
        return "B"
    return "ratio" if name.endswith("ratio") else "count"


def benchmark_metrics(key: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[key]]


# -- running workers ----------------------------------------------------------

def run_worker(config: dict, deadline: float) -> dict:
    """Run worker.py with `config` and return its result; raise if it fails."""
    timeout = max(5.0, deadline - time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(config)],
        capture_output=True, text=True, timeout=timeout, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 small: bool = False) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    config = {"workload": workload, "seed": seed, "small": small, "trace": False,
              "setup_only": True, "seconds": seconds, "max_ops": None}
    setups: list[float] = []
    started = time.monotonic()
    while not trace and len(setups) < MAX_SETUPS - 1 and (
            len(setups) < MIN_SETUPS - 1 or time.monotonic() - started < SETUP_BUDGET_S):
        setups.append(run_worker(config, deadline)["setup_s"])
    main = run_worker(dict(config, setup_only=False, trace=trace), deadline)
    setups.append(main["setup_s"])
    result = {"workload": workload, "setup_samples": setups, **main}
    if trace:
        replay = run_worker(dict(config, setup_only=False, seconds=None,
                                 max_ops=len(main["latencies"])), deadline)
        result["untraced_op_s"] = sum(replay["latencies"])
        result["overhead_s"] = sum(main["latencies"]) - result["untraced_op_s"]
    return result


# -- metrics ------------------------------------------------------------------

def end_to_end(result: dict) -> dict[str, dict]:
    """The six end-to-end metrics, each with value, unit and sample count."""
    lat = sorted(result["latencies"])
    n = len(lat)
    failed = len(result["errors"]) + len(result["wrong"])
    rss_kb = result["rss_children_kb" if result["workload"] in CHILD_RSS else "rss_self_kb"]
    out = {
        "setup_s": {"value": statistics.median(result["setup_samples"]),
                    "samples": len(result["setup_samples"])},
        "ops_per_s": {"value": n / sum(lat), "samples": n},
        "op_p50_ms": {"value": statistics.median(lat) * 1000, "samples": n},
        "failed_ratio": {"value": failed / n, "samples": n},
        "peak_rss_mb": {"value": rss_kb / 1024, "samples": 1},
    }
    if n > 10:
        # the highest percentile with at least ten samples above it
        out["op_tail_ms"] = {"value": lat[n - 11] * 1000, "samples": n,
                             "percentile": round(100 * (n - 10) / n, 2)}
    for name, metric in out.items():
        metric["unit"] = END_TO_END_UNITS[name]
    return out


def per_layer(trace: dict) -> dict[str, dict]:
    summary, counts = trace["summary"], trace["counts"]
    out = {}
    for name in PER_LAYER:
        if name == "series.mul.useful_ratio":
            visited = counts.get("series.mul.pairs_visited", 0)
            value = counts.get("series.mul.pairs_useful", 0) / visited if visited else 0.0
        elif name == "cli.command_s":
            value = summary.get("cli.main", {}).get("s", 0.0)
        elif name in counts:
            value = counts[name]
        else:  # calls, s or self_s of a span; 0 where nothing was counted
            span, _, field = name.rpartition(".")
            value = summary.get(span, {}).get(field, 0)
        out[name] = {"value": value, "unit": layer_unit(name)}
        if name in COMPUTED:
            out[name]["computed"] = True
    return out


# -- provenance and report ----------------------------------------------------

def provenance(seed: int, trace: bool) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "magmaexp").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
        "seed": seed, "commit": commit, "source_sha256": source.hexdigest(),
        "trace": trace, "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def report(result: dict, e2e: dict, layers: dict | None) -> None:
    print(f"perfbench {result['workload']}: {len(result['latencies'])} ops")
    for name, m in e2e.items():
        extra = f"  (p{m['percentile']})" if "percentile" in m else ""
        print(f"  {name:<14} {m['value']:>14.6g} {m['unit']:<6} n={m['samples']}{extra}")
    if "op_tail_ms" not in e2e:
        print(f"  {'op_tail_ms':<14} {'-':>14} ms     too few ops for ten beyond a percentile")
    for reason in (result["errors"] + result["wrong"])[:5]:
        print(f"  failed: {reason}")
    if layers is not None:
        print(f"  tracing overhead {result['overhead_s']:.4f} s over "
              f"{result['untraced_op_s']:.4f} s untraced; {result['trace']['spans']} spans "
              f"in {result['trace']['span_file']}")
        for name, m in layers.items():
            unit = m["unit"] + (" (computed)" if m.get("computed") else "")
            print(f"  {name:<40} {m['value']:>14.6g} {unit:<16} moves {PER_LAYER[name]}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    result = run_workload(workload, seed, seconds, trace)
    e2e = end_to_end(result)
    layers = per_layer(result["trace"]) if trace else None
    report(result, e2e, layers)
    record = {"provenance": provenance(seed, trace), "workload": workload,
              "seconds": seconds, "end_to_end": e2e, "per_layer": layers,
              "errors": result["errors"], "wrong": result["wrong"]}
    if trace:
        record["tracing_overhead_s"] = result["overhead_s"]
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1))
    print("record: " + json.dumps(record["provenance"]))
    chosen = benchmark_metrics("per_layer" if trace else "end_to_end")
    metrics = layers if trace else e2e
    print(json.dumps({
        # a wrong answer makes the run incorrect; an error only counts as failed
        "correct": not result["wrong"],
        "attempted": len(result["latencies"]),
        "failed": len(result["errors"]) + len(result["wrong"]),
        "metrics": {m: {"value": metrics[m]["value"], "unit": metrics[m]["unit"]}
                    for m in chosen},
    }))
    return result


# -- smoke --------------------------------------------------------------------

def smoke() -> int:
    """Every workload at a tiny size, traced and untraced; returns an exit code."""
    problems = []
    for workload in WORKLOADS:
        seconds = SMOKE_SECONDS.get(workload, 0.5)
        plain = run_workload(workload, 1, seconds, False, small=True)
        traced = run_workload(workload, 1, seconds, True, small=True)
        e2e, layers = end_to_end(plain), per_layer(traced["trace"])
        missing = [m for m in END_TO_END_UNITS if m not in e2e]
        missing += [m for m in PER_LAYER if m not in layers]
        if missing:
            problems.append(f"{workload}: missing {missing}")
        if plain["wrong"] or traced["wrong"]:
            problems.append(f"{workload}: wrong answers {plain['wrong'] + traced['wrong']}")
        # spans lie inside their op; outside them an op spends only the
        # tracing overhead (in-process) or process start and import (cli)
        self_s, lat = traced["trace"]["self_s_by_op"], traced["latencies"]
        gap = sum(lat) - sum(self_s)
        if any(s > t for s, t in zip(self_s, lat)):
            problems.append(f"{workload}: span self time exceeds op time")
        if workload not in CHILD_RSS and gap > max(traced["overhead_s"], 0.0) + 0.01:
            problems.append(f"{workload}: {gap:.4f} s of op time outside spans, "
                            f"tracing overhead {traced['overhead_s']:.4f} s")
        print(f"smoke {workload}: {len(plain['latencies'])} ops, "
              f"{traced['trace']['spans']} spans, outside spans {gap:.4f} s, "
              f"overhead {traced['overhead_s']:.4f} s")
    for problem in problems:
        print(f"smoke FAILED: {problem}")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "magmaexp" / "__init__.py").is_file():
        print(f"error: no magmaexp source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
