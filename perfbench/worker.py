"""One measured process of the benchmark; run.py starts it.

    python worker.py CONFIG_JSON

CONFIG_JSON has workload, seed, small, trace, setup_only, seconds and
max_ops.  The worker imports the package from the checkout's src/, sets the
workload up (timed as setup_s) and, unless setup_only, runs whole batches of
ops until `seconds` of op time have passed or `max_ops` ops have run.  It
prints one JSON object as its last line.
"""

from __future__ import annotations

import json
import random
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def run_op(op, tracer=None):
    """Run one op and its gate: (seconds, error or None, wrong answer or None).

    An exception is an error; a gate that rejects the answer, or raises, is
    a wrong answer.  The gate runs after the timer stops, untraced.
    """
    if tracer is not None:
        tracer.active = True
    start = perf_counter()
    try:
        result = op.run()
    except Exception as exc:
        return perf_counter() - start, f"{type(exc).__name__}: {exc}", None
    finally:
        if tracer is not None:
            tracer.active = False
    seconds = perf_counter() - start
    try:
        return seconds, None, op.check(result)
    except Exception as exc:
        return seconds, None, f"gate raised {type(exc).__name__}: {exc}"


def measure(batches, seconds: float, max_ops: int | None, tracer) -> dict:
    """Run whole batches until `seconds` of op time or `max_ops` ops; one client."""
    latencies: list[float] = []
    errors: list[str] = []
    wrong: list[str] = []
    timed = 0.0
    for batch in batches:
        if timed >= seconds or (max_ops is not None and len(latencies) >= max_ops):
            break
        for op in batch:
            if tracer is not None:
                tracer.op_id = len(latencies)
            elapsed, error, mistake = run_op(op, tracer)
            latencies.append(elapsed)
            timed += elapsed
            if error:
                errors.append(f"{op.label}: {error}")
            if mistake:
                wrong.append(f"{op.label}: {mistake}")
    return {"latencies": latencies, "errors": errors, "wrong": wrong}


def main() -> None:
    config = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    import workloads

    tracer = None
    if config["trace"]:
        from tracer import Tracer, cache_counts
        tracer = Tracer()
    rng = random.Random(config["seed"])
    batches = workloads.WORKLOADS[config["workload"]](rng, config["small"], tracer)
    out: dict = {"setup_s": perf_counter() - start}
    if not config["setup_only"]:
        if tracer is not None:
            workloads.OUT_DIR.mkdir(exist_ok=True)
            tracer.install()
            before = cache_counts()
        seconds = config["seconds"] if config["seconds"] is not None else float("inf")
        out.update(measure(batches, seconds, config["max_ops"], tracer))
        out["rss_self_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["rss_children_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if tracer is not None:
            tracer.uninstall()
            after = cache_counts()
            for key, n in after.items():
                tracer.count(key, n - before[key])
            by_op = tracer.self_time_by_op()
            out["trace"] = {
                "spans": len(tracer.start),
                "summary": tracer.summary(),
                "counts": tracer.counts,
                "self_s_by_op": [by_op.get(i, 0.0) for i in range(len(out["latencies"]))],
            }
            path = workloads.OUT_DIR / f"spans-{config['workload']}-seed{config['seed']}.json.gz"
            tracer.dump(path)
            out["trace"]["span_file"] = str(path.relative_to(ROOT))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
