"""Append one point to trajectory.json from the results records of run.py.

    python3 perfbench/trajectory.py LABEL

run.py writes a record per run to .perfbench-out/.  The point takes the
records made with the current source (same source_sha256) and holds, per
workload, the median, quartiles, count and seeds of each end-to-end metric
over the untraced records, and the per-layer metrics and tracing overhead
of a traced record if there is one.
"""

import json
import statistics
import sys

import run

TRAJECTORY = run.HERE / "trajectory.json"


def point(label: str) -> dict:
    source = run.provenance(0, False)
    records = [json.loads(p.read_text()) for p in sorted(run.OUT_DIR.glob("result-*.json"))]
    records = [r for r in records if r["provenance"]["source_sha256"] == source["source_sha256"]]
    workloads = {}
    for name in run.WORKLOADS:
        plain = [r for r in records if r["workload"] == name and not r["provenance"]["trace"]]
        traced = [r for r in records if r["workload"] == name and r["provenance"]["trace"]]
        if not plain:
            continue
        entry = {"runs": len(plain), "seeds": [r["provenance"]["seed"] for r in plain],
                 "seconds": plain[0]["seconds"], "end_to_end": {}}
        for metric in run.END_TO_END_UNITS:
            values = [r["end_to_end"][metric]["value"] for r in plain
                      if metric in r["end_to_end"]]
            if len(values) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(values, n=4)
            entry["end_to_end"][metric] = {
                "median": q2, "q1": q1, "q3": q3, "n": len(values),
                "unit": run.END_TO_END_UNITS[metric],
                "spread": (q3 - q1) / q2 if q2 else None,
            }
        if traced:
            entry["per_layer"] = {k: m["value"] for k, m in traced[-1]["per_layer"].items()}
            entry["tracing_overhead_s"] = traced[-1]["tracing_overhead_s"]
        workloads[name] = entry
    keys = ("python", "nproc", "cpu", "commit", "source_sha256")
    return {"label": label, **{k: source[k] for k in keys}, "workloads": workloads}


def main() -> None:
    data = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else {"points": []}
    data["points"].append(point(sys.argv[1]))
    TRAJECTORY.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
