"""Summarize run records (default: .perfbench_out) into one JSON file.

    python3 perfbench/summarize.py OUT.json [RECORD_DIR]

For every workload: each end-to-end metric's value per seed, with the
median, quartiles and their distance as a share of the median; the runs
attempted and failed; and every traced run's per-layer metrics, by seed.
This is the format of ``baseline.json`` and of before/after comparisons.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import run as bench


def spread(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, iqr_share=(q3 - q1) / out["median"])
    return out


def summarize(records: list[dict]) -> dict:
    first = records[0]["env"]
    summary = {"env": {k: first[k] for k in ("python", "numpy", "nproc", "cpu_model")},
               "workloads": {}}
    for workload in bench.INPUTS:
        mine = sorted((r for r in records if r["workload"] == workload),
                      key=lambda r: (r["trace"], r["seed"]))
        untraced = [r for r in mine if not r["trace"]]
        entry = {
            "seeds": [r["seed"] for r in untraced],
            "attempted": sum(r["attempted"] for r in mine),
            "failed": sum(r["failed"] for r in mine),
            "busy_runs": sum(r["env"]["busy_at_start"] for r in mine),
            "samples_per_run": [r["samples"] for r in untraced],
            "traced": {str(r["seed"]): {k: v["value"] for k, v in r["metrics"].items()}
                       for r in mine if r["trace"]},
        }
        if untraced:
            for name in untraced[0]["metrics"]:
                entry[name] = spread([r["metrics"][name]["value"] for r in untraced])
        summary["workloads"][workload] = entry
    return summary


def main() -> int:
    where = Path(sys.argv[2]) if len(sys.argv) > 2 else bench.OUT
    records = [json.loads(p.read_text()) for p in sorted(where.glob("*-seed*-trace*.json"))]
    if not records:
        sys.exit(f"no run records in {where}")
    with open(sys.argv[1], "w") as fh:
        json.dump(summarize(records), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
