#!/usr/bin/env python3
"""Summarise paired benchmark runs into one committed `BENCH_*.json`.

Reads the run records that `perfbench/run.py` wrote for a parent checkout
and for a changed checkout (each its own `perfbench/results/` directory)
and prints a JSON document with, per workload and end-to-end metric of the
untraced runs, the median and quartiles of each side, plus the seeds,
`nproc`, Python versions, failed operations and steal ticks of the runs.
The per-layer metrics of each traced run are kept as they are, under
`traced`.  With `--digests`, the two outputs of `scripts/report_digest.py`
are compared, and their line counts and unified diff (empty when every
report is byte-identical) are kept under `report_digest`.  Usage:

    python3 scripts/bench_record.py PARENT_RESULTS CHANGE_RESULTS \\
        --parent-commit SHA --change "what changed" \\
        [--digests PARENT_DIGEST CHANGE_DIGEST] > BENCH_<n>.json

Quartiles are `statistics.quantiles(values, n=4, method="inclusive")`.
"""

from __future__ import annotations

import argparse
import difflib
import glob
import json
import os
import statistics
import sys


def load(directory: str, trace: int) -> list:
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        if rec.get("trace") == trace:
            runs.append(rec)
    return runs


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def side(runs: list) -> dict:
    metrics = sorted({m for r in runs for m in r["metrics"]})
    return {
        "seeds": sorted(r["seed"] for r in runs),
        "metrics": {m: summary([r["metrics"][m]["value"] for r in runs])
                    for m in metrics},
        "units": {m: runs[0]["metrics"][m]["unit"] for m in metrics},
        "attempted": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
        "rounds": [r["rounds"] for r in runs],
        "steal_ticks": [r["steal_ticks"] for r in runs],
        "nproc": sorted({r["nproc"] for r in runs}),
        "python": sorted({r["python"] for r in runs}),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_results")
    ap.add_argument("change_results")
    ap.add_argument("--parent-commit", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--digests", nargs=2,
                    metavar=("PARENT_DIGEST", "CHANGE_DIGEST"))
    args = ap.parse_args(argv)
    dirs = {"parent": args.parent_results, "change": args.change_results}
    by_side = {name: load(d, 0) for name, d in dirs.items()}
    traced = {name: load(d, 1) for name, d in dirs.items()}
    workloads = sorted({r["workload"] for runs in by_side.values()
                        for r in runs})
    doc = {
        "parent_commit": args.parent_commit,
        "change": args.change,
        "command": "python3 perfbench/run.py --workload W --seed S "
                   "--seconds 10 --trace 0",
        "quartiles": "statistics.quantiles(values, n=4, method='inclusive')",
        "workloads": {
            w: {name: side([r for r in runs if r["workload"] == w])
                for name, runs in by_side.items()}
            for w in workloads},
        "traced": {
            w: {name: [{"seed": r["seed"],
                        "metrics": {m: v["value"]
                                    for m, v in sorted(r["metrics"].items())}}
                       for r in runs if r["workload"] == w]
                for name, runs in traced.items()}
            for w in sorted({r["workload"] for runs in traced.values()
                             for r in runs})},
    }
    if args.digests:
        texts = []
        for path in args.digests:
            with open(path) as fh:
                texts.append(fh.read().splitlines())
        doc["report_digest"] = {
            "command": "python3 scripts/report_digest.py",
            "lines": {"parent": len(texts[0]), "change": len(texts[1])},
            "diff": list(difflib.unified_diff(*texts, "parent", "change",
                                              lineterm="")),
        }
    json.dump(doc, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
