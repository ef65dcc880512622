#!/usr/bin/env python3
"""Census of the benchmark's wild draw: how each map's analysis ends.

The maps are the first 60 over p = 2, 3 of `random.Random(1)`, drawn by
`wild_map_spec` from perfbench/workloads.py (imported by path and only
read), map 47 included, as in `scripts/report_digest.py`.  Each is analysed
by `fixlocus.analyze` under the budget `--n-max`/`--k-max` (default 24, 4).
Usage, from the root of a checkout (it analyses the package under `src/`
next to this script):

    python3 scripts/census.py [--n-max N] [--k-max K]

One row per map: its name, p and degree, the outcome (`certified`,
`incomplete` for a certificate whose weight total falls short of
degree - 1, or the `NeedsExtension` request that ended it), the last tower
E(p, n, k) an attempt ran in, and the cluster stubs of the returned
skeleton.  The totals come last.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from berklocus import cli  # noqa: E402
from berklocus import fixlocus as fx  # noqa: E402
from berklocus.errors import NeedsExtension  # noqa: E402
from berklocus.roots import ClusterStub  # noqa: E402


def _workloads():
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("workloads", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def census(n_max: int = 24, k_max: int = 4) -> list:
    """[(name, p, degree, outcome, last tower, stubs)] of the wild draw."""
    workloads = _workloads()
    rng = random.Random(workloads.WILD_DRAW_SEED)
    config = fx.ExploreConfig(n_max=n_max, k_max=k_max)
    rows = []
    for i in range(workloads.WILD_MAPS):
        p, d, num, den = workloads.wild_map_spec(rng)
        towers = []

        def attempt(g, config):
            towers.append(g.ctx)
            return fx._analyze_once(g, config)
        try:
            a = fx.in_tower(workloads.build_map(p, num, den), config, attempt)
        except NeedsExtension as e:
            outcome, stubs = f"NeedsExtension({e})", 0
        else:
            outcome = "certified" if a.complete_rigorous else "incomplete"
            stubs = sum(isinstance(h, ClusterStub)
                        for h in a.skeleton.aux_leaves)
        rows.append((f"wild:{i:02d}", p, d, outcome, towers[-1], stubs))
    return rows


def totals(rows) -> dict:
    """Maps per outcome (every request counts as `NeedsExtension`), and the
    stubs of all returned skeletons."""
    kinds = [outcome.split("(")[0] for _, _, _, outcome, _, _ in rows]
    return {**{kind: kinds.count(kind) for kind in
               ("certified", "incomplete", "NeedsExtension")},
            "stubs": sum(row[-1] for row in rows)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n-max", type=cli._budget, default=24)
    parser.add_argument("--k-max", type=cli._budget, default=4)
    args = parser.parse_args()
    rows = census(args.n_max, args.k_max)
    for name, p, d, outcome, tower, stubs in rows:
        print(f"{name}  p={p} d={d}  {outcome}  {tower!r}  stubs={stubs}")
    incomplete = [row[0] for row in rows if row[3] == "incomplete"]
    print("total: " + ", ".join(f"{k} {v}" for k, v in totals(rows).items())
          + f"  (incomplete: {', '.join(incomplete) or 'none'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
