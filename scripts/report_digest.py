#!/usr/bin/env python3
"""Print a sha256 digest and the exit code of every JSON report on the
corpus, so two versions of the package can be compared with one diff.

The reports are made through `cli.main`, as a user would get them:

- `analyze --format json` on every fixture of `oracle.fixtures()`;
- `analyze --format json` on the acceptance suite's 200-map batch over Q_11
  (`random.Random(20260823)`, the degree list of tests/test_acceptance.py),
  drawn by `random_split_map` from tests/conftest.py;
- `tree --format json`, `weights --format json` and `verify` (text) on
  every fixture;
- `analyze --format json`, `tree --format json`, `weights --format json`
  and `verify` (text) on the benchmark's wild draw: the first 60 maps over
  p = 2, 3 of `random.Random(1)`, drawn by `wild_map_spec` from
  perfbench/workloads.py, map 47 included;
- `reduce-at --format json` at the 900 points of the benchmark's
  point-queries draw (`random.Random(QUERY_DRAW_SEED)`: 45 maps drawn by
  `query_map_spec` with 20 points each, as in perfbench/workloads.py).

Every call uses the acceptance suite's budget, `--n-max 24 --k-max 4`.
Usage, from the root of a checkout (it analyses the package under `src/`
next to this script):

    python3 scripts/report_digest.py > digest.txt

Each output line reads `<input> exit=<code> <sha256 of standard output>`.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from berklocus import cli, oracle  # noqa: E402

BUDGET = ["--n-max", "24", "--k-max", "4"]
BATCH_SEED = 20260823
BATCH_P = 11


def _load_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def batch_specs():
    """(p, num, den) of the acceptance batch, in order: random_split_map is
    run as written, with its map constructor wrapped to record the rational
    coefficients it is given."""
    conftest = _load_module("conftest", os.path.join(ROOT, "tests",
                                                     "conftest.py"))
    acceptance = _load_module("test_acceptance", os.path.join(
        ROOT, "tests", "test_acceptance.py"))
    build = conftest.mk
    seen = []

    def recording_mk(p, num, den, n=1, k=1):
        seen.append((p, tuple(num), tuple(den)))
        return build(p, num, den, n, k)
    conftest.mk = recording_mk
    rng = random.Random(BATCH_SEED)
    specs = []
    for d in acceptance.BATCH_DEGREES:
        conftest.random_split_map(rng, BATCH_P, d)
        specs.append(seen[-1])  # the accepted draw is the last one built
    return specs


def _workloads():
    """perfbench/workloads.py, imported by path and only read."""
    return _load_module("workloads", os.path.join(ROOT, "perfbench",
                                                  "workloads.py"))


def wild_specs():
    """(p, num, den) of the benchmark's wild draw, in order."""
    workloads = _workloads()
    rng = random.Random(workloads.WILD_DRAW_SEED)
    specs = [workloads.wild_map_spec(rng) for _ in range(workloads.WILD_MAPS)]
    return [(p, num, den) for p, _, num, den in specs]


def query_specs():
    """[((p, num, den), [(center, s)] * QUERY_POINTS)] of the benchmark's
    point-queries draw, in order: the loop of `workloads.query_ops` without
    its shuffle."""
    workloads = _workloads()
    rng = random.Random(workloads.QUERY_DRAW_SEED)
    out = []
    for p in workloads.QUERY_PRIMES:
        for d in workloads.QUERY_DEGREES:
            for _ in range(workloads.QUERY_MAPS):
                num, den = workloads.query_map_spec(rng, p, d)
                points = []
                for _ in range(workloads.QUERY_POINTS):
                    a = Fraction(rng.randint(-12, 12),
                                 rng.choice([1, 1, 1, p]))
                    points.append((a, Fraction(rng.randint(-2, 3))))
                out.append(((p, num, den), points))
    return out


def digest(argv):
    out = io.StringIO()
    with redirect_stderr(io.StringIO()):
        code = cli.main(argv, out)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def write_map(path, p, num, den):
    with open(path, "w") as fh:
        fh.write(f"p = {p}\nnum = {', '.join(str(c) for c in num)}\n"
                 f"den = {', '.join(str(c) for c in den)}\n")


def main():
    inputs = [(f"fixture:{fxt.name}", fxt.p, fxt.num, fxt.den)
              for fxt in oracle.fixtures()]
    batch = [(f"batch:{i:03d}", p, num, den)
             for i, (p, num, den) in enumerate(batch_specs())]
    wild = [(f"wild:{i:02d}", p, num, den)
            for i, (p, num, den) in enumerate(wild_specs())]
    queries = query_specs()
    query_maps = [(f"query:{m:02d}", *spec)
                  for m, (spec, _) in enumerate(queries)]
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, p, num, den in inputs + batch + wild + query_maps:
            paths[name] = os.path.join(tmp, name.replace(":", "_") + ".map")
            write_map(paths[name], p, num, den)
        json_subs = ("tree", "weights")
        runs = [("analyze", name) for name, *_ in inputs + batch] + \
               [(sub, name) for name, *_ in inputs
                for sub in json_subs + ("verify",)] + \
               [(sub, name) for name, *_ in wild
                for sub in ("analyze",) + json_subs + ("verify",)]
        for sub, name in runs:
            fmt = [] if sub == "verify" else ["--format", "json"]
            code, sha = digest([sub, "--input", paths[name]] + fmt + BUDGET)
            print(f"{sub}:{name} exit={code} {sha}", flush=True)
        for m, (_, points) in enumerate(queries):
            for i, (a, s) in enumerate(points):
                code, sha = digest(["reduce-at", "--input",
                                    paths[f"query:{m:02d}"], f"--center={a}",
                                    f"--s={s}", "--format", "json"] + BUDGET)
                print(f"reduce-at:query:{m:02d}:{i:02d} exit={code} {sha}",
                      flush=True)


if __name__ == "__main__":
    main()
