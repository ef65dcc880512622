#!/usr/bin/env python3
"""Benchmark of berklocus: four closed-loop, single-process workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tame-q11 --seed 1 --seconds 10 --trace 0

Workloads: tame-q11, wild-p23, point-queries, fixtures-cli (see README.md).
Each call into berklocus is issued after the previous one returned; the
process starts no threads, and its child processes (set-up repeats and CLI
cold starts) run one at a time.  The run attempts whole rounds of the
workload's operations until its timed calls have taken --seconds (a traced
run attempts exactly one round), checks every output, writes a record to
perfbench/results/ and prints one JSON object as the last line of standard
output: with --trace 0 the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run.  "correct" is false when an operation that is not
on the roster of known failures fails its check; those are named on standard
error.  Without the package under src/ it exits 1 and prints no result.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")

PERCENTILES = (50, 75, 90, 95, 99)  # ladder for the tail metric
WARMUP_MAP = (13, (0, 0, 1), (1,))  # z^2 over Q_13, outside every corpus
# CLI cold starts per run: an analyze cold start takes about 1 s, a
# reduce-at one about 0.2 s and needs more samples for a steady median
COLD_STARTS = {"fixtures-cli": 5, None: 15}
POWER2 = (5, (0, 0, 1), (1,))  # the power-2 fixture, for cold starts


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("tame-q11", "wild-p23", "point-queries",
                             "fixtures-cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time as JSON and exit "
                         "(used for the set-up repeats of a run)")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup(args, workdir):
    """Import the package, pay the lazy sympy import with an untimed warm-up
    analysis of a map outside every corpus, and build the first round."""
    t0 = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "berklocus", "__init__.py")):
        sys.exit(f"error: no berklocus package under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH)
    import berklocus.cli  # noqa: F401  (imports every engine module)
    import berklocus.oracle  # noqa: F401
    import workloads
    t1 = time.perf_counter()
    import sympy  # noqa: F401  (loaded lazily by roots._rational_split)
    t2 = time.perf_counter()
    from berklocus import fixlocus
    fixlocus.analyze(workloads.build_map(*WARMUP_MAP))
    ops = workloads.round_ops(args.workload, args.seed, ROOT, workdir)
    # keep the collector from rescanning the set-up's objects (sympy's among
    # them) in every full collection that a timed call happens to trigger
    gc.collect()
    gc.freeze()
    t3 = time.perf_counter()
    return ops, {"setup_s": t3 - t0, "import_s": t1 - t0,
                 "sympy_s": t2 - t1}


def setup_repeat(args):
    """Set-up time of a fresh process doing the same set-up."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds", "0",
         "--setup-only"], cwd=ROOT, capture_output=True, text=True,
        timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def run_op(op, tracer=None):
    """Time one operation; returns (seconds, failure or None)."""
    inp = op.prepare()
    exc = out = None
    if tracer is not None:
        tracer.install()
    t = time.perf_counter()
    if tracer is not None:
        span = tracer.open_op()
    try:
        out = op.run(inp)
    except Exception as e:  # judged by the check, like any other outcome
        exc = e
    if tracer is not None:
        tracer.close_op(span)
    dt = time.perf_counter() - t
    if tracer is not None:
        tracer.uninstall()
    return dt, op.check(inp, out, exc)


def measure(args, ops, tracer=None, between=()):
    """Whole rounds until the timed calls have taken --seconds (one round
    when traced).  The k-th of the n untimed calls in `between` runs, one at
    a time, before the first operation that starts after k/n of --seconds
    of timed calls, so that their samples are spread over the run and see
    the same phases of a noisy host as the operations do."""
    pending = list(between)
    samples = []  # (name, seconds, failure) per attempted operation
    rounds = 0
    busy = 0.0
    while True:
        for op in ops:
            while pending and busy >= args.seconds * \
                    (len(between) - len(pending)) / len(between):
                pending.pop(0)()
            dt, failure = run_op(op, tracer)
            samples.append((op.name, dt, failure))
            busy += dt
        rounds += 1
        if tracer is not None or busy >= args.seconds:
            return samples, rounds


def tail_percentile(n_per_round):
    """The highest percentile of the ladder with at least ten of one
    round's successful operations above it."""
    best = PERCENTILES[0]
    for q in PERCENTILES:
        if n_per_round - math.ceil(q / 100 * n_per_round) >= 10:
            best = q
    return best


def _betacf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x /
                    ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return h


def betainc(a, b, x):
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def quantile(values, q):
    """Harrell-Davis estimate of the q-th percentile: a weighted mean of all
    order statistics, the weights falling off around rank q/100 * n.  One
    sample taken in a slow phase of the host moves it less than it moves a
    single order statistic (a nearest-rank percentile, or the plain median
    of few samples)."""
    x = sorted(values)
    n = len(x)
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x[i] for i in range(n))


def p50_by_kind(ops, samples):
    """Median milliseconds (Harrell-Davis) of the successful operations of
    each kind (the CLI subcommand on fixtures-cli), over the first round."""
    kind = {op.name: op.kind for op in ops}
    by = {}
    for name, dt, why in samples[:len(ops)]:
        if why is None:
            by.setdefault(kind[name], []).append(1000 * dt)
    return {k: quantile(v, 50) for k, v in sorted(by.items())}


def cold_start(args, workdir):
    """Wall time of one CLI subprocess, and its failure or None."""
    import workloads
    path = os.path.join(workdir, "cold-start.map")
    if not os.path.exists(path):
        workloads.write_map_file(path, *POWER2)
    argv = [sys.executable, "-m", "berklocus.cli"] + \
        workloads.cold_start_argv(args.workload, path)
    t = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    dt = time.perf_counter() - t
    bad = workloads.check_cold_start(args.workload, proc.returncode,
                                     proc.stdout)
    return dt, bad and f"cold-start: {bad}"


# ---------------------------------------------------------------------------
# per-layer summary of a traced run
# ---------------------------------------------------------------------------

PER_LAYER_SPANS = ("berkmap.reduce_at", "residue.factor",
                   "residue.find_irreducible", "roots.isolate",
                   "epoly.newton_polygon")
PER_LAYER_SELF = ("fixlocus.ray_lines", "fixlocus.classical",
                  "fixlocus.critical", "fixlocus.skeleton",
                  "fixlocus.assembly", "roots.rational_split")
PER_LAYER_COUNTS = ("berkmap.conjugate_affine.calls", "residue.elements",
                    "field.elements", "field.extend.calls",
                    "roots.refinements", "roots.cluster_stubs")


def distinct_reductions(tracer):
    """Distinct disk points reduced, per operation and working field."""
    groups = {}
    for op, ctx, pt in tracer.reductions:
        groups.setdefault((op, ctx, pt.s), []).append(pt)
    distinct = 0
    for pts in groups.values():
        seen = []
        for pt in pts:
            if not any(pt.same_point(q) for q in seen):
                seen.append(pt)
        distinct += len(seen)
    return distinct


def layer_metrics(tracer):
    names = tracer.names
    dur, own = tracer.self_times()
    calls = {n: 0 for n in names}
    self_s = {n: 0.0 for n in names}
    for i in range(len(dur)):
        n = names[tracer.name[i]]
        calls[n] += 1
        self_s[n] += own[i]
    m = {}
    for stage in PER_LAYER_SPANS:
        m[f"{stage}.calls"] = (calls.get(stage, 0), "count")
        m[f"{stage}.self_s"] = (self_s.get(stage, 0.0), "s")
    for stage in PER_LAYER_SELF:
        m[f"{stage}.self_s"] = (self_s.get(stage, 0.0), "s")
    for key in PER_LAYER_COUNTS:
        m[key] = (tracer.counts.get(key, 0), "count")
    distinct = distinct_reductions(tracer)
    n_red = calls.get("berkmap.reduce_at", 0)
    m["berkmap.reduce_at.distinct"] = (distinct, "count")
    m["berkmap.reduce_at.useful_ratio"] = (
        distinct / n_red if n_red else 0.0, "ratio")
    # extension retries: attempts of analyze that raised NeedsExtension
    attempt = tracer._name_id.get("fixlocus.attempt")
    att = [i for i in range(len(dur)) if tracer.name[i] == attempt]
    failed = [i for i in att if not tracer.ok[i]]
    m["fixlocus.attempts"] = (len(att), "count")
    m["fixlocus.retries"] = (len(failed), "count")
    m["fixlocus.retry_s"] = (sum(dur[i] for i in failed), "s")
    # cli: time outside the analysis, and analyze calls per verify
    m["cli.self_s"] = (self_s.get("cli", 0.0), "s")
    cli_id, an_id = tracer._name_id.get("cli"), \
        tracer._name_id.get("fixlocus.analyze")
    verify = {i for i, argv in tracer.cli_argv.items()
              if argv and argv[0] == "verify"}
    under = 0
    for i in range(len(dur)):
        if tracer.name[i] != an_id:
            continue
        j = tracer.parent[i]
        while j >= 0 and tracer.name[j] != cli_id:
            j = tracer.parent[j]
        under += j in verify
    m["cli.verify.analyze_calls"] = (under / len(verify) if verify else 0.0,
                                     "count")
    return m


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def steal_ticks():
    """Steal ticks of all CPUs from /proc/stat (None where unavailable)."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def main(argv=None):
    args = parse_args(argv)
    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=RESULTS)
    try:
        return _main(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _main(args, workdir):
    steal0, cpu0 = steal_ticks(), time.process_time()
    ops, setup_info = setup(args, workdir)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_info["setup_s"]}))
        return 0
    import workloads
    tracer = overhead = None
    setup_times, cold, cold_failures = [setup_info["setup_s"]], [], []
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        # overhead: the first quarter of the round untraced, then traced
        head = ops[:max(1, len(ops) // 4)]
        plain = sum(run_op(op)[0] for op in head)
        samples, rounds = measure(args, ops, tracer)
        traced = sum(dt for _, dt, _ in samples[:len(head)])
        overhead = traced / plain - 1
    else:
        colds = []
        between = [lambda: colds.append(cold_start(args, workdir))] * \
            COLD_STARTS.get(args.workload, COLD_STARTS[None])
        # the two set-up repeats go a third and two thirds of the way in
        for k in (2, 1):
            between.insert(len(between) * k // 3,
                           lambda: setup_times.append(setup_repeat(args)))
        samples, rounds = measure(args, ops, between=between)
        cold = [dt for dt, _ in colds]
        cold_failures = [bad for _, bad in colds if bad]

    failures = [(name, why) for name, _, why in samples if why is not None]
    unexpected = [(n, w) for n, w in failures
                  if n not in workloads.KNOWN_FAILURES]
    unexpected += [(w, w) for w in cold_failures]
    ok_times = sorted(dt for _, dt, why in samples if why is None)
    q = tail_percentile(len(ok_times) // rounds)
    in_p50 = {op.name for op in ops if op.in_p50}
    p50_times = [dt for name, dt, why in samples
                 if why is None and name in in_p50]

    if tracer is None:
        metrics = {
            "setup_s": (quantile(setup_times, 50), "s"),
            "ops_per_s": (len(ok_times) / sum(dt for _, dt, _ in samples),
                          "ops/s"),
            "op_p50_ms": (1000 * quantile(p50_times, 50), "ms"),
            "op_tail_ms": (1000 * quantile(ok_times, q), "ms"),
            "cold_start_ms": (1000 * quantile(cold, 50), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
    else:
        metrics = layer_metrics(tracer)
        metrics["setup.import_s"] = (setup_info["import_s"], "s")
        metrics["setup.sympy_s"] = (setup_info["sympy_s"], "s")
        metrics["trace.overhead_ratio"] = (overhead, "ratio")

    steal1 = steal_ticks()
    result = {
        "correct": not unexpected,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, rounds=rounds,
                  tail_percentile=q,
                  ok_per_round=len(ok_times) // rounds,
                  setup_samples_s=setup_times, cold_start_samples_s=cold,
                  failed_ops=[{"name": n, "why": w,
                               "known": workloads.KNOWN_FAILURES.get(n)}
                              for n, w in failures + [(w, w) for w in
                                                      cold_failures]],
                  op_seconds={n: dt for n, dt, _ in samples[:len(ops)]},
                  p50_ms_by_kind=p50_by_kind(ops, samples),
                  nproc=os.cpu_count(), python=platform.python_version(),
                  steal_ticks=None if steal0 is None or steal1 is None
                  else steal1 - steal0,
                  process_cpu_s=time.process_time() - cpu0,
                  wall_s=time.perf_counter() - T0)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = os.path.join(RESULTS, f"{stamp}-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}-{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    for name, why in unexpected:
        print(f"FAILED {name}: {why}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
