"""Self-tests of the benchmark harness.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from berklocus import fixlocus  # noqa: E402

# a wild map certified after an extension retry, with a critical cluster
# left as a stub (02), and one that ends in NeedsExtension (04, on the roster)
WILD_SAMPLE = ("wild-p23:02", "wild-p23:04")
CLI_SAMPLE = ("power-2", "power-4")  # power-4: tree is on the roster


def _pick(ops, names):
    return sorted((op for op in ops if op.name in names),
                  key=lambda op: op.name)


@pytest.fixture(scope="module")
def sample_ops(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("maps"))
    tame = sorted(workloads.tame_ops(0), key=lambda op: op.name)[:2]
    wild = _pick(workloads.wild_ops(0), WILD_SAMPLE)
    points = workloads.query_ops(0)[::15]
    cli = [op for op in workloads.cli_ops(0, ROOT, workdir)
           if op.name.rsplit(":", 1)[1] in CLI_SAMPLE]
    return {"tame-q11": tame, "wild-p23": wild, "point-queries": points,
            "fixtures-cli": cli}


@pytest.fixture(scope="module")
def traced(sample_ops):
    """Per workload: (tracer, [(seconds, failure)]) of a traced pass."""
    out = {}
    for name, ops in sample_ops.items():
        tracer = spans.Tracer()
        out[name] = tracer, [run.run_op(op, tracer) for op in ops]
    return out


# layers each workload must reach (README.md, layer-to-metric table)
REACHED = {
    "tame-q11": ["berkmap.reduce_at.calls", "berkmap.conjugate_affine.calls",
                 "residue.factor.calls", "residue.elements", "field.elements",
                 "roots.isolate.calls", "roots.rational_split.self_s",
                 "epoly.newton_polygon.calls", "fixlocus.attempts",
                 "fixlocus.ray_lines.self_s", "fixlocus.classical.self_s",
                 "fixlocus.critical.self_s", "fixlocus.skeleton.self_s",
                 "fixlocus.assembly.self_s"],
    "wild-p23": ["fixlocus.retries", "fixlocus.retry_s", "field.extend.calls",
                 "residue.find_irreducible.calls", "roots.refinements",
                 "roots.cluster_stubs", "fixlocus.ray_lines.self_s"],
    "point-queries": ["berkmap.reduce_at.calls", "residue.factor.calls",
                      "berkmap.conjugate_affine.calls", "residue.elements"],
    "fixtures-cli": ["cli.self_s", "cli.verify.analyze_calls",
                     "berkmap.reduce_at.calls", "fixlocus.attempts"],
}


def test_every_binding_is_patched_and_restored():
    tracer = spans.Tracer()
    originals = []
    for modname, attr, _ in spans.SPANS + spans.COUNTERS:
        originals.append(spans._resolve(modname, attr)[2])
    mods = [m for n, m in sys.modules.items() if n.startswith("berklocus")]
    tracer.install()
    try:
        for orig in originals:
            for mod in mods:
                assert all(v is not orig for v in vars(mod).values()), \
                    (mod.__name__, orig)
        # bindings made by name in other modules are among those patched
        bound = set(tracer.bindings())
        for pair in [("berklocus.fixlocus", "reduce_at"),
                     ("berklocus.cli", "reduce_at"),
                     ("berklocus.fixlocus", "isolate_roots"),
                     ("berklocus.roots", "newton_polygon")]:
            assert pair in bound
    finally:
        tracer.uninstall()
    for (modname, attr, _), orig in zip(spans.SPANS + spans.COUNTERS,
                                        originals):
        assert spans._resolve(modname, attr)[2] is orig


@pytest.mark.parametrize("workload", sorted(REACHED))
def test_each_layer_is_reached(traced, workload):
    tracer, _ = traced[workload]
    metrics = run.layer_metrics(tracer)
    for key in REACHED[workload]:
        assert metrics[key][0] > 0, key


def test_verify_analyze_calls_counted(traced):
    tracer, _ = traced["fixtures-cli"]
    # verify runs analyze three times on maps of degree >= 2 (power-2/4)
    assert run.layer_metrics(tracer)["cli.verify.analyze_calls"][0] == 3


@pytest.mark.parametrize("workload", sorted(REACHED))
def test_self_times_within_op_wall_time(traced, workload):
    tracer, outcomes = traced[workload]
    dur, own = tracer.self_times()
    op_of = []  # index of the enclosing op span, per span
    for i in range(len(dur)):
        par = tracer.parent[i]
        op_of.append(i if tracer.name[i] == 0 else
                     (op_of[par] if par >= 0 else -1))
    ops = [i for i in range(len(dur)) if tracer.name[i] == 0]
    assert len(ops) == len(outcomes)
    total = {i: 0.0 for i in ops}
    for i, op in enumerate(op_of):
        assert op >= 0  # nothing is recorded outside an operation
        total[op] += own[i]
    assert min(own) >= -1e-9
    for (dt, _), i in zip(outcomes, ops):
        # the layers' self times and the op span's own time partition the
        # op span, which lies inside the op's timed wall time
        assert abs(total[i] - dur[i]) <= 1e-9
        assert total[i] - own[i] <= dur[i] <= dt


def test_traced_and_untraced_outcomes_agree(sample_ops, traced):
    for name, ops in sample_ops.items():
        plain = [(op.name, run.run_op(op)[1]) for op in ops]
        with_trace = [(op.name, why) for op, (_, why) in
                      zip(ops, traced[name][1])]
        assert plain == with_trace, name
    failed = {n for n, why in with_trace if why is not None}
    assert failed == {"fixtures-cli:tree:power-4"}


def test_wild_sample_roster(traced):
    ops = [op.name for op in _pick(workloads.wild_ops(0), WILD_SAMPLE)]
    failed = {op for op, (_, why) in zip(ops, traced["wild-p23"][1])
              if why is not None}
    assert failed == {"wild-p23:04"} and failed <= set(workloads.KNOWN_FAILURES)


def test_no_timed_analyze_reuses_a_map(sample_ops):
    seen = []
    orig = fixlocus.analyze

    def spy(f, *a, **kw):
        seen.append(f)  # keeps every map alive, so ids stay unique
        return orig(f, *a, **kw)
    fixlocus.analyze = spy
    try:
        for _ in range(2):
            for op in sample_ops["tame-q11"]:
                run.run_op(op)
    finally:
        fixlocus.analyze = orig
    assert len(seen) == 2 * len(sample_ops["tame-q11"])
    assert len({id(f) for f in seen}) == len(seen)


def test_roster_names_are_operations(tmp_path):
    names = {op.name for op in workloads.wild_ops(0)}
    names |= {op.name for op in workloads.cli_ops(0, ROOT, str(tmp_path))}
    assert set(workloads.KNOWN_FAILURES) <= names


def test_tail_percentile_keeps_ten_beyond():
    assert run.tail_percentile(39) == 50
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(105) == 90
    assert run.tail_percentile(500) == 95
    assert run.tail_percentile(1000) == 99


def test_quantile_is_harrell_davis():
    # closed forms of the incomplete beta function
    for x in (0.1, 0.5, 0.9):
        assert abs(run.betainc(1, 1, x) - x) < 1e-12
        assert abs(run.betainc(2, 1, x) - x * x) < 1e-12
        assert abs(run.betainc(3.5, 7.25, x) + run.betainc(7.25, 3.5, 1 - x)
                   - 1) < 1e-12
    vals = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert abs(run.quantile(vals, 50) - 3.0) < 1e-12  # symmetric sample
    assert run.quantile(vals, 25) < run.quantile(vals, 50) < \
        run.quantile(vals, 75)
    assert run.quantile([7.0] * 9, 90) == pytest.approx(7.0)  # weights sum to 1


def test_fails_without_the_package(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tame-q11",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
