"""End-to-end CLI behavior through main(): parsing, output formats, config
pickup, and exit codes."""

import ast
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from berklocus import cli
from berklocus import fixlocus as fx
from berklocus.berkmap import TypeIIPoint, embed_map
from berklocus.cli import SCHEMA, main, parse_map_file
from berklocus.errors import CheckFailed, ParseError
from berklocus.oracle import MOEBIUS_IDENTITY, brute_is_fixed, fixture, \
    fixtures

# the acceptance suite's budget, under which analyze certifies every fixture
BUDGET = ["--n-max", "24", "--k-max", "4"]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def write_fixture(tmp_path, fxt):
    return write(tmp_path, f"{fxt.name}.map",
                 f"p = {fxt.p}\nnum = {', '.join(map(str, fxt.num))}\n"
                 f"den = {', '.join(map(str, fxt.den))}\n")


@pytest.fixture
def square_map(tmp_path):
    return write(tmp_path, "square.map",
                 "# the squaring map over Q_5\n"
                 "p = 5\n"
                 "num = 0, 0, 1\n"
                 "den = 1\n")


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_parse_map_file_roundtrip(square_map):
    ctx, f = parse_map_file(square_map)
    assert ctx.p == 5 and ctx.n == 1 and ctx.k == 1
    assert f.degree == 2


def test_parse_errors_carry_location(tmp_path):
    bad = write(tmp_path, "bad.map", "p = 5\nnum = 0, x, 1\nden = 1\n")
    with pytest.raises(ParseError) as exc:
        parse_map_file(bad)
    assert exc.value.line == 2
    assert exc.value.field == "num"
    with pytest.raises(ParseError):
        parse_map_file(write(tmp_path, "nokey.map", "p = 5\nnum = 0, 1\n"))
    with pytest.raises(ParseError):
        parse_map_file(write(tmp_path, "dup.map",
                             "p = 5\np = 7\nnum = 0, 1\nden = 1\n"))


def test_analyze_text(square_map):
    code, text = run(["analyze", "--input", square_map])
    assert code == 0
    assert "weight total: 1" in text
    assert "complete: yes" in text
    assert "peaked" in text


def test_analyze_json_schema(square_map):
    code, text = run(["analyze", "--input", square_map, "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["schema"] == SCHEMA
    assert doc["degree"] == 2
    assert doc["weight_total"] == 1
    assert doc["complete_rigorous"] is True
    assert sum(cp["multiplicity"] for cp in doc["classical_points"]) == 3
    kinds = sorted(c["kind"] for c in doc["components"])
    assert kinds == ["classical", "classical", "peaked"]


def test_reduce_at_gauss(square_map):
    code, text = run(["reduce-at", "--input", square_map,
                      "--center", "0", "--s", "0", "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["local"]["is_fixed"] is True
    assert doc["local"]["local_degree"] == 2


def test_reduce_at_text(square_map):
    code, text = run(["reduce-at", "--input", square_map,
                      "--center", "0", "--s", "0", "--format", "text"])
    assert code == 0
    assert text.splitlines() == [
        "point: zeta(0, s=0)",
        "fixed: yes   class: repelling",
        "local degree: 2",
        "tangent map: (1*w^2)/(1)",
        "fixed directions of the tangent map:",
        "  at 0  orbit size 1  mult 1  multiplier 0  (critical)",
        "  at 1  orbit size 1  mult 1  multiplier 2",
        "  at oo  orbit size 1  mult 1  multiplier 0  (critical)"]
    # a point that is not fixed has no tangent map and no directions
    code, text = run(["reduce-at", "--input", square_map,
                      "--center", "2", "--s", "1", "--format", "text"])
    assert code == 0
    assert text.splitlines() == ["point: zeta(2, s=1)",
                                 "fixed: no   class: not-fixed",
                                 "local degree: None"]


def test_reduce_at_fractional_radius_exit_2(square_map):
    # a radius that needs a ramification index beyond --n-max (default 6)
    # is the budget code, for reduce-at and tangent alike
    for sub in ("reduce-at", "tangent"):
        for argv in (["--s", "1/2", "--n-max", "1"], ["--s", "1/7"]):
            code, text = run([sub, "--input", square_map, "--center", "1"]
                             + argv)
            assert (code, text) == (2, ""), (sub, argv)


def test_point_subcommands_grow_the_field(square_map):
    # z^2 over Q_5 at zeta(1, 1/2): answered in E(5, 2, 1), where the point
    # is fixed and multiplicatively indifferent
    point = ["--input", square_map, "--center", "1", "--s", "1/2"]
    code, text = run(["reduce-at", "--format", "json"] + point)
    assert code == 0
    local = json.loads(text)["local"]
    assert local["is_fixed"] is True
    assert local["class"] == "multiplicatively-indifferent"
    code, text = run(["tangent"] + point)
    assert code == 0 and "multiplicatively-indifferent" in text
    # 1/7 needs n = 7, one past the default n_max = 6
    code, text = run(["reduce-at", "--input", square_map, "--center", "1",
                      "--s", "1/7", "--n-max", "7", "--format", "json"])
    assert code == 0 and json.loads(text)["local"]["is_fixed"] is True


def test_reduce_at_in_the_tower_agrees_with_the_oracle(tmp_path):
    """At radii outside the value group of Q_p, reduce-at answers in
    E(p, 2, 1), and its fixedness is the oracle's on the map embedded
    there: on every fixture but the identity, and on three maps over Q_2
    (z^2, -1/z, and a wild quadratic with an unsplit critical cluster)."""
    paths = [write_fixture(tmp_path, fxt) for fxt in fixtures()
             if fxt.expected.get("case") != MOEBIUS_IDENTITY]
    for i, (num, den) in enumerate([("0, 0, 1", "1"), ("-1", "0, 1"),
                                    ("3, -5, -8", "-4, 5, 7")]):
        paths.append(write(tmp_path, f"q2-{i}.map",
                           f"p = 2\nnum = {num}\nden = {den}\n"))
    for path in paths:
        ctx, f = parse_map_file(path)
        g = embed_map(f, ctx.extend(n=2, k=1))
        for c in (Fraction(0), Fraction(1), Fraction(ctx.p + 1, ctx.p)):
            for s in (Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)):
                code, text = run(["reduce-at", "--input", path, "--center",
                                  str(c), f"--s={s}", "--format", "json"])
                assert code == 0, (path, c, s)
                want = brute_is_fixed(g, TypeIIPoint(g.ctx.from_rational(c),
                                                     s))
                assert json.loads(text)["local"]["is_fixed"] is want, \
                    (path, c, s)


def test_tangent(square_map):
    code, text = run(["tangent", "--input", square_map,
                      "--center", "0", "--s", "0"])
    assert code == 0
    assert "fixed directions" in text
    code2, text2 = run(["tangent", "--input", square_map,
                        "--center", "2", "--s", "1"])
    assert code2 == 0
    assert "not fixed" in text2


def test_tree_formats(square_map):
    code, text = run(["tree", "--input", square_map])
    assert code == 0
    assert "classical leaves" in text
    code, text = run(["tree", "--input", square_map, "--format", "dot"])
    assert code == 0
    assert text.startswith("graph fixlocus {")
    assert text.rstrip().endswith("}")
    code, doc = run(["tree", "--input", square_map, "--format", "json"])
    assert code == 0
    parsed = json.loads(doc)
    assert parsed["schema"] == SCHEMA
    # the ray up to oo and the segments into the leaves are edges, with the
    # behavior of the segment they run along
    assert sorted((e["from"], e["to"], e["behavior"])
                  for e in parsed["edges"]) == [
        ("0", "leaf0", "multiplicatively-indifferent"),
        ("0", "leaf1", "not-fixed"),
        ("leaf2", "0", "not-fixed")]


def test_weights_json(square_map):
    code, text = run(["weights", "--input", square_map, "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["total"] == 1 and doc["degree"] == 2
    assert sum(w["weight"] for w in doc["weights"]) == doc["total"]


def test_weights_text(tmp_path, square_map):
    code, text = run(["weights", "--input", square_map, "--format", "text"])
    assert code == 0
    assert text.splitlines() == ["  zeta(1, s=0)  weight 1",
                                 "total: 1   degree - 1 = 1"]
    code, text = run(["weights", "--input",
                      write_fixture(tmp_path, fixture("power-2"))])
    assert code == 0
    assert text.splitlines()[-1] == "total: 1   degree - 1 = 1"


def test_verify_passes(square_map):
    code, text = run(["verify", "--input", square_map])
    assert code == 0
    assert "FAIL" not in text
    assert text.splitlines() == [
        "[ok] weight formula (total == degree - 1)",
        "[ok] component 2 counting formula",
        "[ok] connectedness criterion",
        "[ok] repelling-vertex sum rule",
        "[ok] multiplier reciprocity along fixed segments",
        "[ok] identification of classical points by direction"]


def test_verify_reports_a_failed_reciprocity_or_identification(
        square_map, monkeypatch):
    # a CheckFailed from either check is a [FAIL] line and exit 3
    def fail(a):
        raise CheckFailed("tampered")
    for name in ("multiplier_reciprocity_check", "identification_check"):
        with monkeypatch.context() as m:
            m.setattr(fx, name, fail)
            code, text = run(["verify", "--input", square_map])
        assert code == 3, name
        assert sum(line.startswith("[FAIL]") for line in
                   text.splitlines()) == 1, name


def test_exit_code_1_on_bad_input(tmp_path):
    # p not prime, a line with no '=', an unknown key, a key given twice,
    # p not an integer, a constant map and a zero denominator
    for text in ("p = 4\nnum = 0, 1\nden = 1\n",
                 "p = 5\nnum 0, 1\nden = 1\n",
                 "p = 5\nq = 3\nnum = 0, 1\nden = 1\n",
                 "p = 5\nnum = 0, 1\nnum = 0, 1\nden = 1\n",
                 "p = five\nnum = 0, 1\nden = 1\n",
                 "p = 5\nnum = 0\nden = 1\n",
                 "p = 5\nnum = 0, 1\nden = 0\n"):
        bad = write(tmp_path, "bad.map", text)
        assert run(["analyze", "--input", bad]) == (1, ""), text
    code, _ = run(["analyze", "--input", str(tmp_path / "missing.map")])
    assert code == 1


def test_exit_code_1_on_identity_map(tmp_path):
    ident = write(tmp_path, "id.map", "p = 5\nnum = 0, 1\nden = 1\n")
    code, _ = run(["analyze", "--input", ident])
    assert code == 1


def test_k_max_flag_sets_the_budget(tmp_path):
    # power-4 needs E(5, 1, 2): --k-max 1 stops it at exit 2 with nothing
    # printed, and --k-max 2 lets it certify
    path = write_fixture(tmp_path, fixture("power-4"))
    code, text = run(["analyze", "--input", path, "--k-max", "1"])
    assert (code, text) == (2, "")
    code, text = run(["analyze", "--input", path, "--k-max", "2"])
    assert code == 0
    assert "weight total: 3" in text


def test_tower_parameters_from_file(tmp_path):
    # fixed points at valuation 1/2 are representable once n = 2 in the file
    path = write(tmp_path, "ramified.map",
                 "p = 5\nn = 2\nnum = -5, 0, 2\nden = 0, 1\n")
    code, text = run(["analyze", "--input", path, "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["field"]["n"] == 2
    assert doc["weight_total"] == 1


def test_exit_code_2_on_incomplete_certificate(tmp_path):
    # p = 2: an unsplit critical cluster under n_max = 24, k_max = 4 leaves
    # the weight total below degree - 1
    path = write(tmp_path, "wild.map",
                 "p = 2\nnum = 3, -5, -8\nden = -4, 5, 7\n")
    budget = ["--n-max", "24", "--k-max", "4"]
    code, text = run(["analyze", "--input", path, "--format", "json"]
                     + budget)
    doc = json.loads(text)
    assert code == 2
    assert doc["complete_rigorous"] is False and doc["weight_total"] == 0
    code, text = run(["weights", "--input", path, "--format", "json"]
                     + budget)
    assert code == 2 and json.loads(text)["total"] == 0
    code, text = run(["verify", "--input", path] + budget)
    assert code == 2 and "[FAIL] weight formula" in text
    # tree prints the same analysis, and says so in its exit code; its text
    # ends in the diagnostics, as analyze's does, and JSON and dot carry
    # none of them
    a = fx.analyze(parse_map_file(path)[1], fx.ExploreConfig(24, 4))
    assert a.diagnostics
    for fmt in ("text", "json", "dot"):
        code, text = run(["tree", "--input", path, "--format", fmt] + budget)
        assert code == 2, fmt
        notes = [line for line in text.splitlines()
                 if line.startswith("note: ")]
        assert notes == ([f"note: {d}" for d in a.diagnostics]
                         if fmt == "text" else []), fmt
        if fmt == "json":
            assert set(json.loads(text)) == {"schema", "nodes", "edges"}


def test_analysing_subcommands_where_a_refinement_lands_on_a_root(tmp_path):
    """(-8/3 - z^2)/(z - 4) over Q_3: a root handle that a query refines
    onto the fixed point 1 + x*pi/3 exactly leaves every subcommand that
    analyses at exit 0, with every verify check ok, at the default budget
    and at the acceptance suite's."""
    path = write(tmp_path, "exact.map",
                 "p = 3\nnum = -8/3, 0, -1\nden = -4, 1\n")
    for budget in ([], BUDGET):
        for cmd in ("analyze", "tree", "weights", "verify"):
            code, text = run([cmd, "--input", path] + budget)
            assert code == 0, (cmd, budget)
        assert "[FAIL]" not in text and text.count("[ok]") == 6


BAD_BUDGETS = ("0", "-3", "0x10", "1.5", "x", "")


def test_budget_below_1_or_not_decimal_exits_1(square_map):
    """A budget is a decimal integer >= 1; anything else is malformed input,
    with nothing printed, also on a map that needs no extension."""
    for key in ("n-max", "k-max"):
        for val in BAD_BUDGETS:
            out = io.StringIO()
            with pytest.raises(SystemExit) as exc:
                main(["analyze", "--input", square_map, f"--{key}={val}"],
                     out=out)
            assert (exc.value.code, out.getvalue()) == (1, ""), (key, val)
    assert run(["analyze", "--input", square_map, "--n-max", "1",
                "--k-max", "1"])[0] == 0


def test_usage_errors_exit_1(square_map):
    # a malformed command line is bad input (1), never the budget code 2
    for argv in (["analyze", "--input", square_map, "--bogus"],
                 ["analyze"],
                 ["analyze", "--input", square_map, "--n-max", "x"],
                 ["analyze", "--input", square_map, "--seed", "1"],
                 ["analyze", "--input", square_map, "--ray-budget", "0"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 1, argv


def test_tree_on_every_fixture(tmp_path):
    """tree works on every map analyze handles: it exits 0 wherever analyze
    does, in every format, and 1 on the identity, like analyze."""
    for fxt in fixtures():
        path = write_fixture(tmp_path, fxt)
        want = 1 if fxt.expected.get("case") == MOEBIUS_IDENTITY else 0
        code, _ = run(["analyze", "--input", path] + BUDGET)
        assert code == want, fxt.name
        for fmt in ("text", "json", "dot"):
            code, _ = run(["tree", "--input", path, "--format", fmt]
                          + BUDGET)
            assert code == want, (fxt.name, fmt)


def test_tree_json_is_a_tree_on_every_fixture(tmp_path):
    """On every fixture but the identity, the JSON skeleton is a tree: every
    edge end is a node, |E| = |V| - 1, and the graph is connected; and every
    classical fixed point, oo included, is a leaf node."""
    for fxt in fixtures():
        if fxt.expected.get("case") == MOEBIUS_IDENTITY:
            continue
        path = write_fixture(tmp_path, fxt)
        code, text = run(["tree", "--input", path, "--format", "json"]
                         + BUDGET)
        assert code == 0, fxt.name
        doc = json.loads(text)
        nodes = set(doc["nodes"])
        _, text = run(["analyze", "--input", path, "--format", "json"]
                      + BUDGET)
        classical = [cp["value"]
                     for cp in json.loads(text)["classical_points"]]
        assert [doc["nodes"].get(f"leaf{i}", {}).get("leaf")
                for i in range(len(classical))] == classical, fxt.name
        adj = {v: set() for v in nodes}
        for e in doc["edges"]:
            assert e["from"] in nodes and e["to"] in nodes, (fxt.name, e)
            adj[e["from"]].add(e["to"])
            adj[e["to"]].add(e["from"])
        assert len(doc["edges"]) == len(nodes) - 1, fxt.name
        seen, stack = set(), [next(iter(nodes))]
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(adj[v] - seen)
        assert seen == nodes, fxt.name


def test_verify_analyses_once(tmp_path, monkeypatch):
    calls = []
    analyze = fx.analyze

    def spy(*args, **kwargs):
        calls.append(args[0])
        return analyze(*args, **kwargs)
    monkeypatch.setattr(fx, "analyze", spy)
    path = write_fixture(tmp_path, fixture("segment-p3-d4"))
    code, text = run(["verify", "--input", path])
    assert code == 0 and "[ok] connectedness criterion" in text
    assert len(calls) == 1


def test_exit_code_3_on_a_failed_exactness_check(square_map, monkeypatch):
    # an exactness check of the arithmetic is an internal error, not bad input,
    # also while the map file is read
    def fail(*args, **kwargs):
        raise CheckFailed("truncation is not congruent to the element")
    monkeypatch.setattr(fx, "analyze", fail)
    assert run(["analyze", "--input", square_map]) == (3, "")
    monkeypatch.setattr(cli, "normalize", fail)
    assert run(["analyze", "--input", square_map]) == (3, "")


def test_exit_code_3_on_an_internal_bug(square_map, monkeypatch, capsys):
    # any other exception from the engine is a bug: exit 3, and the error
    # on standard error
    def crash(*args, **kwargs):
        raise RuntimeError("an engine bug")
    monkeypatch.setattr(fx, "analyze", crash)
    assert run(["analyze", "--input", square_map]) == (3, "")
    assert capsys.readouterr().err == \
        "internal error: RuntimeError('an engine bug')\n"


def test_analyze_imports_no_third_party_algebra(tmp_path):
    # the CLI cold start loads the engine and the standard library only
    path = write_fixture(tmp_path, fixture("power-2"))
    code = (
        "import io, sys\n"
        "from berklocus import cli\n"
        "status = cli.main(['analyze', '--input', sys.argv[1]],\n"
        "                  out=io.StringIO())\n"
        "print(status, sorted(m for m in sys.modules\n"
        "                     if m.split('.')[0] == 'sympy'))\n")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, path], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


def test_main_builds_the_one_result_each_subcommand_renders():
    """cli.py calls `fx.analyze` at one site and `reduce_at` at one site,
    both inside `main`; the renderers only read the result.  The analysis
    goes through the module attribute `fx.analyze`, which tests and the
    benchmark's tracer patch."""
    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    sites = []
    for func in tree.body:
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                name = f"{f.value.id}.{f.attr}"
            else:
                name = getattr(f, "id", getattr(f, "attr", None))
            if name in ("fx.analyze", "analyze", "reduce_at"):
                sites.append((getattr(func, "name", None), name))
    assert sorted(sites) == [("main", "fx.analyze"), ("main", "reduce_at")]
