"""Root isolation: exact rational roots, refinable handles, and unsplittable
cluster stubs."""

import ast
import copy
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from berklocus import fixlocus as fx
from berklocus import roots
from berklocus.berkmap import normalize
from berklocus.epoly import count_roots_in_disk, epoly, newton_polygon, \
    poly_shift
from berklocus.errors import CheckFailed, NeedsExtension
from berklocus.field import INF, PrimeContext
from berklocus.oracle import fixture
from berklocus.residue import INF_POINT, _Elements, poly_eval
from berklocus.roots import ClusterStub, RootHandle, isolate_roots


def test_rational_roots_come_out_exact():
    ctx = PrimeContext(5)
    # (z - 2)(z - 1/5)(z + 3)
    g = epoly(ctx, [Fraction(6, 5), Fraction(-31, 5), Fraction(4, 5), 1])
    handles = isolate_roots(ctx, g)
    assert len(handles) == 3
    assert all(h.is_exact for h in handles)
    roots = {h.center for h in handles}
    assert roots == {ctx.from_rational(2), ctx.from_rational(Fraction(1, 5)),
                     ctx.from_rational(-3)}


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# irreducible over Q: z^2 - D with D not a square, and Eisenstein cubics at 2
# and at 3
IRREDUCIBLE = [(-2, 0, 1), (3, 0, 1), (-12, 0, 1), (1000003, 0, 1),
               (2, 4, -6, 1), (6, 0, 3, 1), (-10, 2, 0, 1)]
RATIONALS = st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12),
                      st.integers(1, 10 ** 3))


@given(roots_=st.lists(RATIONALS, max_size=4, unique=True),
       zero=st.booleans(),
       cofactor=st.sampled_from([None] + IRREDUCIBLE),
       scale=st.fractions().filter(lambda q: q != 0))
def test_rational_split_of_large_height_roots(roots_, zero, cofactor, scale):
    roots_ = [r for r in roots_ if r != 0] + ([Fraction(0)] if zero else [])
    linear = sorted({(r.numerator, r.denominator) for r in roots_},
                    key=lambda ab: (ab[1], -ab[0]))
    g = list(cofactor or (1,))
    for a, b in linear:
        g = _mul(g, [-a, b])
    if len(g) == 1:
        return
    ctx = PrimeContext(7)
    split = roots._rational_split(ctx, epoly(ctx, [scale * c for c in g]))
    expected = [epoly(ctx, [-a, b]) for a, b in linear]
    if cofactor:
        expected.append(epoly(ctx, cofactor))
    assert split == expected
    for f in split[:len(linear)]:  # primitive, positive leading coefficient
        assert f[1].den == 1 and f[1].nums[0] > 0
        assert math.gcd(f[0].nums[0], f[1].nums[0]) == 1
    handles = isolate_roots(ctx, epoly(ctx, g), budget=(1, 1))
    exact = [h.center for h in handles
             if isinstance(h, RootHandle) and h.is_exact]
    assert exact == [ctx.from_rational(Fraction(a, b)) for a, b in linear]


def test_rational_split_returns_irrational_coefficients_whole():
    ctx = PrimeContext(5, n=2)
    pi = ctx.pi_pow(1)
    # (z - 1)(z - pi): a rational root, but a coefficient outside Q
    g = epoly(ctx, [pi, -ctx.one - pi, 1])
    assert roots._rational_split(ctx, g) == [g]


def test_a_nonzero_constant_has_no_roots():
    """A nonzero constant has no roots, whether it is rational (the split's
    constant case) or not (isolated whole, with an empty Newton polygon)."""
    ctx = PrimeContext(3, n=2, k=2)
    assert isolate_roots(ctx, epoly(ctx, [Fraction(2, 3)])) == []
    assert isolate_roots(ctx, (ctx.pi_pow(1),)) == []


def test_handle_repr_shows_the_center_and_the_precision():
    """An exact handle prints as root(c), an inexact one as
    root(~c, prec=s): z - 2 and the two square roots of 2 in Q_7, whose
    residues are 4 and 3."""
    ctx = PrimeContext(7)
    assert [repr(h) for h in isolate_roots(ctx, epoly(ctx, [-2, 1]))] == \
        ["root(2)"]
    assert [repr(h) for h in isolate_roots(ctx, epoly(ctx, [-2, 0, 1]))] == \
        ["root(~4, prec=1)", "root(~3, prec=1)"]


@pytest.mark.parametrize("g", [
    _mul(_mul([-1, 1], [-1, 1]), [1, 0, 1]),  # (z - 1)^2 (z^2 + 1)
    _mul([0, 0, 3], [2, 5]),                  # 3 z^2 (5 z + 2)
    _mul([-2, 0, 1], [-2, 0, 1]),             # (z^2 - 2)^2
])
def test_rational_split_rejects_a_doubled_factor(g):
    ctx = PrimeContext(5)
    with pytest.raises(CheckFailed):
        roots._rational_split(ctx, epoly(ctx, g))


def test_cross_checks_fail_under_optimize():
    """Doctored inputs to the split, to root refinement, to
    the classical fixed-point total, to the tangent map's multiplier and
    its criticality cross-check, to the valuation envelope, to a reduction
    and to a skeleton segment's multiplier: each check raises CheckFailed
    with asserts off.  A root count in a disk that is neither open nor
    closed and an extension field with a non-monic modulus raise ValueError,
    and a sum across working fields raises TypeError."""
    code = (
        "import dataclasses\n"
        "from fractions import Fraction\n"
        "from berklocus import berkmap, fixlocus as fx, roots\n"
        "from berklocus.epoly import count_roots_in_disk, epoly, "
        "newton_polygon\n"
        "from berklocus.errors import CheckFailed\n"
        "from berklocus.field import PrimeContext\n"
        "from berklocus.oracle import fixture\n"
        "from berklocus.residue import Fq, FqRationalMap\n"
        "assert False, 'asserts must be off'\n"
        "ctx = PrimeContext(5)\n"
        "f = fixture('power-2').build()\n"
        "F = Fq(5)\n"
        "isolate, conjugate = fx.isolate_roots, berkmap._conjugate_to_gauss\n"
        "pole = FqRationalMap(F, (F.one,), (F.zero, F.one))\n"
        "def short(*a, **k):\n"
        "    return isolate(*a, **k)[:-1]\n"
        "def doubled(f, x):\n"
        "    g = conjugate(f, x)\n"
        "    g.num = tuple(c * ctx.from_int(5) for c in g.num)\n"
        "    g.den = tuple(c * ctx.from_int(5) for c in g.den)\n"
        "    return g\n"
        "checks = [\n"
        "    ('split', lambda: roots._rational_split(\n"
        "        ctx, epoly(ctx, [1, -2, 1]))),\n"
        "    ('envelope', lambda: berkmap.segments_from_lines(\n"
        "        F.one, [], Fraction(1), Fraction(1))),\n"
        "    ('pole', lambda: pole._multiplier_and_critical(F.zero, F, 1, (\n"
        "        pole.num, pole.den, pole.derivative_numerator()))),\n"
        # roots 7 and 12 share the digit 2 and the disk of radius 1 about it
        "    ('isolation', lambda: roots.RootHandle(\n"
        "        ctx, epoly(ctx, [84, -19, 1]), ctx.zero, Fraction(0)).refine()),\n"
        # roots 1 and 2: two digits in one claimed isolating disk
        "    ('digit', lambda: roots.RootHandle(\n"
        "        ctx, epoly(ctx, [2, -3, 1]), ctx.zero, Fraction(0)).refine()),\n"
        # w^2 fixes 1 with multiplier 2; a doctored N = 0 claims it critical
        "    ('critical', lambda: FqRationalMap(F, (F.zero, F.zero, F.one),\n"
        "        (F.one,))._multiplier_and_critical(\n"
        "            F.one, F, 1, ((F.zero, F.zero, F.one), (F.one,), ()))),\n"
        "    ('family', lambda: berkmap.segments_from_lines(F.one, [\n"
        "        (Fraction(0), Fraction(0), ('n', 0), F.one),\n"
        "        (Fraction(0), Fraction(0), ('n', 1), F.one)],\n"
        "        Fraction(0), Fraction(1))),\n"
        "]\n"
        "for name, check in checks:\n"
        "    try:\n"
        "        check()\n"
        "    except CheckFailed:\n"
        "        print(name)\n"
        "fx.isolate_roots = short\n"
        "try:\n"
        "    fx.classical_fixed_points(f)\n"
        "except CheckFailed:\n"
        "    print('total')\n"
        "berkmap._conjugate_to_gauss = doubled\n"
        "try:\n"
        "    berkmap.reduce_at(f, berkmap.gauss_point(ctx))\n"
        "except CheckFailed:\n"
        "    print('reduction')\n"
        "berkmap._conjugate_to_gauss = conjugate\n"
        "fixed_points = FqRationalMap.fixed_points\n"
        "FqRationalMap.fixed_points = lambda m: [\n"
        "    dataclasses.replace(t, multiplicity=1) for t in fixed_points(m)]\n"
        "try:\n"
        "    berkmap.reduce_at(fixture('moebius-translation').build(),\n"
        "                      berkmap.gauss_point(ctx))\n"
        "except CheckFailed:\n"
        "    print('additive')\n"
        "try:\n"
        "    count_roots_in_disk(newton_polygon(ctx, epoly(ctx, [-1, 1])),\n"
        "                        Fraction(0), 'half-open')\n"
        "except ValueError:\n"
        "    print('mode')\n"
        "try:\n"
        "    ctx.one + PrimeContext(7).one\n"
        "except TypeError:\n"
        "    print('mixed')\n"
        "try:\n"
        "    Fq(5, modulus=(F.one, F.one, F.from_int(2)), base=F)\n"
        "except ValueError:\n"
        "    print('modulus')\n"
        # quadratic-indifferent: one id-indifferent segment between reduced
        # breakpoints, whose multiplier 1 is doctored to 2
        "fx.isolate_roots = isolate\n"
        "FqRationalMap.fixed_points = fixed_points\n"
        "a = fx.analyze(fixture('quadratic-indifferent').build())\n"
        "for ray in a.skeleton.rays:\n"
        "    ray.segments = [dataclasses.replace(g, multiplier=F.from_int(2))\n"
        "                    if g.multiplier is not None else g\n"
        "                    for g in ray.segments]\n"
        "try:\n"
        "    fx.multiplier_reciprocity_check(a)\n"
        "except CheckFailed:\n"
        "    print('reciprocity')\n")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "split", "envelope", "pole", "isolation", "digit",
        "critical", "family", "total", "reduction", "additive", "mode",
        "mixed", "modulus", "reciprocity"]


def test_package_has_no_assert_statement():
    """`python -O` drops assert statements, so no check of the package may
    rest on one; a failed check raises CheckFailed, so the package raises no
    AssertionError either."""
    pkg = os.path.join(os.path.dirname(__file__), "..", "src", "berklocus")
    found = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read(), name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)
                      or isinstance(node, ast.Raise)
                      and node.exc is not None
                      and "AssertionError" in ast.unparse(node.exc)]
    assert found == []


def test_irrational_root_handle_refines():
    ctx = PrimeContext(7)
    g = epoly(ctx, [-2, 0, 1])  # sqrt(2) exists in Z_7 but is irrational
    handles = isolate_roots(ctx, g)
    assert len(handles) == 2
    h = handles[0]
    assert not h.is_exact
    before = h.prec
    h.ensure(before + 5)
    assert h.prec > before + 5 or h.prec is INF
    # the center agrees with a true square root of 2 to the stated depth
    from berklocus.residue import poly_eval
    assert poly_eval(ctx, g, h.center).val() >= h.prec


def test_handle_distances_are_ultrametric():
    ctx = PrimeContext(7)
    g = epoly(ctx, [-2, 0, 1])
    h1, h2 = isolate_roots(ctx, g)
    d = h1.distance_to(h2)
    # the two square roots of 2 differ by a unit times 2: distance 0
    assert d == 0
    assert h1.distance_to_point(ctx.zero) == 0


def test_ramified_root_needs_extension():
    ctx = PrimeContext(5)
    g = epoly(ctx, [-5, 0, 1])  # roots of valuation 1/2
    with pytest.raises(NeedsExtension) as exc:
        isolate_roots(ctx, g)
    assert exc.value.n == 2


def test_ramified_root_found_in_extension():
    ctx = PrimeContext(5, n=2)
    g = epoly(ctx, [-5, 0, 1])
    handles = isolate_roots(ctx, g)
    assert len(handles) == 2
    assert all(h.center.val() == Fraction(1, 2) for h in handles)


def test_wild_cluster_stub_under_budget():
    ctx = PrimeContext(3)
    # z^3 - 3: root valuation 1/3 = 1/p, wildly ramified; with a budget the
    # cluster is returned whole instead of raising
    g = epoly(ctx, [-3, 0, 0, 1])
    handles = isolate_roots(ctx, g, budget=(6, 3))
    assert len(handles) == 1 and type(handles[0]) is ClusterStub
    assert handles[0].count == 3
    assert handles[0].radius == Fraction(1, 3)


def test_residue_extension_roots():
    # z^2 - z - 1 over Q_2 has roots in the unramified quadratic extension
    ctx = PrimeContext(2)
    g = epoly(ctx, [-1, -1, 1])
    with pytest.raises(NeedsExtension) as exc:
        isolate_roots(ctx, g)
    assert exc.value.k == 2
    ctx2 = PrimeContext(2, n=1, k=2)
    g2 = epoly(ctx2, [-1, -1, 1])
    handles = isolate_roots(ctx2, g2)
    assert len(handles) == 2
    from berklocus.residue import poly_eval
    for h in handles:
        h.ensure(Fraction(5))
        assert poly_eval(ctx2, g2, h.center).val() >= h.prec


def test_direction_at_separating_level():
    ctx = PrimeContext(7)
    g = epoly(ctx, [-2, 0, 1])
    h1, h2 = isolate_roots(ctx, g)
    from berklocus.berkmap import TypeIIPoint
    gauss = TypeIIPoint(ctx.zero, Fraction(0))
    d1 = h1.direction_at(gauss)
    d2 = h2.direction_at(gauss)
    # the two roots reduce to the two square roots of 2 mod 7 (3 and 4)
    assert d1 != d2
    assert {repr(d1), repr(d2)} == {"3", "4"}


def test_roots_at_cluster_centers_come_out_exact():
    """Over E(5, 2, 1), g = (z^2 - 5)((z - 5)^2 - 5) has the roots +-pi and
    5 +- pi.  Isolation reaches pi and 5 + pi as the centers of their own
    clusters and keeps them as exact handles; the other two are inexact.
    g vanishes at the exact centers, each inexact disk holds one root, and
    the four handles lie in four disjoint disks."""
    ctx = PrimeContext(5, 2, 1)
    g = ctx.ring.mul(epoly(ctx, [-5, 0, 1]), epoly(ctx, [20, -10, 1]))
    handles = isolate_roots(ctx, g)
    assert len(handles) == 4
    pi = ctx.pi_pow(1)
    exact = [h.center for h in handles if h.is_exact]
    assert len(exact) == 2 and pi in exact and ctx.from_int(5) + pi in exact
    assert all(poly_eval(ctx, g, c).is_zero() for c in exact)
    for h in handles:
        if not h.is_exact:
            vals = newton_polygon(ctx, poly_shift(ctx, g, h.center))
            assert count_roots_in_disk(vals, h.prec, "closed") == 1
    for h1, h2 in itertools.combinations(handles, 2):
        assert roots._val_diff(h1.center, h2.center) < min(h1.prec, h2.prec)


def test_refine_lands_on_a_root_at_the_center():
    """A handle whose center is its root while prec is finite -- a state
    refinement never makes, since `_move` truncates the center at prec + 1
    and so keeps val(root - center) = prec -- lands exactly in one step.
    Over E(5, 2, 1) with g = (z^2 - 5)((z - 5)^2 - 5), take the root pi with
    prec 1: g(pi) = 0 passes the Newton test, the center stays, and of the
    root valuations of g(pi + z), only INF lies above 1 (5 + pi is at
    distance exactly 1, -pi and 5 - pi at 1/2)."""
    ctx = PrimeContext(5, 2, 1)
    g = ctx.ring.mul(epoly(ctx, [-5, 0, 1]), epoly(ctx, [20, -10, 1]))
    pi = ctx.pi_pow(1)
    h = RootHandle(ctx, g, pi, Fraction(1))
    h.refine()
    assert h.is_exact and h.center == pi


def test_lead_of_reads_q_at_the_root_once_a_refinement_lands_on_it():
    """The fixed points of (-8/3 - z^2)/(z - 4) in E(3, 2, 2) are
    1 +- x*pi/3, and isolation leaves the one of 1 + x*pi/3 as an inexact
    handle at c = x*pi/3 with prec 0.  Asked for q = z - c, the bound
    cannot decide at c and the handle refines; the digit step lands on the
    root itself, and the next step reads q(root) = 1 off the expansion
    there."""
    ctx = PrimeContext(3, 2, 2)
    f = normalize(ctx, [Fraction(-8, 3), 0, -1], [-4, 1])
    (g, _), = ctx.ring.squarefree(f.fixed_point_polynomial())
    h = next(h for h in isolate_roots(ctx, g)
             if poly_eval(ctx, g, h.center + ctx.one).is_zero())
    c = h.center
    assert not h.is_exact and h.prec == 0
    q = epoly(ctx, [-c, 1])
    seen = []

    def expand():
        seen.append((h.center, h.prec))
        return [((1, t),) for t in poly_shift(ctx, q, h.center)]

    assert h.lead_of(expand, lambda: q) == (Fraction(0),
                                            ctx.residue_field.one)
    assert seen == [(c, Fraction(0)), (c + ctx.one, INF)]

def test_refinement_checks_fail_on_tampered_handles():
    """A refinement never asks for an extension: a handle whose precision
    lies outside the value group (the root of z^2 - 5 at distance 1/2 from
    0, in Q_5), a disk with two root digits (1 and 2) and a disk whose one
    digit 2 leads to two roots (7 and 12) each raise CheckFailed.  So does
    the perturbation bound of a query at the first of them."""
    ctx = PrimeContext(5)
    with pytest.raises(CheckFailed, match="outside the value group"):
        RootHandle(ctx, epoly(ctx, [-5, 0, 1]), ctx.zero,
                   Fraction(1, 2)).refine()
    with pytest.raises(CheckFailed, match="outside the value group"):
        RootHandle(ctx, epoly(ctx, [-5, 0, 1]), ctx.zero,
                   Fraction(1, 2)).lead_at(epoly(ctx, [1, 1]))
    with pytest.raises(CheckFailed, match="has 2 digits"):
        RootHandle(ctx, epoly(ctx, [2, -3, 1]), ctx.zero,
                   Fraction(0)).refine()
    with pytest.raises(CheckFailed, match="2 roots in an isolating disk"):
        RootHandle(ctx, epoly(ctx, [84, -19, 1]), ctx.zero,
                   Fraction(0)).refine()


# -- one exact query per polynomial at a root ---------------------------------

@pytest.fixture(scope="module", params=["wild-p3-d4", "wild-p3-d6"])
def wild_handles(request):
    """A fixture's map in the tower that certifies it, fresh handles of its
    non-exact classical fixed points, and the skeleton vertices of that
    certificate."""
    a = fx.analyze(fixture(request.param).build(),
                   fx.ExploreConfig(n_max=24, k_max=4))
    f = a.map
    ctx = f.ctx
    handles = [h for g, _ in ctx.ring.squarefree(
        f.fixed_point_polynomial()) for h in isolate_roots(ctx, g)
        if not h.is_exact]
    assert handles
    return f, handles, [pt for pt, _ in a.skeleton.vertex_points]


def test_refinement_loops_raise_once_their_steps_run_out(monkeypatch):
    """Each loop that refines a handle takes at most `_MAX_REFINE` steps
    and then raises CheckFailed rather than answer unproved: with one step,
    `ensure` cannot reach a depth far below the handle's, and with none, no
    distance and no value at the root is read."""
    ctx = PrimeContext(7)
    g = epoly(ctx, [-2, 0, 1])  # the square roots of 2, residues 3 and 4
    h, other = isolate_roots(ctx, g)
    assert not h.is_exact and not other.is_exact
    monkeypatch.setattr(roots, "_MAX_REFINE", 1)
    with pytest.raises(CheckFailed, match="the requested precision"):
        h.ensure(Fraction(100))
    monkeypatch.setattr(roots, "_MAX_REFINE", 0)
    for query, match in (
            (lambda: h.distance_to(other), "distance computation"),
            (lambda: h.distance_to_point(ctx.zero), "distance to point"),
            (lambda: h.lead_at(epoly(ctx, [1, 1])), "value at root")):
        with pytest.raises(CheckFailed, match=match):
            query()


@pytest.fixture
def recorded_lead_at(monkeypatch):
    """Every exact query of a polynomial q at a root, `lead_of` (which
    `lead_at` and `fx._tail_lines` both make), as (handle, q, result, runs
    of the element ring's gcd, refinements)."""
    calls = []
    gcds = []
    refines = []
    lead_of, gcd, refine = RootHandle.lead_of, _Elements.gcd, RootHandle.refine

    def counted_gcd(self, f, g):
        gcds.append(1)
        return gcd(self, f, g)

    def counted_refine(self):
        refines.append(1)
        return refine(self)

    def recorded(self, expand, build):
        g0, r0 = len(gcds), len(refines)
        out = lead_of(self, expand, build)
        calls.append((self, build(), out, len(gcds) - g0, len(refines) - r0))
        return out

    monkeypatch.setattr(_Elements, "gcd", counted_gcd)
    monkeypatch.setattr(RootHandle, "refine", counted_refine)
    monkeypatch.setattr(RootHandle, "lead_of", recorded)
    return calls


def test_lead_at_is_none_on_a_multiple_of_the_root_polynomial(
        wild_handles, recorded_lead_at):
    f, handles, _ = wild_handles
    ctx = f.ctx
    r = epoly(ctx, [1, 1])
    for h in handles:
        assert h.lead_at(ctx.ring.mul(h.g, r)) is None
    # the perturbation bound never decides a vanishing value; g divides q,
    # so the division decides it, with no gcd and no refinement
    assert [c[3:] for c in recorded_lead_at] == [(0, 0)] * len(handles)


def test_lead_at_runs_the_gcd_when_q_shares_one_factor_of_g(
        recorded_lead_at):
    # g = (z^2 - 2)(z^2 - 11) splits over Q_7 into four roots with the
    # residues 3, 4 (square roots of 2) and 2, 5 (of 11); q shares the
    # first factor only, so g does not divide it
    ctx = PrimeContext(7)
    shared = epoly(ctx, [-2, 0, 1])
    g = ctx.ring.mul(shared, epoly(ctx, [-11, 0, 1]))
    handles = isolate_roots(ctx, g)
    assert len(handles) == 4 and not any(h.is_exact for h in handles)
    q = ctx.ring.mul(shared, epoly(ctx, [1, 1]))
    on_shared = [poly_eval(ctx, shared, h.center).val() > 0 for h in handles]
    assert sorted(on_shared) == [False, False, True, True]
    for h, vanishes in zip(handles, on_shared):
        assert (h.lead_at(q) is None) == vanishes
    # a vanishing value reaches the gcd fallback once; the others are
    # decided by the bound at the first center
    assert [c[3:] for c in recorded_lead_at] == [
        (1, 0) if vanishes else (0, 0) for vanishes in on_shared]


def test_lead_at_agrees_with_a_deeper_center(wild_handles, recorded_lead_at):
    f, handles, _ = wild_handles
    ctx = f.ctx
    for h in handles:
        fx._tail_lines(f, h)
    decided = [c for c in recorded_lead_at if c[2] is not None]
    assert decided and len(decided) < len(recorded_lead_at)
    for h, q, out, gcd_runs, refinements in recorded_lead_at:
        assert gcd_runs <= 1
        if out is None:
            continue
        if refinements == 0:
            assert gcd_runs == 0  # the first check decided
        val, residue = out
        deep = copy.copy(h)
        deep.ensure(val + 10)
        qc = poly_eval(ctx, q, deep.center)
        assert qc.val() == val
        assert qc.unit_residue() == residue


def test_direction_at_reads_the_center_at_the_distance(wild_handles):
    """At every skeleton vertex zeta(c, s) at distance s from a fresh wild
    handle, `direction_at` gives the leading digit of z - c at the root, as
    `lead_at` reads it: the digit of center - c once prec > s."""
    f, handles, points = wild_handles
    met = 0
    for h, pt in itertools.product(handles, points):
        fast, ref = copy.copy(h), copy.copy(h)
        d = fast.direction_at(pt)
        if fast.distance_to_point(pt.center) != pt.s:
            continue
        met += 1
        assert d == ref.lead_at(epoly(f.ctx, [-pt.center, 1]))[1]
    assert met


def test_direction_at_follows_the_three_way_rule(fixture_analyses):
    """At every skeleton vertex zeta(c, s) of the fixture analyses and for
    each finite leaf, the direction of the root is the infinity direction
    when d = val(root - c) < s, 0 when d > s, and the leading digit of
    center - c when d = s, read once the handle is refined past d (d = INF
    when the handle is exactly c)."""
    met = set()
    for _, a in fixture_analyses.values():
        for pt, _ in a.skeleton.vertex_points:
            for cp in a.classical_points:
                if cp.is_infinity():
                    continue
                fast, ref = copy.copy(cp.value), copy.copy(cp.value)
                d = INF if ref.is_exact and ref.center == pt.center \
                    else ref.distance_to_point(pt.center)
                if d < pt.s:
                    want, branch = INF_POINT, "<"
                elif d > pt.s:
                    want, branch = pt.center.ctx.residue_field.zero, ">"
                else:
                    want, branch = (ref.center - pt.center).unit_residue(), "="
                assert fast.direction_at(pt) == want
                met.add(branch)
    assert met == {"<", ">", "="}
