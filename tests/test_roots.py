"""Root isolation: exact rational roots, refinable handles, and unsplittable
cluster stubs."""

import copy
from fractions import Fraction

import pytest

from berklocus import fixlocus as fx
from berklocus import roots
from berklocus.epoly import epoly
from berklocus.errors import NeedsExtension
from berklocus.field import INF, PrimeContext
from berklocus.oracle import fixture
from berklocus.residue import poly_eval, poly_mul
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
    stubs = [h for h in handles if isinstance(h, ClusterStub)]
    assert len(stubs) == 1
    assert stubs[0].count == 3
    assert stubs[0].radius == Fraction(1, 3)
    assert not stubs[0].is_exact


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


def test_multiplicity_is_carried():
    ctx = PrimeContext(5)
    g = epoly(ctx, [-1, 1])
    (h,) = isolate_roots(ctx, g, multiplicity=3)
    assert h.multiplicity == 3


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


# -- one exact query per polynomial at a root ---------------------------------

@pytest.fixture(scope="module", params=["wild-p3-d4", "wild-p3-d6"])
def wild_handles(request):
    """A fixture's map in the tower that certifies it, with fresh handles of
    its non-exact classical fixed points."""
    f = fx.analyze(fixture(request.param).build(),
                   fx.ExploreConfig(n_max=24, k_max=4)).map
    ctx = f.ctx
    handles = [h for g, m in fx._squarefree_parts(
        ctx, f.fixed_point_polynomial()) for h in isolate_roots(ctx, g, m)
        if not h.is_exact]
    assert handles
    return f, handles


@pytest.fixture
def recorded_lead_at(monkeypatch):
    """Every `lead_at` call as (handle, q, result, gcd runs, refinements)."""
    calls = []
    gcds = []
    refines = []
    lead_at, gcd, refine = RootHandle.lead_at, roots.poly_gcd, RootHandle.refine

    def counted_gcd(*a):
        gcds.append(1)
        return gcd(*a)

    def counted_refine(self):
        refines.append(1)
        return refine(self)

    def recorded(self, q):
        g0, r0 = len(gcds), len(refines)
        out = lead_at(self, q)
        calls.append((self, q, out, len(gcds) - g0, len(refines) - r0))
        return out

    monkeypatch.setattr(roots, "poly_gcd", counted_gcd)
    monkeypatch.setattr(RootHandle, "refine", counted_refine)
    monkeypatch.setattr(RootHandle, "lead_at", recorded)
    return calls


def test_lead_at_is_none_on_a_multiple_of_the_root_polynomial(
        wild_handles, recorded_lead_at):
    f, handles = wild_handles
    ctx = f.ctx
    r = epoly(ctx, [1, 1])
    for h in handles:
        assert h.lead_at(poly_mul(ctx, h.g, r)) is None
    # the perturbation bound never decides a vanishing value, so each call
    # falls back to the gcd, once, and refines nothing
    assert [c[3:] for c in recorded_lead_at] == [(1, 0)] * len(handles)


def test_lead_at_agrees_with_a_deeper_center(wild_handles, recorded_lead_at):
    f, handles = wild_handles
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
