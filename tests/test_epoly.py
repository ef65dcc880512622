"""Newton polygons, disk root counting, and Taylor shifts over the working
field."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from berklocus.epoly import (
    count_roots_in_disk,
    epoly,
    newton_polygon,
    poly_scale_arg,
    poly_shift,
    root_valuations,
)
from berklocus.errors import ZeroPolynomial
from berklocus.field import INF, PrimeContext
from berklocus.residue import poly_eval, poly_reverse


def _prod_linear(ctx, roots):
    f = epoly(ctx, [1])
    for r in roots:
        f = ctx.ring.mul(f, epoly(ctx, [-Fraction(r), 1]))
    return f


def test_newton_polygon_known():
    ctx = PrimeContext(5)
    # (z - 5)(z - 1/5) = z^2 - (26/5) z + 1: slopes -1 and 1
    f = _prod_linear(ctx, [5, Fraction(1, 5)])
    np_ = newton_polygon(ctx, f)
    assert np_.segments == ((Fraction(-1), 1), (Fraction(1), 1))
    assert np_.vanishing_order == 0
    assert sorted(root_valuations(ctx, f)) == [Fraction(-1), Fraction(1)]


def test_root_valuations_with_zero_root():
    ctx = PrimeContext(3)
    f = epoly(ctx, [0, 0, 9, 1])  # z^2 (z + 9)
    vals = root_valuations(ctx, f)
    assert vals.count(INF) == 2
    assert Fraction(2) in vals


@given(st.lists(st.sampled_from(
    [0, 1, 3, 9, 27, Fraction(1, 3), Fraction(1, 9), 2, 6]),
    min_size=1, max_size=5))
def test_count_roots_matches_construction(roots):
    ctx = PrimeContext(3)
    f = _prod_linear(ctx, roots)
    for s in (Fraction(-3), Fraction(-1), Fraction(0), Fraction(1),
              Fraction(2), Fraction(5)):
        from berklocus.field import vp
        expect_open = sum(1 for r in roots
                          if (r == 0 and True) or (r != 0 and vp(Fraction(r), 3) > s))
        got = count_roots_in_disk(ctx, f, ctx.zero, s, mode="open")
        assert got == expect_open
        expect_closed = sum(1 for r in roots
                            if r == 0 or vp(Fraction(r), 3) >= s)
        assert count_roots_in_disk(ctx, f, ctx.zero, s, mode="closed") == \
            expect_closed


def test_count_roots_shifted_center():
    ctx = PrimeContext(5)
    f = _prod_linear(ctx, [1, 6, 26])  # roots at distance 1, 5^-1, 5^-2 of 1
    c = ctx.from_rational(1)
    assert count_roots_in_disk(ctx, f, c, Fraction(0), "closed") == 3
    assert count_roots_in_disk(ctx, f, c, Fraction(1), "closed") == 3
    assert count_roots_in_disk(ctx, f, c, Fraction(2), "closed") == 2
    assert count_roots_in_disk(ctx, f, c, Fraction(3), "closed") == 1
    assert count_roots_in_disk(ctx, f, c, Fraction(2), "open") == 1


def test_poly_shift_and_reverse():
    ctx = PrimeContext(7)
    f = epoly(ctx, [3, 0, 1])
    g = poly_shift(ctx, f, ctx.from_rational(2))
    # g(z) = f(z + 2) = (z+2)^2 + 3
    assert poly_eval(ctx, g, ctx.from_rational(1)) == ctx.from_rational(12)
    rev = poly_reverse(ctx, f, 2)
    assert rev == epoly(ctx, [1, 0, 3])
    assert poly_reverse(ctx, f, 4) == epoly(ctx, [0, 0, 1, 0, 3])
    with pytest.raises(ValueError):
        poly_reverse(ctx, f, 1)
    scaled = poly_scale_arg(ctx, f, ctx.from_rational(7))
    assert scaled == epoly(ctx, [3, 0, 49])


def _horner_shift(ctx, f, c):
    """f(z + c) by Horner composition with the linear polynomial (c, 1)."""
    out = ()
    for coeff in reversed(f):
        out = ctx.ring.add(ctx.ring.mul(out, (c, ctx.one)), (coeff,),
                           ctx.one)
    return tuple(out)


_small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
_element = st.lists(st.lists(_small, min_size=3, max_size=3),
                    min_size=2, max_size=2)


@given(st.sampled_from([2, 3, 5]), st.integers(1, 3), st.integers(1, 2),
       st.lists(_element, max_size=5), _element)
@example(5, 2, 1, [], [[1, 0, 0], [0, 0, 0]])  # the zero polynomial
@example(3, 1, 2, [[[2, 0, 0], [1, 0, 0]]], [[1, 1, 0], [1, 0, 0]])  # constant
@example(2, 3, 2, [[[1, 0, 0], [0, 1, 0]]] * 3, [[0] * 3] * 2)  # c = 0
def test_poly_shift_is_horner_composition(p, n, k, coeffs, c):
    ctx = PrimeContext(p, n, k)
    f = epoly(ctx, [ctx.element(e) for e in coeffs])
    c = ctx.element(c)
    assert poly_shift(ctx, f, c) == _horner_shift(ctx, f, c)
    if c.is_zero():
        assert poly_shift(ctx, f, c) is f


def test_newton_polygon_in_ramified_tower():
    ctx = PrimeContext(2, n=2)
    f = epoly(ctx, [2, 0, 1])  # roots of valuation 1/2 live at tower level
    vals = root_valuations(ctx, f)
    assert vals == [Fraction(1, 2), Fraction(1, 2)]


def test_root_counting_guards():
    """The zero polynomial has no Newton polygon and no root count, and a
    disk is open or closed."""
    ctx = PrimeContext(5)
    with pytest.raises(ZeroPolynomial):
        newton_polygon(ctx, ())
    with pytest.raises(ZeroPolynomial):
        count_roots_in_disk(ctx, (), ctx.zero, Fraction(0))
    with pytest.raises(ValueError, match="neither open nor closed"):
        count_roots_in_disk(ctx, epoly(ctx, [1, 1]), ctx.zero, Fraction(0),
                            mode="half")
