"""Closed-form degree-1 layer and the independent fixedness test, checked
against both hand-derived facts and the engine."""

import importlib.util
import json
import os
import random
from fractions import Fraction

import pytest

from berklocus.berkmap import TypeIIPoint, embed_map, reduce_at
from berklocus.errors import (
    ConstantMap,
    NeedsExtension,
    NotDegreeOne,
    WrongCase,
    ZeroDenominator,
)
from berklocus.oracle import (
    MOEBIUS_IDENTITY,
    MOEBIUS_SCALING_NONUNIT,
    MOEBIUS_SCALING_UNIT_NONTRIVIAL,
    MOEBIUS_SCALING_UNIT_TRIVIAL,
    MOEBIUS_TRANSLATION,
    brute_is_fixed,
    classify_moebius,
    fixture,
    fixtures,
    moebius_membership,
    tube_radius,
)
from berklocus.residue import Infinity

from conftest import mk


def test_fixture_suite_shape():
    fxs = fixtures()
    names = [f.name for f in fxs]
    assert len(names) == len(set(names))
    for fx in fxs:
        f = fx.build()
        assert f.degree == fx.expected["degree"], fx.name


def test_classify_cases_match_derived(expected):
    for fx in fixtures():
        if fx.family != "moebius":
            continue
        desc = classify_moebius(fx.build())
        assert desc.case == expected[fx.name]["case"], fx.name


def test_classify_rejects_higher_degree():
    with pytest.raises(NotDegreeOne):
        classify_moebius(mk(5, [0, 0, 1], [1]))


def test_translation_description():
    desc = classify_moebius(mk(5, [25, 1], [1]))  # z + 25
    assert desc.case == MOEBIUS_TRANSLATION
    (inf_pt, mult), = desc.classical
    assert isinstance(inf_pt, Infinity) and mult == 2
    # fixed exactly on disks of radius >= |25|
    ctx = mk(5, [25, 1], [1]).ctx
    assert moebius_membership(desc, TypeIIPoint(ctx.zero, Fraction(2)))
    assert not moebius_membership(desc, TypeIIPoint(ctx.zero, Fraction(3)))
    assert moebius_membership(desc, TypeIIPoint(ctx.from_rational(7),
                                                Fraction(-1)))
    assert tube_radius(desc) is None


def test_scaling_descriptions():
    f = mk(5, [0, 5], [1])
    desc = classify_moebius(f)
    assert desc.case == MOEBIUS_SCALING_NONUNIT
    assert not moebius_membership(desc, TypeIIPoint(f.ctx.zero, Fraction(0)))
    with pytest.raises(WrongCase):
        tube_radius(desc)

    f2 = mk(5, [0, 2], [1])
    desc2 = classify_moebius(f2)
    assert desc2.case == MOEBIUS_SCALING_UNIT_NONTRIVIAL
    # the arc between 0 and infinity, nothing else
    assert moebius_membership(desc2, TypeIIPoint(f2.ctx.zero, Fraction(3)))
    assert moebius_membership(desc2, TypeIIPoint(f2.ctx.zero, Fraction(-3)))
    assert not moebius_membership(
        desc2, TypeIIPoint(f2.ctx.from_rational(1), Fraction(1)))

    f3 = mk(5, [0, 6], [1])
    desc3 = classify_moebius(f3)
    assert desc3.case == MOEBIUS_SCALING_UNIT_TRIVIAL
    assert tube_radius(desc3) == Fraction(1)
    # tube of radius 1 around the arc
    assert moebius_membership(
        desc3, TypeIIPoint(f3.ctx.from_rational(1), Fraction(1)))
    assert not moebius_membership(
        desc3, TypeIIPoint(f3.ctx.from_rational(1), Fraction(2)))

    f4 = mk(5, [0, 26], [1])
    assert tube_radius(classify_moebius(f4)) == Fraction(2)


def test_identity_case():
    desc = classify_moebius(mk(5, [0, 1], [1]))
    assert desc.case == MOEBIUS_IDENTITY
    assert moebius_membership(desc, TypeIIPoint(mk(5, [0, 1], [1]).ctx.zero,
                                                Fraction(7)))


def test_fractional_linear_distinct_fixed_points():
    # 1/z fixes +-1 with multiplier -1: unit, nontrivial residue
    f = mk(5, [1], [0, 1])
    desc = classify_moebius(f)
    assert desc.case == MOEBIUS_SCALING_UNIT_NONTRIVIAL
    ctx = f.ctx
    assert {v for v, _ in desc.classical} == \
        {ctx.from_rational(1), ctx.from_rational(-1)}
    # the fixed arc joins 1 and -1 through the Gauss point
    assert moebius_membership(desc, TypeIIPoint(ctx.zero, Fraction(0)))
    assert moebius_membership(desc, TypeIIPoint(ctx.one, Fraction(2)))
    assert not moebius_membership(desc, TypeIIPoint(ctx.zero, Fraction(1)))


def test_fractional_linear_parabolic():
    # (3z - 4)/(z - 1) has the doubled fixed point 2
    f = mk(5, [-4, 3], [-1, 1])
    desc = classify_moebius(f)
    assert desc.case == MOEBIUS_TRANSLATION
    ctx = f.ctx
    (w0, mult), = desc.classical
    assert w0 == ctx.from_rational(2) and mult == 2
    # the fixed subtree limits onto the doubled classical point: disks
    # around 2 of radius <= 1 are fixed, larger ones are not
    for s, want in ((Fraction(0), True), (Fraction(1), True),
                    (Fraction(-1), False)):
        pt = TypeIIPoint(ctx.from_rational(2), s)
        assert moebius_membership(desc, pt) is want
        assert reduce_at(f, pt).is_fixed is want


def test_membership_agrees_with_engine_on_probes():
    rng = random.Random(42)
    centers = [Fraction(a, b) for a in (-7, -2, -1, 0, 1, 2, 3, 5, 26)
               for b in (1, 5)]
    for fx in fixtures():
        if fx.family != "moebius" or fx.name == "moebius-identity":
            continue
        f = fx.build()
        desc = classify_moebius(f)
        for _ in range(40):
            a = rng.choice(centers)
            s = Fraction(rng.randint(-3, 3))
            pt = TypeIIPoint(f.ctx.from_rational(a), s)
            assert moebius_membership(desc, pt) == reduce_at(f, pt).is_fixed, \
                (fx.name, a, s)


def test_brute_is_fixed_agrees_with_engine():
    rng = random.Random(77)
    done = 0
    while done < 60:
        p = rng.choice([3, 5, 7])
        d = rng.randint(1, 4)
        num = [rng.randint(-9, 9) for _ in range(d + 1)]
        den = [rng.randint(-9, 9) for _ in range(d + 1)]
        try:
            f = mk(p, num, den)
        except (ConstantMap, ZeroDenominator):
            continue
        a = Fraction(rng.randint(-12, 12), rng.choice([1, 1, 1, p]))
        s = Fraction(rng.randint(-2, 3))
        pt = TypeIIPoint(f.ctx.from_rational(a), s)
        assert brute_is_fixed(f, pt) == reduce_at(f, pt).is_fixed
        done += 1


def test_brute_is_fixed_fractional_radius():
    f = mk(5, [0, 0, 1], [1])
    with pytest.raises(NeedsExtension):
        brute_is_fixed(f, TypeIIPoint(f.ctx.zero, Fraction(1, 2)))
    # fine after extending the tower
    ctx2 = f.ctx.extend(n=2)
    f2 = embed_map(f, ctx2)
    pt = TypeIIPoint(ctx2.zero, Fraction(1, 2))
    assert brute_is_fixed(f2, pt) == reduce_at(f2, pt).is_fixed


def test_segment_fixture_coeff_construction():
    fx = fixture("segment-p3-d4")
    f = fx.build()
    assert f.degree == 4
    assert f.ctx.p == 3


def test_expected_values_match_their_derivation(expected):
    """scripts/expected_values.json is what scripts/derive_expected.py
    derives from the fixtures, so the committed oracle data cannot drift
    from the code it is derived with."""
    path = os.path.join(os.path.dirname(__file__), "..", "scripts",
                        "derive_expected.py")
    spec = importlib.util.spec_from_file_location("derive_expected", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert json.loads(json.dumps(module.derive())) == expected
