#!/usr/bin/env python3
"""Derive the expected values used by the test suite and write them to
expected_values.json next to this script:

    python3 scripts/derive_expected.py

`derive()` returns the same data without writing it, which a test compares
with the committed file.

Everything here is computed without the exploration engine: classical
fixed-point valuation profiles come from Newton polygons of the fixed-point
polynomial, reduction data at the Gauss point comes from reducing integral
coefficients mod p directly, degree-1 case labels and multiplier tables are
plain rational arithmetic.  The output file is committed; tests compare the
engine's certificates against it.
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from berklocus.epoly import epoly, root_valuations
from berklocus.field import INF, PrimeContext, vp
from berklocus.oracle import fixtures
from berklocus.residue import (
    Fq,
    FqRationalMap,
    Infinity,
    poly_deg,
)

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   "expected_values.json")


def frac(x) -> Fraction:
    return Fraction(x)


def rational_roots(coeffs):
    """Rational roots (with multiplicity) of a rational polynomial of degree
    <= 2, via the discriminant; returns None when the roots are irrational."""
    cs = [frac(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    deg = len(cs) - 1
    if deg == 1:
        return [(-cs[0] / cs[1], 1)]
    if deg == 2:
        a, b, c = cs[2], cs[1], cs[0]
        disc = b * b - 4 * a * c
        if disc == 0:
            return [(-b / (2 * a), 2)]
        num, den = disc.numerator, disc.denominator
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn != num or rd * rd != den:
            return None
        r = Fraction(rn, rd)
        return [((-b + r) / (2 * a), 1), ((-b - r) / (2 * a), 1)]
    raise ValueError("degree > 2")


def poly_eval_q(coeffs, z: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * z + frac(c)
    return out


def poly_deriv_q(coeffs):
    return [i * frac(c) for i, c in enumerate(coeffs)][1:]


def multiplier_q(num, den, z: Fraction) -> Fraction:
    """f'(z) for f = num/den at a rational point, quotient rule."""
    n, d = poly_eval_q(num, z), poly_eval_q(den, z)
    dn, dd = poly_eval_q(poly_deriv_q(num), z), poly_eval_q(poly_deriv_q(den), z)
    return (dn * d - n * dd) / (d * d)


def fixed_point_poly_q(num, den):
    """num - z * den with rational coefficients."""
    width = max(len(num), len(den) + 1)
    out = [Fraction(0)] * width
    for i, c in enumerate(num):
        out[i] += frac(c)
    for i, c in enumerate(den):
        out[i + 1] -= frac(c)
    while out and out[-1] == 0:
        out.pop()
    return out


def moebius_case_q(p, num, den):
    """Case label and tube radius for a degree-1 map, by rational arithmetic."""
    P = fixed_point_poly_q(num, den)
    if len([c for c in num if frac(c) != 0]) and len(den) == 1:
        # affine a1*z + b
        a1 = frac(num[1]) / frac(den[0]) if len(num) > 1 else Fraction(0)
        b = frac(num[0]) / frac(den[0]) if num else Fraction(0)
        if a1 == 1 and b == 0:
            return "identity", None
        if a1 == 1:
            return "translation", "unbounded"
        lam = a1
    else:
        roots = rational_roots(P)
        assert roots is not None, "oracle fixtures use rational fixed points"
        if len(roots) == 1:
            return "translation", "unbounded"
        z0 = roots[0][0]
        lam = multiplier_q(num, den, z0)
    v = vp(lam, p)
    if v != 0:
        return "scaling-nonunit", None
    # unit: residue of lam mod p
    res = (lam.numerator * pow(lam.denominator, -1, p)) % p
    if res != 1:
        return "scaling-unit-nontrivial-residue", None
    return "scaling-unit-trivial-residue", str(vp(lam - 1, p))


def valuation_profile(p, num, den):
    ctx = PrimeContext(p, 1, 1)
    n = epoly(ctx, [frac(c) for c in num])
    d = epoly(ctx, [frac(c) for c in den])
    P = epoly(ctx, fixed_point_poly_q(num, den))
    vals = root_valuations(ctx, P)
    profile = {}
    for v in vals:
        key = "inf" if v == INF else str(v)
        profile[key] = profile.get(key, 0) + 1
    deg = max(poly_deg(n), poly_deg(d))
    inf_mult = deg + 1 - poly_deg(P) if poly_deg(n) > poly_deg(d) else 0
    return sorted(profile.items()), inf_mult


def gauss_data(p, num, den):
    """Reduction at the Gauss point for integral coefficients: reduce mod p,
    then read the tangent map's fixed directions over the algebraic closure."""
    F = Fq(p)
    rn = [F.from_int(frac(c).numerator * pow(frac(c).denominator, -1, p))
          for c in num]
    rd = [F.from_int(frac(c).numerator * pow(frac(c).denominator, -1, p))
          for c in den]
    g = FqRationalMap(F, rn, rd)
    if g.is_identity() or g.is_constant():
        return None
    dirs = g.fixed_points()
    n_dirs = sum(t.orbit_size for t in dirs)
    n_cf = sum(t.orbit_size for t in dirs if t.critically_fixed)
    alpha = g.degree - 1 - n_cf
    return {
        "local_degree": g.degree,
        "n_fixed_directions": n_dirs,
        "n_critically_fixed": n_cf,
        "alpha": alpha,
        "classical_count": 2 + alpha,
    }


def quadratic_multipliers(p, num, den):
    P = fixed_point_poly_q(num, den)
    roots = rational_roots(P)
    assert roots is not None
    table = []
    for z0, m in sorted(roots):
        if m >= 2:
            table.append({"point": str(z0), "multiplicity": m,
                          "multiplier": "1"})
            continue
        lam = multiplier_q(num, den, z0)
        entry = {"point": str(z0), "multiplicity": m,
                 "multiplier_valuation": str(vp(lam, p))}
        if vp(lam, p) == 0:
            entry["multiplier_residue"] = (
                lam.numerator * pow(lam.denominator, -1, p)) % p
        table.append(entry)
    # infinity, when fixed: multiplier is den_lead / num_lead
    dn = [frac(c) for c in num]
    dd = [frac(c) for c in den]
    if len(dn) - 1 > len(dd) - 1:
        inf_mult = len(dn) + 1 - len(P)  # d + 1 - deg P
        lam = dd[-1] / dn[-1] if len(dn) - 1 == len(dd) else Fraction(0)
        entry = {"point": "inf", "multiplicity": inf_mult}
        if lam == 0:
            entry["multiplier_valuation"] = "inf"
        else:
            entry["multiplier_valuation"] = str(vp(lam, p))
            if vp(lam, p) == 0:
                entry["multiplier_residue"] = (
                    lam.numerator * pow(lam.denominator, -1, p)) % p
        table.append(entry)
    return table


def derive() -> dict:
    """The expected values of every fixture, keyed by fixture name."""
    data = {}
    for fx in fixtures():
        entry = {"p": fx.p, "family": fx.family,
                 "degree": fx.expected.get("degree")}
        if fx.name == "moebius-identity":
            entry["case"] = "identity"
            data[fx.name] = entry
            continue
        prof, inf_mult = valuation_profile(fx.p, fx.num, fx.den)
        entry["fixed_point_valuations"] = prof
        entry["infinity_multiplicity"] = inf_mult
        if fx.family == "moebius":
            case, tube = moebius_case_q(fx.p, fx.num, fx.den)
            entry["case"] = case
            if tube is not None:
                entry["tube_radius"] = tube
        if fx.family in ("power", "wild"):
            entry["gauss"] = gauss_data(fx.p, fx.num, fx.den)
        if fx.family == "quadratic":
            entry["multipliers"] = quadratic_multipliers(fx.p, fx.num, fx.den)
        data[fx.name] = entry
    return data


def main():
    data = derive()
    with open(OUT, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT} ({len(data)} fixtures)")


if __name__ == "__main__":
    main()
