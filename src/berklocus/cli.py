"""Command-line interface.

Subcommands operate on a map described by a small declarative input file:

    # comments and blank lines are ignored
    p = 5
    n = 1          # optional tower parameters (default 1)
    k = 1
    num = 0, 1, 1  # coefficients, constant term first, rationals allowed
    den = 1

`main` reads the map file once and builds the one result its subcommand
renders: `fixlocus.analyze` for `analyze`, `tree`, `weights` and `verify`
(what they print, and every check `verify` makes, is read off that one
analysis), and `reduce_at` at one point for `reduce-at` and `tangent`, run
through `fixlocus.in_tower`, so that a radius outside the input's value
group is answered in the tower that holds it.  Each `cmd_*` function renders
that result.  Every subcommand reads the budget: the defaults, the file
named by the `BERKLOCUS_CONFIG` environment variable (`n_max`, `k_max`) and
`--n-max`/`--k-max`.  The map file and that config file are read by one
`key = value` reader.

Exit codes: 0 success; 1 malformed input (including the identity map and a
command-line usage error); 2 the exploration budget was not enough -- the
computation needs a field extension beyond `--n-max`/`--k-max`, or
`analyze`, `weights` or `verify` printed a certificate that is not complete
(weight total below degree - 1), after printing it; 3 internal error, or a
failed `verify` check on a complete certificate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import fixlocus as fx
from .berkmap import LocalData, TypeIIPoint, normalize, reduce_at
from .errors import (
    BerklocusError,
    CheckFailed,
    IdentityMap,
    NeedsExtension,
    ParseError,
)
from .field import INF, NEG_INF, PrimeContext
from .residue import Infinity

SCHEMA = "berklocus-report/1"


# ---------------------------------------------------------------------------
# Input parsing
# ---------------------------------------------------------------------------

def _parse_rational(tok: str, line=None, field=None) -> Fraction:
    try:
        return Fraction(tok.strip())
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"not a rational number: {tok.strip()!r}",
                         line=line, field=field)


def _read_entries(path: str, keys, what: str) -> dict:
    """The `key = value` lines of the file at path, as {key: (value, line)};
    text after `#` and blank lines are skipped, and a `-` in a key reads as
    `_`.  A key outside `keys`, or given twice, is a ParseError."""
    try:
        with open(path) as fh:
            raw = fh.readlines()
    except OSError as e:
        raise ParseError(f"cannot read {what} {path}: {e.strerror}")
    entries = {}
    for ln, text in enumerate(raw, start=1):
        text = text.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ParseError("expected 'key = value'", line=ln)
        key, val = (part.strip() for part in text.split("=", 1))
        key = key.replace("-", "_")
        if key not in keys:
            raise ParseError(f"unknown {what} key {key!r}", line=ln)
        if key in entries:
            raise ParseError(f"duplicate {what} key {key!r}", line=ln)
        entries[key] = (val, ln)
    return entries


def parse_map_file(path: str):
    """Read a map description file; returns (PrimeContext, RationalMapK)."""
    entries = _read_entries(path, ("p", "n", "k", "num", "den"), "map")
    for req in ("p", "num", "den"):
        if req not in entries:
            raise ParseError(f"missing required key {req!r}")
    ints = {"n": 1, "k": 1}
    for key in ("p", "n", "k"):
        if key in entries:
            val, ln = entries[key]
            try:
                ints[key] = int(val)
            except ValueError:
                raise ParseError(f"not an integer: {val!r}", line=ln,
                                 field=key)
    try:
        ctx = PrimeContext(ints["p"], ints["n"], ints["k"])
    except ValueError as e:
        raise ParseError(f"bad field parameters: {e}")
    coeffs = {}
    for key in ("num", "den"):
        val, ln = entries[key]
        coeffs[key] = [_parse_rational(tok, line=ln, field=key)
                       for tok in val.split(",")]
    try:
        return ctx, normalize(ctx, coeffs["num"], coeffs["den"])
    except CheckFailed:
        raise
    except BerklocusError as e:
        raise ParseError(str(e))


def _config_from_args(args) -> fx.ExploreConfig:
    """The budget: the defaults, then the `BERKLOCUS_CONFIG` file, then the
    command line."""
    config = fx.ExploreConfig()
    path = os.environ.get("BERKLOCUS_CONFIG")
    if path:
        for key, (val, ln) in _read_entries(path, ("n_max", "k_max"),
                                            "config").items():
            try:
                setattr(config, key, int(val, 0))
            except ValueError:
                raise ParseError(f"not an integer: {val!r}", line=ln,
                                 field=key)
    for key in ("n_max", "k_max"):
        if getattr(args, key) is not None:
            setattr(config, key, getattr(args, key))
    return config


# ---------------------------------------------------------------------------
# Rendering helpers (exact rationals throughout)
# ---------------------------------------------------------------------------

def _s_str(s) -> str:
    if s is INF:
        return "+inf"
    if s is NEG_INF:
        return "-inf"
    return str(s)


def _point_dict(pt: TypeIIPoint) -> dict:
    return {"center": repr(pt.center), "s": str(pt.s)}


def _classical_dict(cp) -> dict:
    return {
        "value": cp.describe(),
        "multiplicity": cp.multiplicity,
        "multiplier_valuation": _s_str(cp.multiplier_valuation),
        "multiplier_residue": (repr(cp.multiplier_residue)
                               if cp.multiplier_residue is not None else None),
        "class": cp.klass,
    }


def _direction_dict(t) -> dict:
    return {
        "location": "inf" if isinstance(t.location, Infinity)
                    else repr(t.location),
        "orbit_size": t.orbit_size,
        "multiplicity": t.multiplicity,
        "multiplier": repr(t.multiplier),
        "critically_fixed": t.critically_fixed,
    }


def _local_dict(local) -> dict:
    return {
        "point": _point_dict(local.point),
        "is_fixed": local.is_fixed,
        "class": local.indifference_class,
        "local_degree": local.local_degree,
        "tangent_map": repr(local.reduced_map) if local.reduced_map else None,
        "fixed_directions": [_direction_dict(t)
                             for t in local.fixed_directions()],
        "surplus_total": local.surplus_total(),
        "n_critically_fixed": local.n_cf,
    }


def _component_dict(c) -> dict:
    return {
        "kind": c.kind,
        "classical_multiplicity": c.classical_multiplicity,
        "classical_points": [_classical_dict(cp) for cp in c.classical_points],
        "alpha": c.alpha,
        "repelling_vertices": [
            {"point": _point_dict(pt), "local_degree": deg,
             "n_critically_fixed": ncf}
            for pt, deg, ncf in c.repelling_vertices],
    }


def _dump(out, **doc):
    """Write one JSON document of the report schema."""
    json.dump({"schema": SCHEMA, **doc}, out, indent=2)
    out.write("\n")


def _analysis_dict(a: fx.Analysis) -> dict:
    return {
        "map": repr(a.map),
        "field": {"p": a.map.ctx.p, "n": a.map.ctx.n, "k": a.map.ctx.k},
        "degree": a.map.degree,
        "classical_points": [_classical_dict(cp) for cp in a.classical_points],
        "components": [_component_dict(c) for c in a.components],
        "crucial_points": [
            {"point": _point_dict(cp.point), "weight": cp.weight,
             "fixed": cp.fixed, "detail": {k: str(v) for k, v
                                           in cp.detail.items()}}
            for cp in a.crucial_points],
        "weight_total": a.weight_total,
        "complete_rigorous": a.complete_rigorous,
        "diagnostics": list(a.diagnostics),
    }


def _print_analysis_text(a: fx.Analysis, out):
    ctx = a.map.ctx
    print(f"map: {a.map!r}", file=out)
    print(f"field: E(p={ctx.p}, n={ctx.n}, k={ctx.k})   degree: "
          f"{a.map.degree}", file=out)
    print(f"weight total: {a.weight_total} (degree - 1 = {a.map.degree - 1})"
          f"   complete: {'yes' if a.complete_rigorous else 'NO'}", file=out)
    print("classical fixed points:", file=out)
    for cp in a.classical_points:
        res = f" residue {cp.multiplier_residue!r}" \
            if cp.multiplier_residue is not None else ""
        print(f"  {cp.describe():>24}  mult {cp.multiplicity}  "
              f"val(multiplier) {_s_str(cp.multiplier_valuation)}{res}  "
              f"[{cp.klass}]", file=out)
    print(f"components ({len(a.components)}):", file=out)
    for i, c in enumerate(a.components):
        print(f"  [{i}] {c.kind}: classical multiplicity "
              f"{c.classical_multiplicity}, alpha {c.alpha}", file=out)
        for pt, deg, ncf in c.repelling_vertices:
            print(f"      repelling vertex at {pt!r}: local degree {deg}, "
                  f"{ncf} critically fixed directions", file=out)
    print("crucial points:", file=out)
    for cp in a.crucial_points:
        print(f"  {cp.point!r}  weight {cp.weight}  "
              f"{'fixed' if cp.fixed else 'not fixed'}", file=out)
    for d in a.diagnostics:
        print(f"note: {d}", file=out)


# ---------------------------------------------------------------------------
# Subcommands: each renders the one result `main` built, `(result, args,
# out) -> exit code`
# ---------------------------------------------------------------------------

def cmd_analyze(a: fx.Analysis, args, out) -> int:
    if args.format == "json":
        _dump(out, **_analysis_dict(a))
    else:
        _print_analysis_text(a, out)
    return 0 if a.complete_rigorous else 2


def _point_from_args(ctx, args) -> TypeIIPoint:
    center = ctx.from_rational(_parse_rational(args.center, field="center"))
    s = _parse_rational(args.s, field="s")
    return TypeIIPoint(center, s)


def cmd_reduce_at(local: LocalData, args, out) -> int:
    if args.format == "json":
        _dump(out, local=_local_dict(local))
    else:
        print(f"point: {local.point!r}", file=out)
        print(f"fixed: {'yes' if local.is_fixed else 'no'}   class: "
              f"{local.indifference_class}", file=out)
        print(f"local degree: {local.local_degree}", file=out)
        if local.reduced_map is not None:
            print(f"tangent map: {local.reduced_map!r}", file=out)
        _print_directions(local, out)
    return 0


def _print_directions(local, out):
    dirs = local.fixed_directions()
    if not dirs:
        return
    print("fixed directions of the tangent map:", file=out)
    for t in dirs:
        loc = "oo" if isinstance(t.location, Infinity) else repr(t.location)
        print(f"  at {loc}  orbit size {t.orbit_size}  mult {t.multiplicity}  "
              f"multiplier {t.multiplier!r}"
              f"{'  (critical)' if t.critically_fixed else ''}", file=out)


def cmd_tangent(local: LocalData, args, out) -> int:
    if not local.is_fixed:
        print("point is not fixed; no tangent fixed directions", file=out)
        return 0
    if local.reduced_map is not None:
        print(f"tangent map: {local.reduced_map!r}  "
              f"[{local.indifference_class}]", file=out)
    _print_directions(local, out)
    return 0


def _tree_data(skeleton: fx.SkeletonGraph):
    """Nodes keyed by breakpoint id (`bp.cid`) or `leaf<i>`, and the edges
    between consecutive stops of each ray: the point oo (on the upward ray,
    when it is a classical fixed point), the integral breakpoints (sorted by
    s, and distinct points, since a ray has one center) and the classical
    leaf at its lower end.  An edge carries the behavior of the segment
    that covers it, if one does."""
    nodes = {}
    for cid, (pt, local) in enumerate(skeleton.vertex_points):
        nodes[cid] = {"point": _point_dict(pt), "fixed": local.is_fixed,
                      "class": local.indifference_class}
    inf_idx = None
    for i, leaf in enumerate(skeleton.leaves):
        nodes[f"leaf{i}"] = {"leaf": leaf.describe(), "class": leaf.klass}
        if leaf.is_infinity():
            inf_idx = i
    edges = []
    for ray in skeleton.rays:
        stops = [(bp.cid, bp.s) for bp in ray.breakpoints
                 if bp.cid is not None]
        if ray.to_infinity and inf_idx is not None:
            stops.insert(0, (f"leaf{inf_idx}", NEG_INF))
        if ray.leaf_idx is not None:
            stops.append((f"leaf{ray.leaf_idx}", INF))
        for (a, s_a), (b, s_b) in zip(stops, stops[1:]):
            behavior = None
            for seg in ray.segments:
                if seg.s_lo <= s_a and s_b <= seg.s_hi:
                    behavior = seg.behavior
            edges.append((a, b, _s_str(s_a), _s_str(s_b), behavior))
    return nodes, edges


def cmd_tree(analysis: fx.Analysis, args, out) -> int:
    skeleton = analysis.skeleton
    nodes, edges = _tree_data(skeleton)
    if args.format == "json":
        _dump(out, nodes={str(k): v for k, v in nodes.items()},
              edges=[{"from": str(a), "to": str(b), "s_from": lo,
                      "s_to": hi, "behavior": bh}
                     for a, b, lo, hi, bh in edges])
    elif args.format == "dot":
        print("graph fixlocus {", file=out)
        print('  node [shape=ellipse];', file=out)
        for k, v in nodes.items():
            if "leaf" in v:
                label = f"{v['leaf']}\\n[{v['class']}]"
                print(f'  "{k}" [shape=box, label="{label}"];', file=out)
            else:
                pt = v["point"]
                label = f"zeta({pt['center']}, {pt['s']})\\n[{v['class']}]"
                style = ', style=filled, fillcolor=lightgray' \
                    if v["fixed"] else ""
                print(f'  "{k}" [label="{label}"{style}];', file=out)
        for a, b, lo, hi, bh in edges:
            lab = f"s in ({lo}, {hi})" + (f"\\n{bh}" if bh else "")
            print(f'  "{a}" -- "{b}" [label="{lab}"];', file=out)
        print("}", file=out)
    else:
        print(f"skeleton: {len(skeleton.leaves)} classical leaves, "
              f"{len(skeleton.rays)} rays", file=out)
        for k, v in nodes.items():
            if "leaf" in v:
                print(f"  node {k}: classical {v['leaf']} [{v['class']}]",
                      file=out)
            else:
                pt = v["point"]
                print(f"  node {k}: zeta({pt['center']}, s={pt['s']}) "
                      f"[{v['class']}]", file=out)
        for a, b, lo, hi, bh in edges:
            tag = f" ({bh})" if bh else ""
            print(f"  edge {a} -- {b}: s in ({lo}, {hi}){tag}", file=out)
    return 0


def cmd_weights(a: fx.Analysis, args, out) -> int:
    if args.format == "json":
        _dump(out, weights=[{"point": _point_dict(cp.point),
                             "weight": cp.weight, "fixed": cp.fixed}
                            for cp in a.crucial_points],
              total=a.weight_total, degree=a.map.degree)
    else:
        for cp in a.crucial_points:
            print(f"  {cp.point!r}  weight {cp.weight}", file=out)
        print(f"total: {a.weight_total}   degree - 1 = {a.map.degree - 1}",
              file=out)
    return 0 if a.complete_rigorous else 2


def _passes(check, arg, verdict=True) -> bool:
    """Whether check(arg) passes: False when it raises CheckFailed, else its
    bool result, or True for a check whose result is not a verdict (a
    count, or whether the locus is connected) and which fails by raising."""
    try:
        result = check(arg)
    except CheckFailed:
        return False
    return result if verdict else True


def cmd_verify(a: fx.Analysis, args, out) -> int:
    d = a.map.degree
    checks = [("weight formula (total == degree - 1)",
               a.weight_total == d - 1)]
    for i, c in enumerate(a.components):
        if c.kind != fx.KIND_CLASSICAL:
            checks.append((f"component {i} counting formula",
                           _passes(fx.theorem_a_count, c, verdict=False)))
        if c.kind == fx.KIND_HYPERBOLIC:
            checks.append((f"component {i} hyperbolic structure",
                           fx.hyperbolic_checks(c)))
        if c.kind == fx.KIND_INDIFFERENT:
            checks.append((f"component {i} indifferent structure",
                           fx.indifferent_checks(c)))
    if d >= 2:
        checks.append(("connectedness criterion",
                       _passes(fx.connectedness_check, a, verdict=False)))
        checks.append(("repelling-vertex sum rule", fx.alpha_sum_check(a)))
    checks.append(("multiplier reciprocity along fixed segments",
                   _passes(fx.multiplier_reciprocity_check, a)))
    checks.append(("identification of classical points by direction",
                   _passes(fx.identification_check, a)))
    for name, passed in checks:
        print(f"[{'ok' if passed else 'FAIL'}] {name}", file=out)
    if not a.complete_rigorous:
        return 2
    return 0 if all(passed for _, passed in checks) else 3


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A usage error is malformed input: exit 1, not argparse's 2, which the
    exit-code contract keeps for the budget.  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# name -> (renderer, help, --format choices or None, reads a disk point);
# a subcommand at a disk point renders `reduce_at` there, in the tower
# `fixlocus.in_tower` grows, any other one renders `fixlocus.analyze`
SUBCOMMANDS = {
    "analyze": (cmd_analyze, "full fixed-locus certificate",
                ("text", "json"), False),
    "reduce-at": (cmd_reduce_at, "local data at one disk point",
                  ("text", "json"), True),
    "tangent": (cmd_tangent, "tangent-map fixed directions", None, True),
    "tree": (cmd_tree, "annotated skeleton of the fixed locus",
             ("text", "json", "dot"), False),
    "weights": (cmd_weights, "crucial points and their weights",
                ("text", "json"), False),
    "verify": (cmd_verify, "run the global structure checks", None, False),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="berklocus",
        description="Exact fixed-locus certificates for rational maps over "
                    "p-adic fields on the Berkovich projective line.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (render, help_, formats, at_point) in SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--input", required=True, help="map description file")
        sp.add_argument("--n-max", type=int, dest="n_max")
        sp.add_argument("--k-max", type=int, dest="k_max")
        if at_point:
            sp.add_argument("--center", required=True,
                            help="rational center of the disk point")
            sp.add_argument("--s", required=True,
                            help="rational radius parameter (radius p^-s)")
        if formats:
            sp.add_argument("--format", choices=formats, default=formats[0])
        sp.set_defaults(render=render, at_point=at_point)
    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    args = _build_parser().parse_args(argv)
    try:
        _, f = parse_map_file(args.input)
        config = _config_from_args(args)
        if args.at_point:
            result = fx.in_tower(f, config, lambda g, _: reduce_at(
                g, _point_from_args(g.ctx, args)))
        else:
            result = fx.analyze(f, config)
        return args.render(result, args, out)
    except IdentityMap:
        print("error: the identity map fixes the whole line; "
              "there is nothing to analyze", file=sys.stderr)
        return 1
    except NeedsExtension as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CheckFailed as e:  # an exactness check of the engine failed
        print(f"internal error: {e!r}", file=sys.stderr)
        return 3
    except BerklocusError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # an internal bug
        print(f"internal error: {e!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
