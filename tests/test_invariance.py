"""The certificate does not depend on the coordinate or on the starting
tower: a metamorphic check of the whole pipeline.

Conjugating a map by a Möbius transformation over the base field moves its
fixed locus by an isometry of the Berkovich line, and embedding the map into
a larger tower before `analyze` changes only where the retries start.
Neither can change the shape of the certificate, so its signature is
compared across these variants of each map:

- the map itself, over Q_p;
- conjugated by z -> z + 1, by z -> z + 1/p and by z -> 1/z;
- embedded into E(p, 2, 1) before `analyze`.

The signature is, per component and sorted, the kind, the classical
multiplicity, alpha and the number of repelling vertices; then the weight
total, the completeness flag and the sorted crucial weights.

The inputs are 40 tame split maps (`random.Random(3)`, p in {5, 7, 11},
degree 2-4) and the maps of the benchmark's wild draw (the first 60 over
p = 2, 3 of `random.Random(1)`, drawn by `wild_map_spec` from
perfbench/workloads.py, which is only read) whose analysis returns at the
acceptance budget.  Wild maps 17 and 35 are pinned as known differences of
the E(2, 2, 1) start: from Q_2 they stop incomplete at E(2, 3, 2) with a
critical cluster stubbed at a wild radius, and from E(2, 2, 1) they certify.
"""

import importlib.util
import os
import random
from fractions import Fraction

from berklocus import fixlocus as fx
from berklocus.berkmap import embed_map
from berklocus.errors import NeedsExtension

from conftest import mk, random_split_map

CONFIG = fx.ExploreConfig(n_max=24, k_max=4)
# wild maps whose E(2, 2, 1) start certifies where the Q_2 start is
# incomplete, until the wild stub rule requests its extension once
START_DIFFERS = {17, 35}


def _workloads():
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                        "workloads.py")
    spec = importlib.util.spec_from_file_location("workloads", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def signature(a: fx.Analysis) -> tuple:
    components = sorted((c.kind, c.classical_multiplicity, c.alpha,
                         len(c.repelling_vertices)) for c in a.components)
    return (tuple(components), a.weight_total, a.complete_rigorous,
            tuple(sorted(cp.weight for cp in a.crucial_points)))


def variants(f) -> dict:
    """The three conjugates of a map over Q_p and its E(p, 2, 1) start."""
    ctx = f.ctx
    return {"z + 1": f.conjugate_affine(ctx.one, ctx.one),
            "z + 1/p": f.conjugate_affine(
                ctx.one, ctx.from_rational(Fraction(1, ctx.p))),
            "1/z": f.flip(),
            "E(p, 2, 1)": embed_map(f, ctx.extend(n=2))}


def differences(f, own: tuple) -> list:
    """The variants of f whose signature differs from `own`, f's own."""
    return sorted(name for name, g in variants(f).items()
                  if signature(fx.analyze(g, CONFIG)) != own)


def test_tame_certificates_are_invariant():
    rng = random.Random(3)
    for i in range(40):
        p, d = rng.choice([5, 7, 11]), rng.randint(2, 4)
        f = random_split_map(rng, p, d)
        assert differences(f, signature(fx.analyze(f, CONFIG))) == [], i


def test_wild_certificates_are_invariant():
    workloads = _workloads()
    rng = random.Random(workloads.WILD_DRAW_SEED)
    returned = 0
    for i in range(workloads.WILD_MAPS):
        p, _, num, den = workloads.wild_map_spec(rng)
        f = mk(p, num, den)
        try:
            own = signature(fx.analyze(f, CONFIG))
        except NeedsExtension:
            continue
        returned += 1
        expected = ["E(p, 2, 1)"] if i in START_DIFFERS else []
        assert differences(f, own) == expected, i
    assert returned == 44
