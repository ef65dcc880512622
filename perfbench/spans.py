"""Span tracing of berklocus, done from outside the package.

`Tracer.install()` replaces the entry points listed in SPANS and COUNTERS
with wrappers.  A module that imported a function by name (``from .berkmap
import reduce_at``) holds its own binding, so every ``berklocus.*`` module
attribute bound to the original object is replaced, not only the one in the
defining module.  Methods are patched on their class.

Each wrapped call appends a span (name, start, end, parent) to flat arrays;
a layer's self time is the sum over its spans of the duration minus the
durations of the spans directly below it.  Counters only count calls.  The
harness installs the tracer around each timed operation and removes it
before the checks, so the checks' own calls into the package (the oracles)
are neither counted nor timed.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

# (module, attribute or Class.method, stage name).  Stage names follow the
# pipeline stages, not private function names; README.md maps them back.
SPANS = [
    ("berklocus.fixlocus", "analyze", "fixlocus.analyze"),
    ("berklocus.fixlocus", "_analyze_once", "fixlocus.attempt"),
    ("berklocus.fixlocus", "gamma_fix", "fixlocus.skeleton"),
    ("berklocus.fixlocus", "classical_fixed_points", "fixlocus.classical"),
    ("berklocus.fixlocus", "_critical_point_handles", "fixlocus.critical"),
    ("berklocus.fixlocus", "_ray_lines_at", "fixlocus.ray_lines"),
    ("berklocus.fixlocus", "_assemble", "fixlocus.assembly"),
    ("berklocus.fixlocus", "crucial_weights_from", "fixlocus.assembly"),
    ("berklocus.berkmap", "reduce_at", "berkmap.reduce_at"),
    ("berklocus.residue", "factor", "residue.factor"),
    ("berklocus.residue", "find_irreducible", "residue.find_irreducible"),
    ("berklocus.roots", "isolate_roots", "roots.isolate"),
    ("berklocus.roots", "_rational_split", "roots.rational_split"),
    ("berklocus.epoly", "newton_polygon", "epoly.newton_polygon"),
    ("berklocus.cli", "main", "cli"),
]

COUNTERS = [
    ("berklocus.berkmap", "RationalMapK.conjugate_affine",
     "berkmap.conjugate_affine.calls"),
    ("berklocus.residue", "FqElement.__init__", "residue.elements"),
    ("berklocus.field", "FieldElement.__init__", "field.elements"),
    ("berklocus.field", "PrimeContext.extend", "field.extend.calls"),
    ("berklocus.roots", "RootHandle.refine", "roots.refinements"),
]

OP = "op"  # root span of one timed operation, opened by the harness


def _resolve(modname, attr):
    owner = sys.modules[modname]
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr, getattr(owner, attr)


class Tracer:
    def __init__(self):
        self.names = [OP]
        self._name_id = {OP: 0}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.ok = array("b")  # 0 when the call raised
        self.counts = Counter()
        self.reductions = []  # (op index, ctx, point) per reduce_at call
        self.cli_argv = {}  # span index -> argv of a cli.main call
        self._stack = [-1]
        self._bindings = None

    # -- spans ------------------------------------------------------------

    def _nid(self, name):
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _open(self, nid):
        idx = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.ok.append(1)
        self._stack.append(idx)
        return idx

    def _close(self, idx, ok=True):
        self.end[idx] = time.perf_counter()
        if not ok:
            self.ok[idx] = 0
        self._stack.pop()

    def open_op(self):
        return self._open(0)

    def close_op(self, idx):
        self._close(idx)

    def _span_wrapper(self, fn, stage):
        nid = self._nid(stage)
        tracer = self
        on_call = on_return = None
        if stage == "berkmap.reduce_at":
            def on_call(idx, a):  # (f, x): the map's field and the point
                tracer.reductions.append((tracer._current_op(), a[0].ctx,
                                          a[1]))
        elif stage == "cli":
            def on_call(idx, a):
                tracer.cli_argv[idx] = list(a[0] if a and a[0] else [])
        elif stage == "roots.isolate":
            stub = sys.modules["berklocus.roots"].ClusterStub

            def on_return(out):
                tracer.counts["roots.cluster_stubs"] += sum(
                    isinstance(h, stub) for h in out)

        def wrapper(*a, **kw):
            idx = tracer._open(nid)
            ok = False
            try:
                if on_call is not None:
                    on_call(idx, a)
                out = fn(*a, **kw)
                ok = True
                if on_return is not None:
                    on_return(out)
                return out
            finally:
                tracer._close(idx, ok)
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, key):
        counts = self.counts

        def wrapper(*a, **kw):
            counts[key] += 1
            return fn(*a, **kw)
        wrapper.__wrapped__ = fn
        return wrapper

    def _current_op(self):
        idx = self._stack[-1]
        while idx >= 0 and self.name[idx] != 0:
            idx = self.parent[idx]
        return idx

    # -- installation -----------------------------------------------------

    def _collect(self):
        """(owner, attribute, original, wrapper) for every binding."""
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "berklocus" or name.startswith("berklocus.")]
        out = []
        for modname, attr, stage in SPANS:
            owner, name, orig = _resolve(modname, attr)
            wrapper = self._span_wrapper(orig, stage)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        out.append((mod, key, orig, wrapper))
        for modname, attr, key in COUNTERS:
            owner, name, orig = _resolve(modname, attr)
            out.append((owner, name, orig, self._count_wrapper(orig, key)))
        return out

    def install(self):
        if self._bindings is None:
            self._bindings = self._collect()
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig, _ in self._bindings:
            setattr(owner, attr, orig)

    def bindings(self):
        """(owner name, attribute) of every patched binding."""
        if self._bindings is None:
            self._bindings = self._collect()
        return [(getattr(o, "__name__", repr(o)), a)
                for o, a, _, _ in self._bindings]

    # -- summaries --------------------------------------------------------

    def self_times(self):
        """Per span: its duration minus its direct children's durations."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        own = list(dur)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= dur[i]
        return dur, own
