"""The entry points that the benchmark's tracer binds by name
(perfbench/spans.py) exist in the package, so a refactor that renames or
drops one fails here, in the tier-1 suite.  The file is only read."""

import ast
import importlib
import os

SPANS_PY = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                        "spans.py")


def _table(name):
    with open(SPANS_PY) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(name)


def test_every_traced_name_resolves():
    entries = _table("SPANS") + _table("COUNTERS")
    assert entries
    for modname, attr, _ in entries:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (modname, attr)
