"""The names of the package that the benchmark and the scripts use exist,
so a refactor that renames or drops one fails here, in the tier-1 suite:
the entry points that the benchmark's tracer binds by name
(perfbench/spans.py), and every berklocus name that perfbench/*.py and
scripts/*.py import or read off an imported berklocus module.  Those files
are only read, with `ast`."""

import ast
import glob
import importlib
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")
SPANS_PY = os.path.join(ROOT, "perfbench", "spans.py")
CONSUMERS = sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py")) +
                   glob.glob(os.path.join(ROOT, "scripts", "*.py")))


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


def _is_berklocus(module):
    return module is not None and module.split(".")[0] == "berklocus"


def _used_names(path):
    """The dotted berklocus names the file at `path` uses: each module or
    name it imports, and each attribute it reads off a name bound to an
    import from berklocus or off `sys.modules["berklocus..."]`."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    bound, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_berklocus(node.module):
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                used.add(name)
                bound[alias.asname or alias.name] = name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_berklocus(alias.name):
                    used.add(alias.name)
                    top = alias.asname or alias.name.split(".")[0]
                    bound[top] = alias.name if alias.asname else top
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in bound:
            used.add(f"{bound[owner.id]}.{node.attr}")
        elif isinstance(owner, ast.Subscript) and \
                isinstance(owner.slice, ast.Constant) and \
                _is_berklocus(str(owner.slice.value)):
            used.add(f"{owner.slice.value}.{node.attr}")
    return used


def _resolves(dotted):
    parts = dotted.split(".")
    owner = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if not hasattr(owner, part):
            try:  # a submodule that nothing has imported yet
                importlib.import_module(".".join(parts[:i]))
            except ImportError:
                return False
        owner = getattr(owner, part)
    return True


def test_every_name_the_benchmark_and_scripts_use_resolves():
    used = {(os.path.relpath(path, ROOT), name)
            for path in CONSUMERS for name in _used_names(path)}
    names = {name for _, name in used}
    # a collector that found nothing would pass vacuously: at this writing
    # the files use 36 distinct names
    assert len(names) > 30 and "berklocus.fixlocus.analyze" in names
    assert sorted(u for u in used if not _resolves(u[1])) == []
