#!/usr/bin/env python3
"""List the engine lines that no tier-1 test reaches.

Runs the tier-1 suite (`tests/`) in this process through `pytest.main`,
under a `sys.settrace` line tracer, and compares the lines it saw run with
the executable lines of `src/berklocus`.  A line is executable when it
appears in `co_lines()` of a function, lambda or comprehension code object
of a module there, other than that code object's first line (the `def`);
module and class bodies run at import and are left out.  Tests that start
a subprocess (the `python -O` checks) are not seen.  Standard library only,
besides pytest.  Usage, from the root of a checkout (it traces the package
under `src/` next to this script):

    python3 scripts/linecov.py > scripts/linecov.txt

The output lists each unreached line as `<module>:<line>  <source>`, module
by module, then one `<count>  <module>` row per module and the total last.
pytest's own report goes to standard error, and the exit code is pytest's.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "berklocus")


def executable_lines(path: str) -> set:
    with open(path) as fh:
        module = compile(fh.read(), path, "exec")
    lines = set()
    todo = [module]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if inspect.iscode(c)]
        if code.co_flags & inspect.CO_NEWLOCALS:  # not a module or class body
            lines.update(ln for _, _, ln in code.co_lines()
                         if ln is not None and ln != code.co_firstlineno)
    return lines


def traced_run(paths) -> tuple:
    """(pytest exit code, {path: set of lines run}) for tier-1."""
    hits = {path: set() for path in paths}

    def trace(frame, event, arg):
        seen = hits.get(frame.f_code.co_filename)
        if seen is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return line
        return line

    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    import pytest
    with contextlib.redirect_stdout(sys.stderr):
        sys.settrace(trace)
        try:
            code = pytest.main(["-q", "--continue-on-collection-errors",
                                "-p", "no:cacheprovider", "tests"])
        finally:
            sys.settrace(None)
    return int(code), hits


def main() -> int:
    paths = sorted(os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE)
                   if name.endswith(".py"))
    code, hits = traced_run(paths)
    rows, total = [], 0
    for path in paths:
        name = os.path.basename(path)
        missed = sorted(executable_lines(path) - hits[path])
        with open(path) as fh:
            source = fh.read().splitlines()
        for ln in missed:
            print(f"{name}:{ln}  {source[ln - 1].strip()}")
        if missed:
            rows.append(f"{len(missed):5d}  {name[:-3]}")
            total += len(missed)
    print("\n".join(rows))
    print(f"{total:5d}  total")
    return code


if __name__ == "__main__":
    sys.exit(main())
