#!/usr/bin/env python3
"""Count code lines per module of `src/berklocus`.

A code line is a physical line that holds at least one token of code.
Comments, blank lines and docstrings do not count; a docstring is a logical
line that consists of string literals only.  Usage, from the root of a
checkout:

    python3 scripts/loc.py

It prints one `<lines>  <module>` row per module and the total last.
"""

from __future__ import annotations

import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "berklocus")
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: str) -> int:
    lines = set()
    logical = []  # the code tokens of the current logical line
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in LAYOUT:
                logical.append(tok)
            elif tok.type == tokenize.NEWLINE:
                if any(t.type != tokenize.STRING for t in logical):
                    for t in logical:
                        lines.update(range(t.start[0], t.end[0] + 1))
                logical = []
    return len(lines)


def main() -> int:
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            n = code_lines(os.path.join(PACKAGE, name))
            total += n
            print(f"{n:6d}  {name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
