"""Line counts of the library's modules, by kind of line.

    python3 bench/loc.py [DIR]

Run from the root of a checkout; DIR defaults to ``src/siggate``. Prints,
per module (``*.py`` of DIR, by name) and in total: lines, code, docstring,
comment and blank. A line inside a docstring (the string that is the first
statement of a module, class or function) counts as docstring. Any other
line counts as blank when it holds only whitespace, as comment when it
starts with ``#`` after its indentation, and as code otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("lines", "code", "docstring", "comment", "blank")


def line_kinds(source: str) -> list[str]:
    """The kind of each line of the module ``source`` (one of :data:`KINDS`
    but ``lines``), in order."""
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    kinds = []
    for number, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        kinds.append("docstring" if number in docstring else "blank" if not stripped
                     else "comment" if stripped.startswith("#") else "code")
    return kinds


def count_lines(source: str) -> dict[str, int]:
    """The count of each of :data:`KINDS` in the module ``source``."""
    kinds = line_kinds(source)
    return {"lines": len(kinds), **{kind: kinds.count(kind) for kind in KINDS[1:]}}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else "src/siggate")
    paths = sorted(root.glob("*.py"))
    if not paths:
        print(f"error: no *.py in {root}", file=sys.stderr)
        return 2
    total = dict.fromkeys(KINDS, 0)
    width = max(len(p.name) for p in paths)
    print(f"{'module':<{width}}  " + "  ".join(f"{k:>9}" for k in KINDS))
    for path in paths:
        counts = count_lines(path.read_text(encoding="utf-8"))
        print(f"{path.name:<{width}}  " + "  ".join(f"{counts[k]:>9,}" for k in KINDS))
        for kind in KINDS:
            total[kind] += counts[kind]
    print(f"{'total':<{width}}  " + "  ".join(f"{total[k]:>9,}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
