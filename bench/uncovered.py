"""The library's code statements that a pytest run never executes.

    python3 bench/uncovered.py [PYTEST_ARGS]

Run from the root of a checkout. Runs pytest in this process on
PYTEST_ARGS (none: the suite as ``pyproject.toml`` configures it) under a
``sys.settrace`` line tracer that traces only code under ``src/siggate``,
then prints each statement of its modules that never ran, as
``module:line: source`` (its first line), and the count per module. A
statement is listed when its first line is code as ``bench/loc.py`` counts
it (so docstrings are not) and none of the lines it owns that carry
bytecode ran: a simple statement owns all its lines, a compound one (``if``,
``for``, ``def``, ...) the lines of its header, decorators included. Exits
with pytest's exit code. Standard library only.

The tracer sees this process alone: a statement that runs only in a child
process (the cold-start subprocesses, the ``--parallel`` pool workers) is
listed as never run, and so is a line of a module that was imported
before the tracer started.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from loc import line_kinds  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "siggate"


@contextmanager
def tracing(root):
    """Record, in the yielded dict (resolved file name -> line numbers), each
    line that runs in a file under ``root``, in this thread and in threads
    started inside the block."""
    root, ran, files = Path(root).resolve(), defaultdict(set), {}

    def local(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = Path(name).resolve()
            files[name] = ran[str(path)] if path.is_relative_to(root) else None
        return local if files[name] is not None else None

    previous = sys.gettrace()
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        yield ran
    finally:
        sys.settrace(previous)
        threading.settrace(previous)


def _bytecode_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _bytecode_lines(const)
    return lines


def never_run(path, ran) -> list[tuple[int, str]]:
    """``(line, source)`` of each code statement of the module at ``path`` none
    of whose own bytecode lines is in ``ran``, in line order."""
    source = Path(path).read_text(encoding="utf-8")
    text, kinds = source.splitlines(), line_kinds(source)
    executable = _bytecode_lines(compile(source, str(path), "exec"))
    listed = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or kinds[node.lineno - 1] != "code":
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        owned = executable.intersection(range(first, last + 1))
        if owned and not owned & ran:
            listed.append((node.lineno, text[node.lineno - 1].strip()))
    return sorted(listed)


def report(root, ran) -> list[str]:
    """The listing of each ``*.py`` module of ``root`` by name, then a count
    per module and in total."""
    listing, counts = [], {}
    for path in sorted(Path(root).glob("*.py")):
        found = never_run(path, ran.get(str(path.resolve()), set()))
        listing += [f"{path.name}:{line}: {source}" for line, source in found]
        counts[path.name] = len(found)
    width = max(map(len, [*counts, "total"]))
    table = [f"{name:<{width}}  {count:>5,}" for name, count in counts.items()]
    return listing + [f"{'module':<{width}}  never run"] + table \
        + [f"{'total':<{width}}  {sum(counts.values()):>5,}"]


def main(argv=None) -> int:
    import pytest

    args = sys.argv[1:] if argv is None else argv
    with tracing(LIBRARY) as ran:
        code = pytest.main(list(args))
    print("\n".join(report(LIBRARY, ran)))
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
