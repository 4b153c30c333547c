"""The never-run listing (``bench/uncovered.py``) on a small fixture module."""

import importlib.util
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_uncovered",
                                               ROOT / "bench" / "uncovered.py")
uncovered = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(uncovered)

FIXTURE = '''"""A module docstring: never listed."""

import functools


def pick(flag):
    """A function docstring: never listed."""
    if flag:
        return "yes"
    raise ValueError(
        "no")


@functools.cache
def unused(x):
    try:
        return [y
                for y in x]
    finally:
        pass


def threaded():
    return 1
'''


def _run_fixture(tmp_path, calls):
    """Import the fixture from ``tmp_path`` under the tracer, run ``calls(module)``,
    and return the recorded lines."""
    (tmp_path / "fixture.py").write_text(FIXTURE)
    sys.path.insert(0, str(tmp_path))
    try:
        with uncovered.tracing(tmp_path) as ran:
            spec = importlib.util.spec_from_file_location("fixture", tmp_path / "fixture.py")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            calls(module)
    finally:
        sys.path.remove(str(tmp_path))
    return ran


def test_lists_each_code_statement_that_never_ran(tmp_path):
    ran = _run_fixture(tmp_path, lambda module: module.pick(True))
    lines = ran[str((tmp_path / "fixture.py").resolve())]
    assert uncovered.never_run(tmp_path / "fixture.py", lines) == [
        (10, "raise ValueError("),
        (16, "try:"),
        (17, "return [y"),
        (20, "pass"),
        (24, "return 1"),
    ]


def test_a_statement_run_in_a_thread_started_under_the_tracer_counts(tmp_path):
    def calls(module):
        module.pick(True)
        worker = threading.Thread(target=module.threaded)
        worker.start()
        worker.join()

    ran = _run_fixture(tmp_path, calls)
    lines = ran[str((tmp_path / "fixture.py").resolve())]
    assert (24, "return 1") not in uncovered.never_run(tmp_path / "fixture.py", lines)


def test_nothing_ran_lists_every_code_statement_once(tmp_path):
    (tmp_path / "fixture.py").write_text(FIXTURE)
    listed = uncovered.never_run(tmp_path / "fixture.py", set())
    assert [line for line, _ in listed] == [3, 6, 8, 9, 10, 15, 16, 17, 20, 23, 24]


def test_report_lists_each_module_then_counts(tmp_path):
    # Only the import runs: the definitions and the import statement.
    ran = _run_fixture(tmp_path, lambda module: None)
    (tmp_path / "b.py").write_text("x = 1\n")
    rows = uncovered.report(tmp_path, ran)
    assert rows[:3] == ["b.py:1: x = 1", "fixture.py:8: if flag:", "fixture.py:9: return \"yes\""]
    assert len(rows) == 1 + 7 + 4
    assert [row.split() for row in rows[-4:]] == [["module", "never", "run"], ["b.py", "1"],
                                                  ["fixture.py", "7"], ["total", "8"]]
