"""The line counter (``bench/loc.py``) on a small fixture module."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_loc", ROOT / "bench" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

FIXTURE = '''"""A module docstring
over two lines."""

import os  # a trailing comment is code

# a comment
    # an indented comment


class Box:
    """One line."""

    def size(self):
        """A method docstring

        # not a comment: inside the docstring
        """
        text = """a string that is
not a docstring"""
        return len(text)


async def fetch():
    x = 1
    "a string, but not the first statement"
    return x
'''


def test_each_kind_is_counted_and_they_sum_to_the_lines():
    counts = loc.count_lines(FIXTURE)
    assert counts == {"lines": 26, "code": 10, "docstring": 7, "comment": 2, "blank": 7}
    assert sum(counts[kind] for kind in loc.KINDS[1:]) == counts["lines"] \
        == len(FIXTURE.splitlines())


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert loc.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", *loc.KINDS], ["a.py", "26", "10", "7", "2", "7"],
                    ["b.py", "3", "1", "0", "1", "1"], ["total", "29", "11", "7", "3", "8"]]


def test_a_directory_without_modules_is_an_error(tmp_path, capsys):
    assert loc.main([str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: no *.py in {tmp_path}\n"
