"""tools/code_lines.py on snippets."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from code_lines import code_lines, main  # noqa: E402

SNIPPET = '''"""A module docstring
over two lines."""

import math  # a comment after code


# a comment alone
def f(x):
    """A function docstring."""
    return math.hypot(x,
                      1.0)


class C:
    """A class docstring,
    over two lines."""
    label = """a string that is not a docstring,
    over two lines"""
'''


def test_counts_the_lines_that_hold_code():
    # import, def, the two lines of the return, class, the two of label
    assert code_lines(SNIPPET) == 7


def test_no_code():
    assert code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
    assert code_lines("") == 0


def test_prints_each_file_and_the_total(tmp_path, capsys):
    paths = [tmp_path / "a.py", tmp_path / "b.py"]
    paths[0].write_text(SNIPPET)
    paths[1].write_text("x = 1\n")
    assert main([str(p) for p in paths]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     7 {paths[0]}", f"     1 {paths[1]}", "     8 total"]
