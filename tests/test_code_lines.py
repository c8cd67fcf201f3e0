"""scripts/code_lines.py counts the lines of a module that hold code: not
blank lines, comment lines or docstrings.  Checked on a small synthetic
module, importing the script by path."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import code_lines  # noqa: E402

MODULE = '''"""A module docstring
over two lines."""

import math  # a trailing comment leaves its line counted

# A comment line.


class Box:
    """One line."""

    side: float = 1.0

    def area(self):
        """Two
        lines."""
        text = """a string literal
        that is code"""
        return (self.side
                # a comment inside an expression
                * self.side)


def volume(x):
    return math.pow(x, 3)
'''


def test_counts_only_code_lines():
    # import, class, side, def area, text (2 lines), return (2 lines: not
    # the comment between them), def volume, return.
    assert code_lines.code_lines(MODULE) == 10


def test_main_prints_a_row_per_module_and_the_total(tmp_path, capsys):
    path = tmp_path / "m.py"
    path.write_text(MODULE)
    assert code_lines.main([str(path), str(path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows == [f"     10 {path}", f"     10 {path}", "     20 total"]
