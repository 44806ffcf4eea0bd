"""tools/code_lines.py: the one rule by which code lines are counted."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# 10 code lines, each marked; the docstrings, comments and blank lines are free
FIXTURE = '''"""Module docstring,
over two lines."""

import math  # 1, with a comment after the code

# a comment line


class Shape:  # 2
    """Class docstring."""

    sides = 4  # 3

    def area(self, width):  # 4
        """Function
        docstring."""
        label = """a string that is
        not a docstring"""  # 5 and 6
        return math.prod(  # 7
            [width,  # 8
             # a comment inside a call
             width],  # 9
        )  # 10
'''


def test_counts_code_lines_and_skips_docstrings_comments_and_blanks():
    assert code_lines.code_lines(FIXTURE) == 10
    assert code_lines.code_lines("") == 0
    # a string statement after the first is not a docstring
    assert code_lines.code_lines('def f():\n    """doc"""\n    "kept"\n') == 2


def test_prints_per_module_counts_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("y = 2\n")
    code_lines.main([str(tmp_path), str(tmp_path / "b.py")])
    assert capsys.readouterr().out.splitlines() == [
        f"10 {tmp_path / 'a.py'}",
        f"1 {tmp_path / 'b.py'}",
        f"1 {tmp_path / 'b.py'}",
        "12 total",
    ]
