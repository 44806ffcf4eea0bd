"""Code lines of Python modules, by one rule.

A line counts when it holds a token other than a comment or a newline (a
token that spans lines, such as a triple-quoted string, holds each of its
lines), and the lines of docstring statements (the leading string of a
module, class or function) do not count. Blank lines, comment lines and
docstrings are therefore free, and a multi-line call counts every line.

    python tools/code_lines.py                  # the modules of src/ppmoments
    python tools/code_lines.py path/to/a.py dir

prints one line per module, `count path`, then `total`, with the sum. A
directory stands for the *.py files directly in it.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

DEFAULT = Path(__file__).resolve().parents[1] / "src" / "ppmoments"

# tokens that hold no code: comments, newlines and the layout markers
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of a module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("paths", nargs="*", type=Path, default=[DEFAULT],
                        help="modules or directories of modules (default: src/ppmoments)")
    args = parser.parse_args(argv)
    total = 0
    for path in args.paths:
        for module in sorted(path.glob("*.py")) if path.is_dir() else [path]:
            count = code_lines(module.read_text(encoding="utf-8"))
            total += count
            print(count, module)
    print(total, "total")


if __name__ == "__main__":
    main()
