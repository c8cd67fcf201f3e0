"""Code-only line counts of Python modules: each module's lines, less its
blank lines, comment lines and docstrings.

    python3 scripts/code_lines.py                 # src/smfilter/*.py
    python3 scripts/code_lines.py path/to/mod.py ...

A line counts when it holds a token of code: a line inside a multi-line
expression or string literal counts, a line holding only a comment does
not.  A docstring is the string expression that opens a module, class or
function body (found with ast), and all of its lines are left out.  Prints
one row per module, as `wc -l` does, with the total last.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    paths = [Path(p) for p in (sys.argv[1:] if argv is None else argv)]
    names = [str(p) for p in paths]
    if not paths:  # the package, named from the repository root
        root = Path(__file__).resolve().parent.parent
        paths = sorted(root.glob("src/smfilter/*.py"))
        names = [str(p.relative_to(root)) for p in paths]
    counts = [code_lines(p.read_text()) for p in paths]
    for name, count in zip(names, counts):
        print(f"{count:7d} {name}")
    print(f"{sum(counts):7d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
