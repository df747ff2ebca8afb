"""Print the code lines of each ``src/qsat`` module and their total, then
the total of ``tests/*.py``, so that code moved from the program into the
tests shows as a move rather than as a reduction.

A code line is a line that holds some code: not blank, not only a comment,
and not part of a docstring (the string that opens a module, class or
function body).

    python3 tools/code_lines.py [CHECKOUT]

CHECKOUT defaults to the checkout holding this script.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the module's, classes' and functions' docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that hold a token other than a
    comment, outside its docstrings."""
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    ignored = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
               tokenize.DEDENT, tokenize.ENDMARKER)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in ignored:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    total = 0
    for path in sorted((root / "src" / "qsat").glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    tests = sum(code_lines(path.read_text(encoding="utf-8"))
                for path in (root / "tests").glob("*.py"))
    print(f"{tests:6d}  tests/*.py total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
