"""Count code lines per module: lines that are not blank, not comments and
not docstrings.

Usage: python3 scripts/code_lines.py

Counts every ``*.py`` module of the package under ``src/trajmem`` and prints
one line per module and a total.
A line counts when some token other than a comment, a line break or an
indent touches it, and no docstring (the leading string of a module, class
or function) covers it.
"""

from __future__ import annotations

import ast
import os
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trajmem"


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in one Python file."""
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(source, str(path)))
    lines: set[int] = set()
    with open(path, "rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in _LAYOUT:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main() -> int:
    counts = [
        (os.path.relpath(module), code_lines(module))
        for module in sorted(_PACKAGE.rglob("*.py"))
    ]
    width = max((len(name) for name, _ in counts), default=5)
    for name, count in counts:
        print(f"{name:<{width}}  {count:>6}")
    print(f"{'total':<{width}}  {sum(count for _, count in counts):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
