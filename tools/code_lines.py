"""Count code lines: lines that are not blank, comments or docstrings.

A line counts when some token other than a comment or a line break starts
or runs across it (by `tokenize`), unless it lies within a docstring, the
string that opens a module, class or function body (by `ast`).

    python tools/code_lines.py [PATH ...]

Each PATH is a .py file or a directory searched for them; the default is
src/latcount.  Prints each module's count, then the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The line numbers that every docstring in source spans."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The lines of path that hold code, not counting docstrings."""
    source = path.read_text(encoding="utf-8")
    lines = set()
    for token in tokenize.generate_tokens(iter(source.splitlines(keepends=True)).__next__):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv: list[str]) -> None:
    paths = [Path(arg) for arg in argv] or [Path("src/latcount")]
    files = [f for p in paths for f in (sorted(p.rglob("*.py")) if p.is_dir() else [p])]
    total = 0
    for f in files:
        count = code_lines(f)
        total += count
        print(f"{count:6,} {f}")
    print(f"{total:6,} total")


if __name__ == "__main__":
    main(sys.argv[1:])
