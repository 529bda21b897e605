"""Count the code lines of ``src/ern/*.py``, or of the files named on the command line.

A code line is any line that holds a token, except comment-only lines
and the lines of a module, class or function docstring.  Prints each
file's count and then the total.  Run from the repository root:

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER)


def docstring_lines(source: str) -> set[int]:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(getattr(first, "value", None), ast.Constant) and isinstance(
                first.value.value, str
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv: list[str]) -> None:
    paths = [Path(a) for a in argv] or sorted(Path("src/ern").glob("*.py"))
    total = 0
    for path in paths:
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
