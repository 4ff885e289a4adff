"""Count the code-only lines of every module under ``src/``.

    python3 tools/codelines.py [--src DIR]

A line counts when it holds a token outside comments, docstrings and blank
lines: a statement spread over several lines counts each of them, and a
string that is not a docstring counts every line it spans.  A docstring is
a string standing alone as the first statement of a module, class or
function.  The script prints one count per module, by path under ``DIR``
(default: ``src/`` next to this directory), then the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that hold no code of their own
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src"


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers spanned by every docstring of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a token of code."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=DEFAULT_SRC,
                        help="directory of the sources to count (default: src/)")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.src.rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.relative_to(args.src)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
