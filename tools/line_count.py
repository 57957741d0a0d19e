"""Count the lines of the package's source, per file and in total.

Prints two counts for each ``.py`` file under ``src/`` (or the directory
given): every line, and the code lines only, that is without docstrings,
comment-only lines and blank lines.  A docstring is the string statement
that opens a module, class or function body.  Run from the repository root:

    python tools/line_count.py
    python tools/line_count.py path/to/other/src
"""

from __future__ import annotations

import ast
import pathlib
import sys


def counts(text: str):
    """(all lines, code lines) of one Python source text."""
    lines = text.splitlines()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = sum(1 for number, line in enumerate(lines, 1)
               if number not in docstrings and line.strip()
               and not line.strip().startswith("#"))
    return len(lines), code


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "src")
    total_all = total_code = 0
    print(f"{'all':>6} {'code':>6}  file")
    for path in sorted(root.rglob("*.py")):
        n_all, n_code = counts(path.read_text(encoding="utf-8"))
        total_all += n_all
        total_code += n_code
        print(f"{n_all:>6} {n_code:>6}  {path}")
    print(f"{total_all:>6} {total_code:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
