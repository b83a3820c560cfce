"""Count each lendsim module's lines: physical lines and code lines, with totals.

A code line holds a token other than a comment, outside the module, class and
function docstrings: blank lines, comment-only lines and docstrings are not
code, so deleting comments or rewording a docstring leaves the count as it is.

Usage:

    python scripts/src_lines.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lendsim"


def docstring_spans(tree: ast.Module) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """((line, col), (end line, end col)) of every module, class and function docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                spans.append(((first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset)))
    return spans


def count(path: Path) -> tuple[int, int]:
    """(physical lines, code lines) of one source file."""
    text = path.read_text(encoding="utf-8")
    spans = docstring_spans(ast.parse(text, str(path)))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type in NOT_CODE:
            continue
        if any(start <= token.start and token.end <= end for start, end in spans):
            continue  # part of a docstring
        code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code)


def main() -> int:
    modules = sorted(PACKAGE.glob("*.py"))
    width = max(len(m.name) for m in modules)
    print(f"{'module':<{width}} {'physical':>8} {'code':>6}")
    total_physical = total_code = 0
    for module in modules:
        physical, code = count(module)
        total_physical += physical
        total_code += code
        print(f"{module.name:<{width}} {physical:>8} {code:>6}")
    print(f"{'total':<{width}} {total_physical:>8} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
