#!/usr/bin/env python3
"""Total, code and docstring lines of each ``src/cvb`` module, and of all of them.

A docstring line is a line that a module, class or function docstring spans,
as ``ast`` places it.  A code line is any other line that holds a
``tokenize`` token other than COMMENT, NL, NEWLINE, INDENT or DEDENT; a
token that spans lines, such as a multi-line string, counts on each of them.
Comments and blank lines are neither, so total >= code + docstring.

    python3 scripts/src_lines.py [SRC_DIR]

SRC_DIR defaults to the ``src/cvb`` beside this script.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count_lines(text):
    """(total, code, docstring) lines of the Python source ``text``."""
    docstring = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            expr = node.body[0]
            docstring.update(range(expr.lineno, expr.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - docstring), len(docstring)


def main(argv):
    src = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "cvb"
    rows = [(path.name, *count_lines(path.read_text(encoding="utf-8"))) for path in sorted(src.glob("*.py"))]
    rows.append(("all", *(sum(column) for column in zip(*(row[1:] for row in rows)))))
    print(f"{'module':<18} {'total':>6} {'code':>6} {'doc':>6}")
    for name, total, code, doc in rows:
        print(f"{name:<18} {total:>6} {code:>6} {doc:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
