#!/usr/bin/env python3
"""Count the code lines of a package: lines that are not blank, not
comments and not docstrings.

    python3 scripts/code_lines.py src/penorth

prints one number, the total over the directory's *.py files. A line
counts when some token other than a comment or a docstring lies on it; a
string that spans lines counts all of them unless it is a docstring (the
first statement of a module, class or function body).
"""
from __future__ import annotations

import ast
import glob
import io
import os
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    total = 0
    for path in sorted(glob.glob(os.path.join(argv[0], "*.py"))):
        with open(path, encoding="utf-8") as fh:
            total += code_lines(fh.read())
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
