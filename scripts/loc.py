#!/usr/bin/env python3
"""Count the code lines of each ``src/frobpow/*.py`` module of one or two trees.

A code line holds a token of code: it is not blank, not comment-only, and
not inside a module, class or function docstring.  A string that is not a
docstring is code on every line it spans.  Prints one row per module and the
total; for two trees, both counts and the change from the first to the
second.  A tree is any directory holding a source checkout.

Usage: python3 scripts/loc.py TREE [TREE]
"""

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
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines spanned by every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def count_tree(tree: Path) -> dict[str, int]:
    package = tree / "src" / "frobpow"
    if not package.is_dir():
        raise SystemExit(f"loc.py: {tree} has no src/frobpow")
    return {path.name: code_lines(path.read_text()) for path in sorted(package.glob("*.py"))}


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.rsplit("Usage: ", 1)[1].strip(), file=sys.stderr)
        return 2
    counts = [count_tree(Path(tree)) for tree in argv]
    modules = sorted(set().union(*counts))
    width = max(len(name) for name in modules + ["module"])
    if len(counts) == 1:
        print(f"{'module':<{width}}  {'code':>6}")
        for name in modules:
            print(f"{name:<{width}}  {counts[0][name]:>6}")
        print(f"{'total':<{width}}  {sum(counts[0].values()):>6}")
        return 0
    first, second = counts
    for label, tree in zip("AB", argv):
        print(f"{label}: {tree}")
    print(f"{'module':<{width}}  {'A':>6}  {'B':>6}  {'B-A':>6}")
    rows = [(name, first.get(name, 0), second.get(name, 0)) for name in modules]
    rows.append(("total", sum(first.values()), sum(second.values())))
    for name, a, b in rows:
        print(f"{name:<{width}}  {a:>6}  {b:>6}  {b - a:>+6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
