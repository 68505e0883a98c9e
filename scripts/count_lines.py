#!/usr/bin/env python3
"""Count the lines of Python sources as total, code, docstring, comment
and blank, per file and summed.

Usage:
    python scripts/count_lines.py [path ...]   (default: src/nswave)

Method: every physical line falls in exactly one class, tested in this
order:
  docstring  inside a module, class or function docstring (the string
             literal that is the first statement of its body), from its
             first to its last line, blank lines within it included;
  blank      only whitespace;
  comment    only a `#` comment after optional whitespace;
  code       everything else, continuation lines included.
"""

import argparse
import ast
import os
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
KINDS = ("total", "code", "docstring", "comment", "blank")
OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, OWNERS) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> dict:
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        kind = ("docstring" if number in docs else "blank" if not stripped
                else "comment" if stripped.startswith("#") else "code")
        counts[kind] += 1
        counts["total"] += 1
    return counts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", default=[str(REPO / "src/nswave")])
    args = ap.parse_args()
    files = sorted(os.path.relpath(f) for p in map(Path, args.paths)
                   for f in ([p] if p.is_file() else p.rglob("*.py")))
    width = max(map(len, files))
    print(f"{'file':<{width}}" + "".join(f"{k:>10}" for k in KINDS))
    sums = dict.fromkeys(KINDS, 0)
    for f in files:
        c = count(Path(f))
        for k in KINDS:
            sums[k] += c[k]
        print(f"{f:<{width}}" + "".join(f"{c[k]:>10}" for k in KINDS))
    print(f"{'sum':<{width}}" + "".join(f"{sums[k]:>10}" for k in KINDS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
