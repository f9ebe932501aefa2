"""Print the size of the package source: its line count and its settable values.

    python3 tools/settable_values.py [SRC]

SRC defaults to this checkout's src/.  Lines are counted as ``wc -l`` counts
them, over every ``.py`` file under SRC.  A settable value is a function
parameter with a default (positional or keyword-only, lambdas included) or a
field with a default in a record class: one decorated with ``dataclass`` or
one whose bases include ``NamedTuple``.  Both are counted over the syntax
tree, so comments and strings never count.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _name(node: ast.expr) -> str | None:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _is_record(node: ast.ClassDef) -> bool:
    """A class decorated with dataclass, or with NamedTuple among its bases."""
    decorators = (dec.func if isinstance(dec, ast.Call) else dec for dec in node.decorator_list)
    return (any(_name(dec) == "dataclass" for dec in decorators)
            or any(_name(base) == "NamedTuple" for base in node.bases))


def settable_values(tree: ast.AST) -> int:
    """Parameters with a default plus record fields with a default."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_record(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return count


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else ROOT / "src"
    files = sorted(src.rglob("*.py"))
    if not files:
        print(f"no .py files under {src}", file=sys.stderr)
        return 2
    texts = [f.read_bytes() for f in files]
    lines = sum(t.count(b"\n") for t in texts)
    values = sum(settable_values(ast.parse(t, filename=str(f))) for f, t in zip(files, texts))
    print(f"src_lines {lines}")
    print(f"settable_values {values}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
