"""Print the size of the package source: its line count and its settable values.

    python3 tools/settable_values.py [SRC] [--list]

SRC defaults to this checkout's src/.  Lines are counted as ``wc -l`` counts
them, over every ``.py`` file under SRC.  A settable value is a function
parameter with a default (positional or keyword-only, lambdas included) or a
field with a default in a record class: one decorated with ``dataclass`` or
one whose bases include ``NamedTuple``.  Both are counted over the syntax
tree, so comments and strings never count.  ``--list`` first prints each
settable value as ``path:line name = default``, its name qualified by its
function or record class, so that two checkouts' knobs can be diffed.
"""

from __future__ import annotations

import argparse
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


def settable_values(tree: ast.AST) -> list[tuple[int, str, str]]:
    """(line, qualified name, default) of each parameter with a default and each record
    field with a default, in line order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            owner = getattr(node, "name", "<lambda>")
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = [*zip(positional[len(positional) - len(args.defaults):], args.defaults),
                     *((a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)]
            found += [(a.lineno, f"{owner}.{a.arg}", ast.unparse(d)) for a, d in pairs]
        elif isinstance(node, ast.ClassDef) and _is_record(node):
            found += [(s.lineno, f"{node.name}.{_name(s.target)}", ast.unparse(s.value))
                      for s in node.body if isinstance(s, ast.AnnAssign) and s.value is not None]
    return sorted(found)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count the lines and settable values under SRC.")
    parser.add_argument("src", nargs="?", type=Path, default=ROOT / "src")
    parser.add_argument("--list", action="store_true",
                        help="first print each settable value as path:line name = default")
    args = parser.parse_args(argv)
    files = sorted(args.src.rglob("*.py"))
    if not files:
        print(f"no .py files under {args.src}", file=sys.stderr)
        return 2
    texts = [f.read_bytes() for f in files]
    lines = sum(t.count(b"\n") for t in texts)
    values = 0
    for f, t in zip(files, texts):
        found = settable_values(ast.parse(t, filename=str(f)))
        values += len(found)
        if args.list:
            for line, name, default in found:
                print(f"{f.relative_to(args.src.parent)}:{line} {name} = {default}")
    print(f"src_lines {lines}")
    print(f"settable_values {values}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
