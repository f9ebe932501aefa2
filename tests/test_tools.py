"""Smoke test of the repository's size tool."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_settable_values_reports_both_counts():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "settable_values.py")],
                          capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["src_lines", "settable_values"]
    assert all(re.fullmatch(r"\w+ [1-9]\d*", line) for line in lines)


def test_settable_values_counts_record_fields_with_defaults(tmp_path):
    (tmp_path / "records.py").write_text(
        "import dataclasses\n"
        "import typing\n"
        "from typing import NamedTuple\n"
        "\n"
        "\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class A:\n"
        "    y: int\n"
        "    x: int = 1\n"
        "\n"
        "\n"
        "class B(NamedTuple):\n"
        "    z: str\n"
        "    x: int = 1\n"
        "    y: float = 2.0\n"
        "\n"
        "\n"
        "class C(typing.NamedTuple):\n"
        "    x: int = 1\n"
        "\n"
        "\n"
        "class D(B):  # a subclass of a record adds no fields\n"
        "    w: int = 3\n"
        "\n"
        "\n"
        "def f(a, b=1, *, c=2, d):\n"
        "    return lambda e=3: a\n")
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "settable_values.py"),
                           str(tmp_path)], capture_output=True, text=True, check=True)
    # A.x, B.x, B.y, C.x, then b, c and e
    assert proc.stdout.splitlines() == ["src_lines 27", "settable_values 7"]


def test_settable_values_lists_each_value_where_it_is_set(tmp_path):
    (tmp_path / "knobs.py").write_text(
        "from typing import NamedTuple\n"
        "\n"
        "\n"
        "class B(NamedTuple):\n"
        "    z: str\n"
        "    x: int = 1\n"
        "\n"
        "\n"
        "def f(a, b=1, *, c=(2, 3), d):\n"
        "    return lambda e=-3: a\n"
        "\n"
        "\n"
        "def g(p, q=0, /, r=1.5):\n"
        "    pass\n")
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "settable_values.py"),
                           str(tmp_path), "--list"], capture_output=True, text=True, check=True)
    where = f"{tmp_path.name}/knobs.py"
    assert proc.stdout.splitlines() == [
        f"{where}:6 B.x = 1", f"{where}:9 f.b = 1", f"{where}:9 f.c = (2, 3)",
        f"{where}:10 <lambda>.e = -3", f"{where}:13 g.q = 0", f"{where}:13 g.r = 1.5",
        "src_lines 14", "settable_values 6"]


def test_importing_compare_trees_leaves_the_interpreter_as_it_was(monkeypatch):
    monkeypatch.setattr(sys, "path", [str(ROOT / "tools"), *sys.path])
    monkeypatch.setattr(sys, "dont_write_bytecode", False)
    monkeypatch.delitem(sys.modules, "compare_trees", raising=False)
    path = list(sys.path)
    import compare_trees  # noqa: F401

    assert sys.path == path
    assert sys.dont_write_bytecode is False


def test_compare_trees_names_the_side_that_holds_a_key(tmp_path, monkeypatch):
    # running jobs puts bench/ on sys.path and turns bytecode writing off; undo both
    monkeypatch.setattr(sys, "path", [str(ROOT / "tools"), *sys.path])
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    from compare_trees import compare_outputs

    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (parent / "report.json").write_text(
        '{"analysis": {"gradient": {"defect": 1e-16}, "ok": true, "x": 1.0}}')
    (change / "report.json").write_text(
        '{"analysis": {"ok": true, "x": 1.5, "y": [2.0]}}')
    assert compare_outputs(parent, change) == [
        "    report.json: 3 path(s) differ",
        "      analysis.gradient: only in parent",
        "      analysis.x: max |difference| 0.5",
        "      analysis.y: only in change",
    ]


def test_compare_trees_summary_lines_count_the_pairs_the_change_won(monkeypatch):
    monkeypatch.setattr(sys, "path", [str(ROOT / "tools"), *sys.path])
    from compare_trees import import_line, pass_line

    assert pass_line("type-deep", {"parent": [1.0, 2.0, 3.0], "change": [1.5, 1.0, 2.5]}) == (
        "type-deep: median pass wall s 2.00 / 1.50; change faster in 2/3 pairs")
    assert import_line({"parent": [0.1, 0.12, 0.2], "change": [0.09, 0.13, 0.1]}) == (
        "import mafoliate.cli: median wall s 0.120 / 0.100; change faster in 2/3 pairs")
