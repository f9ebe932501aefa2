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
