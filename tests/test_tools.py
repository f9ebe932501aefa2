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
