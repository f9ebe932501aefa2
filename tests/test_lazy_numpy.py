"""Commands that never touch an array load neither numpy nor the dataclass machinery."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mafoliate as mf

SRC = str(Path(mf.__file__).resolve().parents[1])
WATCHED = ("numpy.linalg", "dataclasses", "inspect")

# runs `python -m mafoliate.cli ARGS` and reports, at exit, which watched modules were
# imported: numpy.linalg stands for numpy having run its package __init__
PROBE = f"""
import atexit, runpy, sys
atexit.register(lambda: sys.stderr.write(
    "\\nloaded=" + ",".join(m for m in {WATCHED!r} if m in sys.modules) + "\\n"))
sys.argv = ["mafoliate", *sys.argv[1:]]
runpy.run_module("mafoliate.cli", run_name="__main__", alter_sys=True)
"""


def _loaded(tmp_path, *args) -> set[str]:
    proc = subprocess.run([sys.executable, "-c", PROBE, *args], capture_output=True, text=True,
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = proc.stderr.splitlines()[-1]
    assert last.startswith("loaded="), proc.stderr
    return set(filter(None, last[len("loaded="):].split(",")))


@pytest.mark.parametrize("args", [
    ("type-at", "--poly", "weighted", "--point=0,0,1,0"), ("--help",), ("--version",)])
def test_commands_without_arrays_leave_numpy_unloaded(tmp_path, args):
    # nor dataclasses, whose import loads inspect, ast, dis and tokenize
    assert _loaded(tmp_path, *args) == set()


def test_check_ma_loads_numpy(tmp_path):
    # the control: the probe sees numpy when a command does use it
    assert "numpy.linalg" in _loaded(tmp_path, "check-ma", "--poly", "euc", "--grid", "4")


def test_gradient_by_the_exact_ray_limit_leaves_numpy_unloaded(tmp_path):
    # |z1|^6 + |z2|^4 + |z1^2 z2|^2 has no polynomial Z and D = 0 at (0, 1)
    terms = [([3, 0], [3, 0]), ([0, 2], [0, 2]), ([2, 1], [2, 1])]
    poly = tmp_path / "poly.json"
    poly.write_text('{"terms": [%s]}' % ", ".join(
        f'{{"a": {a}, "b": {b}, "re": 1}}' for a, b in terms))
    assert _loaded(tmp_path, "gradient", "--poly", str(poly), "--point=0,0,1,0") == set()
    analysis = json.loads((tmp_path / "gradient.json").read_text())["analysis"]
    assert analysis["method"] == "ray_limit_extension" and analysis["Z"] == [[0.0, 0.0], [0.5, 0.0]]
