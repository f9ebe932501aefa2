"""Commands that never touch an array, trace-leaf and transport among them, load neither
numpy nor the dataclass machinery; only a command that samples loads the pure-Python
generator, so `import mafoliate.cli` never does."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mafoliate as mf

SRC = str(Path(mf.__file__).resolve().parents[1])
WATCHED = ("numpy.linalg", "dataclasses", "inspect", "mafoliate.pcg64")

# runs `python -m mafoliate.cli ARGS` and reports, at exit, which watched modules were
# imported: numpy.linalg stands for numpy having run its package __init__, and
# mafoliate.pcg64, the pure-Python generator, is loaded only by a command that samples
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
    # nor dataclasses, whose import loads inspect, ast, dis and tokenize, nor the generator
    assert _loaded(tmp_path, *args) == set()


def test_check_ma_loads_numpy(tmp_path):
    # the control: the probe sees numpy when a command does use it
    assert "numpy.linalg" in _loaded(tmp_path, "check-ma", "--poly", "euc", "--grid", "4")


def test_transport_loads_the_generator_and_not_numpy(tmp_path):
    # it shares the flows with trace-leaf and draws its samples from the pure-Python port
    assert _loaded(tmp_path, "transport", "--poly", "fub", "--r1", "1", "--r2", "2",
                   "--samples", "1") == {"mafoliate.pcg64"}


def _no_polynomial_Z(tmp_path) -> str:
    """|z1|^6 + |z2|^4 + |z1^2 z2|^2: it has no polynomial Z, and D = 0 at (0, 1)."""
    terms = [([3, 0], [3, 0]), ([0, 2], [0, 2]), ([2, 1], [2, 1])]
    poly = tmp_path / "poly.json"
    poly.write_text('{"terms": [%s]}' % ", ".join(
        f'{{"a": {a}, "b": {b}, "re": 1}}' for a, b in terms))
    return str(poly)


def test_gradient_by_the_exact_ray_limit_leaves_numpy_unloaded(tmp_path):
    assert _loaded(tmp_path, "gradient", "--poly", _no_polynomial_Z(tmp_path),
                   "--point=0,0,1,0") == set()
    analysis = json.loads((tmp_path / "gradient.json").read_text())["analysis"]
    assert analysis["method"] == "ray_limit_extension" and analysis["Z"] == [[0.0, 0.0], [0.5, 0.0]]


@pytest.mark.parametrize("poly", ["weighted", "no-polynomial-Z"])
def test_trace_leaf_from_a_levi_degenerate_seed_leaves_numpy_unloaded(tmp_path, poly):
    # weighted has a polynomial Z; the other input takes the exact ray limit at every
    # right-hand-side evaluation on the axis leaf through (0, 1)
    if poly == "no-polynomial-Z":
        poly = _no_polynomial_Z(tmp_path)
    assert _loaded(tmp_path, "trace-leaf", "--poly", poly, "--point=0,0,1,0") == set()
    analysis = json.loads((tmp_path / "trace_diagnostics.json").read_text())["analysis"]
    assert analysis["monotone_growth"] is True
    meta = json.loads((tmp_path / "trace_leaf_meta.json").read_text())
    assert meta["flows"]["flows"] == 12 and meta["flows"]["nfev"] > 0  # s flow, 11 t flows
