"""numpy is imported on first use: commands that never touch an array do not load it."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mafoliate as mf

SRC = str(Path(mf.__file__).resolve().parents[1])

# runs `python -m mafoliate.cli ARGS` and reports, at exit, whether numpy ran its
# package __init__ (which imports numpy.linalg)
PROBE = """
import atexit, runpy, sys
atexit.register(lambda: sys.stderr.write(f"\\nlinalg={'numpy.linalg' in sys.modules}\\n"))
sys.argv = ["mafoliate", *sys.argv[1:]]
runpy.run_module("mafoliate.cli", run_name="__main__", alter_sys=True)
"""


def _numpy_loaded(tmp_path, *args) -> bool:
    proc = subprocess.run([sys.executable, "-c", PROBE, *args], capture_output=True, text=True,
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = proc.stderr.splitlines()[-1]
    assert last in ("linalg=True", "linalg=False")
    return last == "linalg=True"


@pytest.mark.parametrize("args", [
    ("type-at", "--poly", "weighted", "--point=0,0,1,0"), ("--help",), ("--version",)])
def test_commands_without_arrays_leave_numpy_unloaded(tmp_path, args):
    assert not _numpy_loaded(tmp_path, *args)


def test_check_ma_loads_numpy(tmp_path):
    # the control: the probe sees numpy when a command does use it
    assert _numpy_loaded(tmp_path, "check-ma", "--poly", "euc", "--grid", "4")
