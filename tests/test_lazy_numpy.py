"""Commands that never touch an array, trace-leaf and transport among them, load neither
numpy nor the dataclass machinery; only a command that samples loads the pure-Python
generator, so `import mafoliate.cli` never does.  No command loads numpy.random, whose
bit_generator imports secrets and so, through hmac, maps OpenSSL (`_hashlib`): every
sampler draws from mafoliate.pcg64, burns' sphere sampler included, and the poly_sha256
digest comes from the interpreter's own sha256 module.  A command that loads numpy runs
OpenBLAS with one thread unless the caller's environment sets OPENBLAS_NUM_THREADS, and a
bare `import mafoliate.cli` leaves that variable alone."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mafoliate as mf

SRC = str(Path(mf.__file__).resolve().parents[1])
WATCHED = ("numpy.linalg", "dataclasses", "inspect", "mafoliate.pcg64", "_hashlib",
           "numpy.random", "secrets")
OPENSSL = {"numpy.random", "secrets", "_hashlib"}  # the modules by which a command maps it
TASKS = Path("/proc/self/task")  # one entry per thread of the process, where it exists

# runs `python -m mafoliate.cli ARGS` and reports, at exit, which watched modules were
# imported, the process's thread count (-1 without /proc/self/task) and its
# OPENBLAS_NUM_THREADS: numpy.linalg stands for numpy having run its package __init__,
# mafoliate.pcg64, the pure-Python generator, is loaded only by a command that samples,
# _hashlib is the module that maps OpenSSL's libcrypto, and numpy.random and secrets are
# the imports by which numpy's generator loaded it
PROBE = f"""
import atexit, json, os, runpy, sys
atexit.register(lambda: sys.stderr.write("\\n" + json.dumps({{
    "loaded": [m for m in {WATCHED!r} if m in sys.modules],
    "threads": len(os.listdir({str(TASKS)!r})) if os.path.isdir({str(TASKS)!r}) else -1,
    "openblas": os.environ.get("OPENBLAS_NUM_THREADS")}}) + "\\n"))
sys.argv = ["mafoliate", *sys.argv[1:]]
runpy.run_module("mafoliate.cli", run_name="__main__", alter_sys=True)
"""


def _child_env(**extra: str) -> dict:
    """This process's environment without OPENBLAS_NUM_THREADS, which an earlier in-process
    main() call sets here, with the source tree on the path and the extra entries."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return {**env, "PYTHONPATH": SRC, **extra}


def _probe(tmp_path, *args, env: dict | None = None) -> dict:
    proc = subprocess.run([sys.executable, "-c", PROBE, *args], capture_output=True, text=True,
                          cwd=tmp_path, env=env or _child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.splitlines()[-1])


def _loaded(tmp_path, *args) -> set[str]:
    return set(_probe(tmp_path, *args)["loaded"])


@pytest.mark.parametrize("args", [
    ("type-at", "--poly", "weighted", "--point=0,0,1,0"), ("--help",), ("--version",)])
def test_commands_without_arrays_leave_numpy_unloaded(tmp_path, args):
    # nor dataclasses, whose import loads inspect, ast, dis and tokenize, nor the generator,
    # nor OpenSSL
    assert _loaded(tmp_path, *args) == set()


@pytest.mark.parametrize("args", [
    ("gradient", "--poly", "fub", "--point=1,0,0,0"),
    ("trace-leaf", "--poly", "fub", "--point=1,0,0,0"),
    ("transport", "--poly", "fub", "--r1", "1", "--r2", "2", "--samples", "1"),
    ("check-ma", "--poly", "euc", "--grid", "4"),
    ("weights", "--poly", "weighted")], ids=lambda args: args[0])
def test_commands_without_numpy_random_leave_openssl_unmapped(tmp_path, args):
    assert not OPENSSL & _loaded(tmp_path, *args)


def test_burns_and_report_load_neither_numpy_random_nor_openssl(tmp_path):
    # they load numpy, and burns' sphere sampler draws its 64,000 normals as arrays, from
    # mafoliate.pcg64 and not from numpy's generator
    for args in (("burns", "--poly", "fub"), ("report", "--poly", "fub")):
        loaded = _loaded(tmp_path, *args)
        assert "numpy.linalg" in loaded and "mafoliate.pcg64" in loaded
        assert not OPENSSL & loaded, args


def test_check_ma_loads_numpy(tmp_path):
    # the control: the probe sees numpy when a command does use it
    assert "numpy.linalg" in _loaded(tmp_path, "check-ma", "--poly", "euc", "--grid", "4")


@pytest.mark.skipif(not TASKS.is_dir(), reason="no /proc/self/task to count threads")
def test_check_ma_runs_openblas_with_one_thread(tmp_path):
    probe = _probe(tmp_path, "check-ma", "--poly", "euc", "--grid", "4")
    assert "numpy.linalg" in probe["loaded"]
    assert (probe["threads"], probe["openblas"]) == (1, "1")


def test_a_thread_count_the_caller_sets_wins(tmp_path):
    probe = _probe(tmp_path, "check-ma", "--poly", "euc", "--grid", "4",
                   env=_child_env(OPENBLAS_NUM_THREADS="2"))
    assert probe["openblas"] == "2"
    # OpenBLAS caps its threads at the CPUs the process may run on
    if TASKS.is_dir() and len(os.sched_getaffinity(0)) >= 2:
        assert probe["threads"] == 2


def test_importing_the_cli_leaves_the_thread_count_unset(tmp_path):
    # a library import must not change the BLAS of a host process that loads numpy later
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, mafoliate.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env(), timeout=120, check=True)
    assert proc.stdout == "None\n"


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
