"""The float integrator and root finder against SciPy, their independent oracle.

``mafoliate.ode`` transcribes SciPy's RK45 ``solve_ivp`` path and its C
``brentq``, so every comparison here is exact: equal arrays, equal evaluation
counts, equal messages.  SciPy's RK45 sums its dot products and norms in BLAS,
whose order depends on the CPU, so the integrator is compared with SciPy run
with those reductions added in index order (the ``index_order_scipy`` fixture);
nothing else in SciPy's code path changes.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from scipy.integrate._ivp import common, rk

import mafoliate as mf
from mafoliate import foliation, ode

RTOL = ATOL = 1e-10  # the FlowConfig defaults


def _dot(a, b):
    """np.dot, each sum of products added in index order from its first term."""
    a, b = np.asarray(a), np.asarray(b)
    acc = np.multiply.outer(a[..., 0], b[0])
    for j in range(1, a.shape[-1]):
        acc = acc + np.multiply.outer(a[..., j], b[j])
    return acc


class _IndexOrderNumpy:
    """numpy, with np.dot summing in index order."""

    dot = staticmethod(_dot)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.fixture
def index_order_scipy(monkeypatch):
    """SciPy's RK45 with its np.dot, ndarray.dot and RMS norm summed in index order."""
    monkeypatch.setattr(rk, "np", _IndexOrderNumpy())
    monkeypatch.setattr(rk.RungeKutta, "_dense_output_impl", lambda self: rk.RkDenseOutput(
        self.t_old, self.t, self.y_old, _dot(self.K.T, self.P)))
    for module in (common, rk):
        monkeypatch.setattr(module, "norm", lambda x: np.sqrt(_dot(x, x)) / x.size ** 0.5)


def _pendulum_pair(t, y):
    return np.array([y[1], -np.sin(y[0]) + 0.3 * np.cos(t), y[3], -y[2] * (1 + y[0] ** 2)])


def _kinked(t, y):
    """Right-hand side with a jump at t = 0.5, which forces rejected steps."""
    y = np.asarray(y)
    return -y if t < 0.5 else 10.0 - 40.0 * y


def _assert_same_run(f, span, y0, t_eval, rtol=RTOL, atol=ATOL):
    want = scipy.integrate.solve_ivp(f, span, y0, method="RK45", rtol=rtol, atol=atol,
                                     t_eval=t_eval)
    got = ode.solve_ivp(f, span, y0, method="RK45", rtol=rtol, atol=atol, t_eval=t_eval)
    assert np.array_equal(got.y, want.y)
    assert np.array_equal(got.t, want.t)
    assert (got.nfev, got.success, got.message) == (want.nfev, want.success, want.message)
    return got


@pytest.mark.parametrize("end", [1.7, -1.7])
def test_forward_and_backward_spans_match_scipy(end, index_order_scipy):
    t_eval = np.linspace(0.0, end, 9)
    y0 = np.array([0.4, -0.2, 1.0, 0.5])
    got = _assert_same_run(_pendulum_pair, (0.0, end), y0, t_eval)
    assert got.success and np.shape(got.y) == (4, 9)


@pytest.mark.filterwarnings("ignore:At least one element of `rtol` is too small")
@pytest.mark.parametrize("rtol", [1e-3, 1e-8, 1e-16])  # 1e-16 is raised to 100 eps
def test_rejected_steps_match_scipy(rtol, index_order_scipy):
    y0 = np.array([1.0, -2.0])
    solver = scipy.integrate.RK45(_kinked, 0.0, y0, 2.0, rtol=rtol, atol=1e-9)
    accepted = 0
    while solver.status == "running":
        solver.step()
        accepted += 1
    attempted = (solver.nfev - 2) // 6  # two evaluations for the start, six per attempt
    assert attempted > accepted  # the case does exercise step rejection
    got = _assert_same_run(_kinked, (0.0, 2.0), y0, [0.0, 0.3, 0.5, 0.9, 2.0], rtol=rtol,
                           atol=1e-9)
    assert got.rejected == attempted - accepted


def test_blow_up_fails_with_scipys_min_step_message(index_order_scipy):
    got = _assert_same_run(lambda t, y: np.asarray(y) ** 2, (0.0, 2.0), np.array([1.0]),
                           [0.0, 0.5, 0.9, 1.5, 2.0])
    assert not got.success
    assert got.message == "Required step size is less than spacing between numbers."
    assert np.shape(got.y) == (1, 3)  # the points before the pole at t = 1


def _scipy_solve_ivp(*args, **kwargs) -> ode.OdeResult:
    """SciPy's run as an OdeResult; SciPy does not count rejected steps, so that reads 0."""
    sol = scipy.integrate.solve_ivp(*args, **kwargs)
    return ode.OdeResult(sol.t, sol.y, sol.nfev, sol.message, sol.success, rejected=0)


def test_leaf_trace_matches_scipy_flows(monkeypatch, index_order_scipy):
    """The flows at their real call site: a whole leaf grid, forward and backward in t and s."""
    p = mf.corpus()["fub"]
    seed = mf.Point(1.0, 0.5)
    t_vals, s_vals = foliation.make_grid(-0.2, 0.2, -0.1, 0.1, 0.05)
    ours = foliation.trace_leaf(p, seed, t_vals, s_vals)
    monkeypatch.setattr(foliation, "solve_ivp", _scipy_solve_ivp)
    theirs = foliation.trace_leaf(p, seed, t_vals, s_vals)
    assert np.array_equal(ours.points, theirs.points)
    assert np.array_equal(ours.rho_values, theirs.rho_values)
    for key in ("flows", "nfev"):
        assert ours.counts[key] == theirs.counts[key], key


@pytest.mark.parametrize("xtol", [1e-14, 1e-3])  # level_set_samples' tolerance, and a coarse one
def test_brentq_matches_scipy_on_random_brackets(xtol):
    rng = np.random.default_rng(20050515)
    compared = 0
    for _ in range(500):
        coeffs = rng.normal(size=6)
        level = rng.normal()

        def f(x, coeffs=coeffs, level=level):
            return float(np.polyval(coeffs, x)) - level

        a, b = rng.uniform(-3.0, 0.0), rng.uniform(0.0, 3.0)
        if np.sign(f(a)) == np.sign(f(b)):
            continue
        want = scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=8.9e-16)
        assert ode.brentq(f, a, b, xtol=xtol, rtol=8.9e-16) == want
        compared += 1
    assert compared > 100
    for a, b in ((0.0, 1.0), (-1.0, 0.0)):  # a root at an end of the bracket
        want = scipy.optimize.brentq(lambda x: x, a, b, xtol=xtol, rtol=8.9e-16)
        assert ode.brentq(lambda x: x, a, b, xtol=xtol, rtol=8.9e-16) == want


def test_level_set_samples_match_scipy_roots(monkeypatch):
    p = mf.corpus()["weighted"]
    ours = foliation.level_set_samples(p, 0.7, 12, seed=3)
    monkeypatch.setattr(foliation, "brentq", scipy.optimize.brentq)
    theirs = foliation.level_set_samples(p, 0.7, 12, seed=3)
    assert [q.as_pair() for q in ours] == [q.as_pair() for q in theirs]


def test_brentq_errors_match_scipy():
    with pytest.raises(ValueError, match="NaN"):
        ode.brentq(lambda x: np.nan if x > 0.5 else x - 0.7, 0.0, 1.0, xtol=1e-14, rtol=8.9e-16)
    with pytest.raises(ValueError, match="different signs"):
        ode.brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-14, rtol=8.9e-16)

    def step(x):
        return 1.0 if x > 0 else -1.0

    with pytest.raises(RuntimeError) as want:
        scipy.optimize.brentq(step, -1.0, 2.0, xtol=1e-300)
    with pytest.raises(RuntimeError) as got:
        ode.brentq(step, -1.0, 2.0, xtol=1e-300, rtol=4 * np.finfo(float).eps)
    assert str(got.value) == str(want.value)


def test_cli_import_leaves_scipy_out():
    src = str(Path(mf.__file__).resolve().parents[1])
    code = "import sys, mafoliate.cli; assert 'scipy' not in sys.modules, 'scipy imported'"
    subprocess.run([sys.executable, "-c", code], check=True, cwd=src)


def test_tableau_and_eps_are_the_values_numpy_built():
    # the float tuples are the numpy arrays and np.finfo(float).eps they replaced, bit for bit
    want = {
        "C": np.array([0, 1/5, 3/10, 4/5, 8/9, 1]),
        "A": np.array([
            [0, 0, 0, 0, 0],
            [1/5, 0, 0, 0, 0],
            [3/40, 9/40, 0, 0, 0],
            [44/45, -56/15, 32/9, 0, 0],
            [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
            [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]]),
        "B": np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84]),
        "E": np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40]),
        "P": np.array([
            [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
            [0, 0, 0, 0],
            [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
            [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
            [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
            [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
            [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]]),
    }
    got = ode.TABLEAU._asdict()
    assert list(got) == list(want)
    for name, array in want.items():
        assert np.shape(got[name]) == array.shape, name
        entries = np.asarray(got[name], dtype=object).ravel().tolist()
        assert all(type(x) is float for x in entries), name
        assert np.array(entries).tobytes() == array.tobytes(), name
    assert type(ode.EPS) is float and ode.EPS == np.finfo(float).eps
