"""Dormand-Prince 5(4) integration and Brent root finding, in numpy alone.

The flows need exactly two numerical routines: ``solve_ivp`` with
``method="RK45"`` and ``t_eval``, and ``brentq``.  Both are transcriptions of
SciPy's code paths for those calls (``scipy.integrate.solve_ivp`` and the C
``brentq``), doing the same floating-point operations in the same order, so
their results are bit-identical to SciPy's; ``tests/test_ode.py`` checks that
against SciPy itself.  Events, dense-output objects, other methods and further
options are deliberately absent.

References: J. R. Dormand and P. J. Prince, J. Comput. Appl. Math. 6 (1980)
for the pair; L. F. Shampine, Math. Comp. 46 (1986) for the quartic dense
output; Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.4 for the initial
step; R. P. Brent, Algorithms for Minimization without Derivatives (1973),
ch. 4 for the root finder.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from typing import NamedTuple

from ._numpy import np

EPS = sys.float_info.epsilon
SAFETY = 0.9      # multiplies steps predicted from the asymptotic error
MIN_FACTOR = 0.2  # smallest allowed decrease of the step
MAX_FACTOR = 10   # largest allowed increase of the step
ERROR_EXPONENT = -1 / 5  # the error estimate is of order 4
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
REACHED_END = "The solver successfully reached the end of the integration interval."
BRENT_MAXITER = 100


class Tableau(NamedTuple):
    """Dormand-Prince coefficients: nodes C, stages A, weights B, error E, dense output P."""

    C: np.ndarray
    A: np.ndarray
    B: np.ndarray
    E: np.ndarray
    P: np.ndarray


@lru_cache(maxsize=None)
def tableau() -> Tableau:
    """The Dormand-Prince tableau as float arrays, built on first use.

    E = (5th-order weights) - (4th-order weights), and P gives the quartic
    dense output with Shampine's optimum c_6.
    """
    return Tableau(
        C=np.array([0, 1/5, 3/10, 4/5, 8/9, 1]),
        A=np.array([
            [0, 0, 0, 0, 0],
            [1/5, 0, 0, 0, 0],
            [3/40, 9/40, 0, 0, 0],
            [44/45, -56/15, 32/9, 0, 0],
            [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
            [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]]),
        B=np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84]),
        E=np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40]),
        P=np.array([
            [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
            [0, 0, 0, 0],
            [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
            [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
            [0, 127303824393/49829197408, -318862633887/49829197408,
             701980252875 / 199316789632],
            [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
            [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]]))


class OdeResult(NamedTuple):
    """States at the requested times (``y[:, k]`` at ``t[k]``) and the run's outcome."""

    t: np.ndarray
    y: np.ndarray
    nfev: int
    message: str
    success: bool


def _rms(x: np.ndarray):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, f0, t_bound, direction, rtol, atol):
    """Hairer-Norsett-Wanner starting step for an error estimate of order 4."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0 * direction, y0 + h0 * direction * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval_length)


def _rk_step(fun, t, y, f, h, K):
    """One Dormand-Prince step; fills the stages into K and returns (y_new, f_new)."""
    tab = tableau()
    K[0] = f
    for s, (a, c) in enumerate(zip(tab.A[1:], tab.C[1:]), start=1):
        dy = np.dot(K[:s].T, a[:s]) * h
        K[s] = fun(t + c * h, y + dy)
    y_new = y + h * np.dot(K[:-1].T, tab.B)
    f_new = fun(t + h, y_new)
    K[-1] = f_new
    return y_new, f_new


def solve_ivp(fun, t_span, y0, method: str = "RK45", *, rtol: float, atol: float,
              t_eval) -> OdeResult:
    """Integrate y' = fun(t, y) over t_span (either direction), reporting y at t_eval."""
    if method != "RK45":
        raise ValueError(f"only method='RK45' is implemented, got {method!r}")
    t0, t_bound = map(float, t_span)
    if t0 == t_bound:
        raise ValueError("t_span is empty")
    y = np.asarray(y0, dtype=float)
    if y.ndim != 1 or not np.isfinite(y).all():
        raise ValueError("y0 must be a finite 1-dimensional array")
    if rtol < 100 * EPS:
        rtol = np.maximum(rtol, 100 * EPS)
    if atol < 0:
        raise ValueError("atol must be non-negative")
    t_eval = np.asarray(t_eval)
    if t_eval.ndim != 1:
        raise ValueError("t_eval must be 1-dimensional")
    if np.any(t_eval < min(t0, t_bound)) or np.any(t_eval > max(t0, t_bound)):
        raise ValueError("values in t_eval are not within t_span")
    steps = np.diff(t_eval)
    if np.any(steps <= 0) if t_bound > t0 else np.any(steps >= 0):
        raise ValueError("values in t_eval are not sorted in the direction of t_span")
    direction = np.sign(t_bound - t0)
    if direction > 0:
        t_eval_i = 0
    else:  # decreasing, so that np.searchsorted applies
        t_eval = t_eval[::-1]
        t_eval_i = t_eval.shape[0]

    nfev = 0

    def f_of(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(fun(t, y), dtype=float)

    t = t0
    f = f_of(t, y)
    h_abs = _initial_step(f_of, t, y, f, t_bound, direction, rtol, atol)
    tab = tableau()
    K = np.empty((len(tab.E), y.size))
    ts, ys = [], []
    status, message = None, REACHED_END  # status: 0 reached the end, -1 step too small
    while status is None:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                status, message = -1, TOO_SMALL_STEP
                break
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            y_new, f_new = _rk_step(f_of, t, y, f, h, K)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(K.T, tab.E) * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        if status is not None:
            break
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        if direction * (t - t_bound) >= 0:
            status = 0

        # t_eval points reached by this step, from its quartic interpolant
        if direction > 0:
            t_eval_i_new = np.searchsorted(t_eval, t, side="right")
            t_eval_step = t_eval[t_eval_i:t_eval_i_new]
        else:
            t_eval_i_new = np.searchsorted(t_eval, t, side="left")
            t_eval_step = t_eval[t_eval_i_new:t_eval_i][::-1]
        if t_eval_step.size > 0:
            h_step = t - t_old
            x = (t_eval_step - t_old) / h_step
            powers = np.cumprod(np.tile(x, (tab.P.shape[1], 1)), axis=0)
            y_step = h_step * np.dot(K.T.dot(tab.P), powers)
            y_step += y_old[:, None]
            ts.append(t_eval_step)
            ys.append(y_step)
            t_eval_i = t_eval_i_new

    if ts:
        ts, ys = np.hstack(ts), np.hstack(ys)
    return OdeResult(t=ts, y=ys, nfev=nfev, message=message, success=status >= 0)


def brentq(f, a: float, b: float, *, xtol: float, rtol: float) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign (Brent's method).

    Converges once the bracket is narrower than xtol + rtol * |root|; raises
    ValueError on a NaN value of f or a bracket without a sign change, and
    RuntimeError after BRENT_MAXITER iterations.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < 4 * EPS:
        raise ValueError(f"rtol too small ({rtol:g} < {4 * EPS:g})")

    def f_of(x: float) -> float:
        fx = f(x)
        if np.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return float(fx)

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = f_of(xpre)
    fcur = f_of(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):  # zeros returned above, so "< 0" is C's signbit
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f_of(xcur)
    raise RuntimeError(f"Failed to converge after {BRENT_MAXITER} iterations.")
