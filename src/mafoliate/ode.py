"""Dormand-Prince 5(4) integration and Brent root finding, on Python floats.

The flows need ``solve_ivp`` (``method="RK45"`` with ``t_eval``) and ``brentq``,
transcribed from SciPy's code paths for those calls onto floats and lists: the
same operations in the same order, and no events, methods or options beyond.
Each reduction (stage combinations, error norm, dense output) adds its terms in
index order from the first, where SciPy's ``np.dot`` and ``np.linalg.norm`` sum
in the CPU-dependent order of BLAS: the bits equal SciPy's run with index-order
reductions, and ``brentq``'s equal SciPy's (``tests/test_ode.py``).

References: J. R. Dormand and P. J. Prince, J. Comput. Appl. Math. 6 (1980)
for the pair; L. F. Shampine, Math. Comp. 46 (1986) for the quartic dense
output; Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.4 for the initial
step; R. P. Brent, Algorithms for Minimization without Derivatives (1973),
ch. 4 for the root finder.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from typing import NamedTuple

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

    C: tuple
    A: tuple
    B: tuple
    E: tuple
    P: tuple


# E = (5th-order weights) - (4th-order weights); P gives the quartic dense output
# with Shampine's optimum c_6
TABLEAU = Tableau(
    C=(0.0, 1/5, 3/10, 4/5, 8/9, 1.0),
    A=((0.0, 0.0, 0.0, 0.0, 0.0),
       (1/5, 0.0, 0.0, 0.0, 0.0),
       (3/40, 9/40, 0.0, 0.0, 0.0),
       (44/45, -56/15, 32/9, 0.0, 0.0),
       (19372/6561, -25360/2187, 64448/6561, -212/729, 0.0),
       (9017/3168, -355/33, 46732/5247, 49/176, -5103/18656)),
    B=(35/384, 0.0, 500/1113, 125/192, -2187/6784, 11/84),
    E=(-71/57600, 0.0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40),
    P=((1.0, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432),
       (0.0, 0.0, 0.0, 0.0),
       (0.0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799),
       (0.0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072),
       (0.0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632),
       (0.0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844),
       (0.0, 40617522/29380423, -110615467/29380423, 69997945/29380423)))
# stage s: its node and the s coefficients of the stages before it
_STAGES = tuple((c, a[:s]) for s, (c, a) in enumerate(zip(TABLEAU.C, TABLEAU.A)) if s)
_P_COLUMNS = tuple(zip(*TABLEAU.P))  # the stage weights of each power of the dense output


class OdeResult(NamedTuple):
    """States at the requested times (``y[i][k]``, component i at ``t[k]``) and the run's
    outcome, with its right-hand-side evaluations and rejected step attempts."""

    t: list
    y: list
    nfev: int
    message: str
    success: bool
    rejected: int


def _combine(coeffs, rows) -> list:
    """sum_j coeffs[j] * rows[j], component by component, added in index order."""
    acc = [coeffs[0] * v for v in rows[0]]
    for c, row in zip(coeffs[1:], rows[1:]):
        acc = [a + c * v for a, v in zip(acc, row)]
    return acc


def _rms(x) -> float:
    acc = x[0] * x[0]
    for v in x[1:]:
        acc += v * v
    return math.sqrt(acc) / len(x) ** 0.5


def _initial_step(fun, t0, y0, f0, t_bound, direction, rtol, atol):
    """Hairer-Norsett-Wanner starting step for an error estimate of order 4."""
    interval_length = abs(t_bound - t0)
    scale = [atol + abs(v) * rtol for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([f / s for f, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0 * direction, [v + h0 * direction * f for v, f in zip(y0, f0)])
    d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval_length)


def _rk_step(fun, t, y, f, h, K):
    """One Dormand-Prince step; fills the stages into K and returns (y_new, f_new)."""
    K[0] = f
    for s, (c, a) in enumerate(_STAGES, start=1):
        dy = _combine(a, K)  # the s stages so far: _combine's zip stops with a
        K[s] = fun(t + c * h, [v + d * h for v, d in zip(y, dy)])
    y_new = [v + h * d for v, d in zip(y, _combine(TABLEAU.B, K))]
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
    try:
        y = [float(v) for v in y0]
        t_eval = [float(v) for v in t_eval]
    except TypeError:
        raise ValueError("y0 and t_eval must be 1-dimensional") from None
    if not all(map(math.isfinite, y)):
        raise ValueError("y0 must be finite")
    rtol = max(rtol, 100 * EPS)
    if atol < 0:
        raise ValueError("atol must be non-negative")
    if any(v < min(t0, t_bound) or v > max(t0, t_bound) for v in t_eval):
        raise ValueError("values in t_eval are not within t_span")
    steps = [b - a for a, b in zip(t_eval, t_eval[1:])]
    if any(d <= 0 for d in steps) if t_bound > t0 else any(d >= 0 for d in steps):
        raise ValueError("values in t_eval are not sorted in the direction of t_span")
    direction = 1.0 if t_bound > t0 else -1.0
    if direction < 0:  # increasing, so that bisection applies
        t_eval = t_eval[::-1]
    t_eval_i = 0 if direction > 0 else len(t_eval)

    nfev = rejected = 0
    def f_of(t, y):
        nonlocal nfev
        nfev += 1
        return fun(t, y)

    t = t0
    f = f_of(t, y)
    h_abs = _initial_step(f_of, t, y, f, t_bound, direction, rtol, atol)
    K = [None] * len(TABLEAU.E)
    ts, ys = [], [[] for _ in y]
    status, message = None, REACHED_END  # status: 0 reached the end, -1 step too small
    while status is None:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        step_rejected = False
        while True:
            if h_abs < min_step:
                status, message = -1, TOO_SMALL_STEP
                break
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new = _rk_step(f_of, t, y, f, h, K)
            # np.maximum may give nan where max does not; the norm is nan or inf, rejected alike
            error_norm = _rms([e * h / (atol + max(abs(a), abs(b)) * rtol)
                               for e, a, b in zip(_combine(TABLEAU.E, K), y, y_new)])
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0
                          else min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT))
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            step_rejected = True
            rejected += 1
        if status is not None:
            break
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        if direction * (t - t_bound) >= 0:
            status = 0
        # t_eval points reached by this step, from its quartic interpolant
        if direction > 0:
            t_eval_i_new = bisect_right(t_eval, t)
            t_eval_step = t_eval[t_eval_i:t_eval_i_new]
        else:
            t_eval_i_new = bisect_left(t_eval, t)
            t_eval_step = t_eval[t_eval_i_new:t_eval_i][::-1]
        if t_eval_step:
            h_step = t - t_old
            Q = [_combine(column, K) for column in _P_COLUMNS]  # Q[j][i]: K^T P
            for te in t_eval_step:
                x = (te - t_old) / h_step
                powers = (x, x * x, x * x * x, x * x * x * x)  # np.cumprod's products
                for component, q, v in zip(ys, _combine(powers, Q), y_old):
                    component.append(h_step * q + v)
            ts += t_eval_step
            t_eval_i = t_eval_i_new

    return OdeResult(t=ts, y=ys if ts else [], nfev=nfev, message=message,
                     success=status >= 0, rejected=rejected)


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
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

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
