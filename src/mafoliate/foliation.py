"""Flows of the gradient field, leaf tracing, holomorphic fits, and the headline verdicts.

The polynomial ``p`` of every operation is the real-valued rho.  A leaf of the
annihilator foliation through a seed q is parametrized by

    f(t + i s) = phi_t(psi_s(q)),

where phi is the flow of dz/dt = Z(z) and psi the flow of dz/ds = i Z(z);
with that convention f is holomorphic on each leaf, f' = Z(f), the s-flow
preserves rho exactly (d rho / ds = i rho - i rho = 0 wherever d(rho)(Z) =
rho), and rho grows along t at one fixed exponential rate.  The rate is a
parametrization artifact, so it is measured and reported, never asserted
against a fixed constant; classification logic uses ratios of rates only.

Integration uses an adaptive embedded 4(5) Runge-Kutta pair.  The right-hand
side takes Z from ``finite_type.gradient_field``, decided once per polynomial:
where det divides the cofactor numerators, a call evaluates rho (the domain
check) and the exact Z's two polynomials, and tests no D; otherwise it calls
extend_gradient, whose exact ray limit at a Levi-degenerate point may raise
NoExtension.  ``leaf_diagnostics`` takes Z from it too: leaves never need numpy.

The verdict operations:

* ``burns_verify`` checks a positive homogeneous polynomial of degree 2k for
  the chain: log rho solves the Monge-Ampere equation  =>  rho has pure
  bidegree (k, k), plus the extreme-component vanishing and the ray growth
  law log rho(lambda z) = 2k log|lambda| + log rho(z).  The equation is
  decided by the exact certificate ``monge_ampere.is_ma_exact`` and the
  bidegree by the exact decomposition, which makes the growth law exact: pure
  bidegree (k, k) gives it monomial by monomial.  The chain's verdict samples
  only for positivity on the sphere, at SPHERE_SAMPLES directions, and reads
  rho exactly (``calculus.at_exact``) at the sampled minimizer, so a zero of rho
  that a sample hits is never taken for a tiny positive minimum.  A zero that
  no sample hits still passes.
* ``fit_holomorphic_Z`` / ``estimate_weights`` recover the linear model of Z
  at its zero from ``monge_ampere.complex_gradient`` at the samples, whose jets
  take their polynomial values from one ``calculus.evaluate_many`` call
  (DegenerateLevi at a sample with D <= monge_ampere.EPS_D_DEFAULT, the one
  degeneracy threshold); the eigenvalues (c1, c2) are the weights in the
  circular-domain law
  rho(e^{c1 lambda} z1, e^{c2 lambda} z2) = |e^lambda|^2 rho(z), which
  ``weighted_homogeneity_check`` verifies directly.
* ``level_transport`` moves level sets onto each other with the real flow of
  Z, timed by the growth rate of rho measured on a probe flow (FlowEscape
  where rho does not grow), and checks landing and round-trip accuracy.

Every sampler draws from ``pcg64``, the copy of numpy's seeded stream that needs no
``numpy.random``.  Most draw one vector at a time (``random_vector``), so
``level_set_samples`` and ``level_transport`` need no numpy either; the sphere sampler of
``burns_verify`` draws its normals as arrays (``pcg64.Generator.normals``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from ._numpy import np
from .calculus import (
    Point,
    Polynomial,
    WirtingerJet,
    at_exact,
    bidegree_decompose,
    evaluate_many,
    jet_polynomials,
    point_array,
    polynomial_hash,
)
from .errors import (
    ComplexEigenvalues,
    FlowEscape,
    IncompleteTrace,
    NonPositiveRho,
    NonVanishingAtCenter,
    NotHomogeneous,
    NotPositive,
    RankDeficientSamples,
    UnreachableLevel,
)
from .finite_type import _check_rho, gradient_field
from .monge_ampere import complex_gradient, is_ma_exact
from .ode import brentq, solve_ivp


FLOW_STEP_BUDGET = 500_000  # right-hand-side calls one flow may make before FlowEscape
SPHERE_SAMPLES = 10_000  # burns_verify's unit-sphere directions, the 8 special ones included


class _FlowFields(NamedTuple):
    rtol: float = 1e-10
    atol: float = 1e-10


class FlowConfig(_FlowFields):
    """Integrator tolerances shared by every flow-based operation."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (0 < self.rtol < math.inf and 0 < self.atol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        return self


def _pack(z1: complex, z2: complex) -> list[float]:
    return [z1.real, z1.imag, z2.real, z2.imag]


class _GradientFlow:
    """ODE right-hand side dz/dtau = rot * Z(z), with Z from finite_type.gradient_field;
    cfg reaches the integrator through _flow_states, and the right-hand side never reads it."""

    def __init__(self, p: Polynomial, cfg: FlowConfig, rot: complex):
        self.p = p
        self.rot = rot
        self.Z = gradient_field(p)
        self.evals = 0

    def __call__(self, _t, y) -> list[float]:
        self.evals += 1
        if self.evals > FLOW_STEP_BUDGET:
            raise FlowEscape(f"flow exceeded the step budget of {FLOW_STEP_BUDGET}")
        x1, y1, x2, y2 = y
        z1, z2 = complex(x1, y1), complex(x2, y2)
        if self.p(z1, z2).real <= 0.0:
            raise FlowEscape(f"flow left the domain rho > 0 at ({z1}, {z2})")
        if not math.isfinite(x1 + y1 + x2 + y2):
            Point(z1, z2)  # raises the ValueError of a non-finite point
        Z1, Z2 = self.Z(z1, z2)
        return _pack(self.rot * Z1, self.rot * Z2)


def _flow_states(rhs, y0, values, cfg: FlowConfig, runs: list | None = None) -> list:
    """States [x1, y1, x2, y2] of the flow at the requested parameter values (0 is the
    seed); each integrator run's result is appended to runs, when given."""
    values = [float(v) for v in values]
    states: list = [None] * len(values)
    order = sorted(range(len(values)), key=values.__getitem__)
    neg = [i for i in order if values[i] < 0][::-1]
    pos = [i for i in order if values[i] >= 0]
    for idx_list in (neg, pos):
        if not idx_list:
            continue
        ts = [values[i] for i in idx_list]
        if ts[-1] == 0.0:
            for i in idx_list:
                states[i] = [float(v) for v in y0]
            continue
        sol = solve_ivp(rhs, (0.0, ts[-1]), y0, rtol=cfg.rtol, atol=cfg.atol, t_eval=ts)
        if runs is not None:
            runs.append(sol)
        if not sol.success:
            raise FlowEscape(f"integration failed: {sol.message}")
        for i, state in zip(idx_list, zip(*sol.y)):
            states[i] = list(state)
    return states


def _as_pair(state) -> tuple[complex, complex]:  # a state (x1, y1, x2, y2) as (z1, z2)
    x1, y1, x2, y2 = state
    return complex(x1, y1), complex(x2, y2)


def flow_point(p: Polynomial, q: Point, time: float,
               cfg: FlowConfig | None = None) -> Point:
    """Single endpoint of the real flow dz/dt = Z(z) started at q."""
    cfg = cfg or FlowConfig()
    state = _flow_states(_GradientFlow(p, cfg, 1.0), _pack(*q.as_pair()), [time], cfg)[0]
    return Point(*_as_pair(state))


def make_grid(t_min: float, t_max: float, s_min: float, s_max: float,
              step: float) -> tuple[list[float], list[float]]:
    nt = int(round((t_max - t_min) / step)) + 1
    ns = int(round((s_max - s_min) / step)) + 1
    return [t_min + step * k for k in range(nt)], [s_min + step * k for k in range(ns)]


class LeafTrace(NamedTuple):
    """Image of a (t, s) grid under f(t + i s) = phi_t(psi_s(seed)), with node data as
    nested lists; ``points``, ``rho_values`` and ``u_values`` build them as numpy arrays."""

    poly: Polynomial  # the real-valued rho
    seed: Point
    t_values: list
    s_values: list
    nodes: list      # nodes[i][j] = (z1, z2) at (t_values[i], s_values[j])
    rho_rows: list   # rho_rows[i][j] = rho at nodes[i][j]
    u_rows: list     # log of rho_rows
    diagnostics: dict
    counts: dict     # the integrator runs: flows, nfev and rejected_steps

    @property
    def points(self) -> np.ndarray:  # shape (nt, ns, 2), complex
        return np.array(self.nodes, dtype=complex).reshape(len(self.t_values), len(self.s_values), 2)

    @property
    def rho_values(self) -> np.ndarray:  # shape (nt, ns)
        return np.array(self.rho_rows, dtype=float)

    @property
    def u_values(self) -> np.ndarray:
        return np.array(self.u_rows, dtype=float)


def trace_leaf(p: Polynomial, seed: Point, t_values, s_values,
               cfg: FlowConfig | None = None) -> LeafTrace:
    """Integrate the two real flows of Z over the grid; record rho, u, diagnostics and runs."""
    cfg = cfg or FlowConfig()
    z1, z2 = seed.as_pair()
    rho0 = p(z1, z2).real
    if rho0 <= 0.0:
        raise NonPositiveRho(f"rho(seed) = {rho0} <= 0")
    t_values = [float(t) for t in t_values]
    s_values = [float(s) for s in s_values]
    runs: list = []
    s_states = _flow_states(_GradientFlow(p, cfg, 1j), _pack(z1, z2), s_values, cfg, runs)
    columns = [_flow_states(_GradientFlow(p, cfg, 1.0 + 0j), s_state, t_values, cfg, runs)
               for s_state in s_states]
    nodes = [[_as_pair(column[i]) for column in columns] for i in range(len(t_values))]
    rho_rows = [[p(*node).real for node in row] for row in nodes]  # the bits of evaluate_many
    if any(r <= 0.0 for row in rho_rows for r in row):
        raise FlowEscape("a grid node left the domain rho > 0")
    u_rows = [[math.log(r) for r in row] for row in rho_rows]

    diag: dict = {}
    # level preservation along the s-flow
    diag["level_drift"] = max(abs(p(*_as_pair(st)).real - rho0) for st in s_states) / rho0

    # exponential growth fit per s-line, plus constancy across sub-intervals
    if len(t_values) >= 3:
        u_lines = list(zip(*u_rows))  # u_lines[j][i]: u at (t_values[i], s_values[j])
        slopes = [_slope(t_values, line) for line in u_lines]
        rate = sum(slopes) / len(slopes)
        scale = max(abs(rate), 1e-30)
        half = len(t_values) // 2
        diag["growth_rate"] = rate
        diag["growth_subinterval_spread"] = max(
            abs(_slope(t_values[half:], line[half:]) - _slope(t_values[:half + 1], line[:half + 1]))
            / scale for line in u_lines)
        diag["growth_pointwise_spread"] = max(
            abs((u1 - u0) / (t1 - t0) - rate)
            for t0, t1, row0, row1 in zip(t_values, t_values[1:], u_rows, u_rows[1:])
            for u0, u1 in zip(row0, row1)) / scale

    # distance to the complex line through the seed (meaningful for homogeneous rho);
    # None at the origin, through which no complex line passes
    worst = None
    if seed.norm() > 0.0:
        v1, v2 = (v / seed.norm() for v in seed.as_pair())
        worst = 0.0
        for z1, z2 in (node for row in nodes for node in row):
            inner = z1 * v1.conjugate() + z2 * v2.conjugate()
            worst = max(worst, math.hypot(abs(z1 - inner * v1), abs(z2 - inner * v2))
                        / math.hypot(abs(z1), abs(z2)))
    diag["radiality_defect"] = worst
    counts = {"flows": len(runs), "nfev": sum(r.nfev for r in runs),
              "rejected_steps": sum(r.rejected for r in runs)}
    return LeafTrace(p, seed, t_values, s_values, nodes, rho_rows, u_rows, diag, counts)


def _slope(x: list, y: list) -> float:
    """Least-squares slope of y against x, in closed form."""
    mx, my = sum(x) / len(x), sum(y) / len(y)
    return sum((a - mx) * (b - my) for a, b in zip(x, y)) / sum((a - mx) ** 2 for a in x)


class LeafDiagnostics(NamedTuple):
    """Grid-based checks of harmonicity, growth, and the parametrization law f' = Z(f)."""

    h_t: float
    h_s: float
    harmonicity_defect: float
    monotone_growth: bool
    parametrization_defect: float
    min_gradient_norm: float
    growth_rate: float
    growth_subinterval_spread: float
    level_drift: float


def _uniform_step(values: list, label: str) -> float:
    d = [b - a for a, b in zip(values, values[1:])]
    if not d:
        raise IncompleteTrace(f"need at least two {label} nodes")
    if max(abs(x - d[0]) for x in d) > 1e-9 * abs(d[0]):
        raise IncompleteTrace(f"{label} grid is not uniform")
    return d[0]


def leaf_diagnostics(trace: LeafTrace) -> LeafDiagnostics:
    """Five-point Laplacian of u, monotone growth of u in t, and max |f' - Z(f)|."""
    u = trace.u_rows
    nt, ns = len(trace.t_values), len(trace.s_values)
    if nt < 3 or ns < 3:
        raise IncompleteTrace("diagnostics need at least a 3 x 3 grid")
    ht = _uniform_step(trace.t_values, "t")
    hs = _uniform_step(trace.s_values, "s")

    harmonicity = max(
        abs((u[i + 1][j] - 2 * u[i][j] + u[i - 1][j]) / ht**2
            + (u[i][j + 1] - 2 * u[i][j] + u[i][j - 1]) / hs**2)
        for i in range(1, nt - 1) for j in range(1, ns - 1))

    monotone = all(b - a > 0 for row0, row1 in zip(u, u[1:]) for a, b in zip(row0, row1))

    Z = gradient_field(trace.poly)  # at rho > 0, the doubles of finite_type.gradient
    pts = trace.nodes
    par_defect, min_grad = 0.0, math.inf
    for lo, mid, hi in zip(pts, pts[1:], pts[2:]):  # f' by central differences in t
        for (a1, a2), node, (b1, b2) in zip(lo, mid, hi):
            Z1, Z2 = Z(*node)
            par_defect = max(par_defect, abs((b1 - a1) / (2 * ht) - Z1),
                             abs((b2 - a2) / (2 * ht) - Z2))
            min_grad = min(min_grad, math.hypot(abs(Z1), abs(Z2)))

    d = trace.diagnostics
    return LeafDiagnostics(ht, hs, harmonicity, monotone, par_defect, min_grad,
                           d.get("growth_rate", math.nan),
                           d.get("growth_subinterval_spread", math.nan),
                           d["level_drift"])


LEAF_CSV_COLUMNS = ("t", "s", "x1", "y1", "x2", "y2", "rho", "u")


def write_leaf_csv(trace: LeafTrace, path, version: str) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        fh.write(f"# mafoliate {version}\n")
        fh.write(f"# poly_sha256 {polynomial_hash(trace.poly)}\n")
        writer = csv.writer(fh)
        writer.writerow(LEAF_CSV_COLUMNS)
        for t, nodes, rhos, us in zip(trace.t_values, trace.nodes, trace.rho_rows, trace.u_rows):
            for s, (z1, z2), rho, u in zip(trace.s_values, nodes, rhos, us):
                writer.writerow([repr(t), repr(s), repr(z1.real), repr(z1.imag),
                                 repr(z2.real), repr(z2.imag), repr(rho), repr(u)])


# ---------------------------------------------------------------------------
# holomorphic fit of Z and the weight model
# ---------------------------------------------------------------------------


def _holomorphic_basis(degree: int) -> list[tuple[int, int]]:
    return [(a, b) for total in range(degree + 1) for a in range(total, -1, -1)
            for b in (total - a,)]


class HolomorphicFit(NamedTuple):
    """Least-squares model of Z on holomorphic monomials z1^a z2^b (no conjugates)."""

    degree: int
    coeff1: dict
    coeff2: dict
    max_residual: float
    holdout_pairing_residual: float

    def evaluate(self, z1: complex, z2: complex) -> tuple[complex, complex]:
        return tuple(sum(c * z1**a * z2**b for (a, b), c in coeffs.items())
                     for coeffs in (self.coeff1, self.coeff2))

    def constant_part(self) -> tuple[complex, complex]:
        return (self.coeff1.get((0, 0), 0j), self.coeff2.get((0, 0), 0j))

    def jacobian_at_zero(self) -> np.ndarray:
        return np.array([
            [self.coeff1.get((1, 0), 0j), self.coeff1.get((0, 1), 0j)],
            [self.coeff2.get((1, 0), 0j), self.coeff2.get((0, 1), 0j)],
        ])

    def nonlinear_mass(self) -> float:
        return max([0.0, *(abs(c) for coeffs in (self.coeff1, self.coeff2)
                           for (a, b), c in coeffs.items() if a + b >= 2)])

    def coefficient(self, component: int, key: tuple[int, int]) -> complex:
        return (self.coeff1 if component == 1 else self.coeff2).get(key, 0j)


def fit_holomorphic_Z(p: Polynomial, samples: Sequence[Point],
                      degree: int) -> HolomorphicFit:
    """Fit each gradient component on holomorphic monomials up to `degree`.

    The tail fifth of `samples`, at least two but no more than leaves 3x the
    basis to the fit, is withheld from the fit and used only for the reported
    residual of d(rho)(Z_fit) - rho; with 3x the basis or fewer samples, none
    is left and RankDeficientSamples is raised.  NonPositiveRho names the first
    sample where rho <= 0 or rho is not finite.
    """
    basis = _holomorphic_basis(degree)
    n = len(samples)
    if n <= 3 * len(basis):
        raise RankDeficientSamples(f"{n} samples for {len(basis)} basis monomials (need more "
                                   f"than 3x: 3x to fit, and at least one to hold out)")
    n_hold = min(max(2, n // 5), n - 3 * len(basis))
    fit_set = samples[:n - n_hold]

    jp = jet_polynomials(p)
    values = evaluate_many((p, jp.d1, jp.d2, jp.h11, jp.h12, jp.h21, jp.h22),
                           *point_array(samples).T)
    jets = [WirtingerJet.from_values(q, *row) for q, row in zip(samples, values.T.tolist())]
    for jet in jets:  # the holdout residual is relative to rho
        _check_rho(jet.rho, jet.point)
    A = np.empty((len(fit_set), len(basis)), dtype=complex)
    Zs = np.empty((len(fit_set), 2), dtype=complex)
    for i, q in enumerate(fit_set):
        z1, z2 = q.as_pair()
        A[i] = [z1**a * z2**b for a, b in basis]
        Zs[i] = complex_gradient(jets[i]).as_vector()
    coeffs = []
    for comp in range(2):
        sol, _res, rank, _sv = np.linalg.lstsq(A, Zs[:, comp], rcond=None)
        if rank < len(basis):
            raise RankDeficientSamples(f"sample matrix rank {rank} < {len(basis)}")
        coeffs.append({key: complex(c) for key, c in zip(basis, sol)})
    fitted = A @ np.array([[coeffs[c][key] for key in basis] for c in range(2)]).T
    max_residual = float(np.max(np.abs(fitted - Zs)))

    fit = HolomorphicFit(degree, coeffs[0], coeffs[1], max_residual, 0.0)
    hold_res = 0.0
    for jet in jets[len(fit_set):]:
        Z1, Z2 = fit.evaluate(*jet.point.as_pair())
        gap = abs(jet.d1 * Z1 + jet.d2 * Z2 - jet.rho) / jet.rho
        hold_res = max(hold_res, gap)
    return HolomorphicFit(degree, coeffs[0], coeffs[1], max_residual, hold_res)


_SPHERE_SPECIAL = [
    (1, 0), (0, 1), (1j, 0), (0, 1j),
    (2**-0.5, 2**-0.5), (2**-0.5, -(2**-0.5)), (2**-0.5, 2**-0.5 * 1j), (2**-0.5 * 1j, 2**-0.5),
]


def _sphere_directions(count: int) -> np.ndarray:
    """Deterministic unit vectors in C^2 as the rows of a complex array: the axis and
    diagonal points, then ``random_vector`` draws from the seed 718281828."""
    from .pcg64 import default_rng

    rng = default_rng(718281828)
    draws = [random_vector(rng) for _ in range(count - len(_SPHERE_SPECIAL))]
    return np.array(_SPHERE_SPECIAL + draws, dtype=complex)


class ZeroSetReport(NamedTuple):
    """Shell minima of |Z_fit| near the origin and any other numerical zeros found."""

    isolated_zero_at_origin: bool
    linear_min_singular: float
    origin_value: float
    min_on_unit_sphere: float
    shell_minima: tuple
    other_zeros: tuple


_ZERO_TOL = 1e-7  # |Z_fit| below this counts as a zero


def zero_set_check(fit: HolomorphicFit) -> ZeroSetReport:
    """Verify min |Z| >= c r on the spheres of radius r = 2^-j, j < 6 (an isolated
    zero), and report stray zeros; each sphere is sampled at 240 directions at once."""
    dirs = _sphere_directions(240)
    J = fit.jacobian_at_zero()
    smin = float(np.linalg.svd(J, compute_uv=False)[-1])
    origin_value = float(np.hypot(*[abs(c) for c in fit.evaluate(0.0, 0.0)]))

    shell_minima = []
    other_zeros = []
    for j in range(6):
        r = 0.5**j
        Z1, Z2 = fit.evaluate(r * dirs[:, 0], r * dirs[:, 1])
        # a component without terms evaluates to the scalar 0
        vals = np.broadcast_to(np.hypot(np.abs(Z1), np.abs(Z2)), len(dirs))
        shell_minima.append((r, float(vals.min())))
        for d in dirs[vals < _ZERO_TOL * (1.0 + r)]:
            other_zeros.append(Point(r * d[0], r * d[1]))

    isolated = smin > _ZERO_TOL and all(m >= 0.5 * smin * r for r, m in shell_minima)
    # the first shell is the unit sphere
    return ZeroSetReport(isolated, smin, origin_value, shell_minima[0][1],
                         tuple(shell_minima), tuple(other_zeros[:32]))


class WeightEstimate(NamedTuple):
    """Eigenvalues of the linear part of Z at its zero, sorted ascending."""

    c1: float
    c2: float
    jacobian: tuple
    residual: float


def estimate_weights(fit: HolomorphicFit) -> WeightEstimate:
    tol = 1e-8  # relative, for a zero constant term and real eigenvalues
    J = fit.jacobian_at_zero()
    scale = 1.0 + float(np.max(np.abs(J)))
    const = fit.constant_part()
    if max(abs(const[0]), abs(const[1])) > tol * scale:
        raise NonVanishingAtCenter(f"fitted field is {const} at the origin")
    vals, vecs = np.linalg.eig(J)
    if float(np.max(np.abs(vals.imag))) > tol * (1.0 + float(np.max(np.abs(vals)))):
        raise ComplexEigenvalues(f"eigenvalues {vals} are not real within tolerance")
    try:
        recon = vecs @ np.diag(vals) @ np.linalg.inv(vecs)
        residual = float(np.linalg.norm(recon - J) / (1.0 + np.linalg.norm(J)))
    except np.linalg.LinAlgError:
        residual = math.inf
    c_sorted = sorted(float(v) for v in vals.real)
    return WeightEstimate(c_sorted[0], c_sorted[1],
                          tuple(map(tuple, J.tolist())), residual)


def _fma_square(a: float, c: float) -> float:
    """``a * a + c`` rounded once, as a fused multiply-add computes it.

    Where ``a * a`` is neither tiny nor huge, its error is exact from Veltkamp's split
    and ``fsum`` rounds the three terms once; elsewhere the sum is taken in exact
    rationals."""
    aa = a * a
    if 2.0**-900 <= aa <= 2.0**1000:
        t = a * 134217729.0  # 2**27 + 1
        hi = t - (t - a)
        lo = a - hi
        err = ((hi * hi - aa) + 2.0 * hi * lo) + lo * lo
        try:
            return math.fsum((aa, err, c))
        except OverflowError:
            return math.inf
    if not (math.isfinite(aa) and math.isfinite(c)):
        return aa + c
    try:
        return float(Fraction(a) ** 2 + Fraction(c))
    except OverflowError:
        return math.inf


def _norm(z1: complex, z2: complex) -> float:
    """The Euclidean norm of (z1, z2) as numpy's ``linalg.norm`` computes it where its
    dot products fuse multiply and add: ``sqrt(|re|^2 + |im|^2)``, each square a
    two-term dot product ``fma(x1, x1, x0 * x0)``.  Taking the fma exactly keeps the
    value independent of the BLAS kernel."""
    return math.sqrt(_fma_square(z2.real, z1.real * z1.real)
                     + _fma_square(z2.imag, z1.imag * z1.imag))


def random_vector(rng, r_lo: float | None = None,
                  r_hi: float | None = None) -> tuple[complex, complex]:
    """Gaussian direction (z1, z2) in C^2, scaled to a radius uniform in [r_lo, r_hi], or to
    unit length.

    ``rng`` is any generator with ``normal()`` and ``uniform(lo, hi)``: the pure-Python
    ``pcg64.default_rng``, or numpy's, whose stream it is.  Four scalar normals are the
    stream of numpy's ``normal(size=4)``, and the scale multiplies by ``1.0 / norm`` (or
    ``radius / norm``) as numpy divides a complex array by a real number, so a seed gives
    the vectors it gave when this was computed on numpy arrays."""
    r0, r1, r2, r3 = rng.normal(), rng.normal(), rng.normal(), rng.normal()
    n = _norm(complex(r0, r1), complex(r2, r3))
    s = 1.0 / n if r_lo is None else rng.uniform(r_lo, r_hi) / n
    return complex(r0 * s, r1 * s), complex(r2 * s, r3 * s)


def weighted_homogeneity_check(p: Polynomial, c1: float, c2: float,
                               trials: int = 1000, seed: int = 0) -> float:
    """Max relative defect of rho(e^{c1 L} z1, e^{c2 L} z2) = |e^L|^2 rho(z) over random (z, L)."""
    if c1 <= 0 or c2 <= 0:
        raise ValueError("weights must be positive")
    from .pcg64 import default_rng

    rng = default_rng(seed)
    z = np.empty((trials, 2, 2), dtype=complex)  # per trial: the moved point, then the point
    growth = []
    for t in range(trials):
        v = random_vector(rng, 0.5, 1.5)
        lam = complex(rng.uniform(-1.0, 1.0), rng.uniform(-math.pi, math.pi))
        z[t] = (np.exp(c1 * lam) * v[0], np.exp(c2 * lam) * v[1]), v
        growth.append(math.exp(2.0 * lam.real))
    lhs, base = evaluate_many((p,), z[..., 0], z[..., 1])[0].real.reshape(trials, 2).T.tolist()
    worst = 0.0
    for scale, left, right in zip(growth, lhs, base):
        rhs = scale * right
        worst = max(worst, abs(left - rhs) / max(abs(rhs), 1e-300))
    return worst


# ---------------------------------------------------------------------------
# level-set transport
# ---------------------------------------------------------------------------


def level_set_samples(p: Polynomial, r: float, count: int,
                      seed: int = 0) -> list[Point]:
    """Points on {rho = r}, found by radial root-finding along ``random_vector`` directions
    drawn from ``pcg64.default_rng(seed)``; ValueError unless 0 < r < inf.  Where no
    regular point of the level lies on a ray, UnreachableLevel names the direction as
    ``(z1, z2)``."""
    if not 0 < r < math.inf:
        raise ValueError("level values must be positive and finite")
    from .pcg64 import default_rng

    rng = default_rng(seed)
    out = []
    for _ in range(count):
        v = random_vector(rng)

        def along(t: float) -> float:
            return p(t * v[0], t * v[1]).real - r

        hi = 1.0
        for _ in range(80):
            if along(hi) > 0:
                break
            hi *= 1.5
        else:
            raise UnreachableLevel(f"cannot bracket the level rho = {r} along {v}")
        try:
            t_star = brentq(along, 1e-12, hi, xtol=1e-14, rtol=8.9e-16)
        except ValueError as exc:  # rho - r has one sign at both ends, or is NaN
            raise UnreachableLevel(f"cannot bracket the level rho = {r} along {v}: {exc}") from exc
        if t_star == 1e-12:  # rho = r already where the ray starts, at the origin
            raise UnreachableLevel(f"rho = {r} is a critical level: along {v} its root is the "
                                   f"bracket's lower end t = 1e-12, at the origin")
        out.append(Point(t_star * v[0], t_star * v[1]))
    return out


class TransportReport(NamedTuple):
    """Landing and round-trip accuracy of the real-flow transport between level sets."""

    r1: float
    r2: float
    rate: float
    time: float
    max_landing_defect: float
    max_roundtrip_defect: float
    landing_defects: tuple
    roundtrip_defects: tuple


def level_transport(p: Polynomial, r1: float, r2: float,
                    samples: Sequence[Point], cfg: FlowConfig | None = None) -> TransportReport:
    """Flow {rho = r1} onto {rho = r2} for the time predicted by the measured rate."""
    if not (0 < r1 < math.inf and 0 < r2 < math.inf):
        raise ValueError("level values must be positive and finite")
    cfg = cfg or FlowConfig()
    if not samples:
        raise ValueError("need at least one sample on the source level set")

    probe_time = 0.05
    probe_end = flow_point(p, samples[0], probe_time, cfg)
    rho_end = p(*probe_end.as_pair()).real
    rho_start = p(*samples[0].as_pair()).real
    rate = (math.log(rho_end) - math.log(rho_start)) / probe_time
    if not 0.0 < rate < math.inf:
        raise FlowEscape(f"rho does not grow along the flow from {samples[0].as_pair()} "
                         f"(measured rate {rate}); no transport time to {r2}")
    T = math.log(r2 / r1) / rate

    landing, roundtrip = [], []
    for q in samples:
        fwd = flow_point(p, q, T, cfg)
        rho_f = p(*fwd.as_pair()).real
        landing.append(abs(rho_f - r2) / r2)
        back = flow_point(p, fwd, -T, cfg)
        (b1, b2), (q1, q2) = back.as_pair(), q.as_pair()
        roundtrip.append(_norm(b1 - q1, b2 - q2) / (1.0 + q.norm()))
    return TransportReport(r1, r2, rate, T, max(landing), max(roundtrip),
                           tuple(landing), tuple(roundtrip))


# ---------------------------------------------------------------------------
# homogeneous-polynomial verdict
# ---------------------------------------------------------------------------


class BurnsVerdict(NamedTuple):
    """Joint record of the exact Monge-Ampere and bidegree verdicts, and the growth law
    that pure bidegree implies."""

    k: int
    is_ma: bool
    bidegree_pure: bool
    components: tuple
    extreme_components_vanish: bool
    growth_bound: float | None  # 0.0, exactly, where bidegree_pure; else None: the law fails
    min_on_sphere: float
    theorem_consistent: bool


def _first_minimum(p: Polynomial, batch: np.ndarray, best_val: float, best_dir):
    """What scanning the rows of batch in order for a value strictly below the best so far
    keeps: the first row holding the least value below best_val (nans never count)."""
    vals = evaluate_many((p,), batch[:, 0], batch[:, 1])[0].real
    below = np.where(vals < best_val, vals, np.inf)
    i = int(np.argmin(below))
    if below[i] < best_val:
        return vals[i].item(), batch[i]
    return best_val, best_dir


def _positive_min_on_sphere(p: Polynomial, n_samples: int, seed: int) -> tuple[float, Point]:
    """The least sampled rho on the unit sphere and its direction: the special directions
    and n_samples - 8 Gaussian ones, then three clouds of 2,000 around the least so far.

    The normals are numpy's ``default_rng(seed).normal(size=(m, 4))``, drawn as arrays by
    ``pcg64``'s ``normals``: with SPHERE_SAMPLES about 64,000 of them, which take 5-7 ms,
    where one at a time they take about 55 ms, and numpy's own draw 1 ms after the 13-16 ms
    of ``import numpy.random``."""
    from .pcg64 import default_rng

    rng = default_rng(seed)
    dirs = np.array(_SPHERE_SPECIAL, dtype=complex)
    raw = rng.normals(4 * max(n_samples - len(dirs), 0)).reshape(-1, 4)
    cloud = np.empty((len(raw), 2), dtype=complex)
    cloud[:, 0] = raw[:, 0] + 1j * raw[:, 1]
    cloud[:, 1] = raw[:, 2] + 1j * raw[:, 3]
    cloud /= np.linalg.norm(cloud, axis=1)[:, None]
    best_val, best_dir = _first_minimum(p, np.concatenate([dirs, cloud]), math.inf, dirs[0])
    # local refinement around the worst direction
    for shrink in (0.3, 0.1, 0.03):
        raw = rng.normals(8000).reshape(2000, 4)
        pert = np.empty((len(raw), 2), dtype=complex)
        pert[:, 0] = best_dir[0] + shrink * (raw[:, 0] + 1j * raw[:, 1])
        pert[:, 1] = best_dir[1] + shrink * (raw[:, 2] + 1j * raw[:, 3])
        pert /= np.linalg.norm(pert, axis=1)[:, None]
        best_val, best_dir = _first_minimum(p, pert, best_val, best_dir)
    return best_val, Point(best_dir[0], best_dir[1])


def burns_verify(p: Polynomial, seed: int = 0) -> BurnsVerdict:
    """Homogeneity-gated verdict: the exact MA certificate and bidegree purity, which makes
    the growth law exact; NotPositive when the sampled sphere minimum is not positive, in
    doubles or in the exact value at its direction."""
    degrees = p.total_degrees()
    if len(degrees) != 1:
        raise NotHomogeneous(f"mixed total degrees {sorted(degrees)}")
    total = degrees.pop()
    if total == 0 or total % 2 != 0:
        raise NotHomogeneous(f"total degree {total} admits no (k, k) bidegree")
    k = total // 2

    min_sphere, worst = _positive_min_on_sphere(p, SPHERE_SAMPLES, seed)
    exact = at_exact(p, worst).re  # a double may round a zero of rho up to a tiny positive value
    if min_sphere <= 0.0 or exact <= 0:
        shown = min_sphere if min_sphere <= 0.0 else float(exact)
        raise NotPositive(f"rho = {shown} at {worst.as_pair()}", witness=worst)

    profile = bidegree_decompose(p)
    comps = tuple(sorted(profile.components))
    pure = comps == ((k, k),)
    extreme_vanish = (0, total) not in profile.components and (total, 0) not in profile.components
    is_ma = is_ma_exact(p)

    # pure bidegree (k, k): every monomial z^a zbar^b has |a| = |b| = k, so
    # rho(lambda z) = |lambda|^{2k} rho(z) holds term by term
    growth = 0.0 if pure else None
    return BurnsVerdict(k, is_ma, pure, comps, extreme_vanish, growth, min_sphere,
                        (not is_ma) or pure)
