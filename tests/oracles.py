"""Independent reference implementations used to confirm toolkit results.

Everything here is deliberately built on different machinery than the package:
sympy symbolic differentiation with conjugate variables as independent
symbols, and plain central finite differences on evaluations.  Values asserted
in the test modules were either computed by these oracles or verified against
them.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np
import sympy as sp

Z1, Z2, B1, B2 = sp.symbols("oz1 oz2 ob1 ob2", complex=True)
_W1, _W2 = sp.symbols("ow1 ow2", complex=True)
VARS = (Z1, Z2, B1, B2)


def poly_expr(term_list):
    """Build a sympy expression from interchange-style terms [((a1,a2,b1,b2), coeff), ...]."""
    expr = sp.Integer(0)
    for (a1, a2, b1, b2), coeff in term_list:
        expr += sp.sympify(coeff) * Z1**a1 * Z2**a2 * B1**b1 * B2**b2
    return sp.expand(expr)


def conj_expr(e):
    """Formal conjugation: swap z <-> zbar symbols and conjugate constants."""
    e = sp.expand(e)
    swapped = e.subs({Z1: _W1, Z2: _W2, B1: Z1, B2: Z2}, simultaneous=True)
    swapped = swapped.subs({_W1: B1, _W2: B2}, simultaneous=True)
    out = swapped.conjugate()
    return sp.expand(out.subs({sp.conjugate(v): v for v in VARS}))


def at_point(e, pt):
    q = {Z1: pt[0], Z2: pt[1], B1: sp.conjugate(sp.sympify(pt[0])), B2: sp.conjugate(sp.sympify(pt[1]))}
    return complex(sp.N(sp.expand(e).subs(q), 30))


def sympy_jet(term_list, pt):
    """rho, first derivatives, Levi entries, D and B by symbolic differentiation."""
    rho = poly_expr(term_list)
    d1, d2 = sp.diff(rho, Z1), sp.diff(rho, Z2)
    db1, db2 = sp.diff(rho, B1), sp.diff(rho, B2)
    h11, h12 = sp.diff(d1, B1), sp.diff(d1, B2)
    h21, h22 = sp.diff(d2, B1), sp.diff(d2, B2)
    D = sp.expand(h11 * h22 - h12 * h21)
    B = sp.expand(h11 * d2 * db2 + h22 * d1 * db1 - h12 * db1 * d2 - h21 * d1 * db2)
    return {
        "rho": at_point(rho, pt), "d1": at_point(d1, pt), "d2": at_point(d2, pt),
        "h11": at_point(h11, pt), "h12": at_point(h12, pt),
        "h21": at_point(h21, pt), "h22": at_point(h22, pt),
        "D": at_point(D, pt), "B": at_point(B, pt),
    }


def sympy_residual(term_list, pt):
    j = sympy_jet(term_list, pt)
    residual = (j["rho"] * j["D"] - j["B"]).real
    return residual, residual / (abs(j["rho"] * j["D"]) + abs(j["B"]))


def _field_bracket(V, W):
    """Commutator of derivations given as coefficient 4-tuples over (d1, d2, db1, db2)."""
    out = []
    for j in range(4):
        e = sp.Integer(0)
        for k, var in enumerate(VARS):
            e += V[k] * sp.diff(W[j], var) - W[k] * sp.diff(V[j], var)
        out.append(sp.expand(e))
    return tuple(out)


def sympy_type(term_list, pt, m_max=7, tol=1e-8):
    """Brute-force bracket enumeration: (type, witness string), or (None, None)."""
    rho = poly_expr(term_list)
    d1, d2 = sp.diff(rho, Z1), sp.diff(rho, Z2)
    L = (d2, -d1, sp.Integer(0), sp.Integer(0))
    Lb = (sp.Integer(0), sp.Integer(0), conj_expr(d2), -conj_expr(d1))
    gens = {"L": L, "Lbar": Lb}
    scale = 1.0 + max(abs(at_point(d1, pt)), abs(at_point(d2, pt)))
    level = [("[L,Lbar]", _field_bracket(L, Lb))]
    for m in range(2, m_max + 1):
        for name, field in level:
            val = at_point(d1 * field[0] + d2 * field[1], pt)
            if abs(val) > tol * scale:
                return m, name
        level = [(f"[{name},{g}]", _field_bracket(field, gens[g]))
                 for name, field in level for g in ("L", "Lbar")]
    return None, None


def full_bracket_tower(p, m_max):
    """{m: level m} for m = 2..m_max: every left-normed word of length m with its field,
    each field bracketed out of its parent's by lie_bracket, with no symmetry used.
    finite_type.bracket_level must equal it exactly."""
    from mafoliate.finite_type import lie_bracket, tangential_field

    L = tangential_field(p)
    gens = {"L": L, "Lbar": L.conjugate()}
    level = [("[L,Lbar]", lie_bracket(L, gens["Lbar"]))]
    tower = {2: level}
    for m in range(3, m_max + 1):
        level = [(f"[{word},{g}]", lie_bracket(field, gens[g]))
                 for word, field in level for g in ("L", "Lbar")]
        tower[m] = level
    return tower


class TypeCapExceeded(Exception):
    """extension_ingredients found no bracket word up to the length cap that pairs
    nontrivially with d(rho): point_type reported "exceeds_cap"."""


def extension_ingredients(p, q, m_max=None):
    """(1,0) part V of the type witness at q and the transversality value
    phi = d(rho)(V) / rho, read from point_type and bracket_level."""
    from mafoliate import PolyVectorField
    from mafoliate.calculus import Polynomial
    from mafoliate.finite_type import TYPE_CAP_DEFAULT, bracket_level, point_type

    m_max = TYPE_CAP_DEFAULT if m_max is None else m_max
    report = point_type(p, q, m_max=m_max)
    if report.witness is None:
        raise TypeCapExceeded(f"no witness up to length {m_max} at {q.as_pair()}")
    field = next(field for word, field in bracket_level(p, report.type_m)
                 if str(word) == report.witness)
    V = PolyVectorField(field.c1, field.c2, Polynomial.zero(), Polynomial.zero())
    return V, report.pairing_value / p(*q.as_pair()).real


class MinEigenReport(NamedTuple):
    """Minimum Levi eigenvalue over a sample region, with the attaining point."""

    target: str
    min_eigenvalue: float
    point: object


def psh_min_eigen(p, region, target="rho") -> MinEigenReport:
    """Minimum eigenvalue of the complex Hessian of rho or of u = log rho over `region`,
    from the package's jets and numpy's eigvalsh."""
    from mafoliate import NonPositiveRho, eval_jet

    if target not in ("rho", "log_rho"):
        raise ValueError(f"target must be 'rho' or 'log_rho', got {target!r}")
    best = best_point = None
    for q in region:
        jet = eval_jet(p, q)
        h = jet.levi_matrix()
        if target == "log_rho":
            if jet.rho <= 0.0:
                raise NonPositiveRho(f"rho({q.as_pair()}) = {jet.rho} <= 0")
            grad = np.array([jet.d1, jet.d2])
            h = h / jet.rho - np.outer(grad, grad.conjugate()) / jet.rho**2
        lo = float(np.linalg.eigvalsh(h)[0])
        if best is None or lo < best:
            best, best_point = lo, q
    if best is None:
        raise ValueError("empty sample region")
    return MinEigenReport(target, best, best_point)


# ---------------------------------------------------------------------------
# finite differences on evaluations only
# ---------------------------------------------------------------------------


def _shift(q, var, delta):
    z1, z2 = q
    if var == "x1":
        return (z1 + delta, z2)
    if var == "y1":
        return (z1 + 1j * delta, z2)
    if var == "x2":
        return (z1, z2 + delta)
    return (z1, z2 + 1j * delta)


def fd_wirtinger(f, q, var, h):
    """Central-difference Wirtinger derivative of f: C^2 -> C at q."""
    base, conj = {"z1": ("x1", "y1"), "z2": ("x2", "y2"),
                  "zbar1": ("x1", "y1"), "zbar2": ("x2", "y2")}[var], var.startswith("zbar")
    xvar, yvar = base
    dx = (f(*_shift(q, xvar, h)) - f(*_shift(q, xvar, -h))) / (2 * h)
    dy = (f(*_shift(q, yvar, h)) - f(*_shift(q, yvar, -h))) / (2 * h)
    return 0.5 * (dx + 1j * dy) if conj else 0.5 * (dx - 1j * dy)


def fd_jet(f, q, h):
    """First and mixed-second Wirtinger derivatives of f by nested central differences."""
    out = {
        "d1": fd_wirtinger(f, q, "z1", h),
        "d2": fd_wirtinger(f, q, "z2", h),
    }
    for name, first, second in (
        ("h11", "z1", "zbar1"), ("h12", "z1", "zbar2"),
        ("h21", "z2", "zbar1"), ("h22", "z2", "zbar2"),
    ):
        out[name] = fd_wirtinger(
            lambda a, b: fd_wirtinger(f, (a, b), first, h), q, second, h
        )
    return out


# ---------------------------------------------------------------------------
# the ray ladder: a numeric extrapolation of the ray limit
# ---------------------------------------------------------------------------


class LadderDisagreement(Exception):
    """The ladder's extrapolants along different rays disagree beyond tol_ext."""


# the package's eight approach rays, normalized
LADDER_RAYS = tuple((d1 / cmath.sqrt(abs(d1) ** 2 + abs(d2) ** 2),
                     d2 / cmath.sqrt(abs(d1) ** 2 + abs(d2) ** 2))
                    for d1, d2 in ((1, 1), (1, -1), (1, 1j), (1j, 1), (2, 1), (1, 2),
                                   (1 + 1j, 1 - 1j), (1 - 2j, 2 + 1j)))


def scalar_extend_gradient(p, q, eps_D=1e-10, tol_ext=1e-7, levels=7, ratio=0.5):
    """The ray-limit extension as the package computed it before its limit was exact:
    the cofactor formula at 7 halving steps along each ray, extrapolated to the ray
    parameter 0 by Neville's method, and the rays' extrapolants required to agree
    within tol_ext relative.  The numeric oracle of the exact limit; it raises
    LadderDisagreement where the extrapolants disagree and AllRaysDegenerate where
    no ray has 4 usable steps."""
    import math

    import numpy as np

    from mafoliate.calculus import Point, eval_jet, jet_polynomials
    from mafoliate.errors import AllRaysDegenerate, NonPositiveRho
    from mafoliate.monge_ampere import GradientValue, complex_gradient

    def neville_to_zero(ts, vals):
        table = list(vals)
        n = len(table)
        for level in range(1, n):
            for i in range(n - level):
                t0, t1 = ts[i], ts[i + level]
                table[i] = (t1 * table[i] - t0 * table[i + 1]) / (t1 - t0)
        return table[0]

    z1, z2 = q.as_pair()
    rho = p(z1, z2).real
    if not 0.0 < rho < math.inf:  # the package's guard
        raise NonPositiveRho(f"rho({q.as_pair()}) = {rho} is not positive and finite")
    jet = eval_jet(p, q)
    if jet.D > eps_D:
        return complex_gradient(jet)

    jp = jet_polynomials(p)
    base_t = 0.05 * (1.0 + q.norm())
    results = []
    for d1, d2 in LADDER_RAYS:
        ts, vals = [], []
        for j in range(levels):
            t = base_t * ratio**j
            pt = Point(z1 + t * d1, z2 + t * d2)
            x, y = pt.as_pair()
            if p(x, y).real <= 0.0:
                continue
            D = jp.det(x, y).real
            if D <= eps_D:
                continue
            g = complex_gradient(eval_jet(p, pt))
            ts.append(t)
            vals.append((g.Z1, g.Z2))
        if len(ts) < 4:
            continue
        results.append((neville_to_zero(ts, [v[0] for v in vals]),
                        neville_to_zero(ts, [v[1] for v in vals])))
    if not results:
        raise AllRaysDegenerate(f"no usable approach ray at {q.as_pair()}")
    arr = np.array(results)
    spread = float(np.max(np.abs(arr - arr.mean(axis=0))))
    scale = 1.0 + float(np.max(np.abs(arr)))
    if spread > tol_ext * scale:
        raise LadderDisagreement(
            f"ray extrapolants disagree by {spread:.3e} (> {tol_ext} relative) at {q.as_pair()}"
        )
    Z1, Z2 = (complex(v) for v in arr.mean(axis=0))
    return GradientValue(Z1, Z2, jet.d1 * Z1 + jet.d2 * Z2 - rho)


# ---------------------------------------------------------------------------
# one-point-at-a-time bracket identities
# ---------------------------------------------------------------------------


def scalar_bracket_identities(p, q, eps_D=1e-10):
    """The Levi-form bracket identity defects at one point, as the package computed
    them before they were batched: scalar polynomial evaluations and a least-squares
    fit per span.  The reference the batched ones must match to rounding."""
    import numpy as np

    from mafoliate.calculus import VARIABLES, eval_jet, jet_polynomials
    from mafoliate.errors import DegenerateLevi, ZeroDifferential
    from mafoliate.finite_type import BracketIdentityReport, bracket_level, tangential_field
    from mafoliate.monge_ampere import complex_gradient

    def span_fit(vec, basis):
        A = np.stack(basis, axis=1)
        coeff, *_ = np.linalg.lstsq(A, vec, rcond=None)
        return coeff, float(np.max(np.abs(vec - A @ coeff)))

    jet = eval_jet(p, q)
    if jet.D <= eps_D:
        raise DegenerateLevi(f"D = {jet.D} <= {eps_D} at {q.as_pair()}")
    z1, z2 = q.as_pair()
    Z = np.array(complex_gradient(jet).as_vector())
    Zc = Z.conjugate()

    L = tangential_field(p)
    L10 = np.array(L.evaluate(q))[:2]
    Lb01 = L10.conjugate()

    # (a) [L, Lbar] against the cofactor field D (Z - Zbar)
    w = np.array(bracket_level(p, 2)[0][1].evaluate(q))
    target = np.concatenate([jet.D * Z, -jet.D * Zc])
    scale_a = 1.0 + abs(jet.D) * float(np.max(np.abs(Z)))
    defect_llbar = float(np.max(np.abs(w - target))) / scale_a

    # exact rational partials of Z = N / D, and of L's components
    jp = jet_polynomials(p)
    D = jp.det(z1, z2).real
    if D <= eps_D:
        raise DegenerateLevi(f"D = {D} <= {eps_D} at {q.as_pair()}")
    nv = [jp.n1(z1, z2), jp.n2(z1, z2)]
    ddet = [jp.det.derive(v)(z1, z2) for v in VARIABLES]
    dZ = [[(nj.derive(v)(z1, z2) * D - nv[j] * ddet[k]) / D**2 for k, v in enumerate(VARIABLES)]
          for j, nj in enumerate((jp.n1, jp.n2))]
    lpv = [[c.derive(v)(z1, z2) for v in VARIABLES] for c in (L.c1, L.c2)]

    # (b) [L, Z] = phi1 L
    lz = np.array([
        sum(L10[k] * dZ[j][k] for k in range(2)) - sum(Z[k] * lpv[j][k] for k in range(2))
        for j in range(2)
    ])
    denom = float(np.vdot(L10, L10).real)
    if denom == 0.0:
        raise ZeroDifferential(f"L vanishes at {q.as_pair()}")
    phi1 = complex(np.vdot(L10, lz)) / denom
    defect_lz = float(np.max(np.abs(lz - phi1 * L10))) / (1.0 + float(np.max(np.abs(lz))))

    # (c) [L, Zbar] = psi1 L + psi2 Lbar
    lzb_10 = np.array([-sum(Zc[k] * lpv[j][2 + k] for k in range(2)) for j in range(2)])
    lzb_01 = np.array([sum(L10[k] * dZ[j][2 + k].conjugate() for k in range(2))
                       for j in range(2)])
    psi1, r1 = span_fit(lzb_10, [L10])
    psi2, r2 = span_fit(lzb_01, [Lb01])
    scale_c = 1.0 + max(float(np.max(np.abs(lzb_10))), float(np.max(np.abs(lzb_01))))
    defect_lzbar = max(r1, r2) / scale_c

    # (d) [Z, Zbar] = eta1 L + eta2 Lbar, equivalently tangent to the level set
    zzb_10 = np.array([-sum(Zc[k] * dZ[j][2 + k] for k in range(2)) for j in range(2)])
    zzb_01 = np.array([sum(Z[k] * dZ[j][2 + k].conjugate() for k in range(2)) for j in range(2)])
    eta1, r1 = span_fit(zzb_10, [L10])
    eta2, r2 = span_fit(zzb_01, [Lb01])
    scale_d = 1.0 + max(float(np.max(np.abs(zzb_10))), float(np.max(np.abs(zzb_01))))
    defect_zzbar = max(r1, r2) / scale_d
    d10 = np.array([jet.d1, jet.d2])
    drho_val = complex(np.dot(d10, zzb_10) + np.dot(d10.conjugate(), zzb_01))
    drho_zzbar = abs(drho_val) / (jet.gradient_scale() * scale_d)

    return BracketIdentityReport(
        q, defect_llbar, defect_lz, defect_lzbar, defect_zzbar, drho_zzbar,
        {"phi1": phi1, "psi1": complex(psi1[0]), "psi2": complex(psi2[0]),
         "eta1": complex(eta1[0]), "eta2": complex(eta2[0])},
    )


def sampled_growth_bound(p, k, rng) -> float:
    """Max |log rho(lambda v) - 2k log|lambda| - log rho(v)| over 64 rays and 13 |lambda|:
    the growth law of a homogeneous rho of pure bidegree (k, k), measured."""
    from mafoliate.calculus import evaluate_many
    from mafoliate.foliation import random_vector

    growth = 0.0
    rays, mags = 64, np.logspace(-3, 3, 13)
    ray_points = []  # per ray: the base point, then one point per magnitude
    for _ in range(rays):
        v = random_vector(rng)
        ray_points.append((v[0], v[1]))
        for mag in mags:
            lam = mag * np.exp(2j * math.pi * rng.uniform())
            ray_points.append((lam * v[0], lam * v[1]))
    z = np.array(ray_points, dtype=complex).reshape(-1, 2)
    values = evaluate_many((p,), z[:, 0], z[:, 1])[0].real.tolist()
    for r in range(rays):
        base = math.log(values[r * (len(mags) + 1)])
        for m, mag in enumerate(mags):
            val = math.log(values[r * (len(mags) + 1) + 1 + m])
            growth = max(growth, abs(val - 2 * k * math.log(mag) - base))
    return growth


def numpy_positive_min_on_sphere(p, n_samples, seed):
    """``foliation._positive_min_on_sphere`` as it drew its normals from numpy's own
    generator, ``numpy.random.default_rng(seed).normal(size=(m, 4))``: the least sampled
    rho on the unit sphere and its direction."""
    from mafoliate.calculus import Point
    from mafoliate.foliation import _SPHERE_SPECIAL, _first_minimum

    rng = np.random.default_rng(seed)
    dirs = np.array(_SPHERE_SPECIAL, dtype=complex)
    raw = rng.normal(size=(max(n_samples - len(dirs), 0), 4))
    cloud = np.empty((len(raw), 2), dtype=complex)
    cloud[:, 0] = raw[:, 0] + 1j * raw[:, 1]
    cloud[:, 1] = raw[:, 2] + 1j * raw[:, 3]
    cloud /= np.linalg.norm(cloud, axis=1)[:, None]
    best_val, best_dir = _first_minimum(p, np.concatenate([dirs, cloud]), math.inf, dirs[0])
    for shrink in (0.3, 0.1, 0.03):
        raw = rng.normal(size=(2000, 4))
        pert = np.empty((len(raw), 2), dtype=complex)
        pert[:, 0] = best_dir[0] + shrink * (raw[:, 0] + 1j * raw[:, 1])
        pert[:, 1] = best_dir[1] + shrink * (raw[:, 2] + 1j * raw[:, 3])
        pert /= np.linalg.norm(pert, axis=1)[:, None]
        best_val, best_dir = _first_minimum(p, pert, best_val, best_dir)
    return best_val, Point(best_dir[0], best_dir[1])
