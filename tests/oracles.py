"""Independent reference implementations used to confirm toolkit results.

Everything here is deliberately built on different machinery than the package:
sympy symbolic differentiation with conjugate variables as independent
symbols, and plain central finite differences on evaluations.  Values asserted
in the test modules were either computed by these oracles or verified against
them.
"""

from __future__ import annotations

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
# one-point-at-a-time ray-limit extension
# ---------------------------------------------------------------------------


def scalar_extend_gradient(p, q, eps_D=1e-10, tol_ext=1e-7, levels=7, ratio=0.5):
    """The ray-limit extension evaluated one point at a time, as the package did
    before its ray ladder was batched: the reference the batched one must match
    bit for bit, errors included."""
    import numpy as np

    from mafoliate.calculus import Point, eval_jet, jet_polynomials
    from mafoliate.errors import AllRaysDegenerate, NoConvergence, NonPositiveRho
    from mafoliate.finite_type import _DEFAULT_RAYS
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
    if rho <= 0.0:
        raise NonPositiveRho(f"rho({q.as_pair()}) = {rho} <= 0")
    jet = eval_jet(p, q)
    if jet.D > eps_D:
        return complex_gradient(jet, eps_D)

    jp = jet_polynomials(p)
    base_t = 0.05 * (1.0 + q.norm())
    results = []
    for d1, d2 in _DEFAULT_RAYS:
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
            g = complex_gradient(eval_jet(p, pt), eps_D)
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
        raise NoConvergence(
            f"ray extrapolants disagree by {spread:.3e} (> {tol_ext} relative) at {q.as_pair()}"
        )
    Z1, Z2 = (complex(v) for v in arr.mean(axis=0))
    return GradientValue(Z1, Z2, jet.d1 * Z1 + jet.d2 * Z2 - rho)
