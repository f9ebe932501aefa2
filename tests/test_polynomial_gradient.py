"""The exact polynomial gradient ``Z = (n1, n2) / det`` and the division behind it.

``Polynomial.exact_quotient`` divides by one polynomial; its oracle is
``sympy.div``.  ``polynomial_gradient`` is checked against the closed forms
of its inputs: the corpus, ``|l1^a|^2 + |l2^b|^2`` for linear forms, where
``Z = L^-1 diag(1/a, 1/b) L z``, and the pullbacks ``|f1^a|^2 + |f2^b|^2`` by
the shear ``F = (z1 + c z2^2, z2)``, where ``Z = DF^-1 (f1/a, f2/b)``.  The
numeric paths (the ray limit of ``extend_gradient``, the least-squares fit
and the traced leaves) must agree with it.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from scipy.linalg import expm

import mafoliate as mf
from mafoliate.calculus import Polynomial, on_line
from mafoliate.finite_type import gradient, gradients, polynomial_gradient, ray_limit
from mafoliate.foliation import FlowConfig, fit_holomorphic_Z, leaf_diagnostics, trace_leaf

from conftest import admissible_points
from oracles import VARS, LadderDisagreement, scalar_extend_gradient
from test_batch_eval import forms_rho

z1, z2 = Polynomial.variable("z1"), Polynomial.variable("z2")
SHEAR_C = 1 + 1j


def to_sympy(f: Polynomial):
    return sp.Add(*(((sp.Rational(c.re) + sp.I * sp.Rational(c.im))
                     * sp.Mul(*(v**e for v, e in zip(VARS, key))))
                    for key, c in f.terms.items()))


def linear(c1, c2) -> Polynomial:
    """c1 z1 + c2 z2, for coefficients in any form GaussianRational.from_value takes."""
    return z1.scaled(c1) + z2.scaled(c2)


def shear_rho(a: int, b: int) -> mf.HermitianPolynomial:
    """|f1^a|^2 + |z2^b|^2 with f1 = z1 + c z2^2."""
    f1 = z1 + (z2 * z2).scaled(SHEAR_C)
    r = f1**a * (f1**a).conjugate() + z2**b * (z2**b).conjugate()
    return mf.HermitianPolynomial.from_terms(r.terms)


def random_polynomial(rng: random.Random, terms: int, degree: int) -> Polynomial:
    def part():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 5))

    out = Polynomial.zero()
    for _ in range(terms):
        key = [0, 0, 0, 0]
        for _ in range(rng.randint(0, degree)):
            key[rng.randrange(4)] += 1
        out = out + Polynomial({tuple(key): (part(), part())})
    return out


def linear_part(f: Polynomial) -> tuple[complex, complex]:
    """The coefficients of z1 and z2 of a linear holomorphic polynomial, as complex."""
    terms = f.terms
    assert set(terms) <= {(1, 0, 0, 0), (0, 1, 0, 0)}
    return tuple(terms[k].to_complex() if k in terms else 0j
                 for k in ((1, 0, 0, 0), (0, 1, 0, 0)))


# ---------------------------------------------------------------------------
# exact_quotient against sympy.div
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_exact_quotient_matches_sympy_div(seed):
    rng = random.Random(seed)
    g = random_polynomial(rng, rng.randint(1, 4), 2)
    h = random_polynomial(rng, rng.randint(1, 4), 2)
    if g.is_zero():
        return
    for f in (g * h, g * h + random_polynomial(rng, 2, 3)):
        q = f.exact_quotient(g)
        sq, sr = sp.div(to_sympy(f), to_sympy(g), *VARS, order="grlex")
        assert (q is None) == (sp.expand(sr) != 0)
        if q is not None:
            assert q * g == f
            assert sp.expand(to_sympy(q) - sq) == 0


def test_exact_quotient_with_a_monomial_remainder():
    f = z1 * z1 + z2
    assert f.exact_quotient(z1) is None
    assert (f - z2).exact_quotient(z1) == z1
    with pytest.raises(ZeroDivisionError):
        f.exact_quotient(Polynomial.zero())


# ---------------------------------------------------------------------------
# polynomial_gradient on inputs with a known Z
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, w1, w2", [
    ("euc", 1, 1), ("fub", Fraction(1, 2), Fraction(1, 2)),
    ("quartic", Fraction(1, 2), Fraction(1, 2)), ("weighted", Fraction(1, 3), Fraction(1, 2)),
])
def test_corpus_Z_is_exact(name, w1, w2):
    assert polynomial_gradient(mf.load(name)) == (z1.scaled(w1), z2.scaled(w2))


def test_bad_has_no_polynomial_Z():
    assert polynomial_gradient(mf.load("bad")) is None


FORMS = [(((1, 0), (1, 1)), ((0, 1), (2, -1))), (((2, -2), (-2, -1)), ((-2, 2), (2, 0))),
         (((1, -2), (2, -2)), ((0, -1), (-1, 1)))]


@pytest.mark.parametrize("coeffs", FORMS)
@pytest.mark.parametrize("a, b", [(1, 2), (2, 1), (2, 2), (3, 1), (3, 3), (4, 2)])
def test_linear_forms_Z_is_L_inverse_diag_L(coeffs, a, b):
    (al, be), (ga, de) = (tuple(complex(*c) for c in row) for row in coeffs)
    # L^-1 = [[de, -be], [-ga, al]] / det, applied exactly to (l1 / a, l2 / b)
    det = al * de - be * ga
    n = int(det.real) ** 2 + int(det.imag) ** 2
    inv = (Fraction(int(det.real), n), Fraction(-int(det.imag), n))
    l1, l2 = linear(al, be).scaled(Fraction(1, a)), linear(ga, de).scaled(Fraction(1, b))
    want = ((l1.scaled(de) - l2.scaled(be)).scaled(inv), (l2.scaled(al) - l1.scaled(ga)).scaled(inv))
    assert polynomial_gradient(forms_rho(coeffs, a, b)) == want


@pytest.mark.parametrize("a, b", [(2, 1), (3, 1), (2, 2)])
def test_shear_Z_is_DF_inverse_of_the_diagonal_field(a, b):
    p = shear_rho(a, b)
    assert mf.is_ma_exact(p)
    # DF^-1 = [[1, -2 c z2], [0, 1]] applied to (f1 / a, z2 / b)
    f1 = z1 + (z2 * z2).scaled(SHEAR_C)
    Z2 = z2.scaled(Fraction(1, b))
    Z1 = f1.scaled(Fraction(1, a)) - (z2 * Z2).scaled(2 * SHEAR_C)
    assert polynomial_gradient(p) == (Z1, Z2)
    if (a, b) == (3, 1):  # z1/3 - (5/3)(1 + i) z2^2
        assert Z1 == z1.scaled(Fraction(1, 3)) - (z2 * z2).scaled((Fraction(5, 3), Fraction(5, 3)))


# ---------------------------------------------------------------------------
# the numeric paths against the exact Z
# ---------------------------------------------------------------------------

AGREEMENT = {
    **{name: mf.load(name) for name in ("euc", "fub", "quartic", "weighted")},
    "forms22": forms_rho(FORMS[0], 2, 2), "forms12": forms_rho(FORMS[1], 1, 2),
    "forms21": forms_rho(FORMS[2], 2, 1), "shear21": shear_rho(2, 1), "shear22": shear_rho(2, 2),
}


@pytest.mark.parametrize("name", sorted(AGREEMENT))
def test_extend_gradient_agrees_with_the_exact_Z(name):
    p = AGREEMENT[name]
    Z1, Z2 = polynomial_gradient(p)
    points = admissible_points(p, np.random.default_rng(5), 20)
    points += [mf.Point(0.0, 1.0), mf.Point(1.0, 0.0), mf.Point(0.7j, 0.0)]
    for q in points:  # rho > 0 at every point, so extend_gradient answers at each
        g = mf.extend_gradient(p, q)
        want = (Z1(*q.as_pair()), Z2(*q.as_pair()))
        assert max(abs(g.Z1 - want[0]), abs(g.Z2 - want[1])) <= 1e-8 * (1.0 + max(map(abs, want)))


@pytest.mark.parametrize("name", sorted(AGREEMENT))
def test_fit_agrees_with_the_exact_Z(name):
    p = AGREEMENT[name]
    exact = polynomial_gradient(p)
    fit = fit_holomorphic_Z(p, admissible_points(p, np.random.default_rng(11), 60), 2)
    for component, Zj in enumerate(exact, start=1):
        terms = Zj.terms
        assert all(key[2:] == (0, 0) for key in terms)  # Z is holomorphic
        for a, b in [(a, b) for a in range(3) for b in range(3 - a)]:
            want = terms[(a, b, 0, 0)].to_complex() if (a, b, 0, 0) in terms else 0j
            assert fit.coefficient(component, (a, b)) == pytest.approx(want, abs=1e-8)


def test_extension_on_an_order3_line_is_the_exact_Z():
    # non-diagonal (3, 1) at a point of {l1 = 0}; the Levi form degenerates to order 3
    # there, where the numeric ray ladder did not converge
    coeffs = (((1, 1), (1, -1)), ((1, 0), (-1, -1)))
    p = forms_rho(coeffs, 3, 1)
    q = mf.Point(-1 - 1j, -1 + 1j)
    assert linear(1 + 1j, 1 - 1j)(*q.as_pair()) == 0
    with pytest.raises(LadderDisagreement):
        scalar_extend_gradient(p, q)
    exact = [on_line(Zj, q.as_pair(), (0, 0))[0] for Zj in polynomial_gradient(p)]
    assert list(ray_limit(p, q)) == exact
    g = mf.extend_gradient(p, q)
    assert [g.Z1, g.Z2] == [z.to_complex() for z in exact] == [-1 - 1j, -1 + 1j]
    assert g.method == "ray_limit_extension"
    assert abs(g.pairing_check) <= 1e-12 * p(*q.as_pair()).real
    assert abs(gradient(p, q).Z2 - g.Z2) <= 1e-15


def test_gradients_is_gradient_at_every_point():
    generic = [mf.Point(0.5, 0.5j), mf.Point(1.0, -0.3)]
    for p, pts in ((mf.load("weighted"), [mf.Point(0.0, 1.0), *generic]),
                   (mf.load("quartic"), [mf.Point(1.0, 0.0), *generic]), (mf.load("bad"), generic)):
        Z1, Z2 = gradients(p, [q.z1 for q in pts], [q.z2 for q in pts])
        for q, a, b in zip(pts, Z1, Z2):
            g = gradient(p, q)
            assert (a, b) == (g.Z1, g.Z2)
    for name in ("weighted", "bad"):
        with pytest.raises(mf.NonPositiveRho):
            gradients(mf.load(name), [1.0, 0.0], [1.0, 0.0])
    # bad is Levi-degenerate on both axes, where Z does not extend: at (0, 1) its limit
    # depends on the direction, at (1, 0) det = -9/16 < 0
    for q in (mf.Point(0.0, 1.0), mf.Point(1.0, 0.0)):
        with pytest.raises(mf.NoExtension) as want:
            gradient(mf.load("bad"), q)
        with pytest.raises(mf.NoExtension) as got:
            gradients(mf.load("bad"), [0.5, q.z1], [0.5j, q.z2])
        assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# leaves: exp((t + i s) A) p for linear Z = A z, and the shear's closed form
# ---------------------------------------------------------------------------

T_VALUES, S_VALUES = np.arange(5) * 0.05, np.arange(3) * 0.05


def line_point(coeffs, line: int, t: complex) -> mf.Point:
    """t * (beta, -alpha) on {l = 0} for the form l = alpha z1 + beta z2 of that line."""
    alpha, beta = (complex(*c) for c in coeffs[line - 1])
    return mf.Point(t * beta, -t * alpha)


# degenerate seeds, the first the pinned (2, 2) input on {l2 = 0} where the
# flow once handed off between two tests of D
LINEAR_LEAVES = [
    ((((1, -2), (2, -2)), ((0, -1), (-1, 1))), 2, 2, 2, 1j),
    (FORMS[0], 2, 2, 1, 1 + 1j),
    (FORMS[1], 2, 1, 1, -1),
    ((((1, 1), (1, -1)), ((1, 0), (-1, -1))), 3, 1, 1, -1j),
]


@pytest.mark.parametrize("coeffs, a, b, line, t", LINEAR_LEAVES)
def test_linear_leaves_are_matrix_exponentials(coeffs, a, b, line, t):
    p = forms_rho(coeffs, a, b)
    A = np.array([linear_part(Zj) for Zj in polynomial_gradient(p)])
    seed = line_point(coeffs, line, t)
    trace = trace_leaf(p, seed, T_VALUES, S_VALUES, FlowConfig())
    for i, tv in enumerate(T_VALUES):
        for j, sv in enumerate(S_VALUES):
            want = expm((tv + 1j * sv) * A) @ np.array(seed.as_pair())
            assert np.max(np.abs(trace.points[i, j] - want)) <= 1e-8 * (1.0 + np.max(np.abs(want)))


def test_shear_leaf_through_the_degenerate_curve():
    # F(p) = (0, 1), so the leaf is F^-1(0, e^w) = (-c e^{2w}, e^w), w = t + i s
    p = shear_rho(3, 1)
    trace = trace_leaf(p, mf.Point(-SHEAR_C, 1.0), T_VALUES, S_VALUES, FlowConfig())
    w = T_VALUES[:, None] + 1j * S_VALUES[None, :]
    want = np.stack([-SHEAR_C * np.exp(2 * w), np.exp(w)], axis=-1)
    assert np.max(np.abs(trace.points - want)) <= 1e-8
    assert leaf_diagnostics(trace).monotone_growth
