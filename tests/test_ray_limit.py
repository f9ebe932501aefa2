"""The exact extension of Z to Levi-degenerate points, against sympy.

``calculus.on_line`` restricts a polynomial to a real line through a point; its
oracles are a Fraction expansion written here and ``sympy.expand``.  Each ray
limit of ``finite_type.ray_limit`` is checked against
``sympy.limit(n_j / det, t, 0, '+')``, with det and the cofactor numerators n_j
built by sympy differentiation of rho, on the corpus axes, the order-3 line of a
non-diagonal (3, 1) input, and ``bad`` at (0, 1), where the limit depends on the
direction.  The family ``|F|^2`` for the finite maps ``F = (z1, z2^2 + c z1^m)``
is MA, has no polynomial Z, and Z has a pole at (1, 0).
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

import mafoliate as mf
from mafoliate import finite_type
from mafoliate.calculus import GaussianRational, Polynomial, on_line
from mafoliate.cli import main
from mafoliate.finite_type import RAYS, gradient, gradients, polynomial_gradient, ray_limit
from mafoliate.monge_ampere import EPS_D_DEFAULT

from oracles import B1, B2, VARS, Z1, Z2, poly_expr
from test_batch_eval import forms_rho
from test_exact_kernel import r_value, ref

T = sp.Symbol("t", real=True)
EXACT = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def exact(z) -> sp.Expr:
    """A double, or a complex of doubles, as the sympy number it is exactly."""
    z = complex(z)
    return sp.Rational(z.real) + sp.I * sp.Rational(z.imag)


def to_sympy(c: GaussianRational) -> sp.Expr:
    return (sp.Rational(c.re.numerator, c.re.denominator)
            + sp.I * sp.Rational(c.im.numerator, c.im.denominator))


def on_ray(expr, q, v) -> sp.Expr:
    """expr at z = q + t v, zbar = conj(q) + t conj(v), for real t, expanded by sympy."""
    (q1, q2), (v1, v2) = map(exact, q), map(exact, v)
    return sp.expand(expr.subs({Z1: q1 + T * v1, Z2: q2 + T * v2,
                                B1: sp.conjugate(q1) + T * sp.conjugate(v1),
                                B2: sp.conjugate(q2) + T * sp.conjugate(v2)}, simultaneous=True))


def sympy_cofactors(p):
    """det and the cofactor numerators n1, n2 of rho, by sympy differentiation."""
    rho = poly_expr([(tuple(k), to_sympy(c)) for k, c in p.terms.items()])
    d1, d2, db1, db2 = (sp.diff(rho, v) for v in VARS)
    h11, h12, h21, h22 = (sp.diff(d, b) for d in (d1, d2) for b in (B1, B2))
    return h11 * h22 - h12 * h21, h22 * db1 - h21 * db2, h11 * db2 - h12 * db1


def pullback_terms(c: int, m: int) -> dict:
    """|F|^2 = |z1|^2 + |z2^2 + c z1^m|^2 in the interchange format, for the finite map
    F = (z1, z2^2 + c z1^m): each |f|^2 expanded here, f as {(i, j): coefficient}."""
    terms = []
    for f in ({(1, 0): 1}, {(0, 2): 1, (m, 0): c}):
        for a, ca in f.items():
            for b, cb in f.items():
                terms.append({"a": list(a), "b": list(b), "re": ca * cb, "im": 0})
    return {"terms": terms}


# ---------------------------------------------------------------------------
# on_line against a Fraction expansion and sympy.expand
# ---------------------------------------------------------------------------


def fraction_on_line(f: Polynomial, q, v) -> list[tuple[Fraction, Fraction]]:
    """The coefficients in t of f(q + t v), term by term, with (Fraction, Fraction) pairs."""
    def mul(x, y):
        out = [(Fraction(0), Fraction(0))] * (len(x) + len(y) - 1)
        for i, (a, b) in enumerate(x):
            for j, (c, d) in enumerate(y):
                re, im = out[i + j]
                out[i + j] = (re + a * c - b * d, im + a * d + b * c)
        return out

    def pair(z, conj=False):
        z = complex(z)
        return (Fraction(z.real), Fraction(-z.imag if conj else z.imag))

    lines = [[pair(a), pair(b)] for a, b in zip(q, v)]
    lines += [[pair(a, True), pair(b, True)] for a, b in zip(q, v)]
    total = [(Fraction(0), Fraction(0))] * (max(f.total_degrees(), default=0) + 1)
    for key, c in f.terms.items():
        term = [(c.re, c.im)]
        for line, e in zip(lines, key):
            for _ in range(e):
                term = mul(term, line)
        for i, (re, im) in enumerate(term):
            total[i] = (total[i][0] + re, total[i][1] + im)
    return total


rationals = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 3, 5, 7, 12]))
keys = st.tuples(*[st.integers(0, 3)] * 4)
polynomials = st.lists(st.tuples(keys, st.tuples(rationals, rationals)), min_size=1, max_size=6)
doubles = st.sampled_from([0.0, 1.0, -0.5, 0.3, 1.3, -2.0 / 3.0, 1e-3])
points = st.tuples(st.builds(complex, doubles, doubles), st.builds(complex, doubles, doubles))


@EXACT
@given(polynomials, points, st.sampled_from(RAYS))
def test_on_line_matches_a_fraction_expansion_and_sympy(terms, q, v):
    f = Polynomial(terms)
    got = on_line(f, q, v)
    assert [tuple(c) for c in got] == fraction_on_line(f, q, v)
    expr = on_ray(sp.Add(*(to_sympy(c) * sp.Mul(*(x**e for x, e in zip(VARS, k)))
                           for k, c in f.terms.items())), q, v)
    assert sp.expand(sum(to_sympy(c) * T**k for k, c in enumerate(got)) - expr) == 0


def test_on_line_of_the_zero_polynomial_and_at_a_point():
    zero = GaussianRational(Fraction(0), Fraction(0))
    assert on_line(Polynomial.zero(), (0.3, 1j), (1, 1)) == [zero]
    f = Polynomial.variable("z1") * Polynomial.variable("zbar2")
    # a zero direction leaves f(q) = 0.3 * conj(1j) = -0.3j in c_0, with the double 0.3
    assert on_line(f, (0.3, 1j), (0, 0)) == [GaussianRational(Fraction(0), -Fraction(0.3)), zero, zero]


# ---------------------------------------------------------------------------
# each ray limit against sympy.limit
# ---------------------------------------------------------------------------

NONDIAG31 = forms_rho((((1, 1), (1, -1)), ((1, 0), (-1, -1))), 3, 1)
LIMIT_CASES = {
    "quartic-01": (mf.load("quartic"), (0.0, 1.0)), "quartic-10": (mf.load("quartic"), (1.0, 0.0)),
    "weighted-01": (mf.load("weighted"), (0.0, 1.3)),
    "weighted-10": (mf.load("weighted"), (-0.5j, 0.0)),
    "nondiag31-order3": (NONDIAG31, (-1 - 1j, -1 + 1j)), "bad-01": (mf.load("bad"), (0.0, 1.0)),
    # 1 + |z2|^2 + |z1 z2|^2: n1 is the zero polynomial and det = |z2|^2, so Z -> (0, 0)
    "n1-zero-10": (mf.HermitianPolynomial.from_terms({(0, 0, 0, 0): 1, (0, 1, 0, 1): 1,
                                                       (1, 1, 1, 1): 1}), (1.0, 0.0)),
}


@pytest.mark.parametrize("name", sorted(LIMIT_CASES))
def test_each_ray_limit_equals_sympys(name, monkeypatch):
    p, q = LIMIT_CASES[name]
    q = mf.Point(*q)
    cofactors = sympy_cofactors(p)
    limits = {}
    for v in RAYS:
        det, n1, n2 = (on_ray(e, q.as_pair(), v) for e in cofactors)
        monkeypatch.setattr(finite_type, "RAYS", (v,))
        if det == 0:  # the ray lies in the degenerate set
            with pytest.raises(mf.AllRaysDegenerate):
                ray_limit(p, q)
            continue
        want = [sp.limit(n / det, T, 0, "+") for n in (n1, n2)]
        limits[v] = want
        assert [to_sympy(c) for c in ray_limit(p, q)] == want, v
    monkeypatch.undo()
    (u, first), *rest = limits.items()
    other = next((v for v, lim in rest if lim != first), None)
    if other is None:
        assert [to_sympy(c) for c in ray_limit(p, q)] == first
        assert len(limits) >= 6
        return
    assert name == "bad-01"
    with pytest.raises(mf.NoExtension) as err:
        ray_limit(p, q)
    assert str(err.value) == (
        f"the limit of Z at {q.as_pair()} depends on the direction: "
        f"{[complex(x) for x in first]} along the ray {u}, "
        f"{[complex(x) for x in limits[other]]} along the ray {other}")


def test_bad_where_det_is_negative():
    # det = -9/16 at (1, 0): the Levi form of bad is indefinite there
    p, q = mf.load("bad"), mf.Point(1.0, 0.0)
    assert sympy_cofactors(p)[0].subs({Z1: 1, Z2: 0, B1: 1, B2: 0}) == sp.Rational(-9, 16)
    with pytest.raises(mf.NoExtension) as err:
        mf.extend_gradient(p, q)
    assert str(err.value) == "det = -0.5625 < 0 at ((1+0j), 0j): the Levi form is indefinite"


def test_negative_det_beyond_a_double_keeps_the_indefinite_message(tmp_path, capsys):
    # bad with every coefficient times 1e200: det = -9/16 * 1e400 at (1, 0), past the
    # largest double, where formatting float(det) raised OverflowError
    p = mf.load("bad").scaled(10 ** 200)
    want = "det = -5.625e+399 < 0 at ((1+0j), 0j): the Levi form is indefinite"
    with pytest.raises(mf.NoExtension) as err:
        mf.extend_gradient(p, mf.Point(1.0, 0.0))
    assert str(err.value) == want
    poly = tmp_path / "bad1e200.json"
    poly.write_text(json.dumps(mf.serialize_polynomial(p)))
    args = ["gradient", "--poly", str(poly), "--point=1,0,0,0", "--out", str(tmp_path)]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {want}\n"


def test_where_det_is_positive_the_exact_value_needs_no_ray(monkeypatch):
    # |l1^3|^2 + |l2^3|^2 just off its degenerate line {l1 = 0}: the float D reads 0 and
    # -2.4e-7, below EPS_D_DEFAULT, while det > 0 at the point's doubles, so Z is n / det there
    def no_rays(*args):
        raise AssertionError("on_line was called")

    monkeypatch.setattr(finite_type, "on_line", no_rays)
    base = mf.HermitianPolynomial.from_terms({(3, 0, 3, 0): 1, (0, 3, 0, 3): 1})
    p = mf.substitute_linear(base, [[1j, 1 + 1j], [-1 + 2j, -2 - 1j]])
    jp = mf.calculus.jet_polynomials(p)
    for q in ((-1 - 1j + 2**-12, 1j), (-1 - 1j + 2**-20, 1j)):
        assert mf.eval_jet(p, mf.Point(*q)).D <= EPS_D_DEFAULT
        (det, zero), n1, n2 = (r_value(ref(f), q) for f in (jp.det, jp.n1, jp.n2))
        assert det > 0 and zero == 0
        want = [GaussianRational(re / det, im / det) for re, im in (n1, n2)]
        assert list(ray_limit(p, mf.Point(*q))) == want


def test_rays_where_det_is_negative_do_not_count():
    # rho = |z2|^2 - |z1|^2 Re(z1) / 2 has det = -Re(z1): zero at (0, 1), and negative, or
    # zero, along every ray from there, so no ray reaches points where the Levi form is definite
    p = mf.HermitianPolynomial.from_terms({(0, 1, 0, 1): 1, (2, 0, 1, 0): Fraction(-1, 4),
                                           (1, 0, 2, 0): Fraction(-1, 4)})
    assert sp.expand(sympy_cofactors(p)[0] + (Z1 + B1) / 2) == 0
    with pytest.raises(mf.AllRaysDegenerate):
        mf.extend_gradient(p, mf.Point(0.0, 1.0))


# ---------------------------------------------------------------------------
# |F|^2 for finite maps that are not automorphisms: a pole of Z on {J = 0}
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("c, m", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_pullback_by_a_finite_map_has_a_pole(c, m):
    p = mf.parse_polynomial(pullback_terms(c, m))
    assert mf.is_ma_exact(p)
    assert polynomial_gradient(p) is None
    q = mf.Point(1.0, 0.0)
    assert mf.eval_jet(p, q).D == 0.0
    # Z = DF^-1 F: Z1 = z1 and Z2 = (z2^2 + c (1 - m) z1^m) / (2 z2), on every ray
    det, n1, n2 = (on_ray(e, q.as_pair(), RAYS[0]) for e in sympy_cofactors(p))
    assert sp.limit(n1 / det, T, 0, "+") == 1
    assert sp.limit(n2 / det, T, 0, "+") in (sp.oo, -sp.oo)
    with pytest.raises(mf.NoExtension) as err:
        mf.extend_gradient(p, q)
    assert str(err.value) == ("Z2 has a pole at ((1+0j), 0j): along the ray (1, 1), det vanishes "
                              "to order 2 and n2 to order 1")
    g = mf.extend_gradient(p, mf.Point(1.0, 0.5))  # off {z2 = 0}, the cofactor formula
    assert g.Z1 == pytest.approx(1.0, rel=1e-12)
    assert g.Z2 == pytest.approx((0.5**2 + c * (1 - m)) / (2 * 0.5), rel=1e-12)


# ---------------------------------------------------------------------------
# rho that is not positive and finite never reaches the exact path
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, point, value", [
    ("quartic", (1e200, 0.0), "nan"), ("euc", (1e155, 0.0), "inf"), ("bad", (1e100, 1.0), "inf")])
def test_an_overflowed_rho_is_an_error(name, point, value, monkeypatch):
    def no_limit(*args):
        raise AssertionError("the exact limit was called")

    monkeypatch.setattr(finite_type, "ray_limit", no_limit)
    p, q = mf.load(name), mf.Point(*point)
    assert str(p(*q.as_pair()).real) == value
    message = f"rho({q.as_pair()}) = {value} is not finite"
    with pytest.raises(mf.NonPositiveRho) as err:
        mf.extend_gradient(p, q)
    assert str(err.value) == message
    with pytest.raises(mf.NonPositiveRho) as err:
        gradient(p, q)
    assert str(err.value) == message
    with pytest.raises(mf.NonPositiveRho) as err:
        gradients(p, [0.5, q.z1], [0.5, q.z2])
    assert str(err.value) == message
