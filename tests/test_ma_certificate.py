"""The exact Monge-Ampere certificate ``is_ma_exact`` against its oracles.

``is_ma_exact(p)`` decides whether ``rho * D - B`` is the zero polynomial,
with ``B`` written as ``d1 n1 + d2 n2`` (the cofactor numerators of ``Z``).
Its oracles are the sympy residual polynomial and the sampled scan
``ma_scan``; its verdict must not depend on linear coordinates or on a
positive rational scale.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

import mafoliate as mf
from mafoliate.calculus import Polynomial, jet_polynomials, substitute_linear
from mafoliate.cli import main

from conftest import TERMS, admissible_points
from oracles import VARS, poly_expr
from test_batch_eval import forms_rho

Z1, Z2 = Polynomial.variable("z1"), Polynomial.variable("z2")


def sum_of_squares(*fs) -> mf.Polynomial:
    total = Polynomial.zero()
    for f in fs:
        total = total + f * f.conjugate()
    return mf.real_polynomial(total.terms)


def bad_like(key, c) -> mf.Polynomial:
    """|z1|^4 + |z2|^4 + 2 Re(c m / 4) for the monomial m with exponent key."""
    m = Polynomial({key: complex(*c) / 4})
    return mf.real_polynomial((mf.load("quartic") + m + m.conjugate()).terms)


# |l1^a|^2 + |l2^b|^2 for linear forms with Gaussian-integer coefficients
POSITIVES = {
    f"forms{a}{b}-{i}": forms_rho(coeffs, a, b)
    for i, coeffs in enumerate(((((1, 0), (1, 1)), ((0, 1), (2, -1))),
                                (((2, -2), (-2, -1)), ((-2, 2), (2, 0)))))
    for a, b in ((1, 2), (2, 2), (3, 3), (4, 2), (3, 1))
}
# three components of mixed degrees, and quartics plus the real part of an impure monomial
NEGATIVES = {
    "neg3a": sum_of_squares(Z1 + Z2 * Z2 * (1 + 1j), Z2 - Z1 * Z1, Z1 * Z2 + Z1 * (2 - 1j)),
    "neg3b": sum_of_squares(Z1 + Z1 * Z2 * 2, Z2 + Z1 * Z1 * 1j, Z1 + Z2 * (-1 + 1j) + Z2 * Z2),
    "badlike-3001": bad_like((3, 0, 0, 1), (1, 1)),
    "badlike-1201": bad_like((1, 2, 0, 1), (0, 1)),
    "badlike-3100": bad_like((3, 1, 0, 0), (1, -1)),
}
CORPUS_MA = {"euc": True, "fub": True, "quartic": True, "weighted": True, "bad": False}
CASES = {**{name: (mf.load(name), ma) for name, ma in CORPUS_MA.items()},
         **{name: (p, True) for name, p in POSITIVES.items()},
         **{name: (p, False) for name, p in NEGATIVES.items()}}


def max_scan(p, count=300, seed=5) -> float:
    points = admissible_points(p, np.random.default_rng(seed), count)
    return max(abs(r.normalized) for r in mf.ma_scan(p, points))


@pytest.mark.parametrize("name", sorted(CASES))
def test_b_is_d_rho_of_the_cofactor_numerators(name):
    jp = jet_polynomials(CASES[name][0])
    four_terms = (jp.h11 * jp.d2 * jp.db2 + jp.h22 * jp.d1 * jp.db1
                  - jp.h12 * jp.db1 * jp.d2 - jp.h21 * jp.d1 * jp.db2)
    assert jp.d1 * jp.n1 + jp.d2 * jp.n2 == four_terms


def to_sympy(poly: Polynomial):
    return poly_expr([(tuple(k), sp.Rational(c.re.numerator, c.re.denominator)
                       + sp.I * sp.Rational(c.im.numerator, c.im.denominator))
                      for k, c in poly.terms.items()])


@pytest.mark.parametrize("name", ["fub", "bad"])
def test_certificate_agrees_with_the_sympy_residual_polynomial(name):
    rho = poly_expr(TERMS[name])
    b1, b2 = VARS[2:]
    d1, d2, db1, db2 = (sp.diff(rho, v) for v in VARS)
    h11, h12, h21, h22 = sp.diff(d1, b1), sp.diff(d1, b2), sp.diff(d2, b1), sp.diff(d2, b2)
    residual = sp.expand(rho * (h11 * h22 - h12 * h21)
                         - (h11 * d2 * db2 + h22 * d1 * db1 - h12 * db1 * d2 - h21 * d1 * db2))
    p = mf.load(name)
    jp = jet_polynomials(p)
    assert sp.expand(to_sympy(p * jp.det - (jp.d1 * jp.n1 + jp.d2 * jp.n2)) - residual) == 0
    assert mf.is_ma_exact(p) is (residual == 0) is CORPUS_MA[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_certificate_agrees_with_the_sampled_scan(name):
    p, ma = CASES[name]
    assert mf.is_ma_exact(p) is ma
    if ma:
        assert max_scan(p) <= 1e-6
    else:
        assert max_scan(p) >= 0.1


RATIONAL_MATRIX = [[Fraction(1, 2), (Fraction(1, 3), Fraction(-1, 5))], [Fraction(2, 7), 1]]


@pytest.mark.parametrize("name", sorted(CASES))
def test_verdict_is_invariant_under_rational_coordinates_and_scale(name):
    p, ma = CASES[name]
    assert mf.is_ma_exact(substitute_linear(p, RATIONAL_MATRIX)) is ma
    assert mf.is_ma_exact(p * Fraction(3, 7)) is ma


def shear_rho(c, d) -> mf.Polynomial:
    """|z1 + c z2^2|^2 + |z2|^2 written out, with d in the place of |c|^2."""
    return mf.real_polynomial({
        (1, 0, 1, 0): 1, (0, 2, 1, 0): c, (1, 0, 0, 2): c, (0, 2, 0, 2): d, (0, 1, 0, 1): 1})


def test_rounded_decimal_coefficients_are_exactly_not_ma():
    # the pullback of |w|^2 by the shear (z1 + z2^2 / 3, z2) solves the equation;
    # with 1/3 and 1/9 rounded to doubles a third square, of weight
    # float(1/9) - float(1/3)^2 = -6e-18, joins, and the equation fails exactly
    assert mf.is_ma_exact(shear_rho(Fraction(1, 3), Fraction(1, 9)))
    rounded = shear_rho(1 / 3, 1 / 9)
    assert not mf.is_ma_exact(rounded)
    assert max_scan(rounded, 500) < 1e-14


def test_rounding_keeps_a_pure_bidegree_input_ma():
    # every positive rho of pure bidegree (k, k) solves the equation, whatever its
    # coefficients: |z1^2 + z2^2 / 3|^2 + |z1 z2|^2 stays MA with 1/3 and 1/9 rounded
    for third, ninth in ((Fraction(1, 3), Fraction(1, 9)), (1 / 3, 1 / 9)):
        p = mf.real_polynomial({
            (2, 0, 2, 0): 1, (2, 0, 0, 2): third, (0, 2, 2, 0): third, (0, 2, 0, 2): ninth,
            (1, 1, 1, 1): 1})
        assert mf.is_ma_exact(p)


def test_check_ma_takes_its_verdict_from_the_certificate(tmp_path):
    terms = [{"a": list(k[:2]), "b": list(k[2:]), "re": float(c.re)}
             for k, c in shear_rho(1 / 3, 1 / 9).terms.items()]
    path = tmp_path / "rounded.json"
    path.write_text(json.dumps({"terms": terms}))
    assert main(["check-ma", "--poly", str(path), "--grid", "10", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "ma_summary.json").read_text())["analysis"]
    assert doc["is_ma"] is False
    assert doc["max_abs_normalized"] < 1e-14
