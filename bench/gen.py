"""Seeded exhaustions built from Gaussian-integer linear forms, expanded exactly.

This module does not import mafoliate: inputs and their expected values come
from integer arithmetic written here, so a defect in the toolkit's calculus
cannot corrupt both an input and the value it is checked against.

A holomorphic polynomial in (z1, z2) is a dict {(i, j): (re, im)} of
Gaussian-integer coefficients.  ``sum_of_squares`` expands |f1|^2 + ... + |fn|^2
into the toolkit's interchange format, whose term (a, b) is
z1^a1 z2^a2 conj(z1)^b1 conj(z2)^b2.

For rho = |l1^a|^2 + |l2^b|^2 with independent linear forms l1, l2, the map
w = (l1, l2) is a linear change of coordinates taking rho to the diagonal
|w1|^{2a} + |w2|^{2b}.  Everything the benchmark checks follows from that:
log rho solves the Monge-Ampere equation off the origin, the type is 2a on
{l1 = 0}, 2b on {l2 = 0} and 2 elsewhere, the weights are (1/a, 1/b), and for
a = b rho has pure bidegree (a, a).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

# Nonzero Gaussian integers with |re|, |im| <= 1 and <= 2.
UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))
WIDE = tuple((re, im) for re in range(-2, 3) for im in range(-2, 3) if (re, im) != (0, 0))


def gmul(x: tuple, y: tuple) -> tuple:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def gconj(x: tuple) -> tuple:
    return (x[0], -x[1])


def _ipow(n: int) -> tuple:
    return ((1, 0), (0, 1), (-1, 0), (0, -1))[n % 4]


def poly_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for (i1, j1), c1 in f.items():
        for (i2, j2), c2 in g.items():
            key = (i1 + i2, j1 + j2)
            re, im = out.get(key, (0, 0))
            c = gmul(c1, c2)
            out[key] = (re + c[0], im + c[1])
    return {k: c for k, c in out.items() if c != (0, 0)}


def poly_pow(f: dict, n: int) -> dict:
    out = {(0, 0): (1, 0)}
    for _ in range(n):
        out = poly_mul(out, f)
    return out


def linear(alpha: tuple, beta: tuple) -> dict:
    return {k: c for k, c in {(1, 0): alpha, (0, 1): beta}.items() if c != (0, 0)}


def poly_at(f: dict, z1: complex, z2: complex) -> complex:
    return sum(complex(*c) * z1**i * z2**j for (i, j), c in f.items())


def sum_of_squares(components: list[dict]) -> dict:
    """Exact terms {(a1, a2, b1, b2): Fraction pair} of sum_k |f_k|^2."""
    terms: dict = {}
    for f in components:
        for a, ca in f.items():
            for b, cb in f.items():
                key = (a[0], a[1], b[0], b[1])
                c = gmul(ca, gconj(cb))
                re, im = terms.get(key, (Fraction(0), Fraction(0)))
                terms[key] = (re + c[0], im + c[1])
    return terms


def add_real_part(terms: dict, coeff: tuple, key: tuple) -> dict:
    """terms + Re(coeff * z^a zbar^b) for key = (a1, a2, b1, b2); coeff is a Fraction pair."""
    out = dict(terms)
    swapped = (key[2], key[3], key[0], key[1])
    half = (coeff[0] / 2, coeff[1] / 2)
    for k, c in ((key, half), (swapped, (half[0], -half[1]))):
        re, im = out.get(k, (Fraction(0), Fraction(0)))
        out[k] = (re + c[0], im + c[1])
    return out


def _falling(n: int, k: int) -> int:
    out = 1
    for j in range(k):
        out *= n - j
    return out


def _qpow(x: tuple, n: int) -> tuple:
    out = (Fraction(1), Fraction(0))
    for _ in range(n):
        out = gmul(out, x)
    return out


def derivative_at(terms: dict, z: tuple, order: tuple) -> tuple:
    """Exact d^order of the terms at a Gaussian-rational point z = ((x1, y1), (x2, y2)).

    order = (d/dz1, d/dz2, d/dzbar1, d/dzbar2) multiplicities.
    """
    zs = (z[0], z[1], gconj(z[0]), gconj(z[1]))
    total = (Fraction(0), Fraction(0))
    for key, coeff in terms.items():
        if any(e < k for e, k in zip(key, order)):
            continue
        val = (Fraction(coeff[0]), Fraction(coeff[1]))
        for var, e, k in zip(zs, key, order):
            val = gmul(val, _qpow(var, e - k))
            val = (val[0] * _falling(e, k), val[1] * _falling(e, k))
        total = (total[0] + val[0], total[1] + val[1])
    return total


def ma_residual_exact(terms: dict, z: tuple) -> Fraction:
    """rho * D - B at z in exact arithmetic (see mafoliate.calculus for D and B)."""
    def d(*order):
        return derivative_at(terms, z, order)

    rho = d(0, 0, 0, 0)[0]
    r1, r2 = d(1, 0, 0, 0), d(0, 1, 0, 0)
    h11, h12 = d(1, 0, 1, 0), d(1, 0, 0, 1)
    h21, h22 = d(0, 1, 1, 0), d(0, 1, 0, 1)
    det = gmul(h11, h22)[0] - gmul(h12, h21)[0]
    bordered = (gmul(h11, gmul(r2, gconj(r2)))[0] + gmul(h22, gmul(r1, gconj(r1)))[0]
                - gmul(h12, gmul(gconj(r1), r2))[0] - gmul(h21, gmul(r1, gconj(r2)))[0])
    return rho * det - bordered


def _rational(x) -> str:
    return str(Fraction(x))


def to_json(terms: dict) -> str:
    """Interchange-format text with rational strings, terms in sorted key order."""
    rows = [
        {"a": [k[0], k[1]], "b": [k[2], k[3]], "re": _rational(c[0]), "im": _rational(c[1])}
        for k, c in sorted(terms.items()) if c[0] != 0 or c[1] != 0
    ]
    return json.dumps({"terms": rows}, sort_keys=True, separators=(",", ":")) + "\n"


class Forms:
    """Two independent linear forms l1 = alpha z1 + beta z2, l2 = gamma z1 + delta z2."""

    def __init__(self, alpha, beta, gamma, delta):
        self.alpha, self.beta, self.gamma, self.delta = alpha, beta, gamma, delta
        det = gmul(alpha, delta)
        bg = gmul(beta, gamma)
        self.det = (det[0] - bg[0], det[1] - bg[1])
        if self.det == (0, 0):
            raise ValueError("linear forms are dependent")
        self.l1 = linear(alpha, beta)
        self.l2 = linear(gamma, delta)

    @classmethod
    def diagonal(cls) -> "Forms":
        return cls((1, 0), (0, 0), (0, 0), (1, 0))

    @classmethod
    def random_nondiagonal(cls, rng: random.Random, pool: tuple = WIDE) -> "Forms":
        """All four coefficients nonzero, so neither form is a coordinate."""
        while True:
            try:
                return cls(*(rng.choice(pool) for _ in range(4)))
            except ValueError:
                continue

    def rotated(self, j: int, k: int) -> "Forms":
        """The forms composed with z -> (i^j z1, i^k z2).

        Multiplying by a power of i is exact in floating point, so the toolkit
        evaluates the rotated input at the rotated point to the same bits.
        """
        r1, r2 = _ipow(j), _ipow(k)
        return Forms(gmul(self.alpha, r1), gmul(self.beta, r2),
                     gmul(self.gamma, r1), gmul(self.delta, r2))

    def rho(self, a: int, b: int) -> dict:
        return sum_of_squares([poly_pow(self.l1, a), poly_pow(self.l2, b)])

    def point_on_l1(self, t: tuple) -> tuple:
        """Gaussian-integer point t * (beta, -alpha), where l1 = 0 and l2 = -det * t."""
        return gmul(self.beta, t), gmul((-self.alpha[0], -self.alpha[1]), t)

    def point_on_l2(self, t: tuple) -> tuple:
        """Gaussian-integer point t * (delta, -gamma), where l2 = 0 and l1 = det * t."""
        return gmul(self.delta, t), gmul((-self.gamma[0], -self.gamma[1]), t)

    @staticmethod
    def rotate_point(z: tuple, j: int, k: int) -> tuple:
        """Image of a point of the unrotated forms: (i^-j z1, i^-k z2)."""
        return gmul(z[0], _ipow(-j)), gmul(z[1], _ipow(-k))

    def generic_point(self, rng: random.Random) -> tuple:
        """Gaussian-integer point off both lines (l1 and l2 nonzero)."""
        while True:
            z = (rng.choice(UNITS), rng.choice(UNITS))
            w1 = poly_at(self.l1, complex(*z[0]), complex(*z[1]))
            w2 = poly_at(self.l2, complex(*z[0]), complex(*z[1]))
            if w1 != 0 and w2 != 0:
                return z


def point_arg(z: tuple) -> str:
    """The CLI's --point value x1,y1,x2,y2 (joined with '=' so a leading '-' is no flag)."""
    (x1, y1), (x2, y2) = z
    return f"--point={x1},{y1},{x2},{y2}"


def three_component_negative(rng: random.Random, degree: int) -> dict:
    """|f1|^2 + |f2|^2 + |f3|^2 with f_k of degree <= d mixing degrees 1..d: not MA.

    The components must not be homogeneous of one degree: then rho is
    circular-homogeneous of pure bidegree and log rho solves the equation
    after all.  f1 = z1 + ..., f2 = z2 + ... keep the zero at the origin
    isolated, and no constant terms keep rho(0) = 0 < 1, so the level set
    rho = 1 is reached along every ray.  A draw is kept only when the exact
    residual rho * D - B is nonzero at a test point.
    """
    monomials = [(i, k - i) for k in range(1, degree + 1) for i in range(k + 1)]
    while True:
        comps = [{m: rng.choice(WIDE + ((0, 0),)) for m in monomials} for _ in range(3)]
        comps[0][(1, 0)] = (1, 0)
        comps[1][(0, 1)] = (1, 0)
        comps = [{m: c for m, c in f.items() if c != (0, 0)} for f in comps]
        terms = sum_of_squares(comps)
        if ma_residual_exact(terms, ((1, 0), (1, 1))) != 0:
            return terms


def bad_like_negative(rng: random.Random) -> dict:
    """|z1|^4 + |z2|^4 + Re(c m / 4), m a quartic monomial of bidegree != (2, 2), |c| <= sqrt 2.

    On the unit sphere |z1|^4 + |z2|^4 >= 1/2 and |c m / 4| <= 0.12, so rho > 0
    off the origin; the impure bidegree makes the burns verdict consistent
    whatever the MA flag says.
    """
    base = sum_of_squares([{(2, 0): (1, 0)}, {(0, 2): (1, 0)}])
    mixed = [(3, 0, 0, 1), (0, 3, 1, 0), (1, 2, 0, 1), (2, 1, 1, 0), (3, 1, 0, 0), (0, 0, 1, 3)]
    while True:
        c = rng.choice(UNITS)
        terms = add_real_part(base, (Fraction(c[0], 4), Fraction(c[1], 4)), rng.choice(mixed))
        if ma_residual_exact(terms, ((1, 0), (1, 1))) != 0:
            return terms
