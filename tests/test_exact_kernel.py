"""The Gaussian-integer kernel of Polynomial against a Fraction reference.

``Polynomial`` keeps Gaussian-integer numerators over one denominator.  The
reference below keeps one ``(Fraction, Fraction)`` pair per monomial and does
the textbook arithmetic on it; every operation of the kernel must agree with it
exactly, on coefficients with non-dyadic denominators and with cancellation.
"""

from __future__ import annotations

import math
from fractions import Fraction

import sympy as sp
from hypothesis import given, settings, strategies as st

from mafoliate.calculus import VARIABLES, Polynomial, at_exact, on_line, real_polynomial
from mafoliate.corpus import CORPUS_NAMES, load

KERNEL = settings(max_examples=60, deadline=None, derandomize=True, database=None)


# ---------------------------------------------------------------------------
# Fraction reference: {exponent tuple: (re, im)}
# ---------------------------------------------------------------------------


def ref(p: Polynomial) -> dict:
    return {tuple(k): (c.re, c.im) for k, c in p.terms.items()}


def r_clean(terms: dict) -> dict:
    return {k: c for k, c in terms.items() if c != (0, 0)}


def r_add(x: dict, y: dict) -> dict:
    out = dict(x)
    for k, (re, im) in y.items():
        a, b = out.get(k, (0, 0))
        out[k] = (a + re, b + im)
    return r_clean(out)


def r_mul(x: dict, y: dict) -> dict:
    out: dict = {}
    for k1, (a, b) in x.items():
        for k2, (c, d) in y.items():
            k = tuple(i + j for i, j in zip(k1, k2))
            re, im = out.get(k, (0, 0))
            out[k] = (re + a * c - b * d, im + a * d + b * c)
    return r_clean(out)


def r_neg(x: dict) -> dict:
    return {k: (-re, -im) for k, (re, im) in x.items()}


def r_conj(x: dict) -> dict:
    return {(b1, b2, a1, a2): (re, -im) for (a1, a2, b1, b2), (re, im) in x.items()}


def r_derive(x: dict, idx: int) -> dict:
    return {k[:idx] + (k[idx] - 1,) + k[idx + 1:]: (k[idx] * re, k[idx] * im)
            for k, (re, im) in x.items() if k[idx]}


def r_value(x: dict, q) -> tuple[Fraction, Fraction]:
    """The value at the point q = (z1, z2), each double of q taken as the Fraction it is."""
    z = [(Fraction(w.real), Fraction(w.imag)) for w in map(complex, q)]
    point = z + [(re, -im) for re, im in z]  # z1, z2, zbar1, zbar2
    total_re = total_im = Fraction(0)
    for key, (re, im) in x.items():
        for (a, b), e in zip(point, key):
            for _ in range(e):
                re, im = re * a - im * b, re * b + im * a
        total_re += re
        total_im += im
    return total_re, total_im


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

# denominators 3, 5, 12, ...: not dyadic, so no float is exact and the gcd matters
rationals = st.builds(Fraction, st.integers(-7, 7), st.sampled_from([1, 2, 3, 4, 5, 6, 12]))
keys = st.tuples(*[st.integers(0, 2)] * 4)
term_maps = st.dictionaries(keys, st.tuples(rationals, rationals), max_size=6)


@st.composite
def polynomial_pairs(draw):
    """Two polynomials, the second sharing some keys with the negated first, so sums cancel."""
    x = draw(term_maps)
    shared = draw(st.lists(st.sampled_from(sorted(x)), unique=True)) if x else []
    y = {**draw(term_maps), **{k: (-x[k][0], -x[k][1]) for k in shared}}
    return Polynomial(x), Polynomial(y)


def reduced(p: Polynomial) -> bool:
    """The stored form is in lowest terms; zero has denominator 1."""
    nums = [v for c in p._num.values() for v in c]
    return p._den > 0 and math.gcd(p._den, *nums) == 1 and all(c != (0, 0) for c in p._num.values())


# ---------------------------------------------------------------------------
# arithmetic against the reference
# ---------------------------------------------------------------------------


@KERNEL
@given(polynomial_pairs())
def test_sum_difference_product_match_reference(pair):
    p, q = pair
    for got, want in ((p + q, r_add(ref(p), ref(q))),
                      (p - q, r_add(ref(p), r_neg(ref(q)))),
                      (p * q, r_mul(ref(p), ref(q))),
                      (-p, r_neg(ref(p)))):
        assert ref(got) == want
        assert reduced(got)


@KERNEL
@given(term_maps, st.integers(0, 3))
def test_power_matches_reference(terms, n):
    p = Polynomial(terms)
    want = {(0, 0, 0, 0): (Fraction(1), Fraction(0))}
    for _ in range(n):
        want = r_mul(want, ref(p))
    assert ref(p ** n) == want


@KERNEL
@given(term_maps)
def test_derive_and_conjugate_match_reference(terms):
    p = Polynomial(terms)
    assert ref(p) == r_clean(terms)
    for idx, var in enumerate(VARIABLES):
        d = p.derive(var)
        assert ref(d) == r_derive(ref(p), idx)
        assert reduced(d)
    assert ref(p.conjugate()) == r_conj(ref(p))


Z_SYMBOLS = sp.symbols("z1 z2 zbar1 zbar2")  # independent, as in Wirtinger calculus


def to_sympy(p: Polynomial):
    return sp.Add(*((sp.Rational(c.re) + sp.I * sp.Rational(c.im))
                    * sp.Mul(*(v**e for v, e in zip(Z_SYMBOLS, k))) for k, c in p.terms.items()))


# a coefficient of a field is often zero, so fields with zero components and with
# (0,1) parts both occur
coefficients = st.one_of(st.just({}), term_maps)


@KERNEL
@given(term_maps, st.tuples(*[coefficients] * 4))
def test_derive_along_matches_sympy(terms, field):
    f = Polynomial(terms)
    field = [Polynomial(c) for c in field]
    want = sum(to_sympy(c) * sp.diff(to_sympy(f), v) for c, v in zip(field, Z_SYMBOLS))
    assert sp.expand(to_sympy(f.derive_along(*field)) - want) == 0


@KERNEL
@given(term_maps, rationals, rationals)
def test_scaled_matches_reference(terms, re, im):
    p = Polynomial(terms)
    assert ref(p.scaled((re, im))) == r_mul(ref(p), r_clean({(0, 0, 0, 0): (re, im)}))


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


@KERNEL
@given(polynomial_pairs(), term_maps)
def test_equal_polynomials_from_different_routes_compare_and_hash_equal(pair, terms):
    p, q = pair
    r = Polynomial(terms)
    routes = [(p + q) + r, p + (q + r), r + q + p, Polynomial(r_add(r_add(ref(p), ref(q)), ref(r)))]
    for other in routes[1:]:
        assert other == routes[0]
        assert hash(other) == hash(routes[0])
    assert p * (q + r) == p * q + p * r
    assert hash(p * q) == hash(q * p)


@KERNEL
@given(term_maps)
def test_thirds_and_cancellation_reach_the_canonical_form(terms):
    p = Polynomial(terms)
    third = p.scaled(Fraction(1, 3))
    assert third * 3 == p
    assert hash(third * 3) == hash(p)
    assert p + (-p) == Polynomial.zero()
    assert (p - p)._den == 1 and hash(p - p) == hash(Polynomial.zero())


def test_hermitian_real_part_is_exact():
    # (1/3 + i/5) z1 zbar2 paired with (1/3 - i/5) z2 zbar1, plus 5/12 |z1|^2
    p = real_polynomial([((1, 0, 0, 1), (Fraction(1, 3), Fraction(1, 5))),
                                        ((0, 1, 1, 0), (Fraction(1, 3), Fraction(-1, 5))),
                                        ((1, 0, 1, 0), Fraction(5, 12))])
    assert ref(p) == {(1, 0, 0, 1): (Fraction(1, 3), Fraction(1, 5)),
                      (0, 1, 1, 0): (Fraction(1, 3), Fraction(-1, 5)),
                      (1, 0, 1, 0): (Fraction(5, 12), Fraction(0))}
    assert p._den == 60 and reduced(p)


# ---------------------------------------------------------------------------
# float conversion
# ---------------------------------------------------------------------------

wide_rationals = st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**30))


@KERNEL
@given(st.dictionaries(keys, st.tuples(wide_rationals, wide_rationals), min_size=1, max_size=6))
def test_compiled_coefficients_round_like_fraction(terms):
    p = Polynomial(terms)
    rows, _ = p._compile()
    want = sorted(ref(p).items(), key=lambda kv: (sum(kv[0]), kv[0]))
    assert [row[:4] for row in rows] == [k for k, _ in want]
    for row, (_, (re, im)) in zip(rows, want):
        c = row[4]
        assert (c.real.hex(), c.imag.hex()) == (float(re).hex(), float(im).hex())


# ---------------------------------------------------------------------------
# exact point values
# ---------------------------------------------------------------------------

# non-dyadic doubles such as 0.1, and the extremes of the exponent range
coordinates = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, -1 / 3, 1.3, 2.0**-1074, 1e-300, 1e200, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False))
points = st.tuples(*[st.builds(complex, coordinates, coordinates)] * 2)


@KERNEL
@given(term_maps, points)
def test_at_exact_matches_reference_and_on_line(terms, q):
    f = Polynomial(terms)
    got = at_exact(f, q)
    assert tuple(got) == r_value(ref(f), q)
    assert got == on_line(f, q, (0, 0))[0]


@KERNEL
@given(st.sampled_from(CORPUS_NAMES), points)
def test_at_exact_matches_sympy(name, q):
    f = load(name)
    z1, z2 = (sp.Rational(w.real) + sp.I * sp.Rational(w.imag) for w in q)
    want = sp.expand(sum((sp.Rational(c.re) + sp.I * sp.Rational(c.im))
                         * z1**k[0] * z2**k[1] * sp.conjugate(z1)**k[2] * sp.conjugate(z2)**k[3]
                         for k, c in f.terms.items()))
    got = at_exact(f, q)
    assert sp.Rational(got.re) + sp.I * sp.Rational(got.im) == want
