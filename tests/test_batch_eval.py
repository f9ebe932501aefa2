"""Batched evaluation against the one-point path, bit for bit.

``evaluate_many`` promises the very doubles that ``Polynomial.__call__`` gives:
signed zeros, infs and nans in the same places.  ``ma_scan`` hands those values
to the scalar jet and residual formulas, so it promises the reports of
``ma_residual(eval_jet(p, q))``.  Every comparison here is on the bit patterns,
so a fused multiply-add or a reordered sum anywhere fails it.  At the end, the
exact ray limit of ``extend_gradient`` is checked against the numeric ray ladder
it replaced (``oracles.scalar_extend_gradient``).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mafoliate as mf
from mafoliate.calculus import (
    Polynomial,
    cmul,
    evaluate_many,
    jet_polynomials,
    on_line,
    real_polynomial,
)
from mafoliate.finite_type import polynomial_gradient

from oracles import LadderDisagreement, scalar_extend_gradient

BATCH = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def bits(x) -> np.ndarray:
    """The (real, imag) bit patterns of complex values (real ones get imag 0), with every
    nan as the one pattern of np.nan: which of two nan operands an operation returns is
    not fixed by IEEE 754, and CPython's compiled arithmetic and numpy's loops may pick
    differently, so a nan's sign bit is not part of the promise."""
    z = np.asarray(x, dtype=complex)
    parts = np.stack([z.real, z.imag])
    return np.where(np.isnan(parts), np.nan, parts).view(np.uint64)


def assert_same(got, want) -> None:
    """Equal bits: the same signed zeros, infs and finite values, and nan in the same places."""
    got, want = bits(got), bits(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

# denominators 3, 5, 7, 12: not dyadic, so every coefficient is rounded
rationals = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 3, 5, 7, 12]))
keys = st.tuples(*[st.integers(0, 3)] * 4)
term_maps = st.dictionaries(keys, st.tuples(rationals, rationals), max_size=8)
long_term_maps = st.dictionaries(keys, st.tuples(rationals, rationals), min_size=9, max_size=40)
coordinates = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-2.0, 2.0),
    st.floats(-1e200, 1e200),  # large enough for products to overflow into inf and nan
)
points = st.lists(st.tuples(*[coordinates] * 4), min_size=0, max_size=12)


def as_z(pts) -> tuple[np.ndarray, np.ndarray]:
    z = np.array([[complex(x1, y1), complex(x2, y2)] for x1, y1, x2, y2 in pts],
                 dtype=complex).reshape(-1, 2)
    return z[:, 0], z[:, 1]


def hermitian(terms: dict) -> Polynomial:
    """p + conj(p): real-valued, with the same non-dyadic coefficients."""
    p = Polynomial(terms)
    return real_polynomial((p + p.conjugate()).terms)


# ---------------------------------------------------------------------------
# polynomial values
# ---------------------------------------------------------------------------


@BATCH
@given(st.lists(term_maps, min_size=1, max_size=4), points)
def test_evaluate_many_matches_scalar_evaluation(term_list, pts):
    polys = [Polynomial(t) for t in term_list]
    z1, z2 = as_z(pts)
    got = evaluate_many(polys, z1, z2)
    assert got.shape == (len(polys), len(pts))
    for k, p in enumerate(polys):
        assert_same(got[k], [p(a, b) for a, b in zip(z1, z2)])


@BATCH
@given(long_term_maps, st.tuples(*[coordinates] * 4))
def test_many_terms_at_one_point_are_summed_in_row_order(terms, pt):
    """Nine terms or more: a pairwise or blocked sum would round differently."""
    p = Polynomial(terms)
    z1, z2 = as_z([pt])
    assert_same(evaluate_many((p,), z1, z2)[0], [p(z1[0], z2[0])])


SPECIAL = [0.0, -0.0, 1.5, -2.0, math.inf, -math.inf, math.nan, 1e300, 5e-324]


def test_cmul_is_cpythons_complex_product():
    """Every combination of zeros, infs, nans, huge and subnormal parts."""
    values = [complex(x, y) for x in SPECIAL for y in SPECIAL]
    a, b = (np.array(v) for v in zip(*[(x, y) for x in values for y in values]))
    with np.errstate(all="ignore"):
        product_r, product_i = cmul(a.real, a.imag, b.real, b.imag)
    want = [x * y for x in values for y in values]
    assert_same(product_r, [w.real for w in want])
    assert_same(product_i, [w.imag for w in want])


def test_points_on_the_axes_and_signed_zeros():
    p = mf.load("quartic")
    jp = jet_polynomials(p)
    polys = [p, *jp]
    zeros = [0.0, -0.0]
    z1 = np.array([complex(a, b) for a in zeros for b in zeros]
                  + [1.5 - 0.0j, complex(-0.0, 2.0)] * 2)
    z2 = np.array([complex(b, a) for a in zeros for b in zeros]
                  + [complex(0.0, -0.0), -0.0j, 0.5, 2j])
    got = evaluate_many(polys, z1, z2)
    for k, q in enumerate(polys):
        assert_same(got[k], [q(a, b) for a, b in zip(z1, z2)])


def test_many_points_cross_the_chunk_boundaries():
    """More points than fit in one chunk of the core."""
    p = mf.load("weighted")
    jp = jet_polynomials(p)
    rng = np.random.default_rng(7)
    z = rng.normal(size=(2, 3001)) + 1j * rng.normal(size=(2, 3001))
    z[:, ::5] *= 1e120  # some products overflow
    got = evaluate_many(jp, z[0], z[1])
    for k, q in enumerate(jp):
        assert_same(got[k], [q(a, b) for a, b in zip(z[0], z[1])])


OVERFLOWING = [(1e200, 1e200), (1e300j, 1.0), (0.0, -1e250)]


def test_batch_raises_no_floating_point_warning():
    """CPython's float arithmetic overflows silently; so does the batch."""
    p = mf.load("quartic")
    z1, z2 = zip(*OVERFLOWING)
    with np.errstate(all="raise"):
        values = evaluate_many(jet_polynomials(p), z1, z2)
        reports = mf.ma_scan(p, [mf.Point(*q) for q in OVERFLOWING])
    assert not np.isfinite(values).all()
    assert not all(math.isfinite(rep.B) for rep in reports)


# ---------------------------------------------------------------------------
# the Monge-Ampere sweep
# ---------------------------------------------------------------------------


def test_ma_scan_matches_ma_residual():
    """Random points, signed zeros on the axes, and points where the values overflow."""
    p = mf.load("fub")
    rng = np.random.default_rng(3)
    pts = [mf.Point(*row) for row in rng.normal(size=(300, 2)) + 1j * rng.normal(size=(300, 2))]
    pts += [mf.Point(complex(x, y), complex(u, v))
            for x in (0.0, -0.0) for y in (0.0, -0.0) for u, v in ((1.5, -0.0), (-0.0, -2.0))]
    pts += [mf.Point(*q) for q in OVERFLOWING]
    for rep, q in zip(mf.ma_scan(p, pts), pts, strict=True):
        want = mf.ma_residual(mf.eval_jet(p, q))
        assert rep.point is q
        assert_same([rep.rho, rep.D, rep.B, rep.residual, rep.normalized],
                    [want.rho, want.D, want.B, want.residual, want.normalized])


# ---------------------------------------------------------------------------
# the exact ray limit of extend_gradient against the ray ladder
# ---------------------------------------------------------------------------


def assert_agrees_with_the_ladder(p, q) -> None:
    """Where the ladder converges, extend_gradient lies within 1e-7 relative of it.  Where
    the ladder raises, extend_gradient raises NoExtension or AllRaysDegenerate, or gives
    the polynomial Z at q (evaluated exactly, then rounded).  Both refuse a rho that is
    not positive and finite."""
    try:
        ladder = scalar_extend_gradient(p, q)
    except mf.NonPositiveRho:
        with pytest.raises(mf.NonPositiveRho):
            mf.extend_gradient(p, q)
        return
    except (LadderDisagreement, mf.AllRaysDegenerate, mf.DegenerateLevi):
        try:
            g = mf.extend_gradient(p, q)
        except (mf.NoExtension, mf.AllRaysDegenerate):
            return
        Z = polynomial_gradient(p)
        assert Z is not None
        assert [g.Z1, g.Z2] == [on_line(Zj, q.as_pair(), (0, 0))[0].to_complex() for Zj in Z]
        return
    g = mf.extend_gradient(p, q)
    gap = max(abs(g.Z1 - ladder.Z1), abs(g.Z2 - ladder.Z2))
    assert gap <= 1e-7 * (1.0 + max(abs(ladder.Z1), abs(ladder.Z2)))


def forms_rho(coeffs, a: int, b: int) -> Polynomial:
    """|l1^a|^2 + |l2^b|^2 for the linear forms l1, l2 with the given coefficients."""
    z1, z2 = Polynomial.variable("z1"), Polynomial.variable("z2")
    (p1, q1), (p2, q2) = coeffs
    l1 = z1 * complex(*p1) + z2 * complex(*q1)
    l2 = z1 * complex(*p2) + z2 * complex(*q2)
    rho = l1 ** a * (l1 ** a).conjugate() + l2 ** b * (l2 ** b).conjugate()
    return real_polynomial(rho.terms)


@pytest.mark.parametrize("name, point", [
    ("weighted", (1.0, 0.0)), ("weighted", (0.0, 1.0)), ("weighted", (-0.5j, 0.0)),
    ("quartic", (0.0, 1.0)), ("quartic", (1.0, 0.0)), ("quartic", (0.0, -2.0 + 1j)),
    ("quartic", (0.0, 0.0)), ("euc", (0.0, 0.0)), ("quartic", (1e200, 0.0)),
])
def test_extend_gradient_matches_the_one_point_loop_on_the_corpus(name, point):
    assert_agrees_with_the_ladder(mf.load(name), mf.Point(*point))


gaussian = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


@BATCH
@given(st.tuples(st.tuples(gaussian, gaussian), st.tuples(gaussian, gaussian)),
       st.integers(1, 3), st.integers(1, 3), st.sampled_from([1, 2]),
       st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(lambda t: t != (0, 0)))
def test_extend_gradient_matches_the_one_point_loop_on_degenerate_lines(coeffs, a, b, line, t):
    (p1, q1), (p2, q2) = coeffs
    l1, l2 = (complex(*p1), complex(*q1)), (complex(*p2), complex(*q2))
    if l1[0] * l2[1] - l1[1] * l2[0] == 0:
        return  # the forms must be independent
    p = forms_rho(coeffs, a, b)
    u, v = l1 if line == 1 else l2
    s = complex(*t)
    # a point of {l = 0}, where the Levi form degenerates if the power is >= 2
    q = mf.Point(s * v, -s * u)
    assert_agrees_with_the_ladder(p, q)
