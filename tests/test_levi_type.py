"""The exact type of point_type, from Levi-form derivatives, against the bracket tower.

The oracle brackets out every left-normed word with ``full_bracket_tower`` and
pairs each with d(rho) exactly, d1 c1 + d2 c2 at the point's doubles taken as
Fractions (``r_value``).  Its first nonzero pairing gives the type, the witness
and the signed pairing; ``point_type`` must give all three, the pairing as the
correctly rounded double.  Inputs: the corpus at its degenerate and generic
points, ``bad`` (not Monge-Ampere, with points where the Levi form is negative),
and non-psh inputs 1 + 2 Re(z2) + P(z1) + ... whose origin has odd type, where
the sign (-1)^m of the pairing is tested.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import mafoliate as mf
from mafoliate.calculus import jet_polynomials, substitute_linear
from mafoliate.finite_type import levi_level

from oracles import full_bracket_tower
from test_batch_eval import hermitian
from test_exact_kernel import r_value, ref


def _mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def oracle_type(p, q, m_max):
    """(type, witness, exact pairing) from the first word of full_bracket_tower, in order,
    whose pairing d1 c1 + d2 c2 with d(rho) is nonzero at q."""
    jp = jet_polynomials(p)
    d1, d2 = (r_value(ref(f), q) for f in (jp.d1, jp.d2))
    for m, level in full_bracket_tower(p, m_max).items():
        for word, field in level:
            a, b = (_mul(d, r_value(ref(c), q)) for d, c in ((d1, field.c1), (d2, field.c2)))
            if a[0] + b[0] or a[1] + b[1]:
                return m, str(word), (a[0] + b[0], a[1] + b[1])
    return "exceeds_cap", None, (Fraction(0), Fraction(0))


def assert_matches_oracle(p, q, m_max):
    got = mf.point_type(p, mf.Point(*q), m_max=m_max)
    m, witness, (re, im) = oracle_type(p, q, m_max)
    assert (got.type_m, got.witness) == (m, witness), q
    assert got.pairing_value == complex(float(re), float(im)), q
    return got


CORPUS_POINTS = {
    "euc": [(1.0, 0.0), (0.6, -0.8j)],
    "fub": [(0.7, 0.7)],
    "quartic": [(0.0, 1.0), (1.0, 0.0), (0.0, -2.0 + 1j), (0.9, 0.6)],
    "weighted": [(0.0, 1.0), (1.0, 0.0), (-0.5j, 0.0), (0.8, 0.8)],
    # bad = |z1|^4 + |z2|^4 + Re(z1^3 zbar2) / 2: type 4 on z1 = 0, where B vanishes, and a
    # negative pairing at (t, 0), where the Levi form is negative on the complex tangent
    "bad": [(0.0, 1.0), (0.0, 0.5 - 0.25j), (1.0, 0.0), (-0.75j, 0.0), (1.0, 0.1875),
            (0.5, 0.5), (1 + 1j, -0.3), (0.1, 2.0)],
}


@pytest.mark.parametrize("name", sorted(CORPUS_POINTS))
def test_point_type_equals_the_bracket_oracle_on_the_corpus(name):
    p = mf.load(name)
    for q in CORPUS_POINTS[name]:
        assert_matches_oracle(p, q, 6)


# 1 + 2 Re(z2) + 2 |z1|^2 Re(z1) and 1 + 2 Re(z2) + 2 |z1|^4 Re(z1): the level set through
# the origin is Re(z2) = -P(z1) + ..., whose lowest non-harmonic term has degree 3 and 5
ODD = {
    3: hermitian({(0, 0, 0, 0): 0.5, (0, 1, 0, 0): 1, (2, 0, 1, 0): 1}),
    5: hermitian({(0, 0, 0, 0): 0.5, (0, 1, 0, 0): 1, (3, 0, 2, 0): 1, (1, 1, 1, 0): 0.25j}),
}


@pytest.mark.parametrize("m", sorted(ODD))
def test_odd_types_at_the_origin_carry_the_sign(m):
    got = assert_matches_oracle(ODD[m], (0.0, 0.0), 6)
    assert got.type_m == m
    a = got.witness.count(",L]")  # the witness's L's after [L,Lbar]: Lbar^(m-2-a) L^a lambda
    value = mf.calculus.at_exact(levi_level(ODD[m], m - 2)[m - 2 - a], (0, 0))
    assert got.pairing_value == -value.to_complex() != 0  # (-1)^m with m odd


def random_nonpsh(rng: random.Random) -> mf.Polynomial:
    """1 + 2 Re(z2) + P(z1) + Re(z2 Q): P has lowest degree 3, 4 or 5 in z1 and is
    not psh, Q couples z2 to z1 with a term of degree 2 or more."""
    c = lambda: complex(rng.randint(-3, 3), rng.randint(-3, 3))
    d = rng.choice((3, 4, 5))
    terms = {(0, 0, 0, 0): 0.5, (0, 1, 0, 0): 1}
    for a in range(1, d):
        terms[(a, 0, d - a, 0)] = c()
    terms[(d, 0, 1, 0)] = c()
    terms[(1, 1, rng.randint(1, 2), 0)] = c()
    terms[(0, 1, 0, 1)] = c()
    return hermitian(terms)


@pytest.mark.parametrize("seed", range(12))
def test_point_type_equals_the_bracket_oracle_on_random_nonpsh_inputs(seed):
    p = random_nonpsh(random.Random(seed))
    assert_matches_oracle(p, (0.0, 0.0), 6)
    assert_matches_oracle(p, (0.25, -0.125j), 4)


def test_pinned_33_forms_have_type_6():
    # |l1^3|^2 + |l2^3|^2 at a point of {l1 = 0}: the exact type is 6; the float bracket
    # search with a tolerance read 5 and 4 here
    base = mf.real_polynomial({(3, 0, 3, 0): 1, (0, 3, 0, 3): 1})
    for M, q in (([[1j, 1 + 1j], [-1 + 2j, -2 - 1j]], (-1 - 1j, 1j)),
                 ([[-1, -1 + 2j], [-2 + 1j, 2 + 2j]], (-2 - 1j, 1j))):
        p = substitute_linear(base, M)
        got = mf.point_type(p, mf.Point(*q))
        assert (got.type_m, got.witness) == (6, "[[[[[L,Lbar],L],L],Lbar],Lbar]")
        value = mf.calculus.at_exact(levi_level(p, 4)[2], q)
        assert got.pairing_value == value.to_complex() != 0
