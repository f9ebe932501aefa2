from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

import mafoliate as mf
from mafoliate.calculus import GaussianRational, Polynomial
from mafoliate.finite_type import bracket_level, ray_limit

from conftest import TERMS, admissible_points
from oracles import (
    VARS, Z1, Z2, TypeCapExceeded, _field_bracket, conj_expr, extension_ingredients,
    full_bracket_tower, poly_expr, sympy_type,
)
from test_batch_eval import forms_rho
from test_bracket_batch import NONDIAGONAL
from test_polynomial_gradient import shear_rho


def pvf(c1=None, c2=None, cbar1=None, cbar2=None):
    zero = Polynomial.zero()
    mk = lambda t: zero if t is None else Polynomial(t)
    return mf.PolyVectorField(mk(c1), mk(c2), mk(cbar1), mk(cbar2))


# ---------------------------------------------------------------------------
# tangential field and brackets
# ---------------------------------------------------------------------------


def test_tangential_field_euclidean(corpus):
    L = mf.tangential_field(corpus["euc"])
    assert L.c1 == Polynomial({(0, 0, 0, 1): 1})   # zbar2
    assert L.c2 == Polynomial({(0, 0, 1, 0): -1})  # -zbar1
    assert L.is_type10()


def test_tangential_field_quartic(corpus):
    L = mf.tangential_field(corpus["quartic"])
    assert L.c1 == Polynomial({(0, 1, 0, 2): 2})   # 2 z2 zbar2^2
    assert L.c2 == Polynomial({(1, 0, 2, 0): -2})  # -2 z1 zbar1^2


def test_symbolic_tangency_for_all_corpus(corpus):
    for p in corpus.values():
        L = mf.tangential_field(p)
        assert mf.pair_d_rho(p, L).is_zero()


def test_bracket_d1_with_z1_d1():
    d1 = pvf(c1={(0, 0, 0, 0): 1})
    z1d1 = pvf(c1={(1, 0, 0, 0): 1})
    out = mf.lie_bracket(d1, z1d1)
    assert out.c1 == Polynomial({(0, 0, 0, 0): 1})
    assert out.c2.is_zero() and out.cbar1.is_zero() and out.cbar2.is_zero()


def test_bracket_antisymmetry_and_bilinearity():
    rng = np.random.default_rng(211)

    def random_field():
        terms = {}
        for _ in range(3):
            key = tuple(rng.integers(0, 2, size=4))
            terms[key] = complex(*rng.normal(size=2))
        comps = [Polynomial(terms)]
        for _ in range(3):
            terms2 = {tuple(rng.integers(0, 2, size=4)): complex(*rng.normal(size=2))}
            comps.append(Polynomial(terms2))
        return mf.PolyVectorField(*comps)

    V, W = random_field(), random_field()
    vw = mf.lie_bracket(V, W)
    wv = mf.lie_bracket(W, V)
    for a, b in zip(vw.components(), wv.components()):
        assert a == Polynomial.zero() - b  # exact antisymmetry

    U = random_field()
    lhs = mf.lie_bracket(pvf_sum(U, V), W)
    rhs_parts = (mf.lie_bracket(U, W), mf.lie_bracket(V, W))
    for a, b, c in zip(lhs.components(), *[r.components() for r in rhs_parts]):
        assert a == b + c


def pvf_sum(V, W):
    return mf.PolyVectorField(*(a + b for a, b in zip(V.components(), W.components())))


def test_jacobi_identity_exact():
    rng = np.random.default_rng(223)

    def random_field():
        comps = []
        for _ in range(4):
            terms = {tuple(rng.integers(0, 2, size=4)): complex(*rng.normal(size=2))}
            comps.append(Polynomial(terms))
        return mf.PolyVectorField(*comps)

    A, B, C = (random_field() for _ in range(3))
    total = pvf_sum(
        pvf_sum(mf.lie_bracket(A, mf.lie_bracket(B, C)),
                mf.lie_bracket(B, mf.lie_bracket(C, A))),
        mf.lie_bracket(C, mf.lie_bracket(A, B)),
    )
    for comp in total.components():
        assert comp.is_zero()


def test_bracket_L_Lbar_is_cofactor_field(corpus):
    # [L, Lbar] equals the field with components (N1, N2, -conj N1, -conj N2),
    # where N = D * Z by cofactors; this is the bracket identity in exact form
    from mafoliate.calculus import jet_polynomials

    for p in corpus.values():
        jp = jet_polynomials(p)
        L = mf.tangential_field(p)
        br = mf.lie_bracket(L, L.conjugate())
        assert br.c1 == jp.n1
        assert br.c2 == jp.n2
        assert br.cbar1 == Polynomial.zero() - jp.n1.conjugate()
        assert br.cbar2 == Polynomial.zero() - jp.n2.conjugate()


def test_bracket_L_Lbar_euclidean_value(corpus):
    br = bracket_level(corpus["euc"], 2)[0][1]
    vals = br.evaluate(mf.Point(1.0, 1.0))
    assert vals == (1 + 0j, 1 + 0j, -1 + 0j, -1 + 0j)  # D (Z - Zbar) with D=1, Z=(1,1)


def test_bracket_tower_matches_sympy_term_by_term(corpus):
    # a non-diagonal quartic with rational, non-integer coefficients
    p = mf.substitute_linear(corpus["quartic"], [[1, 0.5j], [0, 1]])
    assert any(c.re.denominator > 1 or c.im.denominator > 1 for c in p.terms.values())

    def exact(c):
        return sp.Rational(c.re) + sp.I * sp.Rational(c.im)

    rho = poly_expr([(k, exact(c)) for k, c in p.terms.items()])
    d1, d2 = sp.diff(rho, Z1), sp.diff(rho, Z2)
    gens = {"L": (d2, -d1, sp.Integer(0), sp.Integer(0)),
            "Lbar": (sp.Integer(0), sp.Integer(0), conj_expr(d2), -conj_expr(d1))}
    level = [("[L,Lbar]", _field_bracket(gens["L"], gens["Lbar"]))]
    for length in (2, 3, 4):
        words = bracket_level(p, length)
        assert [str(w) for w, _ in words] == [name for name, _ in level]
        for (_, field), (name, ref) in zip(words, level):
            for ours, theirs in zip(field.components(), ref):
                want = sp.Poly(theirs, *VARS).as_dict() if theirs != 0 else {}
                assert {tuple(k): exact(c) for k, c in ours.terms.items()} == want, name
        if length < 4:
            level = [(f"[{name},{g}]", _field_bracket(field, gens[g]))
                     for name, field in level for g in ("L", "Lbar")]


TOWER_INPUTS = {
    **{name: lambda name=name: mf.load(name) for name in mf.CORPUS_NAMES},
    **{f"nondiag{a}{b}": lambda a=a, b=b: forms_rho(NONDIAGONAL, a, b)
       for a, b in ((2, 1), (3, 3), (4, 2))},
    "shear31": lambda: shear_rho(3, 1),
}


@pytest.mark.parametrize("name", TOWER_INPUTS)
def test_bracket_level_equals_the_full_recursion(name):
    p = TOWER_INPUTS[name]()
    tower = full_bracket_tower(p, 7)
    for length in range(2, 8):
        got, want = bracket_level(p, length), tower[length]
        assert [str(w) for w, _ in got] == [str(w) for w, _ in want], length
        for (word, field), (ref_word, ref_field) in zip(got, want):
            assert word == ref_word
            assert field.components() == ref_field.components(), (length, str(word))


# ---------------------------------------------------------------------------
# point type
# ---------------------------------------------------------------------------


def test_type_euclidean_sphere_point(corpus):
    rep = mf.point_type(corpus["euc"], mf.Point(1.0, 0.0))
    assert rep.type_m == 2
    assert str(rep.witness) == "[L,Lbar]"
    assert rep.pairing_value == pytest.approx(1.0)


def test_type_quartic_generic_point(corpus):
    rep = mf.point_type(corpus["quartic"], mf.Point(1.0, 1.0))
    assert rep.type_m == 2  # D > 0 on its level set


def test_type_quartic_degenerate_point_frozen(corpus):
    # brute-force enumeration oracle: type 4, witness [[[L,Lbar],L],Lbar], pairing 64
    rep = mf.point_type(corpus["quartic"], mf.Point(0.0, 1.0))
    assert rep.type_m == 4
    assert str(rep.witness) == "[[[L,Lbar],L],Lbar]"
    assert rep.pairing_value == pytest.approx(64.0)
    assert sympy_type(TERMS["quartic"], (0.0, 1.0)) == (4, "[[[L,Lbar],L],Lbar]")


def test_type_weighted_degenerate_points_frozen(corpus):
    # oracle: |z1|^6 contact at (0,1) gives type 6; |z2|^4 contact at (1,0) gives type 4
    rep01 = mf.point_type(corpus["weighted"], mf.Point(0.0, 1.0))
    assert rep01.type_m == 6
    assert str(rep01.witness) == "[[[[[L,Lbar],L],L],Lbar],Lbar]"
    assert rep01.pairing_value == pytest.approx(2304.0)
    rep10 = mf.point_type(corpus["weighted"], mf.Point(1.0, 0.0))
    assert rep10.type_m == 4
    assert rep10.pairing_value == pytest.approx(324.0)
    assert sympy_type(TERMS["weighted"], (0.0, 1.0))[0] == 6
    assert sympy_type(TERMS["weighted"], (1.0, 0.0))[0] == 4


def test_type_two_iff_nondegenerate(ma_corpus):
    rng = np.random.default_rng(227)
    for p in ma_corpus.values():
        for q in admissible_points(p, rng, 10):
            rep = mf.point_type(p, q)
            assert rep.type_m == 2


def test_types_are_even_on_corpus(corpus):
    probes = {
        "euc": [(1.0, 0.0)], "fub": [(0.7, 0.7)],
        "quartic": [(0.0, 1.0), (1.0, 0.0), (0.9, 0.6)],
        "weighted": [(0.0, 1.0), (1.0, 0.0), (0.8, 0.8)],
    }
    for name, pts in probes.items():
        for pt in pts:
            rep = mf.point_type(corpus[name], mf.Point(*pt))
            assert isinstance(rep.type_m, int) and rep.type_m % 2 == 0


def test_type_exceeds_cap(corpus):
    rep = mf.point_type(corpus["weighted"], mf.Point(0.0, 1.0), m_max=4)
    assert rep.type_m == "exceeds_cap"
    assert rep.witness is None


def test_type_zero_differential():
    p = mf.real_polynomial({(0, 0, 0, 0): 1, (1, 0, 1, 0): 1})
    with pytest.raises(mf.ZeroDifferential):
        mf.point_type(p, mf.Point(0.0, 0.0))


def test_type_report_json(corpus):
    from mafoliate.cli import _jsonable, _record

    rep = mf.point_type(corpus["quartic"], mf.Point(0.0, 1.0))
    doc = _jsonable(_record(rep))
    assert doc["type_m"] == 4
    assert doc["witness"] == "[[[L,Lbar],L],Lbar]"
    assert doc["point"] == [0.0, 0.0, 1.0, 0.0]


# ---------------------------------------------------------------------------
# bracket identity defects
# ---------------------------------------------------------------------------


def test_identities_euclidean_at_11(corpus):
    rep = mf.bracket_identities_check(corpus["euc"], mf.Point(1.0, 1.0))
    for defect in (rep.defect_llbar, rep.defect_lz, rep.defect_lzbar, rep.defect_zzbar):
        assert defect < 1e-10


def test_identities_quartic_commutator_with_D16(corpus):
    q = mf.Point(1.0, 1.0)
    jet = mf.eval_jet(corpus["quartic"], q)
    assert jet.D == pytest.approx(16.0)
    rep = mf.bracket_identities_check(corpus["quartic"], q)
    assert rep.defect_llbar < 1e-12


def test_identities_fub_collinearity(corpus):
    rep = mf.bracket_identities_check(corpus["fub"], mf.Point(1.0, 2.0))
    assert rep.defect_lz < 1e-8


def test_identities_random_ma_points(ma_corpus):
    rng = np.random.default_rng(229)
    for p in ma_corpus.values():
        for q in admissible_points(p, rng, 20):
            rep = mf.bracket_identities_check(p, q)
            assert rep.defect_llbar < 1e-9
            assert rep.defect_lz < 1e-8
            assert rep.defect_lzbar < 1e-8
            assert rep.defect_zzbar < 1e-8
            assert rep.drho_zzbar < 1e-8


def test_identities_fail_without_ma(corpus):
    # the commutator identity is unconditional; the span identities need the equation
    rep = mf.bracket_identities_check(corpus["bad"], mf.Point(1 + 0.2j, 0.8))
    assert rep.defect_llbar < 1e-12
    assert rep.defect_lz > 1e-3


def test_identities_degenerate_raises(corpus):
    with pytest.raises(mf.DegenerateLevi):
        mf.bracket_identities_check(corpus["quartic"], mf.Point(1.0, 0.0))


# ---------------------------------------------------------------------------
# extension ingredients and the extended gradient
# ---------------------------------------------------------------------------


def test_ingredients_euclidean_sphere(corpus):
    V, phi = extension_ingredients(corpus["euc"], mf.Point(1.0, 0.0))
    assert phi == pytest.approx(1.0)
    assert V.is_type10()
    assert V.cbar1.is_zero() and V.cbar2.is_zero()


def test_ingredients_quartic_frozen(corpus):
    V, phi = extension_ingredients(corpus["quartic"], mf.Point(0.0, 1.0))
    assert phi == pytest.approx(64.0)  # pairing 64 over rho = 1
    assert V.is_type10()


def test_ingredients_weighted_nonzero_phi(corpus):
    _, phi01 = extension_ingredients(corpus["weighted"], mf.Point(0.0, 1.0))
    _, phi10 = extension_ingredients(corpus["weighted"], mf.Point(1.0, 0.0))
    assert abs(phi01) > 1e-8 and abs(phi10) > 1e-8
    assert phi01 == pytest.approx(2304.0)
    assert phi10 == pytest.approx(324.0)


def test_ingredients_cap_exceeded(corpus):
    with pytest.raises(TypeCapExceeded):
        extension_ingredients(corpus["weighted"], mf.Point(0.0, 1.0), m_max=4)


def test_extend_quartic_axis_frozen(corpus):
    g = mf.extend_gradient(corpus["quartic"], mf.Point(0.0, 1.0))
    assert g.Z1 == pytest.approx(0.0, abs=1e-10)
    assert g.Z2 == pytest.approx(0.5, rel=1e-10)
    assert abs(g.pairing_check) < 1e-10


def test_extend_weighted_axes_frozen(corpus):
    g = mf.extend_gradient(corpus["weighted"], mf.Point(0.0, 1.0))
    assert g.Z1 == pytest.approx(0.0, abs=1e-10)
    assert g.Z2 == pytest.approx(0.5, rel=1e-10)
    g = mf.extend_gradient(corpus["weighted"], mf.Point(1.0, 0.0))
    assert g.Z1 == pytest.approx(1.0 / 3.0, rel=1e-10)
    assert g.Z2 == pytest.approx(0.0, abs=1e-10)


def test_extend_direction_independence(corpus):
    # every ray gives the one exact limit Z = (z1 / 3, z2 / 2) of weighted, at the
    # double 1.3 taken exactly; it rounds to (0, 0.65)
    p = corpus["weighted"]
    q = mf.Point(0.0, 1.3)
    zero = GaussianRational(Fraction(0), Fraction(0))
    assert ray_limit(p, q) == (zero, GaussianRational(Fraction(1.3) / 2, Fraction(0)))
    g = mf.extend_gradient(p, q)
    assert (g.Z1, g.Z2, g.method) == (0j, 0.65 + 0j, "ray_limit_extension")


def test_extend_gradient_identity_at_degenerate_points(corpus):
    rng = np.random.default_rng(233)
    for name in ("quartic", "weighted"):
        p = corpus[name]
        for _ in range(10):
            r = rng.uniform(0.6, 1.4)
            phase = np.exp(2j * np.pi * rng.uniform())
            for q in (mf.Point(r * phase, 0.0), mf.Point(0.0, r * phase)):
                rho = p(*q.as_pair()).real
                g = mf.extend_gradient(p, q)
                assert abs(g.pairing_check) < 1e-8 * rho


def test_extend_all_rays_degenerate():
    # 1 + |z1|^2 does not depend on z2, so its det is the zero polynomial
    p = mf.real_polynomial({(0, 0, 0, 0): 1, (1, 0, 1, 0): 1})
    assert mf.calculus.jet_polynomials(p).det.is_zero()
    with pytest.raises(mf.AllRaysDegenerate, match="on every approach ray at"):
        mf.extend_gradient(p, mf.Point(0.5, -2.0j))


def test_extend_on_nondegenerate_point_delegates(corpus):
    q = mf.Point(1.0, 1.0)
    g = mf.extend_gradient(corpus["quartic"], q)
    direct = mf.complex_gradient(mf.eval_jet(corpus["quartic"], q))
    assert g.Z1 == direct.Z1 and g.Z2 == direct.Z2


def test_gradient_anywhere_switches(corpus):
    p = corpus["quartic"]
    g_dir = mf.extend_gradient(p, mf.Point(1.0, 1.0))
    g_ext = mf.extend_gradient(p, mf.Point(1.0, 0.0))
    assert g_dir.Z1 == pytest.approx(0.5)
    assert g_ext.Z1 == pytest.approx(0.5, rel=1e-9)
    assert g_ext.Z2 == pytest.approx(0.0, abs=1e-10)
