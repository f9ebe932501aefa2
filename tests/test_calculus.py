from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest

import mafoliate as mf
from mafoliate.calculus import MonomialKey, Polynomial, jet_polynomials

from conftest import TERMS, random_points
from oracles import fd_jet, psh_min_eigen, sympy_jet


def hp(terms):
    return mf.real_polynomial(dict(terms))


# ---------------------------------------------------------------------------
# parsing and reality
# ---------------------------------------------------------------------------


def test_parse_euclidean_self_conjugate_keys():
    p = hp([((1, 0, 1, 0), 1), ((0, 1, 0, 1), 1)])
    assert p(1.0, 1.0).real == 2.0
    assert p(1 + 2j, -3j).real == pytest.approx(14.0, abs=0)


def test_parse_unpaired_term_raises():
    with pytest.raises(mf.RealityViolation):
        hp([((1, 0, 0, 1), 1)])  # z1 * zbar2 alone is not real-valued


def test_parse_half_re_z1cubed_zbar2():
    # (1/2) Re(z1^3 zbar2) = (1/4) z1^3 zbar2 + (1/4) zbar1^3 z2
    p = hp([((3, 0, 0, 1), "1/4"), ((0, 1, 3, 0), "1/4")])
    z1, z2 = 1.3 - 0.4j, -0.7 + 1.1j
    expected = 0.5 * (z1**3 * z2.conjugate()).real
    assert p(z1, z2).real == pytest.approx(expected, rel=1e-15)


def test_parse_mismatched_pair_raises():
    with pytest.raises(mf.RealityViolation):
        hp([((3, 0, 0, 1), 0.25), ((0, 1, 3, 0), 0.24)])


def test_parse_near_match_is_merged():
    eps = 1e-14
    p = hp([((3, 0, 0, 1), 0.25 + eps), ((0, 1, 3, 0), 0.25)])
    c = p.terms[MonomialKey(3, 0, 0, 1)]
    assert c.conjugate() == p.terms[MonomialKey(0, 1, 3, 0)]


def test_parse_malformed_keys():
    with pytest.raises(mf.NegativeExponent):
        hp([((-1, 0, 0, 0), 1)])
    with pytest.raises(mf.NegativeExponent):
        mf.parse_polynomial({"terms": [{"a": [0.5, 0], "b": [0, 0], "re": 1}]})


def test_no_zero_coefficients_stored():
    p = hp([((1, 0, 1, 0), 1), ((0, 1, 0, 1), 0)])
    assert list(p.terms) == [MonomialKey(1, 0, 1, 0)]


def test_roundtrip_is_bit_exact_including_rationals():
    p = hp([((1, 0, 1, 0), "1/3"), ((2, 1, 1, 2), (0.5, "2/7")), ((1, 2, 2, 1), (0.5, "-2/7"))])
    text = mf.canonical_json(p)
    q = mf.parse_polynomial(text)
    assert q == p
    assert mf.canonical_json(q) == text
    assert q.terms[MonomialKey(1, 0, 1, 0)].re == Fraction(1, 3)


def test_canonical_serialization_sorted_graded_lex():
    p = hp([((0, 1, 0, 1), 1), ((2, 0, 2, 0), 1), ((1, 0, 1, 0), 1)])
    keys = [tuple(t["a"]) + tuple(t["b"]) for t in mf.serialize_polynomial(p)["terms"]]
    assert keys == [(0, 1, 0, 1), (1, 0, 1, 0), (2, 0, 2, 0)]


def test_corpus_files_parse_and_hash_is_stable(corpus):
    assert set(corpus) == {"euc", "fub", "quartic", "weighted", "bad"}
    h1 = mf.polynomial_hash(corpus["quartic"])
    h2 = mf.polynomial_hash(mf.parse_polynomial(mf.canonical_json(corpus["quartic"])))
    assert h1 == h2


# ---------------------------------------------------------------------------
# Wirtinger derivatives
# ---------------------------------------------------------------------------


def test_derive_abs_z1_squared():
    p = hp([((1, 0, 1, 0), 1)])
    d = p.derive("z1")
    assert d.terms == Polynomial({(0, 0, 1, 0): 1}).terms  # zbar1


def test_derive_abs_z1_fourth():
    p = hp([((2, 0, 2, 0), 1)])
    d = p.derive("z1")
    assert d.terms == Polynomial({(1, 0, 2, 0): 2}).terms  # 2 z1 zbar1^2


def test_derive_zbar2_of_euclidean(corpus):
    d = corpus["euc"].derive("zbar2")
    assert d.terms == Polynomial({(0, 1, 0, 0): 1}).terms  # z2


def test_derivative_conjugation_property(corpus):
    rng = np.random.default_rng(7)
    for p in corpus.values():
        for var in ("1", "2"):
            dz = p.derive(f"z{var}")
            dzb = p.derive(f"zbar{var}")
            assert dzb == dz.conjugate()  # exact coefficient identity
            for q in random_points(rng, 5):
                z1, z2 = q.as_pair()
                assert dzb(z1, z2) == pytest.approx(dz(z1, z2).conjugate(), rel=1e-12)


def test_reality_of_evaluation(corpus):
    rng = np.random.default_rng(11)
    for p in corpus.values():
        for q in random_points(rng, 20, r_lo=0.2, r_hi=2.5):
            val = p(*q.as_pair())
            assert abs(val.imag) < 1e-12 * (1.0 + abs(val))


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------


def test_jet_quartic_at_11(corpus):
    jet = mf.eval_jet(corpus["quartic"], mf.Point(1.0, 1.0))
    assert jet.rho == pytest.approx(2.0, abs=0)
    assert jet.d1 == pytest.approx(2.0)
    assert jet.d2 == pytest.approx(2.0)
    assert np.allclose(jet.levi_matrix(), np.diag([4.0, 4.0]))
    assert jet.D == pytest.approx(16.0)
    assert jet.B == pytest.approx(32.0)


def test_jet_quartic_degenerate_at_axis(corpus):
    jet = mf.eval_jet(corpus["quartic"], mf.Point(1.0, 0.0))
    assert jet.D == 0.0
    assert np.allclose(jet.levi_matrix(), np.diag([4.0, 0.0]))


def test_jet_euclidean_everywhere(corpus):
    rng = np.random.default_rng(3)
    for q in random_points(rng, 10):
        jet = mf.eval_jet(corpus["euc"], q)
        assert np.allclose(jet.levi_matrix(), np.eye(2))
        assert jet.D == pytest.approx(1.0)


def test_jet_matches_sympy_oracle(corpus):
    rng = np.random.default_rng(5)
    for name in ("fub", "weighted", "bad"):
        p = corpus[name]
        for q in random_points(rng, 3):
            jet = mf.eval_jet(p, q)
            ref = sympy_jet(TERMS[name], q.as_pair())
            assert jet.rho == pytest.approx(ref["rho"].real, rel=1e-12)
            assert jet.d1 == pytest.approx(ref["d1"], rel=1e-12)
            assert jet.d2 == pytest.approx(ref["d2"], rel=1e-12)
            (h11, h12), (h21, h22) = jet.levi
            assert h11 == pytest.approx(ref["h11"], rel=1e-12)
            assert h12 == pytest.approx(ref["h12"], rel=1e-12, abs=1e-12)
            assert h21 == pytest.approx(ref["h21"], rel=1e-12, abs=1e-12)
            assert h22 == pytest.approx(ref["h22"], rel=1e-12)
            assert jet.D == pytest.approx(ref["D"].real, rel=1e-11)
            assert jet.B == pytest.approx(ref["B"].real, rel=1e-11)


def test_jet_levi_hermitian_and_scalars_real(corpus):
    rng = np.random.default_rng(13)
    for p in corpus.values():
        for q in random_points(rng, 5):
            jet = mf.eval_jet(p, q)
            h = jet.levi_matrix()
            assert np.max(np.abs(h - h.conj().T)) < 1e-12 * (1.0 + np.max(np.abs(h)))


def test_jet_matches_finite_differences_with_order(corpus):
    # entries with a visible truncation term must shrink at order >= 1.8;
    # entries at the noise floor must simply agree
    rng = np.random.default_rng(17)
    for name in ("fub", "weighted"):
        p = corpus[name]
        f = lambda a, b: complex(p(a, b))
        for q in random_points(rng, 2, r_lo=0.9, r_hi=1.4):
            jet = mf.eval_jet(p, q)
            exact = {"d1": jet.d1, "d2": jet.d2,
                     "h11": jet.levi[0][0], "h12": jet.levi[0][1],
                     "h21": jet.levi[1][0], "h22": jet.levi[1][1]}
            errs = {}
            for h in (1e-3, 1e-4):
                fd = fd_jet(f, q.as_pair(), h)
                errs[h] = {k: abs(fd[k] - exact[k]) for k in exact}
            for k in exact:
                scale = 1.0 + abs(exact[k])
                if errs[1e-3][k] < 1e-9 * scale:
                    assert errs[1e-4][k] < 1e-6 * scale
                else:
                    order = math.log10(errs[1e-3][k] / errs[1e-4][k])
                    assert order >= 1.8, (name, k, errs)


# ---------------------------------------------------------------------------
# bidegree decomposition
# ---------------------------------------------------------------------------


def test_bidegree_fub_single_component(corpus):
    prof = mf.bidegree_decompose(corpus["fub"])
    assert list(prof.components) == [(2, 2)]
    assert prof.total_degree == 4


def test_bidegree_bad_components(corpus):
    prof = mf.bidegree_decompose(corpus["bad"])
    assert sorted(prof.components) == [(1, 3), (2, 2), (3, 1)]
    assert prof.components[(1, 3)] == prof.components[(3, 1)].conjugate()


def test_bidegree_euclidean(corpus):
    prof = mf.bidegree_decompose(corpus["euc"])
    assert list(prof.components) == [(1, 1)]


def test_bidegree_reassembly_exact_and_pointwise(corpus):
    rng = np.random.default_rng(23)
    for p in corpus.values():
        prof = mf.bidegree_decompose(p)
        assert prof.reassemble() == p  # exact coefficient identity
        for q in random_points(rng, 20):
            z1, z2 = q.as_pair()
            total = sum(c(z1, z2) for c in prof.components.values())
            assert total == pytest.approx(p(z1, z2), rel=1e-12, abs=1e-12)


def test_bidegree_euler_identity(corpus):
    rng = np.random.default_rng(29)
    for p in (corpus["fub"], corpus["bad"], corpus["weighted"]):
        prof = mf.bidegree_decompose(p)
        for (l, _m), comp in prof.components.items():
            e1 = comp.derive("z1")
            e2 = comp.derive("z2")
            for q in random_points(rng, 5):
                z1, z2 = q.as_pair()
                euler = z1 * e1(z1, z2) + z2 * e2(z1, z2)
                assert euler == pytest.approx(l * comp(z1, z2), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# psh scans
# ---------------------------------------------------------------------------


def test_psh_euclidean_rho_identity_levi(corpus):
    rng = np.random.default_rng(31)
    rep = psh_min_eigen(corpus["euc"], random_points(rng, 50), "rho")
    assert rep.min_eigenvalue == pytest.approx(1.0, abs=1e-14)


def test_psh_euclidean_log_rho_radial_kernel(corpus):
    rng = np.random.default_rng(37)
    pts = [mf.Point(*(np.array(q.as_pair()) / q.norm())) for q in random_points(rng, 50)]
    rep = psh_min_eigen(corpus["euc"], pts, "log_rho")
    assert abs(rep.min_eigenvalue) < 1e-12


def test_psh_quartic_log_rho_nonnegative_off_axes(corpus):
    rng = np.random.default_rng(41)
    pts = [q for q in random_points(rng, 80)
           if min(abs(q.z1), abs(q.z2)) > 0.05]
    rep = psh_min_eigen(corpus["quartic"], pts, "log_rho")
    assert rep.min_eigenvalue >= -1e-10


def test_psh_nonpositive_rho_raises(corpus):
    with pytest.raises(mf.NonPositiveRho):
        psh_min_eigen(corpus["euc"], [mf.Point(0.0, 0.0)], "log_rho")


# ---------------------------------------------------------------------------
# coordinate changes
# ---------------------------------------------------------------------------


def _random_unitary(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_substitute_linear_matches_composition(corpus):
    rng = np.random.default_rng(43)
    u = _random_unitary(rng)
    p = corpus["fub"]
    q = mf.substitute_linear(p, u)
    assert q == q.conjugate()
    for w in random_points(rng, 10):
        w1, w2 = w.as_pair()
        z = u @ np.array([w1, w2])
        assert q(w1, w2).real == pytest.approx(p(z[0], z[1]).real, rel=1e-12)


def test_substitute_linear_keeps_rational_entries_exact(corpus):
    euc = corpus["euc"]
    third = mf.substitute_linear(euc, [[Fraction(1, 3), 0], [0, 1]])
    assert third.terms[MonomialKey(1, 0, 1, 0)].re == Fraction(1, 9)
    for entry in ("1/3", (Fraction(1, 3), 0), mf.GaussianRational(Fraction(1, 3), Fraction(0))):
        assert mf.substitute_linear(euc, [[entry, 0], [0, 1]]) == third
    assert mf.substitute_linear(euc, [[np.int64(3), 0], [0, 1]]).terms[MonomialKey(1, 0, 1, 0)].re == 9


def test_substitute_linear_float_and_complex_entries_embed_as_before(corpus):
    p = corpus["quartic"]
    floats = [[0.1, 0.5j], [np.float64(-0.25), np.complex128(1 + 2j)]]
    q = mf.substitute_linear(p, floats)
    # what converting every entry with complex() gave: the doubles, embedded exactly
    assert q == mf.substitute_linear(p, [[complex(x) for x in row] for row in floats])
    scaled = mf.substitute_linear(corpus["euc"], [[0.1, 0], [0, 1]])
    assert scaled.terms[MonomialKey(1, 0, 1, 0)].re == Fraction(0.1) ** 2


def test_from_value_takes_numpy_scalars_and_json_values_as_before():
    GR = mf.GaussianRational
    assert GR.from_value(np.int64(3)) == GR(Fraction(3), Fraction(0))
    assert GR.from_value(np.float32(0.5)) == GR(Fraction(1, 2), Fraction(0))
    assert GR.from_value(np.complex64(-1j)) == GR(Fraction(0), Fraction(-1))
    assert GR.from_value(True) == GR(Fraction(1), Fraction(0))
    assert GR.from_value("1/3") == GR(Fraction(1, 3), Fraction(0))
    assert GR.from_value(0.1) == GR(Fraction(0.1), Fraction(0))
    with pytest.raises(ValueError, match="not finite"):
        GR.from_value(math.nan)
    with pytest.raises(mf.MalformedPolynomial):
        GR.from_value(None)


def test_jet_polynomial_cache_consistency(corpus):
    p = corpus["weighted"]
    jp1 = jet_polynomials(p)
    jp2 = jet_polynomials(p)
    assert jp1 is jp2


def test_polynomial_interchange_rejects_garbage():
    with pytest.raises(TypeError):
        mf.parse_polynomial(42)
    with pytest.raises(json.JSONDecodeError):
        mf.parse_polynomial("not json")


def test_repeated_term_entries_add_up():
    entry = {"a": [1, 0], "b": [1, 0]}
    p = mf.parse_polynomial({"terms": [{**entry, "re": "1/3"}, {**entry, "re": "1/6"}]})
    assert p == hp([((1, 0, 1, 0), "1/2")])
