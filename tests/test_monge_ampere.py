from __future__ import annotations

import numpy as np
import pytest

import mafoliate as mf
from mafoliate.monge_ampere import write_ma_csv

from conftest import TERMS, admissible_points, random_points
from oracles import sympy_residual


def _jet(corpus, name, z1, z2):
    return mf.eval_jet(corpus[name], mf.Point(z1, z2))


def _ddc_rho(jet, V, W):  # sum rho_{mu nubar} V^mu conj(W^nu), from the jet's Levi matrix
    return sum(jet.levi[m][n] * V[m] * W[n].conjugate() for m in range(2) for n in range(2))


def _ddc_u(jet, V, W):  # dd^c of u = log rho: ddc_rho / rho - d(rho)(V) conj(d(rho)(W)) / rho^2
    d_rho_v, d_rho_w = (jet.d1 * X[0] + jet.d2 * X[1] for X in (V, W))
    return _ddc_rho(jet, V, W) / jet.rho - d_rho_v * d_rho_w.conjugate() / jet.rho**2


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------


def test_residual_euclidean_at_11(corpus):
    rep = mf.ma_residual(_jet(corpus, "euc", 1.0, 1.0))
    assert (rep.rho, rep.D, rep.B) == (2.0, 1.0, 2.0)
    assert rep.residual == 0.0


def test_residual_quartic_at_11(corpus):
    rep = mf.ma_residual(_jet(corpus, "quartic", 1.0, 1.0))
    assert rep.rho * rep.D == pytest.approx(32.0)
    assert rep.B == pytest.approx(32.0)
    assert rep.residual == pytest.approx(0.0, abs=1e-12)


def test_residual_bad_at_11_frozen_value(corpus):
    # oracle run: rho*D = 38.59375, B = 41.21875, residual = -21/8
    rep = mf.ma_residual(_jet(corpus, "bad", 1.0, 1.0))
    assert rep.residual == pytest.approx(-2.625, rel=1e-12)
    assert rep.normalized == pytest.approx(-2.625 / 79.8125, rel=1e-12)
    assert abs(rep.normalized) > 1e-3
    res, norm = sympy_residual(TERMS["bad"], (1.0, 1.0))
    assert rep.residual == pytest.approx(res, rel=1e-12)
    assert rep.normalized == pytest.approx(norm, rel=1e-12)


def test_residual_requires_positive_rho(corpus):
    with pytest.raises(mf.NonPositiveRho):
        mf.ma_residual(_jet(corpus, "euc", 0.0, 0.0))


def test_residual_normalized_in_unit_interval(corpus):
    rng = np.random.default_rng(101)
    for p in corpus.values():
        for q in random_points(rng, 30):
            rep = mf.ma_residual(mf.eval_jet(p, q))
            assert -1.0 <= rep.normalized <= 1.0


def test_residual_vanishes_on_ma_members(ma_corpus):
    rng = np.random.default_rng(103)
    for p in ma_corpus.values():
        for q in random_points(rng, 200):
            rep = mf.ma_residual(mf.eval_jet(p, q))
            assert abs(rep.normalized) < 1e-12


# ---------------------------------------------------------------------------
# complex gradient
# ---------------------------------------------------------------------------


def test_gradient_euclidean_is_position(corpus):
    g = mf.complex_gradient(_jet(corpus, "euc", 1.0, 1.0))
    assert g.Z1 == pytest.approx(1.0)
    assert g.Z2 == pytest.approx(1.0)


def test_gradient_fub_half_position(corpus):
    g = mf.complex_gradient(_jet(corpus, "fub", 1.0, 2.0))
    assert g.Z1 == pytest.approx(0.5)
    assert g.Z2 == pytest.approx(1.0)


def test_gradient_degenerate_raises(corpus):
    with pytest.raises(mf.DegenerateLevi):
        mf.complex_gradient(_jet(corpus, "quartic", 1.0, 0.0))


def test_gradient_identity_on_ma_members(ma_corpus):
    rng = np.random.default_rng(107)
    for p in ma_corpus.values():
        for q in admissible_points(p, rng, 200):
            jet = mf.eval_jet(p, q)
            g = mf.complex_gradient(jet)
            assert abs(g.pairing_check) < 1e-9 * jet.rho


def test_gradient_annihilates_ddc_u_iff_residual_zero(corpus):
    rng = np.random.default_rng(109)
    basis = ((1.0 + 0j, 0j), (0j, 1.0 + 0j))
    for name, p in corpus.items():
        for q in admissible_points(p, rng, 30):
            jet = mf.eval_jet(p, q)
            g = mf.complex_gradient(jet)
            ann = max(abs(_ddc_u(jet, g.as_vector(), v)) for v in basis)
            rep = mf.ma_residual(jet)
            if name == "bad":
                assert abs(rep.normalized) > 1e-6 or ann < 1e-9
            else:
                assert ann < 1e-10 * (1.0 + jet.gradient_scale())


# ---------------------------------------------------------------------------
# the singular pairing
# ---------------------------------------------------------------------------


def test_omega_identities_quartic_at_11(corpus):
    jet = _jet(corpus, "quartic", 1.0, 1.0)
    Z = mf.complex_gradient(jet).as_vector()
    L = (jet.d2, -jet.d1)
    assert mf.omega_pairing(jet, Z, Z) == pytest.approx(2.0, abs=1e-12)
    assert mf.omega_pairing(jet, Z, L) == pytest.approx(0.0, abs=1e-12)
    assert mf.omega_pairing(jet, L, L) == pytest.approx(2.0, abs=1e-12)


def test_omega_identities_on_ma_members(ma_corpus):
    rng = np.random.default_rng(113)
    for p in ma_corpus.values():
        for q in admissible_points(p, rng, 100):
            jet = mf.eval_jet(p, q)
            Z = mf.complex_gradient(jet).as_vector()
            L = (jet.d2, -jet.d1)
            assert abs(mf.omega_pairing(jet, Z, Z) - jet.rho) < 1e-9 * jet.rho
            assert abs(mf.omega_pairing(jet, Z, L)) < 1e-9 * jet.rho
            assert abs(mf.omega_pairing(jet, L, L) - jet.rho) < 1e-9 * jet.rho


def test_omega_hermitian_symmetry(corpus):
    rng = np.random.default_rng(127)
    p = corpus["fub"]
    for q in admissible_points(p, rng, 20):
        jet = mf.eval_jet(p, q)
        for _ in range(3):
            v = tuple(complex(*rng.normal(size=2)) for _ in range(2))
            w = tuple(complex(*rng.normal(size=2)) for _ in range(2))
            lhs = mf.omega_pairing(jet, v, w)
            rhs = mf.omega_pairing(jet, w, v).conjugate()
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_omega_anchor_ddc_rho_L_equals_B(corpus):
    rng = np.random.default_rng(131)
    for name, p in corpus.items():
        for q in random_points(rng, 20):
            jet = mf.eval_jet(p, q)
            L = (jet.d2, -jet.d1)
            val = _ddc_rho(jet, L, L)
            assert val.real == pytest.approx(jet.B, rel=1e-11, abs=1e-11)
            assert abs(val.imag) < 1e-11 * (1.0 + abs(jet.B))


def test_omega_requires_nondegenerate_jet(corpus):
    jet = _jet(corpus, "quartic", 1.0, 0.0)
    with pytest.raises(mf.DegenerateLevi):
        mf.omega_pairing(jet, (1, 0), (1, 0))


# ---------------------------------------------------------------------------
# invariance properties
# ---------------------------------------------------------------------------


def _random_unitary(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_normalized_residual_unitary_invariance(corpus):
    rng = np.random.default_rng(137)
    for name in ("fub", "bad", "weighted"):
        p = corpus[name]
        u = _random_unitary(rng)
        pu = mf.substitute_linear(p, u)
        for w in random_points(rng, 20):
            w1, w2 = w.as_pair()
            z = u @ np.array([w1, w2])
            rep_w = mf.ma_residual(mf.eval_jet(pu, mf.Point(w1, w2)))
            rep_z = mf.ma_residual(mf.eval_jet(p, mf.Point(z[0], z[1])))
            assert rep_w.normalized == pytest.approx(rep_z.normalized, abs=1e-10)


def test_scaling_covariance(corpus):
    rng = np.random.default_rng(139)
    p = corpus["quartic"]
    c = 3
    pc = mf.real_polynomial(
        {k: (c * coeff.re, c * coeff.im) for k, coeff in p.terms.items()}
    )
    for q in admissible_points(p, rng, 20):
        jet = mf.eval_jet(p, q)
        jet_c = mf.eval_jet(pc, q)
        g = mf.complex_gradient(jet)
        g_c = mf.complex_gradient(jet_c)
        assert g_c.Z1 == pytest.approx(g.Z1, rel=1e-12, abs=1e-12)
        assert g_c.Z2 == pytest.approx(g.Z2, rel=1e-12, abs=1e-12)
        rep = mf.ma_residual(jet)
        rep_c = mf.ma_residual(jet_c)
        assert rep_c.residual == pytest.approx(c**3 * rep.residual, rel=1e-10, abs=1e-10)
        assert rep_c.normalized == pytest.approx(rep.normalized, abs=1e-12)


def test_ma_csv_export(tmp_path, corpus):
    rng = np.random.default_rng(149)
    reports = mf.ma_scan(corpus["euc"], random_points(rng, 5))
    path = tmp_path / "scan.csv"
    write_ma_csv(reports, path, "0.1.0", mf.polynomial_hash(corpus["euc"]))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# mafoliate")
    assert lines[1].startswith("# poly_sha256")
    assert lines[2] == "x1,y1,x2,y2,rho,D,B,residual,normalized"
    assert len(lines) == 3 + 5
