from __future__ import annotations

import math

import numpy as np
import pytest

import mafoliate as mf
from mafoliate import foliation
from mafoliate.foliation import _GradientFlow, _flow_states, _pack

from conftest import admissible_points
from oracles import sampled_growth_bound
from test_batch_eval import forms_rho
from test_bracket_batch import NONDIAGONAL


def _measured_order(hs, defects):
    slope, _ = np.polyfit(np.log(hs), np.log(defects), 1)
    return slope


# ---------------------------------------------------------------------------
# leaf traces
# ---------------------------------------------------------------------------


def test_trace_euclidean_stays_on_axis_line(corpus):
    t_vals, s_vals = mf.make_grid(0.0, 1.0, 0.0, 0.3, 0.05)
    trace = mf.trace_leaf(corpus["euc"], mf.Point(1.0, 0.0), t_vals, s_vals)
    assert np.max(np.abs(trace.points[:, :, 1])) < 1e-12
    d = trace.diagnostics
    assert d["growth_rate"] > 0
    assert d["growth_pointwise_spread"] < 1e-6
    assert d["radiality_defect"] < 1e-12


def test_trace_quartic_radial(corpus):
    t_vals, s_vals = mf.make_grid(0.0, 0.5, 0.0, 0.3, 0.05)
    trace = mf.trace_leaf(corpus["quartic"], mf.Point(1.0, 1.0), t_vals, s_vals)
    assert trace.diagnostics["radiality_defect"] < 1e-8


def test_trace_growth_rate_constant_across_subintervals(ma_corpus):
    seeds = {"euc": (1.0, 0.2), "fub": (0.9, 0.5), "quartic": (0.8, 0.9),
             "weighted": (0.9, 0.8)}
    t_vals, s_vals = mf.make_grid(0.0, 0.6, 0.0, 0.1, 0.02)
    for name, p in ma_corpus.items():
        trace = mf.trace_leaf(p, mf.Point(*seeds[name]), t_vals, s_vals)
        assert trace.diagnostics["growth_subinterval_spread"] < 1e-5


def test_y_flow_preserves_levels(ma_corpus):
    seeds = {"euc": (1.0, 0.0), "fub": (1.1, 0.4 + 0.3j), "quartic": (0.9 + 0.1j, 0.7 - 0.4j),
             "weighted": (0.8, 0.9)}
    cfg = mf.FlowConfig()
    s_vals = np.linspace(0.0, 2 * math.pi, 41)
    for name, p in ma_corpus.items():
        seed = mf.Point(*seeds[name])
        rho0 = p(*seed.as_pair()).real
        states = _flow_states(_GradientFlow(p, cfg, 1j), _pack(*seed.as_pair()), s_vals, cfg)
        drift = max(abs(p(complex(st[0], st[1]), complex(st[2], st[3])).real - rho0)
                    for st in states)
        assert drift < 1e-9 * rho0, name


def test_trace_requires_positive_rho(corpus):
    with pytest.raises(mf.NonPositiveRho):
        mf.trace_leaf(corpus["euc"], mf.Point(0.0, 0.0), [0.0, 0.1], [0.0, 0.1])


def test_trace_step_budget(corpus, monkeypatch):
    monkeypatch.setattr(foliation, "FLOW_STEP_BUDGET", 3)
    with pytest.raises(mf.FlowEscape):
        mf.trace_leaf(corpus["euc"], mf.Point(1.0, 0.0), [0.0, 0.5], [0.0, 0.5])


def test_trace_escapes_shifted_domain():
    # rho = |z|^2 - 1/2 turns negative along the backward gradient flow
    p = mf.real_polynomial(
        {(1, 0, 1, 0): 1, (0, 1, 0, 1): 1, (0, 0, 0, 0): "-1/2"}
    )
    with pytest.raises(mf.FlowEscape):
        mf.trace_leaf(p, mf.Point(0.8, 0.0), [0.0, -2.0], [0.0], mf.FlowConfig())


def test_trace_through_degenerate_leaf(corpus):
    # the axis leaf of the quartic is entirely Levi-degenerate; tracing it
    # exercises the extension handoff at every right-hand-side evaluation
    t_vals, s_vals = mf.make_grid(0.0, 0.2, 0.0, 0.1, 0.05)
    trace = mf.trace_leaf(corpus["quartic"], mf.Point(1.0, 0.0), t_vals, s_vals)
    assert np.max(np.abs(trace.points[:, :, 1])) < 1e-10
    assert trace.diagnostics["growth_subinterval_spread"] < 1e-4


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def test_diagnostics_weighted_harmonicity_small(corpus):
    cfg = mf.FlowConfig(rtol=1e-12, atol=1e-12)
    t_vals, s_vals = mf.make_grid(0.0, 0.2, 0.0, 0.2, 1e-2)
    trace = mf.trace_leaf(corpus["weighted"], mf.Point(1.0, 1.0), t_vals, s_vals, cfg)
    d = mf.leaf_diagnostics(trace)
    assert d.harmonicity_defect < 1e-5
    assert d.monotone_growth


def test_diagnostics_parametrization_quartic(corpus):
    t_vals, s_vals = mf.make_grid(0.0, 0.2, 0.0, 0.2, 1e-2)
    trace = mf.trace_leaf(corpus["quartic"], mf.Point(0.9, 0.8), t_vals, s_vals)
    d = mf.leaf_diagnostics(trace)
    assert d.parametrization_defect < 1e-5
    assert d.min_gradient_norm > 0.1


def test_diagnostics_parametrization_order(corpus):
    # the central-difference defect of f' = Z(f) shrinks at second order
    defects = []
    hs = (2e-2, 1e-2, 5e-3)
    for h in hs:
        t_vals, s_vals = mf.make_grid(0.0, 0.2, 0.0, 0.1, h)
        trace = mf.trace_leaf(corpus["quartic"], mf.Point(0.9, 0.8), t_vals, s_vals)
        defects.append(mf.leaf_diagnostics(trace).parametrization_defect)
    assert _measured_order(hs, defects) >= 1.8


def test_diagnostics_incomplete_trace(corpus):
    t_vals, s_vals = mf.make_grid(0.0, 0.05, 0.0, 0.05, 0.05)
    trace = mf.trace_leaf(corpus["euc"], mf.Point(1.0, 0.0), t_vals, s_vals)
    assert trace.u_values.shape == (2, 2)
    with pytest.raises(mf.IncompleteTrace, match="at least a 3 x 3 grid"):
        mf.leaf_diagnostics(trace)


def test_leaf_csv_export(tmp_path, corpus):
    t_vals, s_vals = mf.make_grid(0.0, 0.1, 0.0, 0.1, 0.05)
    trace = mf.trace_leaf(corpus["euc"], mf.Point(1.0, 0.0), t_vals, s_vals)
    path = tmp_path / "leaf.csv"
    mf.write_leaf_csv(trace, path, "0.1.0")
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# mafoliate")
    assert lines[1].startswith("# poly_sha256")
    assert lines[2] == "t,s,x1,y1,x2,y2,rho,u"
    assert len(lines) == 3 + len(t_vals) * len(s_vals)


# ---------------------------------------------------------------------------
# holomorphic fits
# ---------------------------------------------------------------------------


def test_fit_euclidean_linear(corpus):
    rng = np.random.default_rng(311)
    pts = admissible_points(corpus["euc"], rng, 30)
    fit = mf.fit_holomorphic_Z(corpus["euc"], pts, degree=1)
    assert fit.max_residual < 1e-12
    assert fit.coefficient(1, (1, 0)) == pytest.approx(1.0, rel=1e-10)
    assert fit.coefficient(2, (0, 1)) == pytest.approx(1.0, rel=1e-10)
    assert abs(fit.coefficient(1, (0, 1))) < 1e-10


def test_fit_fub_recovers_half_identity(corpus):
    rng = np.random.default_rng(313)
    pts = admissible_points(corpus["fub"], rng, 60)
    fit = mf.fit_holomorphic_Z(corpus["fub"], pts, degree=2)
    assert fit.coefficient(1, (1, 0)) == pytest.approx(0.5, rel=1e-9)
    assert fit.coefficient(2, (0, 1)) == pytest.approx(0.5, rel=1e-9)
    assert fit.nonlinear_mass() < 1e-10
    assert fit.holdout_pairing_residual < 1e-10


def test_fit_weighted_recovers_weighted_euler_field(corpus):
    rng = np.random.default_rng(317)
    pts = admissible_points(corpus["weighted"], rng, 60)
    fit = mf.fit_holomorphic_Z(corpus["weighted"], pts, degree=2)
    assert fit.coefficient(1, (1, 0)) == pytest.approx(1 / 3, rel=1e-9)
    assert fit.coefficient(2, (0, 1)) == pytest.approx(0.5, rel=1e-9)
    assert fit.nonlinear_mass() < 1e-10


def test_fit_needs_enough_samples(corpus):
    rng = np.random.default_rng(331)
    pts = admissible_points(corpus["fub"], rng, 10)
    with pytest.raises(mf.RankDeficientSamples):
        mf.fit_holomorphic_Z(corpus["fub"], pts, degree=2)


def test_fit_holds_out_at_least_one_sample(corpus):
    # degree 2 has 6 basis monomials: 18 samples all go to the fit, 19 leave one to hold out
    pts = admissible_points(corpus["fub"], np.random.default_rng(331), 19)
    with pytest.raises(mf.RankDeficientSamples):
        mf.fit_holomorphic_Z(corpus["fub"], pts[:18], degree=2)
    fit = mf.fit_holomorphic_Z(corpus["fub"], pts, degree=2)
    jet = mf.eval_jet(corpus["fub"], pts[18])
    Z1, Z2 = fit.evaluate(*pts[18].as_pair())
    assert fit.holdout_pairing_residual == abs(jet.d1 * Z1 + jet.d2 * Z2 - jet.rho) / jet.rho


def test_fit_rejects_the_first_sample_where_rho_is_not_positive_and_finite(corpus):
    # the holdout residual is relative to rho: rho = 0 raised ZeroDivisionError, the
    # negative gap of a holdout with rho < 0 was dropped by max, and an overflowing
    # sample raised a raw OverflowError
    fub = corpus["fub"]
    pts = admissible_points(fub, np.random.default_rng(331), 29)
    with pytest.raises(mf.NonPositiveRho, match=r"^rho\(\(0j, 0j\)\) = 0\.0 <= 0$"):
        mf.fit_holomorphic_Z(fub, [*pts, mf.Point(0, 0)], degree=2)
    with pytest.raises(mf.NonPositiveRho, match=r"^rho\(\(\(1e\+200\+0j\), 0j\)\) = nan is not finite$"):
        mf.fit_holomorphic_Z(fub, [*pts, mf.Point(1e200, 0)], degree=2)
    ball = corpus["euc"] + mf.real_polynomial({(0, 0, 0, 0): -1})
    pts = admissible_points(ball, np.random.default_rng(331), 28)
    first_bad = r"^rho\(\(\(0\.1\+0j\), \(0\.1\+0j\)\)\) = -0\.98 <= 0$"
    with pytest.raises(mf.NonPositiveRho, match=first_bad):
        mf.fit_holomorphic_Z(ball, [*pts, mf.Point(0.1, 0.1)], degree=2)
    with pytest.raises(mf.NonPositiveRho, match=first_bad):
        mf.fit_holomorphic_Z(ball, [*pts[:3], mf.Point(0.1, 0.1), *pts[3:], mf.Point(0.3, 0)],
                             degree=2)


def test_fit_rank_deficient_geometry(corpus):
    # samples on a single complex line cannot pin down degree-2 monomials
    pts = [mf.Point(t, t) for t in np.linspace(0.5, 1.5, 40)]
    with pytest.raises(mf.RankDeficientSamples):
        mf.fit_holomorphic_Z(corpus["euc"], pts, degree=2)


def test_fit_invariant_under_unitary_sample_change(corpus):
    rng = np.random.default_rng(337)
    pts = admissible_points(corpus["fub"], rng, 60)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u, r = np.linalg.qr(a)
    u = u * (np.diag(r) / np.abs(np.diag(r)))
    pts_u = [mf.Point(*(u @ np.array(q.as_pair()))) for q in pts]
    w1 = mf.estimate_weights(mf.fit_holomorphic_Z(corpus["fub"], pts, 2))
    w2 = mf.estimate_weights(mf.fit_holomorphic_Z(corpus["fub"], pts_u, 2))
    assert w1.c1 == pytest.approx(w2.c1, abs=1e-8)
    assert w1.c2 == pytest.approx(w2.c2, abs=1e-8)


# ---------------------------------------------------------------------------
# zero sets and weights
# ---------------------------------------------------------------------------


def _fit_for(corpus, name, degree=2, seed=401):
    rng = np.random.default_rng(seed)
    pts = admissible_points(corpus[name], rng, 60)
    return mf.fit_holomorphic_Z(corpus[name], pts, degree)


def test_zero_set_fub(corpus):
    rep = mf.zero_set_check(_fit_for(corpus, "fub"))
    assert rep.isolated_zero_at_origin
    assert rep.min_on_unit_sphere == pytest.approx(0.5, rel=1e-8)
    assert not rep.other_zeros


def test_zero_set_weighted(corpus):
    rep = mf.zero_set_check(_fit_for(corpus, "weighted"))
    assert rep.isolated_zero_at_origin
    assert rep.min_on_unit_sphere == pytest.approx(1 / 3, rel=1e-8)


def test_zero_set_degenerate_synthetic_field():
    fit = mf.HolomorphicFit(1, {(1, 0): 1.0 + 0j}, {}, 0.0, math.nan)
    rep = mf.zero_set_check(fit)
    assert not rep.isolated_zero_at_origin
    assert rep.linear_min_singular == pytest.approx(0.0, abs=1e-14)
    assert rep.other_zeros  # the whole line z1 = 0


def test_weights_fub(corpus):
    est = mf.estimate_weights(_fit_for(corpus, "fub"))
    assert est.c1 == pytest.approx(0.5, abs=1e-9)
    assert est.c2 == pytest.approx(0.5, abs=1e-9)
    assert est.residual < 1e-10


def test_weights_weighted(corpus):
    est = mf.estimate_weights(_fit_for(corpus, "weighted"))
    assert est.c1 == pytest.approx(1 / 3, abs=1e-6)
    assert est.c2 == pytest.approx(0.5, abs=1e-6)


def test_weights_euclidean(corpus):
    est = mf.estimate_weights(_fit_for(corpus, "euc", degree=1))
    assert est.c1 == pytest.approx(1.0, abs=1e-9)
    assert est.c2 == pytest.approx(1.0, abs=1e-9)


def test_weights_reject_nonvanishing_center():
    fit = mf.HolomorphicFit(1, {(0, 0): 1.0, (1, 0): 1.0}, {(0, 1): 1.0}, 0.0, math.nan)
    with pytest.raises(mf.NonVanishingAtCenter):
        mf.estimate_weights(fit)


def test_weights_reject_rotation_field():
    fit = mf.HolomorphicFit(1, {(0, 1): -1.0}, {(1, 0): 1.0}, 0.0, math.nan)
    with pytest.raises(mf.ComplexEigenvalues):
        mf.estimate_weights(fit)


def test_homogeneity_check_weighted(corpus):
    assert mf.weighted_homogeneity_check(corpus["weighted"], 1 / 3, 0.5, trials=500) < 1e-10
    assert mf.weighted_homogeneity_check(corpus["fub"], 0.5, 0.5, trials=500) < 1e-10
    assert mf.weighted_homogeneity_check(corpus["weighted"], 1.0, 1.0, trials=500) > 0.1


def test_homogeneity_check_monomial_rule():
    # |z1|^(2a) + |z2|^(2b) matches weights (1/a, 1/b): here a = 2, b = 3
    p = mf.real_polynomial({(2, 0, 2, 0): 1, (0, 3, 0, 3): 1})
    assert mf.weighted_homogeneity_check(p, 0.5, 1 / 3, trials=500) < 1e-10


def test_homogeneity_check_rejects_nonpositive_weights(corpus):
    with pytest.raises(ValueError):
        mf.weighted_homogeneity_check(corpus["fub"], -0.5, 0.5)


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


def test_transport_euclidean_to_e(corpus):
    samples = mf.level_set_samples(corpus["euc"], 1.0, 6, seed=5)
    rep = mf.level_transport(corpus["euc"], 1.0, math.e, samples)
    assert rep.max_landing_defect < 1e-8
    assert rep.max_roundtrip_defect < 1e-7


def test_transport_quartic(corpus):
    samples = mf.level_set_samples(corpus["quartic"], 1.0, 6, seed=7)
    rep = mf.level_transport(corpus["quartic"], 1.0, 2.0, samples)
    assert rep.max_landing_defect < 1e-8
    assert rep.max_roundtrip_defect < 1e-7


def test_transport_validates_levels(corpus):
    with pytest.raises(ValueError):
        mf.level_transport(corpus["euc"], -1.0, 2.0, [mf.Point(1.0, 0.0)])


def test_level_set_samples_land_on_level(corpus):
    for name in ("euc", "weighted"):
        for q in mf.level_set_samples(mf.load(name), 1.5, 5, seed=11):
            assert mf.load(name)(*q.as_pair()).real == pytest.approx(1.5, rel=1e-12)


def test_level_set_samples_raise_where_no_regular_point_is_found():
    one = mf.parse_polynomial('{"terms": [{"a": [0, 0], "b": [0, 0], "re": 1}, '
                              '{"a": [1, 0], "b": [1, 0], "re": 1}, '
                              '{"a": [0, 1], "b": [0, 1], "re": 1}]}')
    # 1 is the minimum of 1 + |z|^2, taken at its critical point 0
    with pytest.raises(mf.UnreachableLevel, match=r"^rho = 1.0 is a critical level: along \["):
        mf.level_set_samples(one, 1.0, 1)
    # below the minimum, rho - r has one sign along the whole ray
    with pytest.raises(mf.UnreachableLevel, match=r"^cannot bracket the level rho = 0.5 along "
                       r"\[.*\]: f\(a\) and f\(b\) must have different signs$"):
        mf.level_set_samples(one, 0.5, 1)
    # a constant never reaches a higher level
    constant = mf.parse_polynomial('{"terms": [{"a": [0, 0], "b": [0, 0], "re": 1}]}')
    with pytest.raises(mf.UnreachableLevel, match=r"^cannot bracket the level rho = 2.0 along "
                       r"\[[^]]*\]$"):
        mf.level_set_samples(constant, 2.0, 1)


# ---------------------------------------------------------------------------
# homogeneous verdict
# ---------------------------------------------------------------------------


@pytest.fixture
def sphere_2000(monkeypatch):
    """burns_verify with 2,000 sphere directions, as these tests have always drawn."""
    monkeypatch.setattr(foliation, "SPHERE_SAMPLES", 2000)


def test_burns_fub(corpus, sphere_2000):
    v = mf.burns_verify(corpus["fub"])
    assert v.k == 2 and v.is_ma and v.bidegree_pure and v.extreme_components_vanish
    assert v.growth_bound < 1e-9
    assert v.theorem_consistent


def test_burns_quartic(corpus, sphere_2000):
    v = mf.burns_verify(corpus["quartic"])
    assert v.k == 2 and v.is_ma and v.bidegree_pure
    assert v.growth_bound < 1e-9


def test_burns_bad_is_recorded_negative(corpus, sphere_2000):
    v = mf.burns_verify(corpus["bad"])
    assert not v.is_ma
    assert not v.bidegree_pure
    assert v.theorem_consistent  # the purity conclusion is not claimed without the equation


def test_burns_growth_bound_only_for_pure_bidegree(corpus, sphere_2000):
    # on impure bidegree rho(lambda z) depends on arg lambda, so there is no law to bound
    assert mf.burns_verify(corpus["bad"]).growth_bound is None
    # pure bidegree (k, k) gives the law monomial by monomial: the bound is 0.0 exactly,
    # and the sampled rays agree
    generated = forms_rho(NONDIAGONAL, 3, 3)
    for p in (corpus["euc"], corpus["fub"], corpus["quartic"], generated):
        v = mf.burns_verify(p)
        assert v.bidegree_pure and v.growth_bound == 0.0
        assert sampled_growth_bound(p, v.k, np.random.default_rng(7)) < 1e-9


def test_burns_rejects_inhomogeneous(corpus):
    with pytest.raises(mf.NotHomogeneous):
        mf.burns_verify(corpus["weighted"])


def test_burns_rejects_nonpositive(sphere_2000):
    p = mf.real_polynomial(
        {(2, 0, 2, 0): 1, (0, 2, 0, 2): 1, (3, 0, 0, 1): 2, (0, 1, 3, 0): 2}
    )
    with pytest.raises(mf.NotPositive) as err:
        mf.burns_verify(p)
    witness = err.value.witness
    assert p(*witness.as_pair()).real <= 0.0
