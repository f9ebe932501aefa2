"""The batched bracket identities and the batched zero-set scan against their
one-point references.

``bracket_identities`` evaluates every polynomial it needs at all points in
one call and fits the spans in closed form; ``oracles.scalar_bracket_identities``
is the one-point computation it replaced (scalar evaluation, ``np.linalg.lstsq``
per span).  The two round differently, so they must agree to rounding, and
raise the same error at the first point that cannot be checked.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import mafoliate as mf
from mafoliate import finite_type
from mafoliate.calculus import jet_polynomials, point_array
from mafoliate.foliation import _sphere_directions

from conftest import admissible_points
from oracles import scalar_bracket_identities
from test_batch_eval import forms_rho

DEFECTS = ("defect_llbar", "defect_lz", "defect_lzbar", "defect_zzbar", "drho_zzbar")
NONDIAGONAL = (((1, 0), (1, 1)), ((0, 1), (2, -1)))  # l1 = z1 + (1+i) z2, l2 = i z1 + (2-i) z2


def assert_matches_reference(p, points) -> None:
    z = point_array(points)
    reports = mf.bracket_identities(p, z[:, 0], z[:, 1])
    assert len(reports) == len(points)
    for q, rep in zip(points, reports):
        ref = scalar_bracket_identities(p, q)
        assert rep.point == q
        for key in DEFECTS:
            assert abs(getattr(rep, key) - getattr(ref, key)) <= 1e-13, (key, q)
        assert rep.coefficients.keys() == ref.coefficients.keys()
        for key, c in ref.coefficients.items():
            assert abs(rep.coefficients[key] - c) <= 1e-12 * (1.0 + abs(c)), (key, q)


@pytest.mark.parametrize("name", mf.CORPUS_NAMES)
def test_batch_matches_the_one_point_reference_on_the_corpus(name):
    p = mf.load(name)
    assert_matches_reference(p, admissible_points(p, np.random.default_rng(1010), 100))


@pytest.mark.parametrize("a, b", [(1, 2), (2, 2), (3, 3)])
def test_batch_matches_the_one_point_reference_on_generated_inputs(a, b):
    p = forms_rho(NONDIAGONAL, a, b)
    assert_matches_reference(p, admissible_points(p, np.random.default_rng(1011), 100))


def test_one_point_case_is_the_batch_at_that_point():
    p, q = mf.load("weighted"), mf.Point(0.6 - 0.2j, 0.3 + 0.7j)
    assert mf.bracket_identities_check(p, q) == mf.bracket_identities(p, *q.as_pair())[0]


def outcome(fn):
    try:
        fn()
    except mf.MafoliateError as exc:
        return type(exc)
    return None


# |z1|^2 + |z2|^2 - |z1|^2 |z2|^2: D = 1 - |z|^2, so the Levi form degenerates
# on the unit sphere, and at the origin D = 1 while d(rho), hence L, vanishes
DEGENERATE_AND_CRITICAL = {(1, 0, 1, 0): 1, (0, 1, 0, 1): 1, (1, 1, 1, 1): -1}


@pytest.mark.parametrize("name, bad, error", [
    ("quartic", (1.0, 0.0), mf.DegenerateLevi),
    ("euc", (0.0, 0.0), mf.ZeroDifferential),
])
def test_first_bad_point_of_a_mixed_batch_raises_what_the_reference_raises(name, bad, error):
    p = mf.load(name)
    good = admissible_points(p, np.random.default_rng(1012), 4)
    points = [*good[:2], mf.Point(*bad), *good[2:]]
    z = point_array(points)
    with pytest.raises(error):
        mf.bracket_identities(p, z[:, 0], z[:, 1])
    assert outcome(lambda: scalar_bracket_identities(p, mf.Point(*bad))) is error
    for q in good:
        assert outcome(lambda: scalar_bracket_identities(p, q)) is None


def test_errors_follow_point_order():
    p = mf.real_polynomial(DEGENERATE_AND_CRITICAL)
    good, degenerate, critical = mf.Point(0.5, 0.1), mf.Point(1.0, 0.0), mf.Point(0.0, 0.0)
    assert outcome(lambda: scalar_bracket_identities(p, good)) is None
    assert outcome(lambda: scalar_bracket_identities(p, degenerate)) is mf.DegenerateLevi
    assert outcome(lambda: scalar_bracket_identities(p, critical)) is mf.ZeroDifferential
    for points, error in (([good, degenerate, critical], mf.DegenerateLevi),
                          ([good, critical, degenerate], mf.ZeroDifferential)):
        z = point_array(points)
        assert outcome(lambda: mf.bracket_identities(p, z[:, 0], z[:, 1])) is error


def test_the_det_polynomial_is_checked_as_well_as_the_jets_D(monkeypatch):
    # at about a third of these points the det polynomial rounds below the jet's
    # D; with the threshold between the two, only the det check can raise
    p = forms_rho(NONDIAGONAL, 2, 2)
    points = admissible_points(p, np.random.default_rng(1013), 50)
    det_polynomial = jet_polynomials(p).det
    D = np.array([mf.eval_jet(p, q).D for q in points])
    det = np.array([det_polynomial(*q.as_pair()).real for q in points])
    below = np.flatnonzero(det < D)
    assert below.size
    for i in below[:5]:
        q, eps_D = points[i], det[i].item()
        monkeypatch.setattr(finite_type, "EPS_D_DEFAULT", eps_D)
        assert outcome(lambda: scalar_bracket_identities(p, q, eps_D)) is mf.DegenerateLevi
        assert outcome(lambda: mf.bracket_identities_check(p, q)) is mf.DegenerateLevi


# ---------------------------------------------------------------------------
# zero_set_check against a loop over the directions
# ---------------------------------------------------------------------------


def zero_set_by_direction(fit):
    """Shell minima, unit-sphere minimum and stray zeros, one direction at a time,
    as zero_set_check computed them before it evaluated each sphere at once."""
    dirs = _sphere_directions(240)
    shell_minima, other_zeros = [], []
    for j in range(6):
        r = 0.5**j
        vals = np.array([float(np.linalg.norm(fit.evaluate(r * d[0], r * d[1]))) for d in dirs])
        shell_minima.append((r, float(vals.min())))
        other_zeros += [mf.Point(r * d[0], r * d[1]) for d in dirs[vals < 1e-7 * (1.0 + r)]]
    unit = float(np.min([np.linalg.norm(fit.evaluate(d[0], d[1])) for d in dirs]))
    return shell_minima, unit, other_zeros[:32]


def _fit(name):
    p = mf.load(name)
    return mf.fit_holomorphic_Z(p, admissible_points(p, np.random.default_rng(401), 60), 2)


@pytest.mark.parametrize("fit", [
    pytest.param(lambda: _fit("fub"), id="fub"),
    pytest.param(lambda: _fit("weighted"), id="weighted"),
    pytest.param(lambda: mf.HolomorphicFit(1, {(1, 0): 1.0 + 0j}, {}, 0.0, math.nan),
                 id="empty-component"),
    pytest.param(lambda: mf.HolomorphicFit(
        2, {(1, 0): 1.0 + 0j, (0, 1): 1.0 + 0j}, {(2, 0): 1.0 + 0j, (1, 1): 1.0 + 0j},
        0.0, math.nan),
        id="zero-line"),
    # |Z| = 5e-8 on the line z1 = -z2: a zero by the tolerance 1e-7 (1 + r), on every shell
    pytest.param(lambda: mf.HolomorphicFit(
        2, {(0, 0): 5e-8 + 0j, (1, 0): 1.0 + 0j, (0, 1): 1.0 + 0j},
        {(2, 0): 1.0 + 0j, (1, 1): 1.0 + 0j}, 0.0, math.nan),
        id="near-zero-line"),
])
def test_zero_set_check_matches_the_per_direction_loop(fit):
    fit = fit()
    rep = mf.zero_set_check(fit)
    shell_minima, unit, other_zeros = zero_set_by_direction(fit)
    assert [r for r, _ in rep.shell_minima] == [r for r, _ in shell_minima]
    for (_, got), (_, want) in zip(rep.shell_minima, shell_minima):
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=1e-13)
    assert math.isclose(rep.min_on_unit_sphere, unit, rel_tol=0.0, abs_tol=1e-13)
    assert list(rep.other_zeros) == other_zeros
    smin = rep.linear_min_singular
    assert rep.isolated_zero_at_origin == (
        smin > 1e-7 and all(m >= 0.5 * smin * r for r, m in shell_minima))
