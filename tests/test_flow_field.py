"""The flow's right-hand side reads Z as ``finite_type`` decided it, once per polynomial.

Where ``det`` divides both cofactor numerators, one call of ``_GradientFlow``
evaluates three polynomials: rho, for its domain check, and the exact Z's
two.  Elsewhere it calls ``finite_type.extend_gradient`` through the module,
which evaluates the jet once.  Counts are of ``Polynomial.__call__``; values
are compared bit for bit with ``gradient`` and ``extend_gradient``.
"""

from __future__ import annotations

import numpy as np
import pytest

import mafoliate as mf
import mafoliate.finite_type as finite_type
from mafoliate.calculus import Polynomial
from mafoliate.finite_type import gradient
from mafoliate.foliation import FlowConfig, _GradientFlow, _pack
from mafoliate.monge_ampere import EPS_D_DEFAULT

from test_batch_eval import forms_rho

# non-diagonal (3, 1); (-1-i, -1+i) lies on its order-3 line {l1 = 0}
NONDIAG31 = (((1, 1), (1, -1)), ((1, 0), (-1, -1)))
ROTATIONS = (1.0 + 0j, 1j)


POLYNOMIAL_Z_INPUTS = [  # (p, points), degenerate points included
    pytest.param(mf.load("fub"), [(1.0, 0.5), (0.3 - 0.2j, -0.7j)], id="fub"),
    pytest.param(mf.load("weighted"), [(0.0, 1.0), (1.0, 0.0), (0.6, 0.4 + 0.1j)], id="weighted"),
    pytest.param(forms_rho(NONDIAG31, 3, 1), [(-1 - 1j, -1 + 1j), (0.5, 0.25j)], id="nondiag31"),
]


@pytest.fixture
def evaluations(monkeypatch):
    """A list that grows by one entry per Polynomial.__call__."""
    calls = []
    original = Polynomial.__call__

    def counted(self, z1, z2):
        calls.append(self)
        return original(self, z1, z2)

    monkeypatch.setattr(Polynomial, "__call__", counted)
    return calls


def bits(a: np.ndarray) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("p, points", POLYNOMIAL_Z_INPUTS)
def test_flow_call_evaluates_rho_and_the_two_polynomials_of_Z(p, points, evaluations):
    assert finite_type.polynomial_gradient(p) is not None
    for rot in ROTATIONS:
        flow = _GradientFlow(p, FlowConfig(), rot)
        for z1, z2 in points:
            del evaluations[:]
            out = flow(0.0, _pack(z1, z2))
            assert len(evaluations) == 3
            assert evaluations[0] is p
            g = gradient(p, mf.Point(z1, z2))
            assert g.method == "polynomial"
            assert bits(out) == bits(_pack(rot * g.Z1, rot * g.Z2))


def test_flow_without_polynomial_Z_calls_extend_gradient_through_the_module(monkeypatch,
                                                                            evaluations):
    p = mf.load("bad")
    assert finite_type.polynomial_gradient(p) is None
    flows = {rot: _GradientFlow(p, FlowConfig(), rot) for rot in ROTATIONS}
    seen = []
    original = finite_type.extend_gradient

    def recorded(*args, **kwargs):
        seen.append(args[1])
        return original(*args, **kwargs)

    # patched after the flows exist: they look the function up at each call
    monkeypatch.setattr(finite_type, "extend_gradient", recorded)
    q = mf.Point(1.0, 1.0)
    for rot, flow in flows.items():
        del evaluations[:], seen[:]
        out = flow(0.0, _pack(*q.as_pair()))
        assert seen == [q] and len(evaluations) == 1 + 7  # the domain check, then the jet
        g = original(p, q)
        assert g.method == "cofactor"
        assert bits(out) == bits(_pack(rot * g.Z1, rot * g.Z2))


def test_extend_gradient_evaluates_the_jet_once(evaluations):
    p = mf.load("bad")
    q = mf.Point(1.0, 1.0)
    assert mf.eval_jet(p, q).D > EPS_D_DEFAULT
    del evaluations[:]
    mf.extend_gradient(p, q)
    assert len(evaluations) == 7


def test_extend_gradient_non_positive_rho_text():
    q = mf.Point(0.0, 0.0)
    with pytest.raises(mf.NonPositiveRho) as err:
        mf.extend_gradient(mf.load("bad"), q)
    assert str(err.value) == "rho((0j, 0j)) = 0.0 <= 0"


def test_method_names_the_branch():
    assert mf.extend_gradient(mf.load("quartic"), mf.Point(1.0, 1.0)).method == "cofactor"
    assert (mf.extend_gradient(mf.load("weighted"), mf.Point(0.0, 1.0)).method
            == "ray_limit_extension")
    assert gradient(mf.load("weighted"), mf.Point(0.0, 1.0)).method == "polynomial"
    assert gradient(mf.load("bad"), mf.Point(1.0, 1.0)).method == "cofactor"
    assert mf.complex_gradient(mf.eval_jet(mf.load("fub"), mf.Point(1.0, 0.5))).method == "cofactor"


@pytest.mark.parametrize("name", ["fub", "bad"])
@pytest.mark.parametrize("state", [[np.inf, 0.0, 1.0, 0.0], [1.0, 0.0, np.nan, 1.0]])
def test_non_finite_state_raises_the_error_of_a_non_finite_point(name, state):
    flow = _GradientFlow(mf.load(name), FlowConfig(), 1.0)
    with pytest.raises(ValueError, match="non-finite point component"):
        flow(0.0, np.array(state))
