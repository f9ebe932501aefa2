"""Inputs built to break a verdict, and the layout of the records that report one.

The torus input rho = (|z1|^2 - |z2|^2)^2 is homogeneous of degree 4 and
nonnegative, and it vanishes on the torus |z1| = |z2|.  The sphere direction
(2^-0.5, 2^-0.5) lies on that zero set: its double value is 1.1e-16, its exact
value 0, so only an exact reading of the sampled minimum refuses the input.
"""

from __future__ import annotations

import json

import pytest

import mafoliate as mf
from mafoliate.calculus import at_exact

from test_cli import run

TORUS = mf.HermitianPolynomial.from_terms({(2, 0, 2, 0): 1, (1, 1, 1, 1): -2, (0, 2, 0, 2): 1})


@pytest.fixture
def torus_file(tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(mf.serialize_polynomial(TORUS)), "utf-8")
    return path


def test_burns_refuses_a_zero_that_a_double_rounds_up():
    with pytest.raises(mf.NotPositive) as err:
        mf.burns_verify(TORUS)
    witness = err.value.witness
    assert at_exact(TORUS, witness.as_pair()) == mf.GaussianRational(0, 0)
    assert str(err.value).startswith("rho = 0.0 at ")


def test_burns_cli_exits_2_on_the_torus_input(torus_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["burns", "--poly", torus_file, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: rho = 0.0 at ")
    assert not (out / "burns_verdict.json").exists()


def test_report_cli_finds_no_admissible_point_on_the_torus_input(torus_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["report", "--poly", torus_file, "--out", out]) == 2
    assert capsys.readouterr().err == "error: could only sample 0/2000 admissible points\n"
    assert not (out / "report.json").exists()


def test_weights_json_holds_the_records_by_field_name(tmp_path):
    assert run(["weights", "--poly", "weighted", "--out", tmp_path]) == 0
    doc = json.loads((tmp_path / "weights.json").read_text("utf-8"))["analysis"]
    assert set(doc) == {*mf.HolomorphicFit._fields, "zero_set", "weights", "homogeneity_defect"}
    assert set(doc["zero_set"]) == set(mf.ZeroSetReport._fields)
    assert set(doc["weights"]) == set(mf.WeightEstimate._fields)
    # coefficient keys (a, b) of z1^a z2^b are written "a,b"
    assert doc["coeff1"]["1,0"] == [pytest.approx(1 / 3, abs=1e-6), pytest.approx(0.0, abs=1e-6)]
