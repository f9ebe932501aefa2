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

TORUS = mf.real_polynomial({(2, 0, 2, 0): 1, (1, 1, 1, 1): -2, (0, 2, 0, 2): 1})


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


# ---------------------------------------------------------------------------
# every subcommand on inputs built to reach a division by zero, an overflow or an
# empty domain: each run ends in a verdict (exit 0) or a typed error (exit 2)
# ---------------------------------------------------------------------------

BALL = {(1, 0, 1, 0): 1, (0, 1, 0, 1): 1}
HOSTILE = {
    "one_plus_ball": {(0, 0, 0, 0): 1, **BALL},
    "one_plus_re_z1_plus_ball": {(0, 0, 0, 0): 1, (1, 0, 0, 0): 0.5, (0, 0, 1, 0): 0.5, **BALL},
    "abs_z1_squared": {(1, 0, 1, 0): 1},  # det is identically 0
    "one": {(0, 0, 0, 0): 1},
    "zero": {},
    "minus_ball": {k: -1 for k in BALL},
    "1e300_ball": {k: 1e300 for k in BALL},
    "1e-300_ball": {k: 1e-300 for k in BALL},
}
SMALL = {"samples": 50, "fit_samples": 40, "trials": 50, "transport_samples": 2, "grid": 5}
COMMANDS = [
    ["check-ma"],
    *([cmd, "--point", pt] for cmd in ("gradient", "type-at", "trace-leaf")
      for pt in ("0,0,0,0", "1,0,0,0")),
    ["burns"],
    ["weights"],
    ["transport", "--r1", 1, "--r2", 2],
    ["report"],
]


def poly_file(tmp_path, terms: dict):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(mf.serialize_polynomial(mf.real_polynomial(terms))), "utf-8")
    return path


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL), "utf-8")
    return path


@pytest.mark.parametrize("name", HOSTILE)
def test_every_subcommand_ends_in_a_verdict_or_a_typed_error(name, tmp_path, small_config):
    poly = poly_file(tmp_path, HOSTILE[name])
    for k, command in enumerate(COMMANDS):
        code = run([*command, "--poly", poly, "--config", small_config, "--out", tmp_path / str(k)])
        assert code in (0, 2), command


@pytest.mark.parametrize("r1, r2, error", [
    ("1", "nan", "error: level values must be positive and finite\n"),
    ("1", "inf", "error: level values must be positive and finite\n"),
    ("nan", "2", "error: cannot bracket the level rho = nan along "),  # sampling {rho = r1} fails first
], ids=["r2-nan", "r2-inf", "r1-nan"])
def test_transport_refuses_a_level_that_is_not_finite(r1, r2, error, tmp_path, small_config, capsys):
    args = ["transport", "--poly", "fub", "--r1", r1, "--r2", r2, "--config", small_config]
    assert run([*args, "--out", tmp_path]) == 2
    assert capsys.readouterr().err.startswith(error)
    assert not (tmp_path / "transport.json").exists()


@pytest.mark.parametrize("name, grows", [("one_plus_ball", False),
                                         ("one_plus_re_z1_plus_ball", True)])
def test_a_leaf_traced_from_the_origin_records_no_radiality(name, grows, tmp_path):
    """No complex line passes through the origin; on 1 + |z|^2 the flow stays there, as Z(0) = 0."""
    args = ["trace-leaf", "--poly", poly_file(tmp_path, HOSTILE[name]), "--point", "0,0,0,0"]
    assert run([*args, "--out", tmp_path]) == 0
    doc = json.loads((tmp_path / "trace_diagnostics.json").read_text("utf-8"))["analysis"]
    assert doc["radiality_defect"] is None
    assert doc["monotone_growth"] is grows
