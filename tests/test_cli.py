from __future__ import annotations

import json
import math

import numpy as np
import pytest

import mafoliate as mf
from mafoliate import cli
from mafoliate.cli import main
from mafoliate.corpus import corpus_text

from test_ray_limit import pullback_terms


def run(args):
    return main([str(a) for a in args])


def read_json(path):
    return json.loads(path.read_text())


def test_type_at_quartic_axis(tmp_path):
    code = run(["type-at", "--poly", "quartic", "--point", "0,0,1,0", "--out", tmp_path])
    assert code == 0
    doc = read_json(tmp_path / "type_report.json")
    assert doc["analysis"]["type_m"] == 4
    assert doc["analysis"]["witness"] == "[[[L,Lbar],L],Lbar]"
    assert doc["analysis"]["point"] == [0.0, 0.0, 1.0, 0.0]
    assert doc["analysis"]["pairing_value"] == [64.0, 0.0]
    assert "scale" not in doc["analysis"] and "tol" not in doc["analysis"]
    assert doc["toolkit_version"] == mf.__version__
    assert len(doc["poly_sha256"]) == 64


def test_check_ma_quartic(tmp_path):
    code = run(["check-ma", "--poly", "quartic", "--grid", 12, "--out", tmp_path])
    assert code == 0
    lines = (tmp_path / "ma_scan.csv").read_text().splitlines()
    assert lines[2] == "x1,y1,x2,y2,rho,D,B,residual,normalized"
    assert len(lines) == 3 + 144
    doc = read_json(tmp_path / "ma_summary.json")
    assert doc["analysis"]["is_ma"] is True


def test_check_ma_bad_strict_exit_codes(tmp_path):
    assert run(["check-ma", "--poly", "bad", "--grid", 8, "--out", tmp_path]) == 0
    doc = read_json(tmp_path / "ma_summary.json")
    assert doc["analysis"]["is_ma"] is False
    assert run(["check-ma", "--poly", "bad", "--grid", 8, "--out", tmp_path,
                "--strict"]) == 1


def test_burns_bad_records_verdict(tmp_path):
    assert run(["burns", "--poly", "bad", "--out", tmp_path]) == 0
    doc = read_json(tmp_path / "burns_verdict.json")
    assert doc["analysis"]["is_ma"] is False
    assert doc["analysis"]["theorem_consistent"] is True


def test_gradient_extends_at_degenerate_point(tmp_path):
    assert run(["gradient", "--poly", "weighted", "--point", "1,0,0,0",
                "--out", tmp_path]) == 0
    doc = read_json(tmp_path / "gradient.json")["analysis"]
    assert doc["method"] == "polynomial"
    assert doc["Z"][0][0] == pytest.approx(1 / 3, rel=1e-8)
    assert doc["gradient_identity_ok"] is True


def test_gradient_without_polynomial_Z_uses_the_cofactor_formula(tmp_path):
    # det does not divide the cofactor numerators of bad; D > eps_D at (1, 1)
    assert run(["gradient", "--poly", "bad", "--point", "1,0,1,0", "--out", tmp_path]) == 0
    doc = read_json(tmp_path / "gradient.json")["analysis"]
    assert doc["D"] > 1e-10
    assert doc["method"] == "cofactor"


def test_trace_leaf_outputs(tmp_path):
    assert run(["trace-leaf", "--poly", "fub", "--point", "1,0,0.5,0",
                "--step", 0.05, "--out", tmp_path]) == 0
    assert (tmp_path / "leaf_trace.csv").exists()
    doc = read_json(tmp_path / "trace_diagnostics.json")["analysis"]
    assert doc["monotone_growth"] is True
    assert doc["level_drift"] < 1e-8


def test_weights_weighted(tmp_path):
    assert run(["weights", "--poly", "weighted", "--out", tmp_path]) == 0
    doc = read_json(tmp_path / "weights.json")["analysis"]
    assert doc["weights"]["c1"] == pytest.approx(1 / 3, abs=1e-6)
    assert doc["weights"]["c2"] == pytest.approx(0.5, abs=1e-6)
    assert doc["zero_set"]["isolated_zero_at_origin"] is True


def test_transport_euclidean(tmp_path):
    assert run(["transport", "--poly", "euc", "--r1", 1.0, "--r2", math.e,
                "--samples", 4, "--out", tmp_path]) == 0
    doc = read_json(tmp_path / "transport.json")["analysis"]
    assert doc["max_landing_defect"] < 1e-8
    assert doc["max_roundtrip_defect"] < 1e-7


def test_report_deterministic_bytes(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg = {"samples": 200, "fit_samples": 40, "trials": 100, "transport_samples": 3,
           "trace_step": 0.05, "seed": 42}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["report", "--poly", "quartic", "--config", cfg_path, "--out", out_a]) == 0
    assert run(["report", "--poly", "quartic", "--config", cfg_path, "--out", out_b]) == 0
    blob_a = (out_a / "report.json").read_bytes()
    blob_b = (out_b / "report.json").read_bytes()
    assert blob_a == blob_b
    doc = read_json(out_a / "report.json")["analysis"]
    assert doc["ma"]["is_ma"] is True
    assert doc["ok"] is True


def test_report_on_negative_case_records_verdicts(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"samples": 200, "fit_samples": 40, "trials": 50,
                                    "transport_samples": 2, "trace_step": 0.05}))
    assert run(["report", "--poly", "bad", "--config", cfg_path, "--out", tmp_path]) == 0
    doc = read_json(tmp_path / "report.json")["analysis"]
    assert doc["ok"] is False
    assert doc["ma"]["is_ma"] is False
    assert doc["burns"]["theorem_consistent"] is True
    assert run(["report", "--poly", "bad", "--config", cfg_path, "--out", tmp_path,
                "--strict"]) == 1


def test_input_error_exit_codes(tmp_path, capsys):
    assert run(["type-at", "--poly", "quartic", "--point", "1,2,3", "--out", tmp_path]) == 2
    assert run(["check-ma", "--poly", tmp_path / "missing.json", "--out", tmp_path]) == 2
    bad_poly = tmp_path / "unreal.json"
    bad_poly.write_text('{"terms": [{"a": [1, 0], "b": [0, 1], "re": 1.0}]}')
    assert run(["check-ma", "--poly", bad_poly, "--out", tmp_path]) == 2
    short_exponents = tmp_path / "short.json"
    short_exponents.write_text('{"terms": [{"a": [1], "b": [0, 1], "re": 1.0}]}')
    assert run(["check-ma", "--poly", short_exponents, "--out", tmp_path]) == 2
    infinite = tmp_path / "infinite.json"
    infinite.write_text('{"terms": [{"a": [1, 0], "b": [1, 0], "re": 1e400}]}')
    assert run(["check-ma", "--poly", infinite, "--out", tmp_path]) == 2
    capsys.readouterr()
    for name, text in (("number.json", "5"),
                       ("list-coefficient.json", '{"terms": [{"a": [1, 0], "b": [1, 0], "re": [1]}]}')):
        (tmp_path / name).write_text(text)
        assert run(["check-ma", "--poly", tmp_path / name, "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    # the origin lies outside the domain rho > 0, for gradient as for type-at and trace-leaf
    assert run(["gradient", "--poly", "euc", "--point=0,0,0,0", "--out", tmp_path / "origin"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: rho(") and "<= 0" in err and err.count("\n") == 1
    assert not (tmp_path / "origin" / "gradient.json").exists()
    assert run(["nonsense-command"]) == 2


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"m_max": 4, "seed": 1}))
    assert run(["type-at", "--poly", "weighted", "--point", "0,0,1,0",
                "--config", cfg_path, "--out", tmp_path]) == 0
    assert read_json(tmp_path / "type_report.json")["analysis"]["type_m"] == "exceeds_cap"
    assert run(["type-at", "--poly", "weighted", "--point", "0,0,1,0",
                "--config", cfg_path, "--m-max", 8, "--out", tmp_path]) == 0
    assert read_json(tmp_path / "type_report.json")["analysis"]["type_m"] == 6


def test_unknown_config_key_rejected(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"not_a_knob": 1}))
    assert run(["burns", "--poly", "fub", "--config", cfg_path, "--out", tmp_path]) == 2


def test_meta_side_channel_has_timestamp(tmp_path):
    run(["burns", "--poly", "fub", "--out", tmp_path])
    meta = read_json(tmp_path / "burns_meta.json")
    assert "written_at_unix" in meta
    assert list(meta["stage_s"]) == ["burns"] and meta["stage_s"]["burns"] > 0
    blob = (tmp_path / "burns_verdict.json").read_text()
    assert "written_at" not in blob and "stage_s" not in blob
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"samples": 100, "fit_samples": 30, "trials": 20,
                                    "transport_samples": 2, "trace_step": 0.1}))
    assert run(["report", "--poly", "euc", "--config", cfg_path, "--out", tmp_path]) == 0
    stage_s = read_json(tmp_path / "report_meta.json")["stage_s"]
    assert sorted(stage_s) == sorted(["ma", "bracket_identities", "type", "burns",
                                      "fit_and_weights", "transport", "trace"])
    assert all(s >= 0 for s in stage_s.values())


def test_point_with_leading_minus_in_either_spelling(tmp_path):
    spellings = {"split": ["--point", "-1,0,0,0"], "joined": ["--point=-1,0,0,0"]}
    for name, spelling in spellings.items():
        assert run(["type-at", "--poly", "quartic", *spelling, "--out", tmp_path / name]) == 0
    assert ((tmp_path / "split" / "type_report.json").read_bytes()
            == (tmp_path / "joined" / "type_report.json").read_bytes())


@pytest.mark.parametrize("knob, value", [
    ("grid", 0), ("samples", 0), ("fit_samples", 0), ("trials", 0),
    ("transport_samples", 0), ("m_max", 1), ("grid", 2.5), ("samples", "3"),
    ("seed", "7"), ("seed", -1), ("seed", True), ("fit_degree", "2"), ("fit_degree", 0)])
def test_bad_integer_knob_is_rejected(tmp_path, capsys, knob, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({knob: value}))
    assert run(["check-ma", "--poly", "euc", "--config", cfg_path, "--out", tmp_path]) == 2
    assert f"error: {knob} must be an integer of at least" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, knob", [("--grid", 0, "grid"), ("--seed", -1, "seed")])
def test_bad_integer_flag_is_rejected(tmp_path, capsys, flag, value, knob):
    # flags build a new RunConfig, which validates as a config file's values do
    assert run(["check-ma", "--poly", "euc", flag, value, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {knob} must be an integer of at least") and err.count("\n") == 1
    assert not (tmp_path / "ma_summary.json").exists()


def test_records_validate_on_construction():
    for bad in ({"rtol": 0}, {"atol": math.nan}, {"rtol": math.inf}):
        with pytest.raises(ValueError, match="tolerances must be positive and finite"):
            mf.FlowConfig(**bad)
    with pytest.raises(ValueError, match="non-finite point component"):
        mf.Point(float("nan"), 0)


@pytest.mark.parametrize("text, named", [
    ('{"eps_D": "1e-10"}', "eps_D"), ('{"tol_type": "1e-8"}', "tol_type"),
    ('{"trace_t_max": true}', "trace_t_max"),
    ('{"atol": NaN}', "atol"), ('{"trace_t_max": Infinity}', "trace_t_max"),
    ('{"trace_s_max": -1}', "trace_s_max"), ('{"out_dir": 3}', "out_dir"), ('{"strict": 1}', "strict"),
    ("null", "JSON object"), ("5", "JSON object")])
def test_bad_config_value_is_rejected(tmp_path, capsys, text, named):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert run(["weights", "--poly", "weighted", "--config", cfg_path, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


@pytest.mark.parametrize("argv, name", [
    # rho is finite at this point of quartic, but D = 16 |z1 z2|^2 overflows
    (["gradient", "--poly", "quartic", "--point=7e76,0,7e76,0"], "gradient.json"),
    (["type-at", "--poly", "euc", "--point=1e300,0,1,0"], "type_report.json")])
def test_non_finite_analysis_is_an_error_and_writes_nothing(tmp_path, capsys, argv, name):
    assert run([*argv, "--out", tmp_path]) == 2
    assert f"error: {name} not written" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_type_pairing_beyond_the_doubles_is_an_error(tmp_path, capsys):
    # the type is decided exactly at the point; its pairing is too large for a double
    assert run(["type-at", "--poly", "bad", "--point=1e200,0,1e200,0", "--out", tmp_path]) == 2
    assert capsys.readouterr().err == ("error: type_report.json not written: the analysis holds "
                                       "a non-finite value at analysis.pairing_value[0]\n")
    assert list(tmp_path.iterdir()) == []


def test_gradient_where_rho_overflows_is_an_error(tmp_path, capsys):
    assert run(["gradient", "--poly", "quartic", "--point=1e200,0,1,0", "--out", tmp_path]) == 2
    assert capsys.readouterr().err == "error: rho(((1e+200+0j), (1+0j))) = nan is not finite\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["gradient", "trace-leaf"])
@pytest.mark.parametrize("poly, point, reason", [
    ("bad", "0,0,1,0", "the limit of Z at (0j, (1+0j)) depends on the direction: "),
    ("bad", "1,0,0,0", "det = -0.5625 < 0 at ((1+0j), 0j): the Levi form is indefinite"),
    ("pullback", "1,0,0,0", "Z2 has a pole at ((1+0j), 0j): along the ray (1, 1), det vanishes "
                            "to order 2 and n2 to order 1")])
def test_where_Z_does_not_extend_is_an_error(tmp_path, capsys, command, poly, point, reason):
    if poly == "pullback":  # |z1|^2 + |z2^2 + z1^3|^2, whose Z has a pole on {z2 = 0}
        poly = tmp_path / "pullback.json"
        poly.write_text(json.dumps(pullback_terms(1, 3)))
    assert run([command, "--poly", poly, f"--point={point}", "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {reason}") and err.count("\n") == 1


def test_allocation_failure_is_an_error(tmp_path, capsys, monkeypatch):
    # such as the grid of trace-leaf --step 1e-5; nothing is allocated here
    def trace_leaf(*args, **kwargs):
        raise MemoryError("Unable to allocate 23.8 GiB for an array")

    monkeypatch.setattr("mafoliate.cli.trace_leaf", trace_leaf)
    assert run(["trace-leaf", "--poly", "fub", "--point=1,0,0,0", "--out", tmp_path,
                "--strict"]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 23.8 GiB for an array\n"


def test_transport_where_rho_does_not_grow_is_an_error(tmp_path, capsys, monkeypatch):
    # rho grows along the flow of Z at every regular point, so stall the probe flow
    monkeypatch.setattr("mafoliate.foliation.flow_point", lambda p, q, time, cfg=None: q)
    assert run(["transport", "--poly", "euc", "--r1", 1, "--r2", 2, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: rho does not grow along the flow") and err.count("\n") == 1
    assert "(measured rate 0.0)" in err

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"samples": 100, "fit_samples": 30, "trials": 20,
                                    "transport_samples": 2, "trace_step": 0.1}))
    assert run(["report", "--poly", "euc", "--config", cfg_path, "--out", tmp_path]) == 0
    doc = read_json(tmp_path / "report.json")["analysis"]
    assert doc["transport"]["error"].startswith("rho does not grow along the flow")
    assert doc["ok"] is False


def test_tol_ext_is_no_config_key(tmp_path, capsys):
    # the ray-limit bound and the Levi-degeneracy threshold are constants
    cfg_path = tmp_path / "cfg.json"
    for key, value in (("tol_ext", 1e-7), ("eps_D", 1e-10)):
        cfg_path.write_text(json.dumps({key: value}))
        assert run(["trace-leaf", "--poly", "fub", "--point=1,0,0,0", "--config", cfg_path,
                    "--out", tmp_path]) == 2
        assert capsys.readouterr().err == f"error: unknown config keys ['{key}']\n"


def test_report_embeds_the_subcommand_records(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"samples": 100, "fit_samples": 30, "trials": 20,
                                    "transport_samples": 2, "trace_step": 0.1, "seed": 3}))
    common = ["--poly", "euc", "--config", cfg_path, "--out", tmp_path]
    for argv in (["report"], ["transport", "--r1", 1, "--r2", 2], ["burns"]):
        assert run([*argv, *common]) == 0
    report = read_json(tmp_path / "report.json")["analysis"]
    assert report["transport"] == read_json(tmp_path / "transport.json")["analysis"]
    assert report["burns"] == read_json(tmp_path / "burns_verdict.json")["analysis"]


def test_a_critical_level_is_an_error_and_report_records_it(tmp_path, capsys):
    # the level 1 of 1 + |z1|^2 + |z2|^2 is its minimum, taken at the critical point 0
    poly = tmp_path / "one.json"
    poly.write_text('{"terms": [{"a": [0, 0], "b": [0, 0], "re": 1}, '
                    '{"a": [1, 0], "b": [1, 0], "re": 1}, {"a": [0, 1], "b": [0, 1], "re": 1}]}')
    assert run(["transport", "--poly", poly, "--r1", 1, "--r2", 2, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: rho = 1.0 is a critical level: along [") and err.count("\n") == 1

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"samples": 100, "fit_samples": 30, "trials": 20,
                                    "transport_samples": 2, "trace_step": 0.1}))
    out = tmp_path / "report"
    assert run(["report", "--poly", poly, "--config", cfg_path, "--out", out]) == 0
    assert run(["report", "--poly", poly, "--config", cfg_path, "--out", out, "--strict"]) == 1
    doc = read_json(out / "report.json")["analysis"]
    assert doc["ok"] is False
    for stage in ("type", "transport"):
        assert doc[stage]["error"].startswith("rho = 1.0 is a critical level"), stage
    assert doc["trace"] == {"error": "no probe point on the level rho = 1 to trace from"}
    assert set(read_json(out / "report_meta.json")["stage_s"]) >= {"type", "trace"}


def test_coefficient_overflow_names_the_monomial(tmp_path, capsys):
    # 1e300 (|z1|^2 + |z2|^2) is finite, but its Levi determinant is the constant 1e600
    huge = tmp_path / "huge.json"
    huge.write_text('{"terms": [{"a": [1, 0], "b": [1, 0], "re": 1e300}, '
                    '{"a": [0, 1], "b": [0, 1], "re": 1e300}]}')
    beyond = "has magnitude about 1e600, beyond the largest double (1.8e+308)\n"
    assert run(["check-ma", "--poly", huge, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err == f"error: the coefficient of the monomial z1^0 z2^0 zbar1^0 zbar2^0 {beyond}"
    # the type is decided exactly; only the reported pairing, 1e900, overflows a double
    assert run(["type-at", "--point", "1,0,0,0", "--poly", huge, "--out", tmp_path]) == 2
    assert capsys.readouterr().err == ("error: type_report.json not written: the analysis holds "
                                       "a non-finite value at analysis.pairing_value[0]\n")
    # the gradient's exact Z is z itself; only the float product D = h11 h22 overflows
    assert run(["gradient", "--point", "1,0,0,0", "--poly", huge, "--out", tmp_path]) == 2
    assert capsys.readouterr().err == ("error: gradient.json not written: the analysis holds a "
                                       "non-finite value at analysis.D\n")
    with pytest.raises(mf.CoefficientOverflow) as caught:
        mf.calculus.jet_polynomials(mf.parse_polynomial(huge.read_text())).det(1, 0)
    assert isinstance(caught.value, OverflowError)


def test_burns_growth_law_needs_no_evaluation_beyond_the_sphere(tmp_path):
    # fub times 1e297 is finite on the unit sphere, where burns samples it; the growth
    # law follows from the pure bidegree, so no rho(lambda v) at |lambda| = 1e3 overflows
    doc = json.loads(corpus_text("fub"))
    for term in doc["terms"]:
        term["re"] *= 1e297
    huge = tmp_path / "huge_fub.json"
    huge.write_text(json.dumps(doc))
    assert run(["burns", "--poly", huge, "--out", tmp_path]) == 0
    verdict = read_json(tmp_path / "burns_verdict.json")["analysis"]
    assert verdict["growth_bound"] == 0.0
    assert verdict["is_ma"] and verdict["bidegree_pure"] and verdict["theorem_consistent"]
    assert 0 < verdict["min_on_sphere"] < math.inf


def _jsonable_before(obj):
    """cli._jsonable as it was, with one isinstance branch per numpy type."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, mf.Point):
        z1, z2 = obj.as_pair()
        return [z1.real, z1.imag, z2.real, z2.imag]
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable_before(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonable_before(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable_before(x) for x in obj]
    return obj


def test_numpy_values_serialize_as_before():
    doc = {"f32": np.float32(0.1), "f64": [np.float64(1 / 3), (np.float64(-0.0),)],
           "i64": {"n": np.int64(-7), 3: [np.int64(2**62)]},
           "z": np.array([[1 + 2j, -0.5j], [np.inf, 0.0]]), "zs": [{"v": np.array([1.5, 2.5])}],
           "c": np.complex128(1 - 1j), "p": mf.Point(1j, 2.0), "plain": [1, 2.5, "s", None, True]}
    want = ('{"c": [1.0, -1.0], "f32": 0.10000000149011612, '
            '"f64": [0.3333333333333333, [-0.0]], "i64": {"3": [4611686018427387904], "n": -7}, '
            '"p": [0.0, 1.0, 2.0, 0.0], "plain": [1, 2.5, "s", null, true], '
            '"z": [[[1.0, 2.0], [-0.0, -0.5]], [[Infinity, 0.0], [0.0, 0.0]]], '
            '"zs": [{"v": [1.5, 2.5]}]}')
    assert json.dumps(_jsonable_before(doc), sort_keys=True) == want
    assert json.dumps(cli._jsonable(doc), sort_keys=True) == want


@pytest.mark.parametrize("stage", ["transport", "type"])
def test_report_judges_a_stage_as_its_subcommand_does(tmp_path, monkeypatch, stage):
    # report's transport stage judged the landing defect alone, its type stage always passed
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"samples": 100, "fit_samples": 30, "trials": 20,
                                    "transport_samples": 2, "trace_step": 0.1}))
    common = ["--poly", "euc", "--config", cfg_path, "--out", tmp_path, "--strict"]
    assert run(["report", *common]) == 0
    if stage == "transport":
        stage_record = cli._transport_stage
        monkeypatch.setattr(cli, "_transport_stage", lambda *args: {
            **stage_record(*args), "max_landing_defect": 0.0, "max_roundtrip_defect": 1e-3})
        argv = ["transport", "--r1", 1, "--r2", 2]
    else:
        monkeypatch.setattr(cli, "point_type", lambda p, q, m_max: mf.TypeReport(
            q, "exceeds_cap", None, 0j))
        argv = ["type-at", "--point", "1,0,0,0"]
    assert run([*argv, *common]) == 1
    assert run(["report", *common]) == 1
    doc = read_json(tmp_path / "report.json")["analysis"]
    assert doc["ok"] is False and "error" not in doc[stage]
