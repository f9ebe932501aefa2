from __future__ import annotations

import json
import math

import pytest

import mafoliate as mf
from mafoliate.cli import main


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
    assert doc["method"] == "ray_limit_extension"
    assert doc["Z"][0][0] == pytest.approx(1 / 3, rel=1e-8)
    assert doc["gradient_identity_ok"] is True


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
    assert sorted(stage_s) == sorted(["ma", "gradient", "bracket_identities", "type", "burns",
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


@pytest.mark.parametrize("text, named", [
    ('{"eps_D": "1e-10"}', "eps_D"), ('{"trace_t_max": true}', "trace_t_max"),
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
    (["gradient", "--poly", "quartic", "--point=1e200,0,1,0"], "gradient.json"),
    (["type-at", "--poly", "euc", "--point=1e300,0,1,0"], "type_report.json")])
def test_non_finite_analysis_is_an_error_and_writes_nothing(tmp_path, capsys, argv, name):
    assert run([*argv, "--out", tmp_path]) == 2
    assert f"error: {name} not written" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
