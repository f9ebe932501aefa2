"""Self-tests of the benchmark's own code: generator, gate, result line, metric names, tracer.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    a = workloads.build(workload, 7, tmp_path / "a")
    b = workloads.build(workload, 7, tmp_path / "b")
    c = workloads.build(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert [j.expect for j in a] == [j.expect for j in b]

    def argv(jobs, where):
        return [[x.replace(str(tmp_path / where), "") for x in j.argv] for j in jobs]

    assert argv(a, "a") == argv(b, "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_generated_positives_are_exact_ma_and_negatives_are_not():
    rng = random.Random(3)
    for a, b in ((1, 2), (2, 2), (3, 1), (3, 3)):
        forms = gen.Forms.random_nondiagonal(rng)
        terms = forms.rho(a, b)
        for _ in range(3):
            z = (rng.choice(gen.WIDE), rng.choice(gen.WIDE))
            assert gen.ma_residual_exact(terms, z) == 0
        z1 = forms.point_on_l1(rng.choice(gen.UNITS))
        assert gen.poly_at(forms.l1, complex(*z1[0]), complex(*z1[1])) == 0
        z2 = forms.point_on_l2(rng.choice(gen.UNITS))
        assert gen.poly_at(forms.l2, complex(*z2[0]), complex(*z2[1])) == 0
    assert gen.ma_residual_exact(gen.three_component_negative(rng, 2), ((2, 1), (1, -1))) != 0
    assert gen.ma_residual_exact(gen.bad_like_negative(rng), ((2, 1), (1, -1))) != 0


def test_rotation_moves_the_line_point_onto_the_rotated_line():
    base = gen.Forms(*workloads.PINNED_33[0][0])
    z = base.point_on_l1(workloads.PINNED_33[0][1])
    for j in range(4):
        for k in range(4):
            r = gen.Forms.rotate_point(z, j, k)
            rotated = base.rotated(j, k)
            assert gen.poly_at(rotated.l1, complex(*r[0]), complex(*r[1])) == 0


def test_interchange_json_uses_rational_strings():
    doc = json.loads(gen.to_json(gen.bad_like_negative(random.Random(1))))
    for term in doc["terms"]:
        assert isinstance(term["re"], str) and isinstance(term["im"], str)
        Fraction(term["re"]), Fraction(term["im"])


def _type_job(klass="nondiag33"):
    return workloads.Job("09-type-at-x", ["type-at", "--poly", "p.json", "--point=0,0,1,0"],
                         "type_report.json", {"type_m": 6}, klass=klass)


def test_gate_flags_a_corrupted_output():
    job = _type_job()
    assert workloads.check(job, 0, {"analysis": {"type_m": 6}}) == []
    assert workloads.check(job, 0, {"analysis": {"type_m": 7}}) == [("type_m", 6, 7)]
    assert workloads.check(job, 0, {"analysis": {}})[0][0] == "type_m"
    assert workloads.check(job, 2, None) == [("exit_code", 0, 2)]
    assert workloads.check(job, 0, None) == [("output", "type_report.json", "missing")]

    report = workloads.Job("00-report-euc", ["report", "--poly", "euc"], "report.json",
                           workloads._report_expect_positive((1.0, 1.0), True))
    good = {"ma": {"is_ma": True, "max_abs_normalized": 1e-15},
            "fit_and_weights": {"weights": {"c1": 1.0, "c2": 1.0 + 1e-9}},
            "type": [{"type_m": 2}] * 3, "transport": {"max_landing_defect": 1e-11},
            "trace": {"monotone_growth": True},
            "burns": {"bidegree_pure": True, "theorem_consistent": True}}
    assert workloads.check(report, 0, {"analysis": good}) == []
    bad = json.loads(json.dumps(good))
    bad["fit_and_weights"]["weights"]["c2"] = 0.5
    bad["type"][1]["type_m"] = 4
    assert {m[0] for m in workloads.check(report, 0, {"analysis": bad})} == {
        "weights", "types_generic"}


def test_known_defects_match_only_their_pattern():
    job = _type_job()
    assert workloads.known_defect(job, [("type_m", 6, 5)], None, "") == "type-underestimate"
    assert workloads.known_defect(job, [("type_m", 6, 7)], None, "") is None
    assert workloads.known_defect(_type_job("diag33"), [("type_m", 6, 5)], None, "") is None
    assert workloads.known_defect(job, [], None, "") is None


def _job_run(failed: bool, defect: str | None) -> run.JobRun:
    mismatches = [("type_m", 6, 5)] if failed else []
    return run.JobRun(_type_job(), 0, False, 1.0, 80.0, 0, 10, mismatches, defect, "")


def test_fail_ratio_counts_every_attempted_job():
    runs = [_job_run(False, None), _job_run(True, "type-underestimate"), _job_run(False, None)]
    line = run.result_line(runs, {})
    assert (line["attempted"], line["failed"], line["correct"]) == (3, 1, True)
    line = run.result_line(runs + [_job_run(True, None)], {})
    assert (line["attempted"], line["failed"], line["correct"]) == (4, 2, False)


def test_metric_names_match_the_contract_and_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {n for n, _ in run.END_TO_END} == {"wall_s", "job_p50_s", "setup_s", "peak_rss_mb"}
    layers = {t[0] for t in tracer.TARGETS}
    derived = {"foliation.rhs_extended_share", "cli.bytes_out", "cli.import_s", "trace.overhead_s"}
    for name, _ in run.PER_LAYER:
        assert name.rsplit(".", 1)[0] in layers or name in derived, name


def test_tracer_reports_a_missing_target_and_still_runs(tmp_path):
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import tracer\n"
        "tracer.TARGETS += (('gone.fn', 'mafoliate.calculus', 'no_such_function', tracer.SPAN),)\n"
        "sys.argv = ['tracer.py'] + sys.argv[2:]\n"
        "sys.exit(tracer.main())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    trace = tmp_path / "t.json"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(BENCH), str(trace), "job0", "--", "type-at",
         "--poly", "quartic", "--point=0,0,1,0", "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(trace.read_text())
    assert doc["missing"] == ["mafoliate.calculus.no_such_function"]
    assert doc["layers"]["finite_type.point_type"][0] == 1
    assert doc["counters"]["point_type.max_m"] == 4
    assert doc["layers"]["foliation.solve_ivp"][0] == 0
    assert all(s[4] == "job0" for s in doc["spans"])
    roots = [s for s in doc["spans"] if s[3] is None]
    assert [s[0] for s in roots] == ["cli.main"]
