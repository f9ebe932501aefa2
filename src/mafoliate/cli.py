"""Batch front-end: parse inputs, dispatch analyses, write JSON/CSV reports.

Exit codes: 0 = analysis ran (verdicts, pass or fail, are recorded in the
output); 1 = a verdict came out "violated" and --strict was given; 2 = input
or tool error.  A negative verdict on a designed negative case is an ordinary
result, not a failure.

Outputs are deterministic for a fixed seed: analysis JSON carries no
timestamps (wall-clock metadata goes to a separate *_meta.json side channel).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from ._parallel import pmap
from .calculus import (
    HermitianPolynomial,
    Point,
    eval_jet,
    jet_polynomials,
    parse_polynomial,
    polynomial_hash,
    serialize_polynomial,
)
from .corpus import CORPUS_NAMES, corpus_text
from .errors import MafoliateError, NotHomogeneous
from .finite_type import bracket_identities_check, gradient_anywhere, point_type
from .foliation import (
    FlowConfig,
    burns_verify,
    estimate_weights,
    fit_holomorphic_Z,
    leaf_diagnostics,
    level_set_samples,
    level_transport,
    make_grid,
    trace_leaf,
    weighted_homogeneity_check,
    write_leaf_csv,
    zero_set_check,
)
from .monge_ampere import complex_gradient, ma_residual, write_ma_csv


@dataclass
class RunConfig:
    """All knobs of a batch run; flags override config-file values override defaults."""

    eps_D: float = 1e-10
    tol_type: float = 1e-8
    tol_ext: float = 1e-7
    rtol: float = 1e-10
    atol: float = 1e-10
    m_max: int = 8
    grid: int = 40
    samples: int = 2000
    fit_samples: int = 60
    fit_degree: int = 2
    trials: int = 1000
    transport_samples: int = 8
    trace_step: float = 0.02
    trace_t_max: float = 0.4
    trace_s_max: float = 0.2
    seed: int = 0
    out_dir: str = "."
    strict: bool = False

    def __post_init__(self):
        for name in ("eps_D", "tol_type", "tol_ext", "rtol", "atol", "trace_step"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        least = {"grid": 1, "samples": 1, "fit_samples": 1, "trials": 1,
                 "transport_samples": 1, "m_max": 2}  # the shortest bracket has length 2
        for name, low in least.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise ValueError(f"{name} must be an integer of at least {low}, got {value!r}")

    def flow(self) -> FlowConfig:
        return FlowConfig(rtol=self.rtol, atol=self.atol, eps_D=self.eps_D,
                          tol_ext=self.tol_ext)


def _load_config(path: str | None) -> RunConfig:
    cfg = RunConfig()
    if path:
        data = json.loads(Path(path).read_text("utf-8"))
        known = {f.name for f in fields(RunConfig)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        cfg = replace(cfg, **data)
    return cfg


def _load_poly(name_or_path: str) -> HermitianPolynomial:
    if name_or_path in CORPUS_NAMES:
        return parse_polynomial(corpus_text(name_or_path))
    return parse_polynomial(Path(name_or_path).read_text("utf-8"))


def _parse_point(text: str) -> Point:
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"point must be x1,y1,x2,y2 — got {text!r}")
    return Point.from_reals(*parts)


def _jsonable(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, Point):
        z1, z2 = obj.as_pair()
        return [z1.real, z1.imag, z2.real, z2.imag]
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


def _write_json(path: Path, p: HermitianPolynomial, analysis: dict) -> None:
    doc = {
        "toolkit_version": __version__,
        "poly_sha256": polynomial_hash(p),
        "analysis": _jsonable(analysis),
    }
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", "utf-8")


def _write_meta(path: Path, argv: list[str]) -> None:
    meta = {"written_at_unix": time.time(), "argv": argv}
    path.write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n", "utf-8")


def _sample_points(p: HermitianPolynomial, rng, count: int, d_cutoff: float = 1e-6,
                   r_lo: float = 0.5, r_hi: float = 1.5) -> list[Point]:
    """Seeded cloud in an annulus, rejecting rho <= 0 and Levi-degenerate points."""
    det = jet_polynomials(p).det
    out: list[Point] = []
    attempts = 0
    while len(out) < count and attempts < 200 * count:
        attempts += 1
        row = rng.normal(size=4)
        v = np.array([complex(row[0], row[1]), complex(row[2], row[3])])
        v *= rng.uniform(r_lo, r_hi) / np.linalg.norm(v)
        if p(v[0], v[1]).real <= 0.0 or det(v[0], v[1]).real <= d_cutoff:
            continue
        out.append(Point(v[0], v[1]))
    if len(out) < count:
        raise MafoliateError(f"could only sample {len(out)}/{count} admissible points")
    return out


# ---------------------------------------------------------------------------
# subcommands; each returns (ok, artifacts written)
# ---------------------------------------------------------------------------


def _cmd_check_ma(p, cfg: RunConfig, out: Path) -> bool:
    rng = np.random.default_rng(cfg.seed)
    pts = _sample_points(p, rng, cfg.grid * cfg.grid)
    reports = pmap(lambda q: ma_residual(eval_jet(p, q)), pts)
    worst = max(reports, key=lambda r: abs(r.normalized))
    is_ma = abs(worst.normalized) < 1e-9
    write_ma_csv(reports, out / "ma_scan.csv", __version__, polynomial_hash(p))
    _write_json(out / "ma_summary.json", p, {
        "count": len(reports),
        "max_abs_normalized": abs(worst.normalized),
        "worst_point": worst.point,
        "is_ma": is_ma,
    })
    return is_ma


def _cmd_gradient(p, cfg: RunConfig, out: Path, point: Point) -> bool:
    jet = eval_jet(p, point)
    method = "cofactor" if jet.D > cfg.eps_D else "ray_limit_extension"
    g = gradient_anywhere(p, point, eps_D=cfg.eps_D, tol_ext=cfg.tol_ext)
    ok = abs(g.pairing_check) <= 1e-6 * max(jet.rho, 1.0)
    _write_json(out / "gradient.json", p, {
        "point": point, "method": method, "D": jet.D, "rho": jet.rho,
        "Z": [g.Z1, g.Z2], "pairing_check": g.pairing_check,
        "gradient_identity_ok": ok,
    })
    return ok


def _cmd_type_at(p, cfg: RunConfig, out: Path, point: Point) -> bool:
    report = point_type(p, point, m_max=cfg.m_max, tol=cfg.tol_type)
    _write_json(out / "type_report.json", p, report.to_json_dict())
    return report.type_m != "exceeds_cap"


def _cmd_trace_leaf(p, cfg: RunConfig, out: Path, point: Point) -> bool:
    t_vals, s_vals = make_grid(0.0, cfg.trace_t_max, 0.0, cfg.trace_s_max, cfg.trace_step)
    trace = trace_leaf(p, point, t_vals, s_vals, cfg.flow())
    diag = leaf_diagnostics(trace)
    write_leaf_csv(trace, out / "leaf_trace.csv", __version__)
    _write_json(out / "trace_diagnostics.json", p, {
        "seed": point, "h_t": diag.h_t, "h_s": diag.h_s,
        "harmonicity_defect": diag.harmonicity_defect,
        "monotone_growth": diag.monotone_growth,
        "parametrization_defect": diag.parametrization_defect,
        "min_gradient_norm": diag.min_gradient_norm,
        "growth_rate": diag.growth_rate,
        "growth_subinterval_spread": diag.growth_subinterval_spread,
        "level_drift": diag.level_drift,
        "radiality_defect": trace.diagnostics["radiality_defect"],
    })
    return diag.monotone_growth


def _burns_dict(v) -> dict:
    return {
        "k": v.k, "is_ma": v.is_ma, "ma_max_normalized": v.ma_max_normalized,
        "ma_worst_point": v.ma_worst_point, "bidegree_pure": v.bidegree_pure,
        "components": [list(c) for c in v.components],
        "extreme_components_vanish": v.extreme_components_vanish,
        "growth_bound": v.growth_bound, "min_on_sphere": v.min_on_sphere,
        "theorem_consistent": v.theorem_consistent,
    }


def _cmd_burns(p, cfg: RunConfig, out: Path) -> bool:
    verdict = burns_verify(p, ma_samples=cfg.samples, seed=cfg.seed)
    _write_json(out / "burns_verdict.json", p, _burns_dict(verdict))
    return verdict.is_ma and verdict.theorem_consistent


def _fit_weights_dict(p, cfg: RunConfig, rng) -> tuple[dict, bool]:
    pts = _sample_points(p, rng, cfg.fit_samples)
    fit = fit_holomorphic_Z(p, pts, cfg.fit_degree, eps_D=cfg.eps_D)
    zero = zero_set_check(fit)
    est = estimate_weights(fit)
    defect = weighted_homogeneity_check(p, est.c1, est.c2, trials=cfg.trials, seed=cfg.seed)
    doc = {
        "degree": fit.degree,
        "coefficients": {
            "Z1": {f"{a},{b}": c for (a, b), c in sorted(fit.coeff1.items())},
            "Z2": {f"{a},{b}": c for (a, b), c in sorted(fit.coeff2.items())},
        },
        "max_residual": fit.max_residual,
        "holdout_pairing_residual": fit.holdout_pairing_residual,
        "zero_set": {
            "isolated_zero_at_origin": zero.isolated_zero_at_origin,
            "linear_min_singular": zero.linear_min_singular,
            "min_on_unit_sphere": zero.min_on_unit_sphere,
            "other_zeros": list(zero.other_zeros),
        },
        "weights": {"c1": est.c1, "c2": est.c2, "diagonalization_residual": est.residual},
        "homogeneity_defect": defect,
    }
    ok = fit.max_residual < 1e-6 and defect < 1e-6 and zero.isolated_zero_at_origin
    return doc, ok


def _cmd_weights(p, cfg: RunConfig, out: Path) -> bool:
    rng = np.random.default_rng(cfg.seed)
    doc, ok = _fit_weights_dict(p, cfg, rng)
    _write_json(out / "weights.json", p, doc)
    return ok


def _cmd_transport(p, cfg: RunConfig, out: Path, r1: float, r2: float) -> bool:
    samples = level_set_samples(p, r1, cfg.transport_samples, seed=cfg.seed)
    rep = level_transport(p, r1, r2, samples, cfg.flow())
    _write_json(out / "transport.json", p, {
        "r1": rep.r1, "r2": rep.r2, "rate": rep.rate, "time": rep.time,
        "max_landing_defect": rep.max_landing_defect,
        "max_roundtrip_defect": rep.max_roundtrip_defect,
        "landing_defects": list(rep.landing_defects),
        "roundtrip_defects": list(rep.roundtrip_defects),
    })
    return rep.max_landing_defect < 1e-6 and rep.max_roundtrip_defect < 1e-5


def _cmd_report(p, cfg: RunConfig, out: Path) -> bool:
    rng = np.random.default_rng(cfg.seed)
    cfg_echo = asdict(cfg)
    cfg_echo.pop("out_dir")  # I/O plumbing, kept out of the deterministic document
    cfg_echo.pop("strict")
    doc: dict = {"config": cfg_echo, "polynomial": serialize_polynomial(p)}
    oks: list[bool] = []

    pts = _sample_points(p, rng, cfg.samples)
    reports = pmap(lambda q: ma_residual(eval_jet(p, q)), pts)
    worst = max(reports, key=lambda r: abs(r.normalized))
    is_ma = abs(worst.normalized) < 1e-9
    doc["ma"] = {"count": len(reports), "max_abs_normalized": abs(worst.normalized),
                 "worst_point": worst.point, "is_ma": is_ma}

    grad_defect = 0.0
    for q in pts[: min(len(pts), 500)]:
        jet = eval_jet(p, q)
        g = complex_gradient(jet, cfg.eps_D)
        grad_defect = max(grad_defect, abs(g.pairing_check) / jet.rho)
    doc["gradient"] = {"max_relative_pairing_defect": grad_defect}

    bk = {"defect_llbar": 0.0, "defect_lz": 0.0, "defect_lzbar": 0.0, "defect_zzbar": 0.0}
    for q in pts[: min(len(pts), 100)]:
        rep = bracket_identities_check(p, q, eps_D=cfg.eps_D)
        for key in bk:
            bk[key] = max(bk[key], getattr(rep, key))
    doc["bracket_identities"] = bk

    probes = level_set_samples(p, 1.0, 3, seed=cfg.seed)
    doc["type"] = [point_type(p, q, m_max=cfg.m_max, tol=cfg.tol_type).to_json_dict()
                   for q in probes]

    try:
        verdict = burns_verify(p, ma_samples=min(cfg.samples, 2000), seed=cfg.seed)
        doc["burns"] = _burns_dict(verdict)
        oks.append(verdict.theorem_consistent)
    except NotHomogeneous as exc:
        doc["burns"] = {"skipped": str(exc)}

    # the remaining stages presuppose the equation; on a failing input their
    # errors are analysis outcomes and belong in the record, not on stderr
    try:
        fit_doc, fit_ok = _fit_weights_dict(p, cfg, rng)
        doc["fit_and_weights"] = fit_doc
        oks.append(fit_ok)
    except MafoliateError as exc:
        doc["fit_and_weights"] = {"error": str(exc)}
        oks.append(False)

    try:
        samples = level_set_samples(p, 1.0, cfg.transport_samples, seed=cfg.seed)
        tr = level_transport(p, 1.0, 2.0, samples, cfg.flow())
        doc["transport"] = {"rate": tr.rate, "time": tr.time,
                            "max_landing_defect": tr.max_landing_defect,
                            "max_roundtrip_defect": tr.max_roundtrip_defect}
        oks.append(tr.max_landing_defect < 1e-6)
    except MafoliateError as exc:
        doc["transport"] = {"error": str(exc)}
        oks.append(False)

    try:
        seed_pt = probes[0]
        t_vals, s_vals = make_grid(0.0, cfg.trace_t_max, 0.0, cfg.trace_s_max, cfg.trace_step)
        trace = trace_leaf(p, seed_pt, t_vals, s_vals, cfg.flow())
        diag = leaf_diagnostics(trace)
        doc["trace"] = {"seed": seed_pt, "harmonicity_defect": diag.harmonicity_defect,
                        "parametrization_defect": diag.parametrization_defect,
                        "monotone_growth": diag.monotone_growth,
                        "growth_rate": diag.growth_rate, "level_drift": diag.level_drift}
        oks.append(diag.monotone_growth)
    except MafoliateError as exc:
        doc["trace"] = {"error": str(exc)}
        oks.append(False)

    oks += [is_ma, grad_defect < 1e-6]
    ok = all(oks)
    doc["ok"] = ok
    _write_json(out / "report.json", p, doc)
    return ok


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mafoliate",
        description="Verification toolkit for Monge-Ampere exhaustions on C^2.",
    )
    parser.add_argument("--version", action="version", version=f"mafoliate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--poly", required=True,
                        help=f"polynomial JSON file or corpus name {CORPUS_NAMES}")
        sp.add_argument("--config", help="JSON config file (flags override it)")
        sp.add_argument("--out", help="output directory (default: config out_dir)")
        sp.add_argument("--seed", type=int, help="random seed")
        sp.add_argument("--strict", action="store_true",
                        help="exit 1 when the analysis verdict is violated")

    sp = sub.add_parser("check-ma", help="sampled Monge-Ampere residual scan")
    common(sp)
    sp.add_argument("--grid", type=int, help="draw grid^2 sample points")

    sp = sub.add_parser("gradient", help="complex gradient at a point (extends across D = 0)")
    common(sp)
    sp.add_argument("--point", required=True, help="x1,y1,x2,y2")

    sp = sub.add_parser("type-at", help="finite type of the level set through a point")
    common(sp)
    sp.add_argument("--point", required=True, help="x1,y1,x2,y2")
    sp.add_argument("--m-max", type=int, dest="m_max", help="bracket length cap")

    sp = sub.add_parser("trace-leaf", help="trace the foliation leaf through a seed")
    common(sp)
    sp.add_argument("--point", required=True, help="x1,y1,x2,y2")
    sp.add_argument("--step", type=float, help="grid step in (t, s)")

    sp = sub.add_parser("burns", help="homogeneous-polynomial verdict")
    common(sp)

    sp = sub.add_parser("weights", help="fit Z, extract circular-domain weights")
    common(sp)
    sp.add_argument("--degree", type=int, help="fit degree")

    sp = sub.add_parser("transport", help="flow one level set onto another")
    common(sp)
    sp.add_argument("--r1", type=float, required=True)
    sp.add_argument("--r2", type=float, required=True)
    sp.add_argument("--samples", type=int, dest="transport_samples")

    sp = sub.add_parser("report", help="full pipeline, one combined JSON document")
    common(sp)

    return parser


def _glue_point_values(argv: list[str]) -> list[str]:
    """Rewrite "--point VALUE" as "--point=VALUE", so argparse does not take a
    value with a leading minus sign, such as -1,0,0,0, for a flag."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--point":
            out[-1] = f"--point={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(_glue_point_values(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        cfg = _load_config(args.config)
        overrides = {}
        for name in ("seed", "grid", "m_max", "transport_samples"):
            if getattr(args, name, None) is not None:
                overrides[name] = getattr(args, name)
        if getattr(args, "step", None) is not None:
            overrides["trace_step"] = args.step
        if getattr(args, "degree", None) is not None:
            overrides["fit_degree"] = args.degree
        if args.out is not None:
            overrides["out_dir"] = args.out
        if args.strict:
            overrides["strict"] = True
        cfg = replace(cfg, **overrides)

        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        p = _load_poly(args.poly)

        if args.command == "check-ma":
            ok = _cmd_check_ma(p, cfg, out)
        elif args.command == "gradient":
            ok = _cmd_gradient(p, cfg, out, _parse_point(args.point))
        elif args.command == "type-at":
            ok = _cmd_type_at(p, cfg, out, _parse_point(args.point))
        elif args.command == "trace-leaf":
            ok = _cmd_trace_leaf(p, cfg, out, _parse_point(args.point))
        elif args.command == "burns":
            ok = _cmd_burns(p, cfg, out)
        elif args.command == "weights":
            ok = _cmd_weights(p, cfg, out)
        elif args.command == "transport":
            ok = _cmd_transport(p, cfg, out, args.r1, args.r2)
        elif args.command == "report":
            ok = _cmd_report(p, cfg, out)
        else:  # pragma: no cover
            parser.error(f"unknown command {args.command}")
            return 2
        _write_meta(out / f"{args.command.replace('-', '_')}_meta.json", argv)
    except (MafoliateError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if not ok and cfg.strict:
        return 1
    return 0


def _console_entry() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
