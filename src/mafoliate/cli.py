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
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

from . import __version__
from ._numpy import np
from .calculus import (
    Point,
    Polynomial,
    eval_jet,
    evaluate_many,
    jet_polynomials,
    parse_polynomial,
    point_array,
    polynomial_hash,
    serialize_polynomial,
)
from .corpus import CORPUS_NAMES, load
from .errors import MafoliateError, NotHomogeneous
from .finite_type import TYPE_CAP_DEFAULT, bracket_identities, gradient, point_type
from .foliation import (
    FlowConfig,
    burns_verify,
    estimate_weights,
    fit_holomorphic_Z,
    leaf_diagnostics,
    level_set_samples,
    level_transport,
    make_grid,
    random_vector,
    trace_leaf,
    weighted_homogeneity_check,
    write_leaf_csv,
    zero_set_check,
)
from .monge_ampere import SAMPLE_D_CUTOFF, is_ma_exact, ma_scan, write_ma_csv


class _RunFields(NamedTuple):
    rtol: float = 1e-10
    atol: float = 1e-10
    m_max: int = TYPE_CAP_DEFAULT
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


class RunConfig(_RunFields):
    """All knobs of a batch run; flags override config-file values override defaults."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        least = {"grid": 1, "samples": 1, "fit_samples": 1, "fit_degree": 1, "trials": 1,
                 "transport_samples": 1, "seed": 0, "m_max": 2}  # the shortest bracket has length 2
        accepted = {"int": int, "float": (int, float), "str": str, "bool": bool}
        for (name, ref), value in zip(_RunFields.__annotations__.items(), self):
            kind, low = ref.__forward_arg__, least.get(name)  # the annotation's text, such as "float"
            if (isinstance(value, bool) != (kind == "bool")
                    or not isinstance(value, accepted[kind]) or (low is not None and value < low)):
                wanted = f"an integer of at least {low}" if low is not None else f"a {kind}"
                raise ValueError(f"{name} must be {wanted}, got {value!r}")
            if kind == "float" and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        return self

    def flow(self) -> FlowConfig:
        return FlowConfig(rtol=self.rtol, atol=self.atol)


def _load_config(path: str | None) -> RunConfig:
    if not path:
        return RunConfig()
    data = json.loads(Path(path).read_text("utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"config file must hold a JSON object, not {type(data).__name__}")
    unknown = set(data) - set(RunConfig._fields)
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}")
    return RunConfig(**data)


def _load_poly(name_or_path: str) -> Polynomial:
    """The real-valued polynomial of a corpus name or an interchange-format file."""
    if name_or_path in CORPUS_NAMES:
        return load(name_or_path)
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
    if type(obj).__module__ == "numpy":  # an array or scalar; asks nothing of numpy's import
        return _jsonable(obj.tolist())
    if isinstance(obj, dict):  # a tuple key (a, b) is written "a,b"
        return {",".join(map(str, k)) if isinstance(k, tuple) else str(k): _jsonable(v)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


def _write_json(path: Path, p: Polynomial, analysis: dict) -> None:
    doc = {
        "toolkit_version": __version__,
        "poly_sha256": polynomial_hash(p),
        "analysis": _jsonable(analysis),
    }
    try:
        text = json.dumps(doc, sort_keys=True, indent=1, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path.name} not written: the analysis holds a non-finite value "
                         f"at {_non_finite_key(doc['analysis'], 'analysis')}") from exc
    path.write_text(text + "\n", "utf-8")


def _non_finite_key(obj, key: str) -> str | None:
    """The key of the first non-finite float in a _jsonable document, in sorted key order."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else key
    if isinstance(obj, dict):
        items = ((f"{key}.{k}", obj[k]) for k in sorted(obj))
    elif isinstance(obj, list):
        items = ((f"{key}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    for sub_key, value in items:
        found = _non_finite_key(value, sub_key)
        if found:
            return found
    return None


class _StageClock:
    """Wall seconds of each analysis stage and run counters, for the *_meta.json side channel."""

    def __init__(self):
        self.stage_s: dict[str, float] = {}
        self.counters: dict[str, dict] = {}

    @contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.stage_s[name] = time.perf_counter() - start


def _write_meta(path: Path, argv: list[str], clock: _StageClock) -> None:
    meta = {"written_at_unix": time.time(), "argv": argv, "stage_s": clock.stage_s, **clock.counters}
    path.write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n", "utf-8")


def _sample_points(p: Polynomial, rng, count: int) -> list[Point]:
    """Seeded cloud in the annulus 0.5 <= |z| <= 1.5, rejecting rho <= 0 and
    Levi-degenerate points (det <= SAMPLE_D_CUTOFF).

    Candidates are drawn in batches of the missing count and tested together,
    which leaves the generator's stream that of drawing them one at a time."""
    polys = (p, jet_polynomials(p).det)
    out: list[Point] = []
    attempts = 0
    while len(out) < count and attempts < 200 * count:
        draws = min(count - len(out), 200 * count - attempts)
        attempts += draws
        vs = np.empty((draws, 2), dtype=complex)
        for i in range(draws):
            vs[i] = random_vector(rng, 0.5, 1.5)
        rho, det = evaluate_many(polys, vs[:, 0], vs[:, 1]).real
        out += [Point(a, b) for a, b in vs[~((rho <= 0.0) | (det <= SAMPLE_D_CUTOFF))]]
    if len(out) < count:
        raise MafoliateError(f"could only sample {len(out)}/{count} admissible points")
    return out


# ---------------------------------------------------------------------------
# analysis stages, shared by the subcommands and `report`
# ---------------------------------------------------------------------------


def _record(obj, **extra) -> dict:
    """A result record as a report record: its fields by name, then the extra entries."""
    return {**obj._asdict(), **extra}


def _ma_stage(p, pts: list[Point]) -> tuple[list, dict]:
    """The exact certificate's verdict, with the sampled scan's worst residual as its oracle."""
    reports = ma_scan(p, pts)
    worst = max(reports, key=lambda r: abs(r.normalized))
    return reports, {"count": len(reports), "max_abs_normalized": abs(worst.normalized),
                     "worst_point": worst.point, "is_ma": is_ma_exact(p)}


def _trace_stage(p, cfg: RunConfig, point: Point) -> tuple:
    t_vals, s_vals = make_grid(0.0, cfg.trace_t_max, 0.0, cfg.trace_s_max, cfg.trace_step)
    trace = trace_leaf(p, point, t_vals, s_vals, cfg.flow())
    return trace, _record(leaf_diagnostics(trace), seed=point,
                          radiality_defect=trace.diagnostics["radiality_defect"])


def _transport_stage(p, cfg: RunConfig, r1: float, r2: float) -> dict:
    samples = level_set_samples(p, r1, cfg.transport_samples, seed=cfg.seed)
    return _record(level_transport(p, r1, r2, samples, cfg.flow()))


def _fit_weights_dict(p, cfg: RunConfig, rng) -> dict:
    fit = fit_holomorphic_Z(p, _sample_points(p, rng, cfg.fit_samples), cfg.fit_degree)
    zero = zero_set_check(fit)
    est = estimate_weights(fit)
    return _record(fit, zero_set=_record(zero), weights=_record(est),
                   homogeneity_defect=weighted_homogeneity_check(p, est.c1, est.c2,
                                                                 trials=cfg.trials, seed=cfg.seed))


def _weights_ok(doc: dict) -> bool:
    return (doc["max_residual"] < 1e-6 and doc["homogeneity_defect"] < 1e-6
            and doc["zero_set"]["isolated_zero_at_origin"])


def _transport_ok(rec: dict) -> bool:
    return rec["max_landing_defect"] < 1e-6 and rec["max_roundtrip_defect"] < 1e-5


def _type_ok(recs: list[dict]) -> bool:
    return all(rec["type_m"] != "exceeds_cap" for rec in recs)


# ---------------------------------------------------------------------------
# subcommands; each writes its artifacts and returns whether the verdict holds
# ---------------------------------------------------------------------------


def _cmd_check_ma(p, cfg: RunConfig, out: Path, args, clock: _StageClock) -> bool:
    with clock("ma"):
        pts = _sample_points(p, np.random.default_rng(cfg.seed), cfg.grid * cfg.grid)
        reports, summary = _ma_stage(p, pts)
    write_ma_csv(reports, out / "ma_scan.csv", __version__, polynomial_hash(p))
    _write_json(out / "ma_summary.json", p, summary)
    return summary["is_ma"]


def _cmd_gradient(p, cfg: RunConfig, out: Path, args, clock: _StageClock) -> bool:
    point = _parse_point(args.point)
    with clock("gradient"):
        g = gradient(p, point)
        jet = eval_jet(p, point)
    ok = abs(g.pairing_check) <= 1e-6 * max(jet.rho, 1.0)
    _write_json(out / "gradient.json", p, {
        "point": point, "method": g.method, "D": jet.D, "rho": jet.rho, "Z": [g.Z1, g.Z2],
        "pairing_check": g.pairing_check, "gradient_identity_ok": ok,
    })
    return ok


def _cmd_type_at(p, cfg: RunConfig, out: Path, args, clock: _StageClock) -> bool:
    point = _parse_point(args.point)
    with clock("type"):
        rec = _record(point_type(p, point, m_max=cfg.m_max))
    _write_json(out / "type_report.json", p, rec)
    return _type_ok([rec])


def _cmd_trace_leaf(p, cfg: RunConfig, out: Path, args, clock: _StageClock) -> bool:
    point = _parse_point(args.point)
    with clock("trace"):
        trace, rec = _trace_stage(p, cfg, point)
    clock.counters["flows"] = trace.counts
    write_leaf_csv(trace, out / "leaf_trace.csv", __version__)
    _write_json(out / "trace_diagnostics.json", p, rec)
    return rec["monotone_growth"]


def _cmd_burns(p, cfg: RunConfig, out: Path, args, clock: _StageClock) -> bool:
    with clock("burns"):
        rec = _record(burns_verify(p, seed=cfg.seed))
    _write_json(out / "burns_verdict.json", p, rec)
    return rec["is_ma"] and rec["theorem_consistent"]


def _cmd_weights(p, cfg: RunConfig, out: Path, args, clock: _StageClock) -> bool:
    with clock("fit_and_weights"):
        doc = _fit_weights_dict(p, cfg, np.random.default_rng(cfg.seed))
    _write_json(out / "weights.json", p, doc)
    return _weights_ok(doc)


def _cmd_transport(p, cfg: RunConfig, out: Path, args, clock: _StageClock) -> bool:
    with clock("transport"):
        rec = _transport_stage(p, cfg, args.r1, args.r2)
    _write_json(out / "transport.json", p, rec)
    return _transport_ok(rec)


def _cmd_report(p, cfg: RunConfig, out: Path, args, clock: _StageClock) -> bool:
    rng = np.random.default_rng(cfg.seed)
    # out_dir and strict are I/O plumbing, kept out of the deterministic document
    cfg_echo = {k: v for k, v in cfg._asdict().items() if k not in ("out_dir", "strict")}
    doc: dict = {"config": cfg_echo, "polynomial": serialize_polynomial(p)}

    with clock("ma"):
        pts = _sample_points(p, rng, cfg.samples)
        _, doc["ma"] = _ma_stage(p, pts)

    oks = [doc["ma"]["is_ma"]]

    with clock("bracket_identities"):
        reps = bracket_identities(p, *point_array(pts[:100]).T)
    doc["bracket_identities"] = {key: max([0.0, *(getattr(r, key) for r in reps)]) for key in
                                 ("defect_llbar", "defect_lz", "defect_lzbar", "defect_zzbar")}

    with clock("burns"):
        try:
            doc["burns"] = _record(burns_verify(p, seed=cfg.seed))
            oks.append(doc["burns"]["theorem_consistent"])
        except NotHomogeneous as exc:
            doc["burns"] = {"skipped": str(exc)}

    probes: list[Point] = []  # on the level rho = 1, for the type and trace stages

    def type_stage() -> list[dict]:
        probes.extend(level_set_samples(p, 1.0, 3, seed=cfg.seed))
        return [_record(point_type(p, q, m_max=cfg.m_max)) for q in probes]

    def trace_stage() -> dict:
        if not probes:
            raise MafoliateError("no probe point on the level rho = 1 to trace from")
        return _trace_stage(p, cfg, probes[0])[1]

    # the remaining stages presuppose the equation; on a failing input their
    # errors are analysis outcomes and belong in the record, not on stderr
    for name, stage, passed in (
            ("type", type_stage, _type_ok),
            ("fit_and_weights", lambda: _fit_weights_dict(p, cfg, rng), _weights_ok),
            ("transport", lambda: _transport_stage(p, cfg, 1.0, 2.0), _transport_ok),
            ("trace", trace_stage, lambda rec: rec["monotone_growth"])):
        try:
            with clock(name):
                doc[name] = stage()
            oks.append(passed(doc[name]))
        except MafoliateError as exc:
            doc[name] = {"error": str(exc)}
            oks.append(False)

    doc["ok"] = all(oks)
    _write_json(out / "report.json", p, doc)
    return doc["ok"]


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

_POINT = ("--point", {"required": True, "help": "x1,y1,x2,y2"})

# name: (handler, help, extra flags); a flag that sets a RunConfig knob has the
# knob's name as its dest, and the metavar keeps the flag's own name in --help
_COMMANDS = {
    "check-ma": (_cmd_check_ma, "exact Monge-Ampere verdict, with a sampled residual scan",
                 [("--grid", {"type": int, "help": "draw grid^2 sample points"})]),
    "gradient": (_cmd_gradient, "complex gradient at a point (the exact polynomial Z where "
                 "det divides, else extended across D = 0)", [_POINT]),
    "type-at": (_cmd_type_at, "finite type of the level set through a point",
                [_POINT, ("--m-max", {"type": int, "dest": "m_max", "help": "bracket length cap"})]),
    "trace-leaf": (_cmd_trace_leaf, "trace the foliation leaf through a seed",
                   [_POINT, ("--step", {"type": float, "dest": "trace_step", "metavar": "STEP",
                                        "help": "grid step in (t, s)"})]),
    "burns": (_cmd_burns, "homogeneous-polynomial verdict", []),
    "weights": (_cmd_weights, "fit Z, extract circular-domain weights",
                [("--degree", {"type": int, "dest": "fit_degree", "metavar": "DEGREE",
                               "help": "fit degree"})]),
    "transport": (_cmd_transport, "flow one level set onto another",
                  [("--r1", {"type": float, "required": True}),
                   ("--r2", {"type": float, "required": True}),
                   ("--samples", {"type": int, "dest": "transport_samples"})]),
    "report": (_cmd_report, "full pipeline, one combined JSON document", []),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mafoliate",
        description="Verification toolkit for Monge-Ampere exhaustions on C^2.",
    )
    parser.add_argument("--version", action="version", version=f"mafoliate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, extra) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--poly", required=True,
                        help=f"polynomial JSON file or corpus name {CORPUS_NAMES}")
        sp.add_argument("--config", help="JSON config file (flags override it)")
        sp.add_argument("--out", dest="out_dir", metavar="OUT",
                        help="output directory (default: config out_dir)")
        sp.add_argument("--seed", type=int, help="random seed")
        sp.add_argument("--strict", action="store_true", default=None,
                        help="exit 1 when the analysis verdict is violated")
        for flag, kwargs in extra:
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(run=handler)
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
    try:
        args = _build_parser().parse_args(_glue_point_values(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        # a new RunConfig, not _replace, which would skip the validation in __new__
        cfg = RunConfig(**{**_load_config(args.config)._asdict(), **{
            name: getattr(args, name) for name in RunConfig._fields
            if getattr(args, name, None) is not None}})
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        clock = _StageClock()
        ok = args.run(_load_poly(args.poly), cfg, out, args, clock)
        _write_meta(out / f"{args.command.replace('-', '_')}_meta.json", argv, clock)
    except (MafoliateError, OSError, ValueError, json.JSONDecodeError, MemoryError,
            OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if not ok and cfg.strict:
        return 1
    return 0


def _console_entry() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
