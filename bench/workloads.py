"""Job lists of the three workloads, and the correctness gate that checks each job.

Every job is one ``mafoliate`` CLI call.  Its expected values follow from how
its input was built (see gen.py), never from a run of the toolkit.  A job
fails when it exits non-zero or when a checked field disagrees.

Each workload has a fixed list of slots (input family, exponents, kind of
point); the seed draws the coefficients, points and per-job ``--seed`` values.
Fixing the slots keeps the amount of work, and so the run time, the same
from seed to seed, while the inputs differ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import gen

WORKLOADS = ("report-mix", "leaf-degenerate", "type-deep")
M_MAX = 8  # the CLI's default bracket-length cap, which these jobs keep
WEIGHT_TOL = 1e-6
LANDING_TOL = 1e-6  # the CLI's own transport criterion

# Known defects of the toolkit.  Jobs that hit one still count as failed, and
# the benchmark keeps them in its data on purpose; only a failure matching none
# of these marks the run incorrect.
KNOWN_DEFECTS = {
    "type-underestimate": "type-at on a non-diagonal input reports a type below the exact one",
    "ma-threshold": "report flags a generated MA positive is_ma = false with a rounding-level "
                    "residual (<= 1e-6) against the fixed 1e-9 threshold",
    "extension-order3": "trace-leaf exits 2 (ray extrapolants disagree) on the line where a "
                        "non-diagonal input vanishes to order 3",
    "degenerate-handoff": "trace-leaf from a degenerate seed of a non-diagonal input exits 2 "
                          "(DegenerateLevi): the det polynomial puts D above eps_D where the "
                          "jet's D is not",
}

# Base forms of the pinned type-deep slots: |l1^3|^2 + |l2^3|^2 at a point of
# {l1 = 0}, where the exact type is 6.  Unpinned, this slot takes 1.5-8 s
# depending on where the wrong early answer stops the search, which would tie
# the workload's run time to the seed.  The seed instead picks one of the 16
# exact coordinate-phase images (gen.Forms.rotated).
PINNED_33 = (
    (((0, 1), (1, 1), (-1, 2), (-2, -1)), (-1, 0)),    # reported 5 at the parent commit
    (((-1, 0), (-1, 2), (-2, 1), (2, 2)), (0, 1)),     # reported 4 at the parent commit
)

# |l1^2|^2 + |l2^2|^2 at a point of {l2 = 0}, fixed: with coefficients as large
# as these, 8 of 9 random draws hit the degenerate-handoff defect, and a trace
# that fails takes a third of the time of one that passes.
PINNED_HANDOFF = (((1, -2), (2, -2), (0, -1), (-1, 1)), (0, 1))


@dataclass
class Job:
    id: str
    argv: list          # CLI arguments without --out
    output: str         # the analysis JSON the job writes
    expect: dict        # field -> expected value
    klass: str = ""     # input class, for matching known defects
    tags: set = field(default_factory=set)

    @property
    def kind(self) -> str:
        return self.argv[0]


@dataclass
class Slot:
    """A generated input rho = |l1^a|^2 + |l2^b|^2 and its file."""

    forms: gen.Forms
    a: int
    b: int
    path: str
    diagonal: bool

    def line_point(self, line: int, t: tuple) -> tuple:
        return self.forms.point_on_l1(t) if line == 1 else self.forms.point_on_l2(t)

    def line_type(self, line: int):
        m = 2 * (self.a if line == 1 else self.b)
        return m if m <= M_MAX else "exceeds_cap"

    @property
    def label(self) -> str:
        return f"{'diag' if self.diagonal else 'nondiag'}{self.a}{self.b}"


class _JobList:
    def __init__(self, seed: int, inputs: Path):
        self.rng = random.Random(seed)
        self.inputs = inputs
        self.jobs: list[Job] = []
        inputs.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, terms: dict) -> str:
        path = self.inputs / f"{name}.json"
        path.write_text(gen.to_json(terms), "utf-8")
        return str(path)

    def slot(self, a: int, b: int, diagonal: bool = False, forms: gen.Forms | None = None,
             pool: tuple | None = None) -> Slot:
        if forms is None:
            forms = (gen.Forms.diagonal() if diagonal
                     else gen.Forms.random_nondiagonal(self.rng, pool or gen.WIDE))
        name = f"in{len(self.jobs):02d}-{'diag' if diagonal else 'nondiag'}{a}{b}"
        return Slot(forms, a, b, self.write(name, forms.rho(a, b)), diagonal)

    def job_seed(self) -> str:
        return str(self.rng.randrange(1, 10**6))

    def add(self, label: str, argv: list, output: str, expect: dict, klass: str = "", tags=()):
        self.jobs.append(Job(f"{len(self.jobs):02d}-{argv[0]}-{label}", argv, output, expect,
                             klass, set(tags)))

    def unit(self) -> tuple:
        return self.rng.choice(gen.UNITS)


def _report_expect_positive(weights: tuple, homogeneous: bool) -> dict:
    expect = {"is_ma": True, "weights": tuple(sorted(weights)), "types_generic": True,
              "transport_lands": True, "monotone_growth": True}
    if homogeneous:
        expect["bidegree_pure"] = True
    else:
        expect["burns_skipped"] = True
    return expect


CORPUS = {  # name -> (weights, homogeneous) for the MA members
    "euc": ((1.0, 1.0), True),
    "fub": ((0.5, 0.5), True),
    "quartic": ((0.5, 0.5), True),
    "weighted": ((1 / 3, 1 / 2), False),
}


def _report_mix(bld: _JobList) -> None:
    for name, (weights, homogeneous) in CORPUS.items():
        bld.add(name, ["report", "--poly", name, "--seed", bld.job_seed()], "report.json",
                _report_expect_positive(weights, homogeneous))
    bld.add("bad", ["report", "--poly", "bad", "--seed", bld.job_seed()], "report.json",
            {"is_ma": False, "theorem_consistent": True})
    for a, b in ((1, 2), (2, 2), (3, 3)):
        s = bld.slot(a, b)
        bld.add(s.label, ["report", "--poly", s.path, "--seed", bld.job_seed()], "report.json",
                _report_expect_positive((1 / a, 1 / b), a == b), klass="gen-positive")
    path = bld.write("neg3", gen.three_component_negative(bld.rng, 2))
    bld.add("neg3", ["report", "--poly", path, "--seed", bld.job_seed()], "report.json",
            {"is_ma": False, "burns_skipped": True})
    path = bld.write("badlike", gen.bad_like_negative(bld.rng))
    bld.add("badlike", ["report", "--poly", path, "--seed", bld.job_seed()], "report.json",
            {"is_ma": False, "theorem_consistent": True})


def _trace(bld: _JobList, s: Slot, z: tuple, where: str, tags=()) -> None:
    bld.add(f"{s.label}-{where}", ["trace-leaf", "--poly", s.path, gen.point_arg(z)],
            "trace_diagnostics.json", {"monotone_growth": True}, klass=s.label, tags=tags)


def _leaf_degenerate(bld: _JobList) -> None:
    # seeds on a Levi-degenerate line: the flow stays on it, so every
    # right-hand side goes through the ray-limit extension
    for a, b, diagonal, line in ((2, 1, True, 1), (2, 2, False, 2), (3, 1, False, 1)):
        s = bld.slot(a, b, diagonal, pool=gen.UNITS)
        tags = {"degenerate-seed"}
        if (a if line == 1 else b) == 3 and not diagonal:
            tags.add("order3-line")
        _trace(bld, s, s.line_point(line, bld.unit()), f"l{line}", tags)
    coeffs, t = PINNED_HANDOFF
    s = bld.slot(2, 2, forms=gen.Forms(*coeffs))
    _trace(bld, s, s.line_point(2, t), "l2-pinned", {"degenerate-seed"})
    # generic seeds: cofactor gradient only
    for a, b, diagonal in ((2, 2, False), (3, 1, False), (1, 2, False)):
        s = bld.slot(a, b, diagonal)
        _trace(bld, s, s.forms.generic_point(bld.rng), "generic")
    for a, b in ((2, 1), (3, 3)):
        s = bld.slot(a, b)
        bld.add(f"{s.label}", ["transport", "--poly", s.path, "--r1", "1", "--r2", "2",
                               "--seed", bld.job_seed()],
                "transport.json", {"landing": True}, klass=s.label)


def _type_at(bld: _JobList, s: Slot, z: tuple, expect, where: str) -> None:
    bld.add(f"{s.label}-{where}", ["type-at", "--poly", s.path, gen.point_arg(z)],
            "type_report.json", {"type_m": expect}, klass=s.label)


def _type_deep(bld: _JobList) -> None:
    for a, b, line in ((3, 2, 1), (4, 1, 1), (2, 4, 2), (5, 1, 1)):
        s = bld.slot(a, b, diagonal=True)
        _type_at(bld, s, s.line_point(line, bld.unit()), s.line_type(line), f"l{line}")
    for a, b, line in ((2, 1, 1), (1, 2, 2), (2, 2, 2)):
        s = bld.slot(a, b)
        _type_at(bld, s, s.line_point(line, bld.unit()), s.line_type(line), f"l{line}")
    j, k = bld.rng.randrange(4), bld.rng.randrange(4)
    for coeffs, t in PINNED_33:
        base = gen.Forms(*coeffs)
        s = bld.slot(3, 3, forms=base.rotated(j, k))
        z = gen.Forms.rotate_point(base.point_on_l1(t), j, k)
        _type_at(bld, s, z, 6, "l1-pinned")
    for a, b in ((2, 2), (3, 1)):
        s = bld.slot(a, b)
        _type_at(bld, s, s.forms.generic_point(bld.rng), 2, "generic")


_MAKERS = {"report-mix": _report_mix, "leaf-degenerate": _leaf_degenerate,
             "type-deep": _type_deep}


def build(workload: str, seed: int, inputs: Path) -> list[Job]:
    """Write the workload's inputs under `inputs` and return its job list."""
    bld = _JobList(seed, inputs)
    _MAKERS[workload](bld)
    return bld.jobs


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def _observed(doc: dict, key: str):
    """The report field behind an expectation key, as a comparable value."""
    if key == "is_ma":
        return doc["ma"]["is_ma"]
    if key == "weights":
        w = doc["fit_and_weights"].get("weights")
        return None if w is None else (w["c1"], w["c2"])
    if key == "types_generic":
        return all(t["type_m"] == 2 for t in doc["type"])
    if key == "transport_lands":
        return doc["transport"].get("max_landing_defect", float("inf")) < LANDING_TOL
    if key == "monotone_growth":
        return doc["trace"].get("monotone_growth") if "trace" in doc else doc["monotone_growth"]
    if key == "bidegree_pure":
        return doc["burns"].get("bidegree_pure")
    if key == "burns_skipped":
        return "skipped" in doc["burns"]
    if key == "theorem_consistent":
        return doc["burns"].get("theorem_consistent")
    if key == "type_m":
        return doc["type_m"]
    if key == "landing":
        return doc["max_landing_defect"] < LANDING_TOL
    raise KeyError(key)


def _agrees(key: str, expected, got) -> bool:
    if key == "weights":
        return got is not None and all(abs(g - e) <= WEIGHT_TOL for g, e in zip(got, expected))
    return got == expected


def check(job: Job, exit_code: int, doc: dict | None) -> list[tuple]:
    """Mismatches (field, expected, got) of one finished job; empty when it passed."""
    if exit_code != 0:
        return [("exit_code", 0, exit_code)]
    if doc is None:
        return [("output", job.output, "missing")]
    analysis = doc.get("analysis", {})
    out = []
    for key, expected in job.expect.items():
        try:
            got = _observed(analysis, key)
        except (KeyError, TypeError) as exc:
            got = f"unreadable ({exc!r})"
        if not _agrees(key, expected, got):
            out.append((key, expected, got))
    return out


def known_defect(job: Job, mismatches: list, doc: dict | None, stderr: str) -> str | None:
    """Name of the known defect that explains every mismatch, or None."""
    if not mismatches:
        return None
    fields = {m[0] for m in mismatches}
    if job.kind == "type-at" and job.klass.startswith("nondiag") and fields == {"type_m"}:
        _, expected, got = mismatches[0]
        if isinstance(got, int) and isinstance(expected, int) and got < expected:
            return "type-underestimate"
    if job.kind == "report" and job.klass == "gen-positive" and fields == {"is_ma"}:
        if doc["analysis"]["ma"]["max_abs_normalized"] <= 1e-6:
            return "ma-threshold"
    if (job.kind == "trace-leaf" and job.klass.startswith("nondiag") and fields == {"exit_code"}
            and mismatches[0][2] == 2 and "degenerate-seed" in job.tags):
        if "order3-line" in job.tags and "ray extrapolants disagree" in stderr:
            return "extension-order3"
        if "use the finite-type extension" in stderr:
            return "degenerate-handoff"
    return None
