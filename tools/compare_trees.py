"""Run benchmark workloads' jobs in two source trees and compare what they write.

    python3 tools/compare_trees.py PARENT CHANGE --workload report-mix --seed 301
    python3 tools/compare_trees.py PARENT CHANGE --workload report-mix type-deep --seed 301 5151
    python3 tools/compare_trees.py PARENT CHANGE --workload leaf-degenerate --seed 301 --repeats 5

PARENT and CHANGE are source checkouts (each with src/mafoliate).  The job list
comes from this checkout's bench/workloads.py, built once, so both trees see the
same inputs.  Each job runs --repeats times (default 1) per tree as a fresh
``python3 -m mafoliate.cli`` process, the two trees in turn, and the tree that
goes first alternates from one repeat to the next.  Per job this prints the two
exit codes, each side's wall seconds and peak RSS (``ru_maxrss`` from
``os.wait4``, as bench/run.py reads it; each the median over the repeats), whether
stderr is equal, each side's gate result (mismatches, known defect), and for
every output file of the first repeat but ``*_meta.json`` either "equal" or the
dotted JSON paths that differ with the largest absolute difference of their
numbers, or with the side that holds a key the other lacks.  Each workload runs
at every given seed.  A closing summary gives, per workload and side, the failed
and attempted job runs (a run fails when its gate reports a mismatch, as in
bench/run.py), the failures by known-defect name, the failures that match no
known defect, and the wall seconds of all its runs; then, per workload, each
side's median wall seconds of one pass over its jobs (one repeat at one seed)
and in how many of those pairs of passes the change took less time; then, per
workload, each side's median job wall seconds over all its job runs (what
bench/run.py reports as ``job_p50_s``) and in how many of its jobs (one job at one
seed) the change's median wall was lower; then, per workload, each side's largest
job peak RSS and in how many of its jobs the change's peak RSS was lower.  Unlike
bench/run.py's ``peak_rss_mb``, a maximum over a number of runs that grows with
speed, this compares the same jobs on both sides.  After the jobs of each
workload and seed, each tree runs five bare ``python3 -c "import mafoliate.cli"``
processes per repeat (what bench/run.py's ``setup_s`` takes the median of), in
pairs whose first tree alternates; the summary's last timing line gives each
side's median import wall seconds over all of them and in how many pairs the
change was faster.

Exit status: 1 when any exit code, stderr or gate result differs, between the
trees or between the repeats, else 0.
Differing output bytes alone are reported, not failed: a change may move values
within their tolerances.
"""

from __future__ import annotations

import argparse
import json
from collections import Counter
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IMPORT_RUNS = 5  # bare imports per tree and repeat, as many as bench/run.py's setup_s


def load_workloads():
    """bench/workloads.py, imported when jobs are to run, writing no __pycache__ in bench/."""
    if str(ROOT / "bench") not in sys.path:
        sys.path.insert(0, str(ROOT / "bench"))
    sys.dont_write_bytecode = True
    import workloads
    return workloads


def run_job(tree: Path, job, out: Path,
            cwd: Path) -> tuple[int, str, dict | None, float, float]:
    """Exit code, stderr, the parsed output (None if the job failed), wall seconds and
    peak RSS in MB."""
    out.mkdir(parents=True)
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        cmd = [sys.executable, "-m", "mafoliate.cli", *job.argv, "--out", str(out)]
        proc = subprocess.Popen(cmd, cwd=cwd, env=_env(tree), stdout=subprocess.DEVNULL,
                                stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode()
    try:
        doc = json.loads((out / job.output).read_text("utf-8")) if proc.returncode == 0 else None
    except (OSError, ValueError):
        doc = None
    return proc.returncode, stderr, doc, wall, usage.ru_maxrss / 1024.0


def time_import(tree: Path, cwd: Path) -> float:
    """Wall seconds of a fresh interpreter that only imports mafoliate.cli from tree."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import mafoliate.cli"], cwd=cwd, env=_env(tree),
                   check=True, capture_output=True)
    return time.perf_counter() - start


def _env(tree: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(tree / "src")}


def gate(job, code: int, doc: dict | None, stderr: str) -> tuple:
    """The benchmark's verdict on one run: (mismatches, known defect)."""
    workloads = load_workloads()
    mismatches = workloads.check(job, code, doc)
    defect = workloads.known_defect(job, mismatches, doc, stderr)
    return [list(map(str, m)) for m in mismatches], defect


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def json_diff(a, b, path: str = "") -> dict[str, float | str]:
    """Dotted path -> |a - b| for each differing number, "only in parent" or "only in
    change" for a key that one side lacks, inf for any other difference."""
    out: dict[str, float | str] = {}
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            sub = f"{path}.{k}" if path else k
            if k in a and k in b:
                out.update(json_diff(a[k], b[k], sub))
            else:
                out[sub] = f"only in {'parent' if k in a else 'change'}"
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            out.update(json_diff(x, y, f"{path}[{i}]"))
    elif a != b:
        out[path] = abs(a - b) if _number(a) and _number(b) else math.inf
    return out


def compare_outputs(left: Path, right: Path) -> list[str]:
    lines = []
    names = sorted({p.name for d in (left, right) for p in d.iterdir()
                    if p.is_file() and not p.name.endswith("_meta.json")})
    for name in names:
        a, b = left / name, right / name
        if not (a.is_file() and b.is_file()):
            lines.append(f"    {name}: only in {'parent' if a.is_file() else 'change'}")
            continue
        if a.read_bytes() == b.read_bytes():
            lines.append(f"    {name}: equal")
            continue
        try:
            diff = json_diff(json.loads(a.read_text("utf-8")), json.loads(b.read_text("utf-8")))
        except ValueError:
            lines.append(f"    {name}: bytes differ (not JSON)")
            continue
        lines.append(f"    {name}: {len(diff)} path(s) differ")
        lines += [f"      {p}: {gap if isinstance(gap, str) else f'max |difference| {gap:.3g}'}"
                  for p, gap in sorted(diff.items())]
    return lines


def tally_line(workload: str, side: str, gates: list[tuple], walls: list[float]) -> str:
    """failed/attempted, failures by known defect and the rest, and the total wall seconds,
    for one side of a workload."""
    failed = [defect for mismatches, defect in gates if mismatches]
    named = Counter(d for d in failed if d is not None)
    parts = [f"{workload} {side}: failed {len(failed)}/{len(gates)}",
             *(f"{name} {count}" for name, count in sorted(named.items())),
             f"outside the known defects {failed.count(None)}", f"wall {sum(walls):.2f} s"]
    return "; ".join(parts)


def pass_line(workload: str, passes: dict[str, list[float]]) -> str:
    """Each side's median pass wall and the pairs of passes the change took less time in."""
    won = sum(b < a for a, b in zip(passes["parent"], passes["change"]))
    return (f"{workload}: median pass wall s {statistics.median(passes['parent']):.2f} / "
            f"{statistics.median(passes['change']):.2f}; change faster in {won}/"
            f"{len(passes['change'])} pairs")


def job_line(workload: str, runs: dict[str, list[float]], jobs: dict[str, list[float]]) -> str:
    """Each side's median wall over all job runs (bench/run.py's job_p50_s) and the jobs whose
    median wall the change lowered."""
    won = sum(b < a for a, b in zip(jobs["parent"], jobs["change"]))
    return (f"{workload}: median job wall s {statistics.median(runs['parent']):.3f} / "
            f"{statistics.median(runs['change']):.3f}; change faster in {won}/"
            f"{len(jobs['change'])} jobs")


def rss_line(workload: str, rss: dict[str, list[float]]) -> str:
    """Each side's largest job peak RSS and the jobs the change used less memory in."""
    won = sum(b < a for a, b in zip(rss["parent"], rss["change"]))
    return (f"{workload}: largest job peak RSS MB {max(rss['parent']):.1f} / "
            f"{max(rss['change']):.1f}; change used less in {won}/{len(rss['change'])} jobs")


def import_line(imports: dict[str, list[float]]) -> str:
    """Each side's median bare-import wall and the pairs of imports the change took less time in."""
    won = sum(b < a for a, b in zip(imports["parent"], imports["change"]))
    return (f"import mafoliate.cli: median wall s {statistics.median(imports['parent']):.3f} / "
            f"{statistics.median(imports['change']):.3f}; change faster in {won}/"
            f"{len(imports['change'])} pairs")


def main(argv: list[str] | None = None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, nargs="+", action="extend",
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, nargs="+", action="extend")
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs of each job per tree, alternating which tree goes first")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "mafoliate" / "cli.py").is_file():
            parser.error(f"no toolkit source under {tree}")

    differs = False
    gates: dict[tuple[str, str], list] = {}  # (workload, side) -> gate results of its runs
    walls: dict[tuple[str, str], list] = {}  # (workload, side) -> wall seconds of its runs
    passes: dict[str, dict[str, list]] = {}  # workload -> side -> wall seconds of each pass
    job_medians: dict[str, dict[str, list]] = {}  # workload -> side -> median wall of each job
    rss: dict[str, dict[str, list]] = {}  # workload -> side -> median peak RSS MB of each job
    imports: dict[str, list] = {side: [] for side in trees}  # wall seconds of each bare import
    for workload in dict.fromkeys(args.workload):
        for seed in dict.fromkeys(args.seed):
            with tempfile.TemporaryDirectory(prefix="compare-trees-") as tmp:
                work = Path(tmp)
                jobs = workloads.build(workload, seed, work / "inputs")
                pass_walls = {side: [0.0] * args.repeats for side in trees}
                print(f"== {workload} seed {seed}")
                for job in jobs:
                    results = {side: [] for side in trees}  # (code, stderr, gate) per repeat
                    job_walls = {side: [] for side in trees}
                    job_rss = {side: [] for side in trees}
                    for r in range(args.repeats):
                        for side in (list(trees) if r % 2 == 0 else list(trees)[::-1]):
                            out = work / (side if r == 0 else f"{side}-{r}") / job.id
                            code, err, doc, wall, mb = run_job(trees[side], job, out, work)
                            results[side].append((code, err, gate(job, code, doc, err)))
                            job_walls[side].append(wall)
                            job_rss[side].append(mb)
                            pass_walls[side][r] += wall
                    for side in trees:
                        gates.setdefault((workload, side), []).extend(
                            g for _, _, g in results[side])
                        walls.setdefault((workload, side), []).extend(job_walls[side])
                    (code_a, err_a, gate_a), (code_b, err_b, gate_b) = (
                        results[side][0] for side in trees)
                    same = all(res == results["parent"][0]
                               for side in trees for res in results[side])
                    differs |= not same
                    wall_a, wall_b = (statistics.median(job_walls[side]) for side in trees)
                    rss_a, rss_b = (statistics.median(job_rss[side]) for side in trees)
                    for side, wall_med, mb in (("parent", wall_a, rss_a),
                                               ("change", wall_b, rss_b)):
                        job_medians.setdefault(workload, {}).setdefault(side, []).append(wall_med)
                        rss.setdefault(workload, {}).setdefault(side, []).append(mb)
                    print(f"{job.id}: {'same' if same else 'DIFFERENT'}")
                    print(f"  exit codes {code_a} / {code_b}; wall s {wall_a:.2f} / {wall_b:.2f}; "
                          f"peak RSS MB {rss_a:.1f} / {rss_b:.1f}; "
                          f"stderr {'equal' if err_a == err_b else 'differs'}")
                    print(f"  gate parent {gate_a}; change {gate_b}")
                    for line in compare_outputs(work / "parent" / job.id,
                                                work / "change" / job.id):
                        print(line)
                for _ in range(args.repeats * IMPORT_RUNS):
                    first = len(imports["parent"]) % 2  # 0: the parent goes first
                    for side in (list(trees) if first == 0 else list(trees)[::-1]):
                        imports[side].append(time_import(trees[side], work))
                for side in trees:
                    passes.setdefault(workload, {}).setdefault(side, []).extend(pass_walls[side])
    print("== summary")
    for (workload, side), results in gates.items():
        print(tally_line(workload, side, results, walls[workload, side]))
    for workload, sides in passes.items():
        print(pass_line(workload, sides))
    for workload, sides in job_medians.items():
        print(job_line(workload, {side: walls[workload, side] for side in trees}, sides))
    for workload, sides in rss.items():
        print(rss_line(workload, sides))
    print(import_line(imports))
    verdict = "differ" if differs else "are equal"
    print(f"exit codes, stderr and gate results {verdict}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
