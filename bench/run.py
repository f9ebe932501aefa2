"""Benchmark entry point: run one workload's mafoliate CLI jobs and print its metrics.

    python3 bench/run.py --workload report-mix --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the toolkit is imported from ./src.
Each job is one fresh ``python3 -m mafoliate.cli`` process, and jobs run one
after another (a closed loop with one client), because a user pays the
import, the cold caches and the lazy set-up on every call.

--trace 0 measures end-to-end metrics: the job list is run in passes for
about --seconds seconds, and each metric is a median over passes or jobs.
--trace 1 runs one untraced pass and one traced pass (bench/tracer.py wraps
the toolkit's public functions in each job process) and prints per-layer
metrics plus the tracing overhead, traced minus untraced wall time.
End-to-end numbers never come from a traced pass.

Each workload ends its output with one JSON line with the keys correct,
attempted, failed and metrics; the lines before it are the readable summary.
--workload all runs the three workloads one after another.
Per-job rows and the spans of traced runs are written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

ROOT = BENCH.parent
DEADLINE_S = 150.0  # every run ends well inside the 180 s a run may take
SETUP_REPEATS = 5
PASS_MARGIN = 1.2  # start another pass only if one 20 % slower would still fit

# the metric names and units, as BENCHMARK.json declares them
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
END_TO_END = tuple((m["name"], m["unit"]) for m in _SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in _SPEC["per_layer"])


@dataclass
class JobRun:
    job: workloads.Job
    pass_no: int
    traced: bool
    wall_s: float
    maxrss_mb: float
    exit_code: int
    bytes_out: int
    mismatches: list
    defect: str | None
    stderr_tail: str

    @property
    def failed(self) -> bool:
        return bool(self.mismatches)

    def row(self) -> dict:
        return {"job": self.job.id, "pass": self.pass_no, "traced": self.traced,
                "argv": self.job.argv, "wall_s": self.wall_s, "maxrss_mb": self.maxrss_mb,
                "exit_code": self.exit_code, "bytes_out": self.bytes_out,
                "mismatches": [[str(x) for x in m] for m in self.mismatches],
                "known_defect": self.defect, "stderr_tail": self.stderr_tail}


class Runner:
    """Spawns job processes one at a time and keeps the run inside its deadline."""

    def __init__(self, work: Path, start: float):
        self.work = work
        self.deadline = start + DEADLINE_S
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src if not old else src + os.pathsep + old

    def spawn(self, cmd: list, log_stem: Path) -> tuple[float, float, int]:
        """Run cmd to completion: (wall seconds, max RSS in MB, exit code).

        The child is killed once the run's deadline passes; it is always
        reaped before this returns.
        """
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return 0.0, 0.0, -1
        with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.work)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _read_json(path: Path):
    try:
        return json.loads(path.read_text("utf-8"))
    except (OSError, ValueError):
        return None


def _bytes_out(out: Path) -> int:
    # *_meta.json holds a wall-clock stamp, so its length is not a property of the job
    return sum(p.stat().st_size for p in out.iterdir()
               if p.is_file() and not p.name.endswith("_meta.json"))


def run_pass(runner: Runner, jobs: list, pass_no: int, traced: bool) -> list[JobRun]:
    runs = []
    for job in jobs:
        out = runner.work / f"out-{pass_no}{'t' if traced else ''}" / job.id
        out.mkdir(parents=True)
        logs = out.parent / f"{job.id}"
        argv = [*job.argv, "--out", str(out)]
        if traced:
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(out.parent / f"{job.id}.trace.json"),
                   job.id, "--", *argv]
        else:
            cmd = [sys.executable, "-m", "mafoliate.cli", *argv]
        wall, rss, code = runner.spawn(cmd, logs)
        stderr = Path(f"{logs}.err").read_text("utf-8", "replace") if code != -1 else ""
        doc = _read_json(out / job.output) if code == 0 else None
        mismatches = (workloads.check(job, code, doc) if code != -1
                      else [("exit_code", 0, "not run: deadline")])
        defect = workloads.known_defect(job, mismatches, doc, stderr)
        runs.append(JobRun(job, pass_no, traced, wall, rss, code, _bytes_out(out),
                           mismatches, defect, stderr[-400:]))
    return runs


def measure_setup(runner: Runner) -> list[float]:
    """Wall times of fresh interpreters that only import mafoliate.cli."""
    cmd = [sys.executable, "-c", "import mafoliate.cli"]
    times = []
    for i in range(SETUP_REPEATS):
        wall, _, code = runner.spawn(cmd, runner.work / f"setup-{i}")
        if code != 0:
            raise RuntimeError(f"import mafoliate.cli failed with exit code {code}")
        times.append(wall)
    return times


def _pass_wall(runs: list[JobRun]) -> float:
    return sum(r.wall_s for r in runs)


def trace_metrics(runs: list[JobRun], untraced_wall: float, work: Path) -> tuple[dict, list]:
    """Per-layer metrics summed over one traced pass, and the names no job reported."""
    calls: dict = {}
    self_s: dict = {}
    counters: dict = {}
    imports = []
    for r in runs:
        doc = _read_json(work / f"out-{r.pass_no}t" / f"{r.job.id}.trace.json")
        if doc is None:
            continue
        imports.append(doc["import_s"])
        for name, (n, s) in doc["layers"].items():
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + s
        for name, v in doc["counters"].items():
            counters[name] = counters.get(name, 0) + v if name != "point_type.max_m" \
                else max(counters.get(name, 0), v)
    values: dict = {}
    for layer in calls:
        values[f"{layer}.calls"] = calls[layer]
        values[f"{layer}.self_s"] = self_s[layer]
    for name in ("calculus.jet_polynomials.misses", "finite_type.bracket_level.words",
                 "finite_type.point_type.max_m", "finite_type.extend_gradient.errors",
                 "foliation.solve_ivp.nfev", "parallel.pmap.items"):
        short = name.split(".", 1)[1]
        if short in counters:
            values[name] = counters[short]
    nfev = counters.get("solve_ivp.nfev", 0)
    if "solve_ivp.nfev" in counters:
        values["foliation.rhs_extended_share"] = (
            counters.get("extend_gradient.under_solve_ivp", 0) / nfev if nfev else 0.0)
    values["cli.bytes_out"] = sum(r.bytes_out for r in runs)
    if imports:
        values["cli.import_s"] = statistics.median(imports)
    values["trace.overhead_s"] = _pass_wall(runs) - untraced_wall
    metrics = {}
    absent = []
    for name, unit in PER_LAYER:
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
        else:
            absent.append(name)
    return metrics, absent


def result_line(runs: list[JobRun], metrics: dict) -> dict:
    """The final JSON object.  Every failed job counts against `attempted`;
    the run is correct while each failure is one of the known defects."""
    failed = [r for r in runs if r.failed]
    return {"correct": all(r.defect is not None for r in failed), "attempted": len(runs),
            "failed": len(failed), "metrics": metrics}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload, print its summary, and return the result line."""
    start = time.monotonic()
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    detail = ROOT / ".bench_out"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    detail.mkdir(exist_ok=True)
    counts: dict = {}
    absent: list = []
    try:
        runner = Runner(work, start)
        jobs = workloads.build(workload, seed, work / "inputs")
        if trace:
            untraced = run_pass(runner, jobs, 0, traced=False)
            traced = run_pass(runner, jobs, 0, traced=True)
            runs = untraced + traced
            metrics, absent = trace_metrics(traced, _pass_wall(untraced), work)
            for r in traced:
                trace_file = work / "out-0t" / f"{r.job.id}.trace.json"
                if trace_file.is_file():
                    shutil.copy(trace_file, detail / f"{workload}-{seed}-{r.job.id}.trace.json")
        else:
            setup = measure_setup(runner)
            passes: list[list[JobRun]] = []
            measuring = time.monotonic()
            while True:
                passes.append(run_pass(runner, jobs, len(passes), traced=False))
                elapsed = time.monotonic() - measuring
                if elapsed + PASS_MARGIN * _pass_wall(passes[-1]) > seconds:
                    break
            runs = [r for p in passes for r in p]
            walls = [_pass_wall(p) for p in passes]
            values = {
                "wall_s": statistics.median(walls),
                "job_p50_s": statistics.median(r.wall_s for r in runs),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": max(r.maxrss_mb for r in runs),
            }
            counts = {"wall_s": len(walls), "job_p50_s": len(runs),
                      "setup_s": len(setup), "peak_rss_mb": len(runs)}
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = result_line(runs, metrics)
    (detail / f"{workload}-{seed}-trace{int(trace)}-jobs.json").write_text(
        json.dumps([r.row() for r in runs], indent=1) + "\n", "utf-8")

    print(f"workload {workload} seed {seed} trace {int(trace)}: "
          f"{len(jobs)} jobs per pass, {len(runs)} job runs")
    for r in runs:
        if r.failed:
            label = f"known defect {r.defect}" if r.defect else "UNEXPECTED"
            print(f"  failed {r.job.id} ({label}): {r.mismatches}")
    for name in sorted({r.defect for r in runs if r.defect}):
        print(f"  known defect {name}: {workloads.KNOWN_DEFECTS[name]}")
    print(f"  fail_ratio = {result['failed']}/{result['attempted']} jobs attempted = "
          f"{result['failed'] / result['attempted']:.4f}")
    for name, m in metrics.items():
        n = f" (n={counts[name]})" if name in counts else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{n}")
    if absent:
        print(f"  absent (their functions no longer exist): {', '.join(absent)}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running job process is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "mafoliate" / "cli.py").is_file():
        print(f"error: no toolkit source at {ROOT / 'src' / 'mafoliate'}", file=sys.stderr)
        return 2
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in chosen:
        print(json.dumps(run_workload(workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
