"""Traced launcher: one mafoliate CLI call with timing wrappers on the toolkit's public functions.

    python3 bench/tracer.py TRACE_JSON JOB_ID -- CLI_ARGS...

Each target below is replaced, in every mafoliate module that imported it
(or on its class, for methods), by a wrapper that times the call.  Targets
marked SPAN record a span (name, start, end, parent, job id); the hot
pointwise and exact-arithmetic targets, called up to millions of times per
job, only add their count and self time in place, so the trace stays small.
Self time is a call's duration minus the time of the traced calls inside it.
Calls on pmap's pool threads are timed on their own thread, so their self
times include waits for the GIL and may add up to more than the wall time.

A target that no longer exists is listed under "missing" and skipped.  The
trace is written to TRACE_JSON when the CLI call returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time

SPAN, HOT = "span", "hot"

# (layer name, module, attribute, kind); several attributes may share a layer
TARGETS = (
    ("calculus.poly_eval", "mafoliate.calculus", "Polynomial.__call__", HOT),
    ("calculus.eval_jet", "mafoliate.calculus", "eval_jet", HOT),
    ("calculus.jet_polynomials", "mafoliate.calculus", "jet_polynomials", HOT),
    ("calculus.exact", "mafoliate.calculus", "Polynomial.__mul__", HOT),
    ("calculus.exact", "mafoliate.calculus", "Polynomial.__add__", HOT),
    ("calculus.exact", "mafoliate.calculus", "Polynomial.derive", HOT),
    ("calculus.parse", "mafoliate.calculus", "parse_polynomial", SPAN),
    ("monge_ampere.ma_residual", "mafoliate.monge_ampere", "ma_residual", HOT),
    ("monge_ampere.complex_gradient", "mafoliate.monge_ampere", "complex_gradient", HOT),
    ("finite_type.bracket_level", "mafoliate.finite_type", "bracket_level", SPAN),
    ("finite_type.point_type", "mafoliate.finite_type", "point_type", SPAN),
    ("finite_type.extend_gradient", "mafoliate.finite_type", "extend_gradient", SPAN),
    ("finite_type.bracket_identities_check", "mafoliate.finite_type",
     "bracket_identities_check", SPAN),
    ("foliation.solve_ivp", "mafoliate.foliation", "solve_ivp", SPAN),
    ("foliation.brentq", "mafoliate.foliation", "brentq", SPAN),
    *((f"foliation.{fn}", "mafoliate.foliation", fn, SPAN) for fn in (
        "trace_leaf", "leaf_diagnostics", "level_transport", "burns_verify",
        "fit_holomorphic_Z", "zero_set_check", "weighted_homogeneity_check",
        "level_set_samples")),
    ("parallel.pmap", "mafoliate._parallel", "pmap", SPAN),
    ("cli.io", "mafoliate.cli", "_write_json", SPAN),
    ("cli.io", "mafoliate.monge_ampere", "write_ma_csv", SPAN),
    ("cli.io", "mafoliate.foliation", "write_leaf_csv", SPAN),
)


class Tracer:
    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans: list[list] = []   # [name, start, end, parent index or None, job id]
        self.layers: dict = {}        # name -> [calls, self seconds]
        self.orphans: list = []       # (start, end) of outermost calls on pool threads
        self.counters: dict = {}
        self.words_seen: set = set()
        self.missing: list[str] = []
        self._local = threading.local()
        self._main = threading.main_thread()

    @property
    def stack(self) -> list:
        """This thread's open calls: [name, span index or None, time of traced children]."""
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def count(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, layer: str, fn, kind: str):
        tracer = self
        observe = _OBSERVERS.get(layer)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            index = None
            if kind == SPAN:
                index = len(tracer.spans)
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                tracer.spans.append([layer, 0.0, 0.0, parent, tracer.job_id])
            frame = [layer, index, 0.0]
            stack.append(frame)
            raised = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][2] += duration
                elif threading.current_thread() is not tracer._main:
                    tracer.orphans.append((t0, t1))
                if tracer.orphans and threading.current_thread() is tracer._main:
                    frame[2] += tracer.take_orphans()
                entry = tracer.layers.setdefault(layer, [0, 0.0])
                entry[0] += 1
                entry[1] += duration - frame[2]
                if index is not None:
                    tracer.spans[index][1:3] = [t0, t1]
                if observe is not None:
                    observe(tracer, fn, args, kwargs, None if raised else result, raised)
            return result

        return wrapper

    def take_orphans(self) -> float:
        """Length of the union of the pool threads' outermost calls, which then start afresh.

        pmap's worker threads run traced calls with empty stacks of their own.
        They take turns on the GIL, so their durations overlap and include
        waits; the part of the fanning-out call they cover is the union of
        their intervals, not the sum.
        """
        intervals = sorted(self.orphans)
        self.orphans.clear()
        covered, end = 0.0, float("-inf")
        for a, b in intervals:
            if b > end:
                covered += b - max(a, end)
                end = b
        return covered

    def install(self) -> None:
        mods = [m for name, m in sys.modules.items()
                if name == "mafoliate" or name.startswith("mafoliate.")]
        for layer, module, attr, kind in TARGETS:
            try:
                owner = importlib.import_module(module)
                *cls_path, name = attr.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self.wrap(layer, original, kind)
            self.layers.setdefault(layer, [0, 0.0])
            for counter in _COUNTERS.get(layer, ()):
                self.counters.setdefault(counter, 0)
            if cls_path:
                for key, value in list(vars(owner).items()):
                    if value is original:  # also catches aliases such as __rmul__
                        setattr(owner, key, wrapper)
            else:
                for m in mods:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)

    def document(self, import_s: float, exit_code: int, originals: dict) -> dict:
        jp = originals.get("jet_polynomials")
        if jp is not None and hasattr(jp, "cache_info"):
            self.counters["jet_polynomials.misses"] = jp.cache_info().misses
        return {"job": self.job_id, "import_s": import_s, "exit_code": exit_code,
                "layers": self.layers, "counters": self.counters, "missing": self.missing,
                "spans": self.spans}


def _observe_solve_ivp(tracer, fn, args, kwargs, result, raised):
    if result is not None:
        tracer.count("solve_ivp.nfev", int(result.nfev))


def _observe_extend(tracer, fn, args, kwargs, result, raised):
    if raised:
        tracer.count("extend_gradient.errors", 1)
    if any(f[0] == "foliation.solve_ivp" for f in tracer.stack):
        tracer.count("extend_gradient.under_solve_ivp", 1)


def _observe_bracket_level(tracer, fn, args, kwargs, result, raised):
    if result is None:
        return
    key = (id(args[0]), args[1] if len(args) > 1 else kwargs.get("length"))
    if key not in tracer.words_seen:  # built once, then served from the cache
        tracer.words_seen.add(key)
        tracer.count("bracket_level.words", len(result))


def _observe_point_type(tracer, fn, args, kwargs, result, raised):
    if result is None:
        return
    m = result.type_m
    if not isinstance(m, int):  # "exceeds_cap": the search went up to the cap
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        m = bound.arguments["m_max"]
    tracer.counters["point_type.max_m"] = max(tracer.counters.get("point_type.max_m", 0), m)


def _observe_pmap(tracer, fn, args, kwargs, result, raised):
    if result is not None:
        tracer.count("pmap.items", len(result))


# counters each observer keeps, reported as 0 when the target exists but is never called
_COUNTERS = {
    "foliation.solve_ivp": ("solve_ivp.nfev",),
    "finite_type.extend_gradient": ("extend_gradient.errors", "extend_gradient.under_solve_ivp"),
    "finite_type.bracket_level": ("bracket_level.words",),
    "finite_type.point_type": ("point_type.max_m",),
    "parallel.pmap": ("pmap.items",),
}

_OBSERVERS = {
    "foliation.solve_ivp": _observe_solve_ivp,
    "finite_type.extend_gradient": _observe_extend,
    "finite_type.bracket_level": _observe_bracket_level,
    "finite_type.point_type": _observe_point_type,
    "parallel.pmap": _observe_pmap,
}


def main() -> int:
    out_path, job_id, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py TRACE_JSON JOB_ID -- CLI_ARGS...")
    t0 = time.perf_counter()
    import mafoliate.cli
    import_s = time.perf_counter() - t0

    import mafoliate.calculus
    originals = {"jet_polynomials": getattr(mafoliate.calculus, "jet_polynomials", None)}
    tracer = Tracer(job_id)
    tracer.install()
    main_fn = tracer.wrap("cli.main", mafoliate.cli.main, SPAN)
    code = main_fn(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.document(import_s, code, originals), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
