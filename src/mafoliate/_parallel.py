"""Map over the points of a sample scan.

The map is serial.  A thread pool here measured slower than serial, because
the per-point work is pure Python and holds the interpreter lock.  No scan
calls it any more: the scans evaluate their points as one batch
(``calculus.evaluate_many``).  The module stays only because the benchmark's
tracer self-test names ``mafoliate._parallel.pmap`` as a target that exists;
it goes with the next change to the benchmark.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def pmap(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Apply fn to each item, in order."""
    return [fn(x) for x in items]
