"""Map over the points of a sample scan.

The map is serial.  A thread pool here measured slower than serial, because
the per-point work is pure Python and holds the interpreter lock.  The scans
still go through this one function, so that ``bench/tracer.py`` times them as
the layer ``parallel.pmap``.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def pmap(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Apply fn to each item, in order."""
    return [fn(x) for x in items]
