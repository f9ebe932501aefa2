"""numpy, imported on its first attribute access.

Every module takes ``np`` from here, so a command that never touches an array
(``type-at``, ``gradient``, ``trace-leaf``, ``transport``, ``--help``) does not pay
for numpy's import; ``check-ma``, ``burns``, ``weights`` and ``report`` do.  None of
them loads ``numpy.random``: every sampler draws from ``mafoliate.pcg64``, which takes
``np`` from here only for its array draw, so ``secrets``, ``hmac`` and OpenSSL, which
``numpy.random`` imports, stay out of every command.
numpy stays a hard dependency: without it, importing this module fails.  The
recipe is the one for ``importlib.util.LazyLoader`` in the Python documentation.

This module leaves OpenBLAS's thread count alone, so importing the package never
changes the BLAS of a host process.  ``cli.main`` sets ``OPENBLAS_NUM_THREADS=1``
unless the caller set it: no operand here is large enough for a second BLAS thread,
and starting one takes about half of numpy's import.
"""

from __future__ import annotations

import importlib.util
import sys


def _lazy(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")
