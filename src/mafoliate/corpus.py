"""Built-in example exhaustions, shipped as interchange-format data files.

============  =========================================  ==============================
name          polynomial                                 role
============  =========================================  ==============================
``euc``       |z1|^2 + |z2|^2                            strictly pseudoconvex baseline
``fub``       (|z1|^2 + |z2|^2)^2                        homogeneous bidegree (2, 2)
``quartic``   |z1|^4 + |z2|^4                            degenerate along both axes
``weighted``  |z1|^6 + |z2|^4                            weighted-homogeneous, weights (1/3, 1/2)
``bad``       |z1|^4 + |z2|^4 + Re(z1^3 zbar2)/2         homogeneous but not Monge-Ampere
============  =========================================  ==============================

All of them except ``bad`` make ``log rho`` a solution of the degenerate
complex Monge-Ampere equation where rho > 0; ``bad`` is the designed negative
case.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from .calculus import Polynomial, parse_polynomial

CORPUS_NAMES = ("euc", "fub", "quartic", "weighted", "bad")
MA_CORPUS_NAMES = ("euc", "fub", "quartic", "weighted")


def corpus_text(name: str) -> str:
    if name not in CORPUS_NAMES:
        raise KeyError(f"unknown corpus member {name!r}; choose from {CORPUS_NAMES}")
    return resources.files("mafoliate.data").joinpath(f"{name}.json").read_text("utf-8")


@lru_cache(maxsize=None)
def load(name: str) -> Polynomial:
    """The real-valued corpus member, parsed once."""
    return parse_polynomial(corpus_text(name))


def corpus() -> dict[str, Polynomial]:
    return {name: load(name) for name in CORPUS_NAMES}


def ma_corpus() -> dict[str, Polynomial]:
    return {name: load(name) for name in MA_CORPUS_NAMES}
