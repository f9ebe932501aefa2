"""Exact Wirtinger calculus for polynomials in (z1, z2, conj z1, conj z2) on C^2.

Conventions used throughout the toolkit:

* A monomial key ``(a1, a2, b1, b2)`` denotes ``z1^a1 z2^a2 zbar1^b1 zbar2^b2``
  and has bidegree ``(a1 + a2, b1 + b2)`` (holomorphic degree, antiholomorphic
  degree).
* Wirtinger derivatives treat ``z`` and ``zbar`` as independent variables; the
  four directions are named ``"z1"``, ``"z2"``, ``"zbar1"``, ``"zbar2"``.
* A polynomial is real-valued exactly when each key ``(a, b)`` carries the
  conjugate of the coefficient of the swapped key ``(b, a)``.  Such validated
  polynomials are :class:`HermitianPolynomial`; they model the exhaustion rho
  and everything built from it.
* Coefficients are Gaussian rationals (a pair of ``fractions.Fraction``), so
  all symbolic stages (derivatives, products, bracket towers) are exact.
  Pointwise evaluation happens in complex double precision.

The pointwise second-order data of rho is collected in :class:`WirtingerJet`:
value, holomorphic gradient, Levi matrix ``rho_{mu nubar}``, its determinant
``D`` and the bordered scalar

    B = rho_{1 1bar} rho_2 rho_2bar + rho_{2 2bar} rho_1 rho_1bar
        - rho_{1 2bar} rho_1bar rho_2 - rho_{2 1bar} rho_1 rho_2bar,

which is the pairing of the Levi form against the tangential directions;
``rho * D - B`` is the pointwise Monge-Ampere residual used downstream.

Interchange format (JSON-compatible)::

    {"terms": [{"a": [a1, a2], "b": [b1, b2], "re": x, "im": y}, ...]}

``re``/``im`` are numbers, or strings like ``"1/3"`` for rationals that have
no exact float representation.  Canonical serialization sorts terms by graded
lexicographic key and round-trips rational coefficients bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import NegativeExponent, NonPositiveRho, RealityViolation

VARIABLES = ("z1", "z2", "zbar1", "zbar2")
_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}

REALITY_TOL = 1e-12  # relative, applied when validating user-supplied coefficients


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"coefficient {x!r} is not finite")
        return Fraction(x)  # exact binary expansion
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @classmethod
    def from_value(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, complex):
            return cls(Fraction(value.real), Fraction(value.imag))
        if isinstance(value, tuple) and len(value) == 2:
            return cls(_as_fraction(value[0]), _as_fraction(value[1]))
        return cls(_as_fraction(value), Fraction(0))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def scaled(self, f: Fraction) -> "GaussianRational":
        return GaussianRational(self.re * f, self.im * f)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))


_QC_ZERO = GaussianRational(Fraction(0), Fraction(0))
_QC_ONE = GaussianRational(Fraction(1), Fraction(0))


class MonomialKey(NamedTuple):
    """Exponent quadruple of z1, z2, zbar1, zbar2."""

    a1: int
    a2: int
    b1: int
    b2: int

    @property
    def bidegree(self) -> tuple[int, int]:
        return (self.a1 + self.a2, self.b1 + self.b2)

    @property
    def total_degree(self) -> int:
        return self.a1 + self.a2 + self.b1 + self.b2

    def conjugate(self) -> "MonomialKey":
        return MonomialKey(self.b1, self.b2, self.a1, self.a2)

    def sort_key(self) -> tuple[int, int, int, int, int]:
        # graded lexicographic: total degree first, then the raw quadruple
        return (self.total_degree, self.a1, self.a2, self.b1, self.b2)


def _validate_key(key) -> MonomialKey:
    if isinstance(key, MonomialKey):
        k = key
    else:
        try:
            k = MonomialKey(*(int(e) for e in key))
        except (TypeError, ValueError) as exc:
            raise NegativeExponent(f"malformed monomial key {key!r}") from exc
        if tuple(k) != tuple(key):
            raise NegativeExponent(f"non-integer exponent in key {key!r}")
    if min(k) < 0:
        raise NegativeExponent(f"negative exponent in key {tuple(k)}")
    return k


class Polynomial:
    """Polynomial in (z1, z2, zbar1, zbar2) with exact Gaussian-rational coefficients.

    Instances are immutable; every operation returns a new object.
    """

    __slots__ = ("_terms", "_hash", "_compiled")

    def __init__(self, terms: Mapping[MonomialKey, GaussianRational] | None = None):
        cleaned: dict[MonomialKey, GaussianRational] = {}
        if terms:
            for key, coeff in terms.items():
                k = _validate_key(key)
                c = GaussianRational.from_value(coeff)
                if not c.is_zero():
                    cleaned[k] = c
        self._terms = cleaned
        self._hash = None
        self._compiled = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, value) -> "Polynomial":
        return cls({MonomialKey(0, 0, 0, 0): GaussianRational.from_value(value)})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        exps = [0, 0, 0, 0]
        exps[_VAR_INDEX[name]] = 1
        return cls({MonomialKey(*exps): _QC_ONE})

    # -- inspection ------------------------------------------------------------

    @property
    def terms(self) -> Mapping[MonomialKey, GaussianRational]:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def total_degrees(self) -> set[int]:
        return {k.total_degree for k in self._terms}

    def max_exponents(self) -> tuple[int, int, int, int]:
        if not self._terms:
            return (0, 0, 0, 0)
        return tuple(max(k[i] for k in self._terms) for i in range(4))  # type: ignore[return-value]

    def canonical_terms(self) -> list[tuple[MonomialKey, GaussianRational]]:
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __repr__(self) -> str:
        if self.is_zero():
            return "Polynomial(0)"
        bits = []
        for key, coeff in self.canonical_terms()[:6]:
            bits.append(f"{coeff.to_complex():.4g}*{tuple(key)}")
        more = "" if len(self._terms) <= 6 else f" +{len(self._terms) - 6} terms"
        return f"Polynomial({' + '.join(bits)}{more})"

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            acc = out.get(key, _QC_ZERO) + coeff
            if acc.is_zero():
                out.pop(key, None)
            else:
                out[key] = acc
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial({k: -c for k, c in self._terms.items()})

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return self.scaled(other)
        out: dict[MonomialKey, GaussianRational] = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                key = MonomialKey(k1.a1 + k2.a1, k1.a2 + k2.a2, k1.b1 + k2.b1, k1.b2 + k2.b2)
                acc = out.get(key, _QC_ZERO) + c1 * c2
                if acc.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = acc
        return Polynomial(out)

    __rmul__ = __mul__

    def scaled(self, value) -> "Polynomial":
        c = GaussianRational.from_value(value)
        return Polynomial({k: t * c for k, t in self._terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def conjugate(self) -> "Polynomial":
        return Polynomial({k.conjugate(): c.conjugate() for k, c in self._terms.items()})

    def derive(self, var: str) -> "Polynomial":
        """Exact Wirtinger derivative with respect to one of the four variables."""
        idx = _VAR_INDEX[var]
        out: dict[MonomialKey, GaussianRational] = {}
        for key, coeff in self._terms.items():
            e = key[idx]
            if e == 0:
                continue
            exps = list(key)
            exps[idx] = e - 1
            out[MonomialKey(*exps)] = coeff.scaled(Fraction(e))
        return Polynomial(out)

    # -- evaluation ------------------------------------------------------------

    def _compile(self):
        if self._compiled is None:
            rows = [
                (k.a1, k.a2, k.b1, k.b2, c.to_complex())
                for k, c in self.canonical_terms()
            ]
            self._compiled = (rows, self.max_exponents())
        return self._compiled

    def __call__(self, z1: complex, z2: complex) -> complex:
        rows, (m1, m2, m3, m4) = self._compile()
        z1 = complex(z1)
        z2 = complex(z2)
        zb1 = z1.conjugate()
        zb2 = z2.conjugate()
        p1 = _powers(z1, m1)
        p2 = _powers(z2, m2)
        p3 = _powers(zb1, m3)
        p4 = _powers(zb2, m4)
        total = 0j
        for a1, a2, b1, b2, c in rows:
            total += c * p1[a1] * p2[a2] * p3[b1] * p4[b2]
        return total


def _powers(z: complex, n: int) -> list[complex]:
    out = [1.0 + 0j]
    for _ in range(n):
        out.append(out[-1] * z)
    return out


class HermitianPolynomial(Polynomial):
    """Real-valued polynomial: coefficients conjugate-paired under (a, b) -> (b, a).

    Construct through :meth:`from_terms` (validating) or by arithmetic on
    existing instances; the invariant is preserved exactly by +, * and scaling
    with real rationals.
    """

    @classmethod
    def from_terms(cls, terms: Mapping, tol: float = REALITY_TOL) -> "HermitianPolynomial":
        raw: dict[MonomialKey, GaussianRational] = {}
        for key, coeff in terms.items():
            k = _validate_key(key)
            raw[k] = raw.get(k, _QC_ZERO) + GaussianRational.from_value(coeff)

        merged: dict[MonomialKey, GaussianRational] = {}
        for key in sorted(raw, key=lambda k: k.sort_key()):
            if key in merged:
                continue
            partner = key.conjugate()
            c = raw[key]
            if partner == key:
                scale = max(1.0, abs(c.to_complex()))
                if abs(float(c.im)) > tol * scale:
                    raise RealityViolation(
                        f"self-conjugate key {tuple(key)} has non-real coefficient {c.to_complex()}"
                    )
                merged[key] = GaussianRational(c.re, Fraction(0))
                continue
            cp = raw.get(partner, _QC_ZERO)
            gap = abs(c.to_complex() - cp.to_complex().conjugate())
            scale = max(1.0, abs(c.to_complex()), abs(cp.to_complex()))
            if gap > tol * scale:
                raise RealityViolation(
                    f"key {tuple(key)} (coefficient {c.to_complex()}) is not conjugate-paired "
                    f"with {tuple(partner)} (coefficient {cp.to_complex()})"
                )
            half = (c + cp.conjugate()).scaled(Fraction(1, 2))
            merged[key] = half
            merged[partner] = half.conjugate()
        return cls(merged)

    def value(self, z1: complex, z2: complex) -> float:
        """Evaluate; the imaginary part cancels by conjugate pairing."""
        return self(z1, z2).real

    def __add__(self, other: Polynomial) -> Polynomial:
        out = Polynomial.__add__(self, other)
        if isinstance(other, HermitianPolynomial):
            return _wrap_hermitian(out)
        return out

    def __sub__(self, other: Polynomial) -> Polynomial:
        out = Polynomial.__sub__(self, other)
        if isinstance(other, HermitianPolynomial):
            return _wrap_hermitian(out)
        return out

    def __mul__(self, other) -> Polynomial:
        out = Polynomial.__mul__(self, other)
        if isinstance(other, HermitianPolynomial):
            return _wrap_hermitian(out)
        if not isinstance(other, Polynomial):
            c = GaussianRational.from_value(other)
            if c.im == 0:
                return _wrap_hermitian(out)
        return out

    __rmul__ = __mul__

    def conjugate(self) -> "HermitianPolynomial":
        return self


def _wrap_hermitian(p: Polynomial) -> HermitianPolynomial:
    # trusted internal path: the pairing invariant holds exactly by construction
    out = HermitianPolynomial()
    out._terms = p._terms
    return out


def wirtinger_derive(p: Polynomial, var: str) -> Polynomial:
    """Exact term-by-term Wirtinger derivative (result is generally not real-valued)."""
    return p.derive(var)


# ---------------------------------------------------------------------------
# points and jets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Point:
    """A point of C^2."""

    z1: complex
    z2: complex

    def __post_init__(self):
        for v in (self.z1, self.z2):
            v = complex(v)
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError(f"non-finite point component {v}")

    @classmethod
    def from_reals(cls, x1: float, y1: float, x2: float, y2: float) -> "Point":
        return cls(complex(x1, y1), complex(x2, y2))

    def as_pair(self) -> tuple[complex, complex]:
        return (complex(self.z1), complex(self.z2))

    def norm(self) -> float:
        return math.hypot(abs(self.z1), abs(self.z2))


@dataclass(frozen=True, eq=False)
class WirtingerJet:
    """Second-order Wirtinger data of rho at a point.

    ``levi[m][n]`` is rho_{(m+1) (n+1)bar}; ``D`` its determinant; ``B`` the
    bordered scalar defined in the module docstring.  ``d1``, ``d2`` are the
    holomorphic first derivatives (their conjugates are the antiholomorphic
    ones, by reality of rho).
    """

    point: Point
    rho: float
    d1: complex
    d2: complex
    levi: tuple[tuple[complex, complex], tuple[complex, complex]]
    D: float
    B: float

    def levi_matrix(self) -> np.ndarray:
        return np.array(self.levi, dtype=complex)

    def gradient_scale(self) -> float:
        return 1.0 + max(abs(self.d1), abs(self.d2))


class _JetPolys(NamedTuple):
    d1: Polynomial
    d2: Polynomial
    db1: Polynomial
    db2: Polynomial
    h11: Polynomial
    h12: Polynomial
    h21: Polynomial
    h22: Polynomial
    det: Polynomial
    n1: Polynomial  # D * Z^1 as an exact polynomial (cofactor combination)
    n2: Polynomial  # D * Z^2


@lru_cache(maxsize=256)
def jet_polynomials(p: Polynomial) -> _JetPolys:
    """All derivative polynomials of p needed for jets and the gradient cofactors."""
    d1 = p.derive("z1")
    d2 = p.derive("z2")
    db1 = p.derive("zbar1")
    db2 = p.derive("zbar2")
    h11 = d1.derive("zbar1")
    h12 = d1.derive("zbar2")
    h21 = d2.derive("zbar1")
    h22 = d2.derive("zbar2")
    det = h11 * h22 - h12 * h21
    n1 = h22 * db1 - h21 * db2
    n2 = h11 * db2 - h12 * db1
    return _JetPolys(d1, d2, db1, db2, h11, h12, h21, h22, det, n1, n2)


def eval_jet(p: HermitianPolynomial, q: Point) -> WirtingerJet:
    """Evaluate value, gradient, Levi matrix, D and B of p at q."""
    jp = jet_polynomials(p)
    z1, z2 = q.as_pair()
    rho = p(z1, z2).real
    d1 = jp.d1(z1, z2)
    d2 = jp.d2(z1, z2)
    h11 = jp.h11(z1, z2)
    h12 = jp.h12(z1, z2)
    h21 = jp.h21(z1, z2)
    h22 = jp.h22(z1, z2)
    D = (h11 * h22 - h12 * h21).real
    B = (h11 * d2 * d2.conjugate() + h22 * d1 * d1.conjugate()
         - h12 * d1.conjugate() * d2 - h21 * d1 * d2.conjugate()).real
    return WirtingerJet(q, rho, d1, d2, ((h11, h12), (h21, h22)), D, B)


# ---------------------------------------------------------------------------
# bidegree decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BidegreeProfile:
    """Partition of a polynomial by bidegree (l, m).

    Components of mixed bidegree (l != m) are not individually real-valued;
    the component at (l, m) is the formal conjugate of the one at (m, l), and
    the sum of all components reproduces the input exactly.
    """

    components: dict[tuple[int, int], Polynomial]
    total_degree: int | None  # 2k for homogeneous input, else None

    def reassemble(self) -> Polynomial:
        out = Polynomial.zero()
        for comp in self.components.values():
            out = out + comp
        return out


def bidegree_decompose(p: Polynomial) -> BidegreeProfile:
    buckets: dict[tuple[int, int], dict[MonomialKey, GaussianRational]] = {}
    for key, coeff in p.terms.items():
        buckets.setdefault(key.bidegree, {})[key] = coeff
    components = {bd: Polynomial(terms) for bd, terms in sorted(buckets.items())}
    degrees = p.total_degrees()
    total = degrees.pop() if len(degrees) == 1 else None
    return BidegreeProfile(components, total)


# ---------------------------------------------------------------------------
# plurisubharmonicity scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinEigenReport:
    """Minimum Levi eigenvalue over a sample region, with the attaining point."""

    target: str
    min_eigenvalue: float
    point: Point


def psh_min_eigen(p: HermitianPolynomial, region: Iterable[Point], target: str = "rho") -> MinEigenReport:
    """Minimum eigenvalue of the complex Hessian of rho or of u = log rho over `region`."""
    if target not in ("rho", "log_rho"):
        raise ValueError(f"target must be 'rho' or 'log_rho', got {target!r}")
    best: float | None = None
    best_point: Point | None = None
    for q in region:
        jet = eval_jet(p, q)
        h = jet.levi_matrix()
        if target == "log_rho":
            if jet.rho <= 0.0:
                raise NonPositiveRho(f"rho({q.as_pair()}) = {jet.rho} <= 0")
            grad = np.array([jet.d1, jet.d2])
            h = h / jet.rho - np.outer(grad, grad.conjugate()) / jet.rho**2
        lo = float(np.linalg.eigvalsh(h)[0])
        if best is None or lo < best:
            best, best_point = lo, q
    if best is None:
        raise ValueError("empty sample region")
    return MinEigenReport(target, best, best_point)


# ---------------------------------------------------------------------------
# interchange format
# ---------------------------------------------------------------------------


def _fraction_to_json(f: Fraction):
    x = float(f)
    if Fraction(x) == f:
        return x
    return f"{f.numerator}/{f.denominator}"


def serialize_polynomial(p: Polynomial) -> dict:
    """Canonical term list, sorted by graded lexicographic key."""
    terms = []
    for key, coeff in p.canonical_terms():
        terms.append({
            "a": [key.a1, key.a2],
            "b": [key.b1, key.b2],
            "re": _fraction_to_json(coeff.re),
            "im": _fraction_to_json(coeff.im),
        })
    return {"terms": terms}


def canonical_json(p: Polynomial) -> str:
    return json.dumps(serialize_polynomial(p), sort_keys=True, separators=(",", ":"))


def polynomial_hash(p: Polynomial) -> str:
    return hashlib.sha256(canonical_json(p).encode("ascii")).hexdigest()


def parse_polynomial(source) -> HermitianPolynomial:
    """Parse the interchange format (JSON text, parsed dict, or term list).

    Raises RealityViolation if any key lacks its conjugate partner within the
    coefficient tolerance, NegativeExponent on malformed keys or term entries,
    ValueError on a non-finite coefficient.
    """
    if isinstance(source, (str, bytes)):
        source = json.loads(source)
    if isinstance(source, Mapping) and "terms" in source:
        source = source["terms"]
    if not isinstance(source, Sequence):
        raise TypeError("polynomial source must be a JSON object with 'terms' or a term list")
    terms: dict[MonomialKey, GaussianRational] = {}
    for entry in source:
        try:
            a = entry["a"]
            b = entry["b"]
            if len(a) != 2 or len(b) != 2:
                raise ValueError("an exponent list must have two entries")
        except (TypeError, KeyError, ValueError) as exc:
            raise NegativeExponent(f"malformed term entry {entry!r}") from exc
        key = _validate_key((a[0], a[1], b[0], b[1]))
        re = _as_fraction(entry.get("re", 0))
        im = _as_fraction(entry.get("im", 0))
        coeff = GaussianRational(re, im)
        prev = terms.get(key, _QC_ZERO)
        terms[key] = prev + coeff
    return HermitianPolynomial.from_terms(terms)


# ---------------------------------------------------------------------------
# coordinate changes
# ---------------------------------------------------------------------------


def substitute_linear(p: Polynomial, matrix) -> Polynomial:
    """Exact composition p(M w) for a constant 2x2 complex matrix M.

    Matrix entries are converted to exact Gaussian rationals (floats embed
    exactly), so real-valued inputs stay exactly conjugate-paired.
    """
    m = [[GaussianRational.from_value(complex(matrix[i][j])) for j in range(2)] for i in range(2)]
    lin = {
        "z1": Polynomial({MonomialKey(1, 0, 0, 0): m[0][0], MonomialKey(0, 1, 0, 0): m[0][1]}),
        "z2": Polynomial({MonomialKey(1, 0, 0, 0): m[1][0], MonomialKey(0, 1, 0, 0): m[1][1]}),
    }
    lin["zbar1"] = lin["z1"].conjugate()
    lin["zbar2"] = lin["z2"].conjugate()
    out = Polynomial.zero()
    for key, coeff in p.terms.items():
        term = Polynomial.constant(coeff)
        for var, e in zip(VARIABLES, key):
            if e:
                term = term * lin[var] ** e
        out = out + term
    if isinstance(p, HermitianPolynomial):
        return _wrap_hermitian(out)
    return out
