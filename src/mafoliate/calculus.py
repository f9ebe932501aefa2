"""Exact Wirtinger calculus for polynomials in (z1, z2, conj z1, conj z2) on C^2.

Conventions used throughout the toolkit:

* A monomial key ``(a1, a2, b1, b2)`` denotes ``z1^a1 z2^a2 zbar1^b1 zbar2^b2``
  and has bidegree ``(a1 + a2, b1 + b2)`` (holomorphic degree, antiholomorphic
  degree).
* Wirtinger derivatives treat ``z`` and ``zbar`` as independent variables; the
  four directions are named ``"z1"``, ``"z2"``, ``"zbar1"``, ``"zbar2"``.
* A polynomial is real-valued exactly when each key ``(a, b)`` carries the
  conjugate of the coefficient of the swapped key ``(b, a)``, so that it equals
  its ``conjugate()``.  :func:`real_polynomial` builds one from validated
  coefficients; real-valued polynomials model the exhaustion rho.
* Coefficients are Gaussian rationals, held as Gaussian-integer numerators
  over one denominator per polynomial (see :class:`Polynomial`), so all
  symbolic stages (derivatives, products, bracket towers) are exact integer
  arithmetic.  Pointwise evaluation happens in complex double precision, from
  correctly rounded coefficients.  :func:`at_exact`, the one exact evaluator,
  gives the value at a point, taking its doubles as the dyadic rationals they
  are; :func:`on_line` reads with it the Taylor coefficients of the restriction
  to a real line through the point from the derivatives along the line's
  direction, a tower built once per (polynomial, direction) and cached.

The pointwise second-order data of rho is collected in :class:`WirtingerJet`:
value, holomorphic gradient, Levi matrix ``rho_{mu nubar}``, its determinant
``D`` and the bordered scalar

    B = rho_{1 1bar} rho_2 rho_2bar + rho_{2 2bar} rho_1 rho_1bar
        - rho_{1 2bar} rho_1bar rho_2 - rho_{2 1bar} rho_1 rho_2bar,

which is the pairing of the Levi form against the tangential directions;
``rho * D - B`` is the pointwise Monge-Ampere residual used downstream.

Batched evaluation.  :func:`evaluate_many`, the one batched path, evaluates
polynomials at N points at once and returns the doubles that ``Polynomial.__call__``
returns one point at a time: the same compiled rows and coefficients, powers grown
as ``z^k = z^(k-1) * z``, each polynomial's terms added in row order from ``0j``, and
every complex product written out in float64 ufuncs in CPython's formula and operand
order (:func:`cmul`).  numpy's ``complex128`` multiply is not used: it may fuse a
multiply and an add, which rounds once where CPython rounds twice.  Signed zeros,
infs and the places of nans agree; which of two nan operands an operation returns
is not fixed by IEEE 754, so a nan's sign bit may differ, and nothing in the toolkit
reads it.  Only the polynomial values are batched, as they are the costly part.  A
sweep (``monge_ampere.ma_scan``, ``foliation.fit_holomorphic_Z``,
``finite_type.bracket_identities``) hands each point's values to
:meth:`WirtingerJet.from_values`, the one copy of the D and B formulas, and takes Z
and the residual from the scalar ``complex_gradient`` and ``ma_residual``, so a sweep
gives what a loop over :func:`eval_jet` gives.  One-point callers evaluate with
``Polynomial.__call__``, which is faster at N = 1: the flow's right-hand side
(``finite_type.gradient_field``), ``finite_type.gradient``, the jet of
``extend_gradient`` (whose value at a Levi-degenerate point is exact, from
:func:`at_exact` and :func:`on_line`), ``level_set_samples`` (Brent's method), the
probes of ``level_transport``, and a leaf trace (rho along it, Z at its nodes), which
never imports numpy.

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
import numbers
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Iterable, Mapping, NamedTuple, Sequence

from ._numpy import np
from .errors import (
    CoefficientOverflow,
    MalformedPolynomial,
    NegativeExponent,
    RealityViolation,
)

VARIABLES = ("z1", "z2", "zbar1", "zbar2")
_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}

REALITY_TOL = 1e-12  # relative, applied when validating user-supplied coefficients


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, numbers.Integral):  # numpy's ints too
        return Fraction(int(x))
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"coefficient {x!r} is not finite")
        return Fraction(x)  # exact binary expansion
    if isinstance(x, str):
        return Fraction(x)
    raise MalformedPolynomial(f"cannot interpret {x!r} as an exact rational")


class GaussianRational(NamedTuple):
    """Exact complex number with rational parts: a coefficient entering or leaving a Polynomial."""

    re: Fraction
    im: Fraction

    @classmethod
    def from_value(cls, value) -> "GaussianRational":
        """Ints (numpy's too), Fractions, strings such as "1/3" and (re, im) pairs of them keep
        their value; any other number goes through complex(), whose doubles embed exactly."""
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, tuple) and len(value) == 2:
            return cls(_as_fraction(value[0]), _as_fraction(value[1]))
        if isinstance(value, numbers.Number) and not isinstance(value, numbers.Rational):
            value = complex(value)
            return cls(_as_fraction(value.real), _as_fraction(value.imag))
        return cls(_as_fraction(value), Fraction(0))

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))


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


def _grlex(key: tuple) -> tuple:
    return (sum(key), key)  # graded lexicographic: total degree first, then the raw quadruple


def _lowest(num: dict, den: int) -> tuple[dict, int]:
    """Divide den and every numerator by their gcd; the zero polynomial gets den 1."""
    g = math.gcd(den, *chain.from_iterable(num.values())) if den != 1 else 1
    if g == 1:
        return num, den
    return {k: (re // g, im // g) for k, (re, im) in num.items()}, den // g


class Polynomial:
    """Polynomial in (z1, z2, zbar1, zbar2) with exact Gaussian-rational coefficients.

    ``_num`` maps exponent tuples to nonzero Gaussian-integer numerators
    ``(re, im)`` over the positive denominator ``_den``, and
    ``gcd(den, every numerator) == 1`` (the zero polynomial has ``den == 1``).
    That form is unique, so equality and hashing are exact.  Evaluation
    converts each coefficient once as ``re / den``; int true division is
    correctly rounded, so the doubles equal ``float(Fraction(re, den))``.
    Instances are immutable; every operation returns a new object.
    """

    __slots__ = ("_num", "_den", "_hash", "_compiled")

    def __init__(self, terms: Mapping | Iterable | None = None):
        """From a mapping, or (key, value) pairs, whose values GaussianRational.from_value
        takes; values of a repeated key add up."""
        items = terms.items() if hasattr(terms, "items") else terms or ()
        exact = [(tuple(_validate_key(k)), GaussianRational.from_value(c)) for k, c in items]
        den = math.lcm(*(f.denominator for _, c in exact for f in (c.re, c.im)))
        num: dict = {}
        for k, c in exact:
            re, im = num.get(k, (0, 0))
            num[k] = (re + c.re.numerator * den // c.re.denominator,
                      im + c.im.numerator * den // c.im.denominator)
        self._num, self._den = _lowest({k: v for k, v in num.items() if v != (0, 0)}, den)
        self._hash = self._compiled = None

    @classmethod
    def _exact(cls, num: dict, den: int = 1) -> "Polynomial":
        """Trusted constructor: nonzero numerators keyed by plain tuples, already in lowest terms."""
        out = object.__new__(cls)
        out._num, out._den, out._hash, out._compiled = num, den, None, None
        return out

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, value) -> "Polynomial":
        return cls({(0, 0, 0, 0): value})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        exps = [0, 0, 0, 0]
        exps[_VAR_INDEX[name]] = 1
        return cls._exact({tuple(exps): (1, 0)})

    # -- inspection ------------------------------------------------------------

    @property
    def terms(self) -> dict[MonomialKey, GaussianRational]:
        """A fresh {MonomialKey: GaussianRational} view of the coefficients."""
        d = self._den
        return {MonomialKey(*k): GaussianRational(Fraction(re, d), Fraction(im, d))
                for k, (re, im) in self._num.items()}

    def is_zero(self) -> bool:
        return not self._num

    def total_degrees(self) -> set[int]:
        return {sum(k) for k in self._num}

    def max_exponents(self) -> tuple[int, int, int, int]:
        if not self._num:
            return (0, 0, 0, 0)
        return tuple(map(max, zip(*self._num)))  # type: ignore[return-value]

    def canonical_terms(self) -> list[tuple[MonomialKey, GaussianRational]]:
        return sorted(self.terms.items(), key=lambda kv: _grlex(kv[0]))

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._den, frozenset(self._num.items())))
        return self._hash

    def __repr__(self) -> str:
        if self.is_zero():
            return "Polynomial(0)"
        bits = []
        for key, coeff in self.canonical_terms()[:6]:
            bits.append(f"{coeff.to_complex():.4g}*{tuple(key)}")
        more = "" if len(self._num) <= 6 else f" +{len(self._num) - 6} terms"
        return f"Polynomial({' + '.join(bits)}{more})"

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        den = math.lcm(self._den, other._den)
        f, g = den // self._den, den // other._den
        out = dict(self._num) if f == 1 else {k: (re * f, im * f) for k, (re, im) in self._num.items()}
        for key, (re, im) in other._num.items():
            old = out.get(key)
            if old is None:
                out[key] = (re * g, im * g)
                continue
            re, im = old[0] + re * g, old[1] + im * g
            if re or im:
                out[key] = (re, im)
            else:
                del out[key]
        return Polynomial._exact(*_lowest(out, den))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return self._exact({k: (-re, -im) for k, (re, im) in self._num.items()}, self._den)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return self.scaled(other)
        out: dict = {}
        get = out.get
        for (a1, a2, b1, b2), (r1, i1) in self._num.items():
            for (c1, c2, e1, e2), (r2, i2) in other._num.items():
                key = (a1 + c1, a2 + c2, b1 + e1, b2 + e2)
                re, im = get(key, (0, 0))
                out[key] = (re + r1 * r2 - i1 * i2, im + r1 * i2 + i1 * r2)
        for key in [k for k, (re, im) in out.items() if not (re or im)]:
            del out[key]
        return Polynomial._exact(*_lowest(out, self._den * other._den))

    __rmul__ = __mul__

    def scaled(self, value) -> "Polynomial":
        return self * Polynomial.constant(value)

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
        return Polynomial._exact({(b1, b2, a1, a2): (re, -im)
                                  for (a1, a2, b1, b2), (re, im) in self._num.items()}, self._den)

    def exact_quotient(self, g: "Polynomial") -> "Polynomial | None":
        """The q with q * g == self, or None when g does not divide self.

        Division by g in graded-lex order, ended by the first leading term that
        LT(g) does not divide: that term would stay in the remainder, and {g} is a
        Groebner basis of its ideal, so the remainder is zero exactly when g divides.
        """
        if not g._num:
            raise ZeroDivisionError("division by the zero polynomial")
        lead = max(g._num, key=_grlex)
        gr, gi = g._num[lead]
        quotient, rest = Polynomial.zero(), self
        while rest._num:
            key = max(rest._num, key=_grlex)
            shift = tuple(a - b for a, b in zip(key, lead))
            if min(shift) < 0:
                return None
            re, im = rest._num[key]  # (re + i im) / rest._den over (gr + i gi) / g._den
            term = Polynomial._exact(*_lowest(
                {shift: ((re * gr + im * gi) * g._den, (im * gr - re * gi) * g._den)},
                (gr * gr + gi * gi) * rest._den))
            quotient = quotient + term
            rest = rest - term * g
        return quotient

    def derive(self, var: str) -> "Polynomial":
        """Exact Wirtinger derivative with respect to one of the four variables."""
        idx = _VAR_INDEX[var]
        out = {}
        for key, (re, im) in self._num.items():
            e = key[idx]
            if e:
                out[key[:idx] + (e - 1,) + key[idx + 1:]] = (re * e, im * e)
        return Polynomial._exact(*_lowest(out, self._den))

    def derive_along(self, c1: "Polynomial", c2: "Polynomial", cbar1: "Polynomial",
                     cbar2: "Polynomial") -> "Polynomial":
        """The field c1 d/dz1 + c2 d/dz2 + cbar1 d/dzbar1 + cbar2 d/dzbar2 applied to self,
        exactly: the sum of c_k times the derivative in VARIABLES[k], over the nonzero c_k."""
        out = Polynomial.zero()
        for c, var in zip((c1, c2, cbar1, cbar2), VARIABLES):
            if not c.is_zero():
                out = out + c * self.derive(var)
        return out

    # -- evaluation ------------------------------------------------------------

    def _compile(self):
        if self._compiled is None:
            d = self._den
            rows = []
            # graded lexicographic, as canonical_terms: __call__ sums the rows in this order
            for k, (re, im) in sorted(self._num.items(), key=lambda kv: _grlex(kv[0])):
                try:
                    rows.append((*k, complex(re / d, im / d)))
                except OverflowError as exc:
                    magnitude = math.log10(max(abs(re), abs(im))) - math.log10(d)
                    raise CoefficientOverflow(
                        f"the coefficient of the monomial z1^{k[0]} z2^{k[1]} zbar1^{k[2]} "
                        f"zbar2^{k[3]} has magnitude about 1e{magnitude:.0f}, beyond the "
                        f"largest double ({sys.float_info.max:.2g})") from exc
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


def real_polynomial(terms: Mapping | Iterable) -> Polynomial:
    """The real-valued polynomial with these coefficients: RealityViolation where a key's
    coefficient and the conjugate of its partner's differ beyond REALITY_TOL, else the
    exact real part (p + conj p) / 2."""
    items = list(terms.items() if hasattr(terms, "items") else terms)
    raw = Polynomial(items)
    d = raw._den
    coeffs = dict.fromkeys((_validate_key(k) for k, _ in items), 0j)  # zero entries are checked too
    coeffs.update({MonomialKey(*k): complex(re / d, im / d) for k, (re, im) in raw._num.items()})
    for key in sorted(coeffs, key=_grlex):
        partner = key.conjugate()
        c = coeffs[key]
        if partner == key:
            if abs(c.imag) > REALITY_TOL * max(1.0, abs(c)):
                raise RealityViolation(
                    f"self-conjugate key {tuple(key)} has non-real coefficient {c}"
                )
            continue
        cp = coeffs.get(partner, 0j)
        gap = abs(c - cp.conjugate())
        scale = max(1.0, abs(c), abs(cp))
        if gap > REALITY_TOL * scale:
            raise RealityViolation(
                f"key {tuple(key)} (coefficient {c}) is not conjugate-paired "
                f"with {tuple(partner)} (coefficient {cp})"
            )
    twice = raw + raw.conjugate()
    return Polynomial._exact(*_lowest(twice._num, 2 * twice._den))


# ---------------------------------------------------------------------------
# points and jets
# ---------------------------------------------------------------------------


class _PointFields(NamedTuple):
    z1: complex
    z2: complex


class Point(_PointFields):
    """A point of C^2."""

    __slots__ = ()

    def __new__(cls, z1: complex, z2: complex):
        for v in (z1, z2):
            v = complex(v)
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError(f"non-finite point component {v}")
        return super().__new__(cls, z1, z2)

    @classmethod
    def from_reals(cls, x1: float, y1: float, x2: float, y2: float) -> "Point":
        return cls(complex(x1, y1), complex(x2, y2))

    def as_pair(self) -> tuple[complex, complex]:
        return (complex(self.z1), complex(self.z2))

    def norm(self) -> float:
        return math.hypot(abs(self.z1), abs(self.z2))


class WirtingerJet(NamedTuple):
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

    @classmethod
    def from_values(cls, q: Point, rho: complex, d1: complex, d2: complex, h11: complex,
                    h12: complex, h21: complex, h22: complex) -> "WirtingerJet":
        """The jet at q from the values there of p and of its derivatives d1, d2, h11, h12,
        h21, h22 (see jet_polynomials)."""
        D = (h11 * h22 - h12 * h21).real
        B = (h11 * d2 * d2.conjugate() + h22 * d1 * d1.conjugate()
             - h12 * d1.conjugate() * d2 - h21 * d1 * d2.conjugate()).real
        return cls(q, rho.real, d1, d2, ((h11, h12), (h21, h22)), D, B)

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


def eval_jet(p: Polynomial, q: Point) -> WirtingerJet:
    """Evaluate value, gradient, Levi matrix, D and B of p at q."""
    jp = jet_polynomials(p)
    z1, z2 = q.as_pair()
    return WirtingerJet.from_values(q, p(z1, z2), jp.d1(z1, z2), jp.d2(z1, z2), jp.h11(z1, z2),
                                    jp.h12(z1, z2), jp.h21(z1, z2), jp.h22(z1, z2))


def on_line(f: Polynomial, q: Sequence[complex], v: Sequence[complex]) -> list[GaussianRational]:
    """The exact coefficients c_0, ..., c_deg(f), in the real parameter t, of f(q + t v),
    with q and v taken exactly (a double is a dyadic rational): c_k = (D^k f)(q) / k!
    for D = v1 d/dz1 + v2 d/dz2 + conj(v1) d/dzbar1 + conj(v2) d/dzbar2, as t is real,
    each value read by at_exact from the cached tower of (f, v)."""
    return [GaussianRational(c.re / math.factorial(k), c.im / math.factorial(k))
            for k, c in enumerate(at_exact(g, q) for g in _line_tower(f, tuple(v)))]


@lru_cache(maxsize=256)
def _line_tower(f: Polynomial, v: tuple) -> tuple[Polynomial, ...]:
    """f, D f, ..., D^deg(f) f for on_line's D, which depends on the direction v, not the point."""
    D = [Polynomial.constant(c) for c in (*v, *(c.conjugate() for c in v))]
    tower = [f]
    for _ in range(max(f.total_degrees(), default=0)):
        tower.append(tower[-1].derive_along(*D))
    return tuple(tower)


def at_exact(f: Polynomial, q: Sequence[complex]) -> GaussianRational:
    """The exact value of f at q, q's doubles taken as the dyadic rationals they are, computed
    in Gaussian integers w_k = s z_k over one power of s."""
    ratios = [x.as_integer_ratio() for z in map(complex, q) for x in (z.real, z.imag)]
    s = math.lcm(*(d for _, d in ratios))
    x1, y1, x2, y2 = (n * (s // d) for n, d in ratios)
    powers = [[(1, 0)] for _ in range(4)]  # of w1, w2, conj w1, conj w2
    for row, (x, y), top in zip(powers, ((x1, y1), (x2, y2), (x1, -y1), (x2, -y2)),
                                f.max_exponents()):
        for _ in range(top):
            a, b = row[-1]
            row.append((a * x - b * y, a * y + b * x))
    top = max(f.total_degrees(), default=0)
    lift = [s ** (top - d) for d in range(top + 1)]  # puts a term of degree d over s^top
    re = im = 0
    for key, (a, b) in f._num.items():
        for row, e in zip(powers, key):
            c, d = row[e]
            a, b = a * c - b * d, a * d + b * c
        re, im = re + a * lift[sum(key)], im + b * lift[sum(key)]
    den = f._den * s ** top
    return GaussianRational(Fraction(re, den), Fraction(im, den))


# ---------------------------------------------------------------------------
# batched evaluation: the scalar path's doubles at many points at once
# ---------------------------------------------------------------------------

_CHUNK = 1 << 13  # rows x points per chunk: 64 KB per float64 temporary
SWEEP_BLOCK = 512  # points per block of a sweep that keeps a record per point


def cmul(ar, ai, br, bi):
    """CPython's complex product (ar + i ai)(br + i bi) on float arrays: (real, imag).

    numpy's own complex multiply may fuse a multiply and an add, rounding once
    where CPython rounds twice; separate float64 ufuncs cannot.  A real factor
    x enters as (x, 0.0), as CPython before 3.14 promotes it.
    """
    return ar * br - ai * bi, ar * bi + ai * br


class _Stack(NamedTuple):
    """The compiled rows of several polynomials, as arrays."""

    exps: np.ndarray      # (4, rows): exponents of z1, z2, zbar1, zbar2
    re: np.ndarray        # (rows, 1): coefficients
    im: np.ndarray
    slot: tuple           # (position in its polynomial, polynomial) of each row
    count: int            # polynomials
    depth: int            # most rows of any one polynomial
    top: int              # highest exponent

    def points_per_chunk(self) -> int:
        # at least 64 points however many rows, so a chunk's numpy call overhead stays small
        return max(64, _CHUNK // max(len(self.re), self.depth * self.count, 4 * (self.top + 1)))


@lru_cache(maxsize=256)
def _stacked(polys: tuple[Polynomial, ...]) -> _Stack:
    rows = [p._compile()[0] for p in polys]
    flat = [row for rs in rows for row in rs]
    exps = np.array([row[:4] for row in flat], dtype=np.intp).reshape(-1, 4).T
    coef = np.array([row[4] for row in flat], dtype=complex)[:, None]
    slot = (np.array([i for rs in rows for i in range(len(rs))], dtype=np.intp),
            np.array([k for k, rs in enumerate(rows) for _ in rs], dtype=np.intp))
    return _Stack(exps, coef.real, coef.imag, slot, len(polys), max(map(len, rows), default=0),
                  int(exps.max(initial=0)))


def _evaluate_chunk(stack: _Stack, z1: np.ndarray, z2: np.ndarray):
    n = len(z1)
    # powers of z1, z2, zbar1, zbar2 as _powers grows them: z^k = z^(k-1) * z
    vr = np.stack([z1.real, z2.real, z1.real, z2.real])
    vi = np.stack([z1.imag, z2.imag, -z1.imag, -z2.imag])
    pr = np.empty((stack.top + 1, 4, n))
    pi = np.empty_like(pr)
    pr[0], pi[0] = 1.0, 0.0
    for k in range(1, stack.top + 1):
        pr[k], pi[k] = cmul(pr[k - 1], pi[k - 1], vr, vi)
    # c * p1[a1] * p2[a2] * p3[b1] * p4[b2], left to right, for every row
    tr, ti = stack.re, stack.im
    for var, e in enumerate(stack.exps):
        tr, ti = cmul(tr, ti, pr[e, var], pi[e, var])
    # each polynomial's rows summed in row order from 0j; the padding adds +0.0,
    # which leaves every partial sum unchanged, since none of them is -0.0
    sr = np.zeros((stack.depth, stack.count, n))
    si = np.zeros_like(sr)
    sr[stack.slot], si[stack.slot] = tr, ti
    total_r = np.zeros((stack.count, n))
    total_i = np.zeros_like(total_r)
    for k in range(stack.depth):
        total_r += sr[k]
        total_i += si[k]
    return total_r, total_i


def evaluate_many(polys: Sequence[Polynomial], z1, z2) -> np.ndarray:
    """Values of each polynomial at each point (z1[i], z2[i]): a complex array (len(polys), N).

    Every entry is the complex that ``polys[k](z1[i], z2[i])`` returns, bit for
    bit (signed zeros and infs included, nans in the same places): the same
    rows and coefficients, the same powers, each complex product as CPython
    forms it from float64 products and sums, and each polynomial's terms added
    in row order.  Points are taken in chunks, so the temporaries stay small
    for any N.
    """
    with np.errstate(all="ignore"):
        z1, z2 = (z.reshape(-1) for z in np.broadcast_arrays(np.asarray(z1, dtype=complex),
                                                             np.asarray(z2, dtype=complex)))
        stack = _stacked(tuple(polys))
        out = np.empty((stack.count, len(z1)), dtype=complex)
        step = stack.points_per_chunk()
        for start in range(0, len(z1), step):
            part = slice(start, start + step)
            out.real[:, part], out.imag[:, part] = _evaluate_chunk(stack, z1[part], z2[part])
        return out


def point_array(points: Iterable[Point]) -> np.ndarray:
    """The points as rows (z1, z2) of a complex array of shape (N, 2)."""
    return np.array([q.as_pair() for q in points], dtype=complex).reshape(-1, 2)


# ---------------------------------------------------------------------------
# bidegree decomposition
# ---------------------------------------------------------------------------


class BidegreeProfile(NamedTuple):
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


def parse_polynomial(source) -> Polynomial:
    """Parse the interchange format (JSON text, parsed dict, or term list) into the
    real-valued polynomial that real_polynomial builds.

    Raises RealityViolation if any key lacks its conjugate partner within the
    coefficient tolerance, NegativeExponent on malformed keys or term entries,
    ValueError on a non-finite coefficient, MalformedPolynomial on a source or
    coefficient of the wrong type.
    """
    if isinstance(source, (str, bytes)):
        source = json.loads(source)
    if isinstance(source, Mapping) and "terms" in source:
        source = source["terms"]
    if not isinstance(source, Sequence):
        raise MalformedPolynomial("polynomial source must be a JSON object with 'terms' or a term list")
    terms = []
    for entry in source:
        try:
            a = entry["a"]
            b = entry["b"]
            if len(a) != 2 or len(b) != 2:
                raise ValueError("an exponent list must have two entries")
        except (TypeError, KeyError, ValueError) as exc:
            raise NegativeExponent(f"malformed term entry {entry!r}") from exc
        key = _validate_key((a[0], a[1], b[0], b[1]))
        terms.append((key, (_as_fraction(entry.get("re", 0)), _as_fraction(entry.get("im", 0)))))
    return real_polynomial(terms)


# ---------------------------------------------------------------------------
# coordinate changes
# ---------------------------------------------------------------------------


def substitute_linear(p: Polynomial, matrix) -> Polynomial:
    """Exact composition p(M w) for a constant 2x2 complex matrix M.

    Matrix entries are converted to exact Gaussian rationals: rational entries
    (``Fraction(1, 3)``, ``"1/3"``, ``(re, im)`` pairs of them) keep their value,
    and floats and complex numbers embed exactly, so real-valued inputs stay
    exactly conjugate-paired.
    """
    m = [[GaussianRational.from_value(matrix[i][j]) for j in range(2)] for i in range(2)]
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
    return out
