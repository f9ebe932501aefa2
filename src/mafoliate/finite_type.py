"""Exact Lie-bracket towers for the tangential field, point type, and gradient extension.

On each level set of rho the holomorphic tangent space is spanned by

    L = rho_2 d/dz1 - rho_1 d/dz2,

whose pairing with d(rho) vanishes identically.  The type of a point is the
smallest number of generator leaves (from {L, Lbar}) in an iterated bracket
whose (1,0) part pairs nontrivially with d(rho) there; strictly pseudoconvex
points have type 2, witnessed by [L, Lbar].

Bracket words are enumerated left-normed, breadth-first by length.  Left-normed
words span all bracket words of a given length (Jacobi identity), so the search
is complete; antisymmetry makes [Lbar, L] redundant at length two.  All bracket
coefficients are exact polynomials.

``point_type`` takes the Levi-form type instead, equal in C^2 (Kohn, J. Diff.
Geom. 6, 1972; Bloom & Graham, Invent. Math. 40, 1977): m = 2 + a + b for the
least a + b with Lbar^b L^a lambda != 0 at the point, exactly, where lambda =
d1 n1 + d2 n2 pairs [L, Lbar] with d(rho) (``levi_level``, ``calculus.at_exact``).
There [L, Lbar] bracketed with a L's, then b Lbar's, pairs to (-1)^m times that
value; with the most L's it is the first nonzero word in bracket order.

The complex gradient Z = (n1, n2) / det extends across the Levi-degenerate
set, decided once per polynomial: where det divides both cofactor numerators
exactly, ``polynomial_gradient`` gives Z as a polynomial field, defined
everywhere; otherwise ``extend_gradient`` takes the cofactor formula where
D > EPS_D_DEFAULT, the one Levi-degeneracy threshold, a constant, and elsewhere
n_j / det exactly, or where det = 0 its limit along rational rays (``ray_limit``),
or a typed reason there is none.  ``gradient_field`` (flows), ``gradient`` (one
point) and ``gradients`` (a batch) take that decision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

from ._numpy import np
from .calculus import (
    GaussianRational,
    HermitianPolynomial,
    Point,
    Polynomial,
    VARIABLES,
    at_exact,
    eval_jet,
    eval_jets,
    evaluate_many,
    jet_polynomials,
    jet_stack,
    jets_from_values,
    on_line,
)
from .errors import (
    AllRaysDegenerate,
    NoExtension,
    NonPositiveRho,
    ZeroDifferential,
)
from .monge_ampere import (
    EPS_D_DEFAULT,
    GradientValue,
    complex_gradient,
    complex_gradients,
    degenerate_levi,
)

TYPE_CAP_DEFAULT = 8


# ---------------------------------------------------------------------------
# polynomial vector fields
# ---------------------------------------------------------------------------


class PolyVectorField(NamedTuple):
    """Vector field with polynomial coefficients in the frame (d1, d2, dbar1, dbar2)."""

    c1: Polynomial
    c2: Polynomial
    cbar1: Polynomial
    cbar2: Polynomial

    def components(self) -> tuple[Polynomial, Polynomial, Polynomial, Polynomial]:
        return (self.c1, self.c2, self.cbar1, self.cbar2)

    def is_type10(self) -> bool:
        return self.cbar1.is_zero() and self.cbar2.is_zero()

    def conjugate(self) -> "PolyVectorField":
        return PolyVectorField(
            self.cbar1.conjugate(), self.cbar2.conjugate(),
            self.c1.conjugate(), self.c2.conjugate(),
        )

    def evaluate(self, q: Point) -> tuple[complex, complex, complex, complex]:
        z1, z2 = q.as_pair()
        return tuple(c(z1, z2) for c in self.components())  # type: ignore[return-value]


def tangential_field(p: HermitianPolynomial) -> PolyVectorField:
    """L = rho_2 d1 - rho_1 d2; pairs to the zero polynomial against d(rho)."""
    jp = jet_polynomials(p)
    zero = Polynomial.zero()
    return PolyVectorField(jp.d2, -jp.d1, zero, zero)


def lie_bracket(V: PolyVectorField, W: PolyVectorField) -> PolyVectorField:
    """Exact commutator of first-order derivations over the four-component frame."""
    vc = V.components()
    wc = W.components()
    out = []
    for j in range(4):
        acc = Polynomial.zero()
        for k, var in enumerate(VARIABLES):
            if not vc[k].is_zero():
                acc = acc + vc[k] * wc[j].derive(var)
            if not wc[k].is_zero():
                acc = acc - wc[k] * vc[j].derive(var)
        out.append(acc)
    return PolyVectorField(*out)


def pair_d_rho(p: HermitianPolynomial, field: PolyVectorField) -> Polynomial:
    """d(rho) paired against the (1,0) components: rho_1 c1 + rho_2 c2 (exact)."""
    jp = jet_polynomials(p)
    return jp.d1 * field.c1 + jp.d2 * field.c2


# ---------------------------------------------------------------------------
# bracket words and type
# ---------------------------------------------------------------------------


class BracketWord(NamedTuple):
    """Left-normed bracket expression over the generators L and Lbar."""

    leaf: str | None = None
    left: "BracketWord | None" = None
    right: "BracketWord | None" = None

    @classmethod
    def generator(cls, name: str) -> "BracketWord":
        if name not in ("L", "Lbar"):
            raise ValueError(f"unknown generator {name!r}")
        return cls(leaf=name)

    @classmethod
    def pair(cls, left: "BracketWord", right: "BracketWord") -> "BracketWord":
        return cls(left=left, right=right)

    def __str__(self) -> str:
        if self.leaf is not None:
            return self.leaf
        return f"[{self.left},{self.right}]"


@lru_cache(maxsize=64)
def _generators(p: HermitianPolynomial) -> dict[str, PolyVectorField]:
    L = tangential_field(p)
    return {"L": L, "Lbar": L.conjugate()}


@lru_cache(maxsize=512)
def bracket_level(p: HermitianPolynomial, length: int) -> tuple[tuple[BracketWord, PolyVectorField], ...]:
    """All left-normed words of the given leaf count, breadth-first, [.., L] before [.., Lbar]."""
    gens = _generators(p)
    if length < 2:
        raise ValueError("bracket words start at length 2")
    if length == 2:
        word = BracketWord.pair(BracketWord.generator("L"), BracketWord.generator("Lbar"))
        return ((word, lie_bracket(gens["L"], gens["Lbar"])),)
    return tuple((BracketWord.pair(word, BracketWord.generator(g)), lie_bracket(field, gens[g]))
                 for word, field in bracket_level(p, length - 1) for g in gens)


@lru_cache(maxsize=512)
def levi_level(p: HermitianPolynomial, k: int) -> tuple[Polynomial, ...]:
    """The k + 1 polynomials Lbar^(k-a) L^a lambda for a = k, ..., 0 (L applied first),
    lambda = d1 n1 + d2 n2; each is one derivation of a polynomial of level k - 1."""
    jp = jet_polynomials(p)
    if k == 0:
        return (jp.d1 * jp.n1 + jp.d2 * jp.n2,)
    prev = levi_level(p, k - 1)
    top = jp.d2 * prev[0].derive("z1") - jp.d1 * prev[0].derive("z2")  # L f
    return (top, *(jp.db2 * f.derive("zbar1") - jp.db1 * f.derive("zbar2") for f in prev))


class TypeReport(NamedTuple):
    """Result of the type search at one point."""

    point: Point
    type_m: int | str  # smallest witnessed bracket length, or "exceeds_cap"
    witness: str | None  # the witness word, as BracketWord prints it
    pairing_value: complex  # its pairing with d(rho), rounded to doubles


def _double(x: Fraction) -> float:  # x rounded to a double, an overflow to +-inf
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def point_type(p: HermitianPolynomial, q: Point, m_max: int = TYPE_CAP_DEFAULT) -> TypeReport:
    """Smallest bracket length whose pairing with d(rho) at q's doubles is not zero."""
    jp = jet_polynomials(p)
    if p(*q.as_pair()).real <= 0.0:
        raise NonPositiveRho(f"rho({q.as_pair()}) <= 0")
    if all(at_exact(f, q) == (0, 0) for f in (jp.d1, jp.d2)):
        raise ZeroDifferential(f"d(rho) vanishes at {q.as_pair()}")
    for m in range(2, m_max + 1):
        for a, f in zip(range(m - 2, -1, -1), levi_level(p, m - 2)):
            value = at_exact(f, q)
            if value != (0, 0):
                witness = "[" * (m - 2) + "[L,Lbar]" + ",L]" * a + ",Lbar]" * (m - 2 - a)
                sign = (-1) ** m
                return TypeReport(q, m, witness, complex(*(_double(sign * x) for x in value)))
    return TypeReport(q, "exceeds_cap", None, 0j)


# ---------------------------------------------------------------------------
# Levi-form bracket identities
# ---------------------------------------------------------------------------


class BracketIdentityReport(NamedTuple):
    """Defects of the four Levi-form bracket identities at one point.

    * ``defect_llbar``: componentwise defect of [L, Lbar] - D (Z - Zbar),
      normalized by 1 + |D| max|Z|.  Holds for any real rho with D != 0.
    * ``defect_lz``: distance of [L, Z] from the complex line through L.
    * ``defect_lzbar``: distance of [L, Zbar] from span{L, Lbar}.
    * ``defect_zzbar``: distance of [Z, Zbar] from span{L, Lbar}; the last
      three require the Monge-Ampere equation.
    * ``drho_zzbar``: tangency defect |d(rho)([Z, Zbar])|, normalized.
    * ``coefficients``: fitted phi1, psi1, psi2, eta1, eta2.
    """

    point: Point
    defect_llbar: float
    defect_lz: float
    defect_lzbar: float
    defect_zzbar: float
    drho_zzbar: float
    coefficients: dict


@lru_cache(maxsize=64)
def _identity_polynomials(p: HermitianPolynomial) -> tuple[Polynomial, ...]:
    """jet_stack(p), then the four components of [L, Lbar], n1 and n2, and the four
    partials of each of n1, n2, det and L's components c1, c2: 34 rows."""
    jp = jet_polynomials(p)
    L = tangential_field(p)
    return (*jet_stack(p), *bracket_level(p, 2)[0][1].components(), jp.n1, jp.n2,
            *(f.derive(v) for f in (jp.n1, jp.n2, jp.det, L.c1, L.c2) for v in VARIABLES))


def _peak(v: np.ndarray) -> np.ndarray:
    return np.max(np.abs(v), axis=0)


def _project(v: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column, the multiple c b of b nearest v, c = sum conj(b) v / sum |b|^2
    (one-column least squares), and the residual max |v - c b|."""
    c = (b.conjugate() * v).sum(axis=0) / (b.conjugate() * b).real.sum(axis=0)
    return c, _peak(v - c * b)


def bracket_identities(p: HermitianPolynomial, z1, z2) -> list[BracketIdentityReport]:
    """The bracket identity defects at every point (z1[i], z2[i]), from one evaluation.

    The first point, in order, where they are undefined raises: DegenerateLevi
    where the jet's D or the det polynomial is <= EPS_D_DEFAULT, ZeroDifferential where
    L vanishes.  Vectors are arrays of shape (components, points).
    """
    with np.errstate(all="ignore"):
        z1 = np.asarray(z1, dtype=complex).ravel()
        z2 = np.asarray(z2, dtype=complex).ravel()
        values = evaluate_many(_identity_polynomials(p), z1, z2)
        jets = jets_from_values(z1, z2, values)
        llbar, n = values[8:12], values[12:14]
        dn, ddet = values[14:22].reshape(2, 4, -1), values[22:26]
        dL = values[26:34].reshape(2, 4, -1)
        D, det = jets.D, jets.det
        L = np.stack([jets.d2, -jets.d1])  # (1,0) part of L; its (0,1) part is zero
        L_norm2 = (L.conjugate() * L).real.sum(axis=0)
        bad = np.flatnonzero((D <= EPS_D_DEFAULT) | (det <= EPS_D_DEFAULT) | (L_norm2 == 0.0))
        if bad.size:
            i = bad[0]
            worst = D[i] if D[i] <= EPS_D_DEFAULT else det[i]
            if worst <= EPS_D_DEFAULT:
                raise degenerate_levi(worst.item(), jets.pair(i))
            raise ZeroDifferential(f"L vanishes at {jets.pair(i)}")
        Z = np.stack(complex_gradients(jets)[:2])
        Zc = Z.conjugate()

        # (a) [L, Lbar] against the cofactor field D (Z - Zbar)
        defect_llbar = (_peak(llbar - np.concatenate([D * Z, -D * Zc]))
                        / (1.0 + np.abs(D) * _peak(Z)))

        # partials of Z = N / det by the quotient rule: dZ[j, k] is Z^j derived in VARIABLES[k]
        dZ = (dn * det - n[:, None] * ddet) / det**2
        dZb = dZ[:, 2:]

        # (b) [L, Z] = phi1 L
        lz = (L * dZ[:, :2]).sum(axis=1) - (Z * dL[:, :2]).sum(axis=1)
        phi1, r = _project(lz, L)
        defect_lz = r / (1.0 + _peak(lz))

        # (c) [L, Zbar] = psi1 L + psi2 Lbar, part by part
        lzb_10 = -(Zc * dL[:, 2:]).sum(axis=1)
        lzb_01 = (L * dZb.conjugate()).sum(axis=1)
        psi1, r1 = _project(lzb_10, L)
        psi2, r2 = _project(lzb_01, L.conjugate())
        defect_lzbar = np.maximum(r1, r2) / (1.0 + np.maximum(_peak(lzb_10), _peak(lzb_01)))

        # (d) [Z, Zbar] = eta1 L + eta2 Lbar, equivalently tangent to the level set
        zzb_10 = -(Zc * dZb).sum(axis=1)
        zzb_01 = (Z * dZb.conjugate()).sum(axis=1)
        eta1, r1 = _project(zzb_10, L)
        eta2, r2 = _project(zzb_01, L.conjugate())
        scale_d = 1.0 + np.maximum(_peak(zzb_10), _peak(zzb_01))
        defect_zzbar = np.maximum(r1, r2) / scale_d
        d = np.stack([jets.d1, jets.d2])
        drho = (d * zzb_10).sum(axis=0) + (d.conjugate() * zzb_01).sum(axis=0)
        drho_zzbar = np.abs(drho) / ((1.0 + _peak(d)) * scale_d)

        defects = zip(*(a.tolist() for a in (defect_llbar, defect_lz, defect_lzbar, defect_zzbar,
                                             drho_zzbar)))
        coefficients = zip(*(a.tolist() for a in (phi1, psi1, psi2, eta1, eta2)))
        names = ("phi1", "psi1", "psi2", "eta1", "eta2")
        return [BracketIdentityReport(Point(a, b), *dv, dict(zip(names, cv)))
                for a, b, dv, cv in zip(z1.tolist(), z2.tolist(), defects, coefficients)]


def bracket_identities_check(p: HermitianPolynomial, q: Point) -> BracketIdentityReport:
    """bracket_identities at the one point q."""
    return bracket_identities(p, *q.as_pair())[0]


# ---------------------------------------------------------------------------
# the complex gradient across Levi-degenerate points
# ---------------------------------------------------------------------------


RAYS = ((1, 1), (1, -1), (1, 1j), (1j, 1), (2, 1), (1, 2), (1 + 1j, 1 - 1j), (1 - 2j, 2 + 1j))


def _check_rho(rho: float, q: Point) -> None:  # NonPositiveRho unless 0 < rho < inf
    if not 0.0 < rho < math.inf:
        raise NonPositiveRho(f"rho({q.as_pair()}) = {rho} {'<= 0' if rho <= 0.0 else 'is not finite'}")


def _g6(x: Fraction) -> str:  # x to 6 significant digits, also beyond the range of a double
    try:
        return f"{float(x):.6g}"
    except OverflowError:
        from decimal import Context
        return f"{Context(prec=6).divide(x.numerator, x.denominator).normalize():g}"


def _order(c: list[GaussianRational]) -> float:  # the first nonzero coefficient's index
    return next((k for k, ck in enumerate(c) if ck.re or ck.im), math.inf)


def ray_limit(p: HermitianPolynomial, q: Point) -> tuple[GaussianRational, GaussianRational]:
    """Z = (n1, n2) / det at q, or where det(q) = 0 its limit along the approach RAYS
    (unnormalized Gaussian integers), exactly.  On a ray where det vanishes to order k
    with det[k] > 0 (else the ray does not count), n_j / det tends to n_j[k] / det[k]
    if n_j vanishes to order k or more.  NoExtension where det(q) < 0, where Z has a
    pole or where the limit depends on the ray; AllRaysDegenerate where no ray counts."""
    jp = jet_polynomials(p)
    det, *n = (at_exact(f, q) for f in (jp.det, jp.n1, jp.n2))  # det is real-valued
    if det.re < 0:
        raise NoExtension(f"det = {_g6(det.re)} < 0 at {q.as_pair()}: the Levi form "
                          f"is indefinite")
    if det.re > 0:
        return tuple(GaussianRational(c.re / det.re, c.im / det.re) for c in n)
    first = None
    for v in RAYS:
        det, *n = (on_line(f, q.as_pair(), v) for f in (jp.det, jp.n1, jp.n2))
        k = _order(det)  # at least 1, as det(q) = 0; det[k] is real
        if k == math.inf or det[k].re < 0:
            continue
        for j, nj in enumerate(n, start=1):
            if _order(nj) < k:
                raise NoExtension(f"Z{j} has a pole at {q.as_pair()}: along the ray {v}, det "
                                  f"vanishes to order {k} and n{j} to order {_order(nj)}")
        # an n_j without a coefficient k is zero on the ray
        Z = tuple(GaussianRational(c.re / det[k].re, c.im / det[k].re)
                  for c in (nj[k] if k < len(nj) else nj[0] for nj in n))
        u, W = first = first or (v, Z)
        if Z != W:
            raise NoExtension(f"the limit of Z at {q.as_pair()} depends on the direction: "
                              f"{[c.to_complex() for c in W]} along the ray {u}, "
                              f"{[c.to_complex() for c in Z]} along the ray {v}")
    if first is None:
        raise AllRaysDegenerate(f"det is zero, or negative, on every approach ray at {q.as_pair()}")
    return first[1]


def extend_gradient(p: HermitianPolynomial, q: Point) -> GradientValue:
    """Complex gradient at a point with 0 < rho < inf: the cofactor formula where
    D > EPS_D_DEFAULT, otherwise the exact ray_limit, rounded to doubles."""
    jet = eval_jet(p, q)
    _check_rho(jet.rho, q)
    if jet.D > EPS_D_DEFAULT:
        return complex_gradient(jet)
    Z1, Z2 = (z.to_complex() for z in ray_limit(p, q))
    return GradientValue(Z1, Z2, jet.d1 * Z1 + jet.d2 * Z2 - jet.rho, "ray_limit_extension")


@lru_cache(maxsize=64)
def polynomial_gradient(p: HermitianPolynomial) -> tuple[Polynomial, Polynomial] | None:
    """(Z1, Z2) = (n1, n2) / det as polynomials when det divides both cofactor numerators
    exactly, else None: then Z is defined everywhere, with no limit and no test of D."""
    jp = jet_polynomials(p)
    Z = [None if jp.det.is_zero() else n.exact_quotient(jp.det) for n in (jp.n1, jp.n2)]
    return None if None in Z else tuple(Z)


def gradient_field(p: HermitianPolynomial) -> Callable[..., tuple[complex, complex]]:
    """Z1 and Z2 as a function of (z1, z2), for points the caller has checked for rho > 0,
    decided once for p: the two polynomials of polynomial_gradient where det divides,
    else extend_gradient at every point (which checks rho again)."""
    Z = polynomial_gradient(p)
    if Z is None:
        return lambda z1, z2: extend_gradient(p, Point(z1, z2)).as_vector()
    Z1, Z2 = Z
    return lambda z1, z2: (Z1(z1, z2), Z2(z1, z2))


def gradient(p: HermitianPolynomial, q: Point) -> GradientValue:
    """The complex gradient at a point with 0 < rho < inf: the polynomial Z where it
    exists, otherwise extend_gradient (the cofactor formula, or the exact ray limit
    where D <= EPS_D_DEFAULT).
    Its ``method`` names the branch taken."""
    Z = polynomial_gradient(p)
    if Z is None:
        return extend_gradient(p, q)
    z1, z2 = q.as_pair()
    rho = p(z1, z2).real
    _check_rho(rho, q)
    jp = jet_polynomials(p)
    Z1, Z2 = Z[0](z1, z2), Z[1](z1, z2)
    return GradientValue(Z1, Z2, jp.d1(z1, z2) * Z1 + jp.d2(z1, z2) * Z2 - rho, "polynomial")


def gradients(p: HermitianPolynomial, z1, z2) -> tuple[np.ndarray, np.ndarray]:
    """Z1 and Z2 of gradient at every point (z1[i], z2[i]), from one batched evaluation,
    and from gradient itself, point by point in order, where the batch does not apply."""
    z1 = np.asarray(z1, dtype=complex).ravel()
    z2 = np.asarray(z2, dtype=complex).ravel()
    Z = polynomial_gradient(p)
    if Z is not None:
        rho, Z1, Z2 = evaluate_many((p, *Z), z1, z2)
        batch = (rho.real > 0.0) & (rho.real < np.inf)
    else:
        jets = eval_jets(p, z1, z2)
        Z1, Z2, _ = complex_gradients(jets)
        batch = (jets.rho > 0.0) & (jets.rho < np.inf) & (jets.D > EPS_D_DEFAULT)  # as extend_gradient
    for i in np.flatnonzero(~batch):  # where the batch formula does not hold or gradient raises
        g = gradient(p, Point(z1[i], z2[i]))
        Z1[i], Z2[i] = g.Z1, g.Z2
    return Z1, Z2
