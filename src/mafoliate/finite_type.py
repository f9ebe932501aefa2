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
coefficients are exact polynomials, and the pairing is evaluated pointwise.

The complex gradient Z = (n1, n2) / det extends across the Levi-degenerate
set, decided once per polynomial: where det divides both cofactor numerators
exactly, ``polynomial_gradient`` gives Z as a polynomial field, defined
everywhere; otherwise ``extend_gradient`` takes the limit of the cofactor
formula along approach rays (polynomial extrapolation to the ray parameter 0)
where D <= EPS_D_DEFAULT, the one Levi-degeneracy threshold, a constant.
``gradient_field`` (flows), ``gradient`` (one point) and ``gradients`` (a
batch) take that decision.  The ray limit stays the exact Z's numeric oracle.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .calculus import (
    HermitianPolynomial,
    Point,
    Polynomial,
    VARIABLES,
    eval_jet,
    eval_jets,
    evaluate_many,
    jet_polynomials,
    jet_stack,
    jets_from_values,
)
from .errors import (
    AllRaysDegenerate,
    NoConvergence,
    NonPositiveRho,
    TypeCapExceeded,
    VanishingPhi,
    ZeroDifferential,
)
from .monge_ampere import (
    EPS_D_DEFAULT,
    GradientValue,
    complex_gradient,
    complex_gradients,
    degenerate_levi,
)

TYPE_TOL_DEFAULT = 1e-8
TYPE_CAP_DEFAULT = 8
EXT_TOL_DEFAULT = 1e-7


# ---------------------------------------------------------------------------
# polynomial vector fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PolyVectorField:
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


@dataclass(frozen=True)
class BracketWord:
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

    @property
    def length(self) -> int:
        if self.leaf is not None:
            return 1
        return self.left.length + self.right.length

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
    out = []
    for word, field in bracket_level(p, length - 1):
        for gname in ("L", "Lbar"):
            out.append((BracketWord.pair(word, BracketWord.generator(gname)),
                        lie_bracket(field, gens[gname])))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class TypeReport:
    """Result of the type search at one point."""

    point: Point
    type_m: int | str  # smallest witnessed bracket length, or "exceeds_cap"
    witness: BracketWord | None
    pairing_value: complex
    scale: float
    tol: float

    def to_json_dict(self) -> dict:
        z1, z2 = self.point.as_pair()
        return {
            "point": [z1.real, z1.imag, z2.real, z2.imag],
            "type_m": self.type_m,
            "witness": None if self.witness is None else str(self.witness),
            "pairing_value": [self.pairing_value.real, self.pairing_value.imag],
            "scale": self.scale,
            "tol": self.tol,
        }


def point_type(p: HermitianPolynomial, q: Point, m_max: int = TYPE_CAP_DEFAULT,
               tol: float = TYPE_TOL_DEFAULT) -> TypeReport:
    """Smallest bracket length whose pairing with d(rho) exceeds the scaled tolerance."""
    jp = jet_polynomials(p)
    z1, z2 = q.as_pair()
    if p(z1, z2).real <= 0.0:
        raise NonPositiveRho(f"rho({q.as_pair()}) <= 0")
    d1 = jp.d1(z1, z2)
    d2 = jp.d2(z1, z2)
    scale = 1.0 + max(abs(d1), abs(d2))
    if abs(d1) + abs(d2) <= tol * scale:
        raise ZeroDifferential(f"d(rho) vanishes at {q.as_pair()}")
    for m in range(2, m_max + 1):
        for word, field in bracket_level(p, m):
            val = d1 * field.c1(z1, z2) + d2 * field.c2(z1, z2)
            if abs(val) > tol * scale:
                return TypeReport(q, m, word, val, scale, tol)
    return TypeReport(q, "exceeds_cap", None, 0j, scale, tol)


# ---------------------------------------------------------------------------
# Levi-form bracket identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BracketIdentityReport:
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


@np.errstate(all="ignore")
def bracket_identities(p: HermitianPolynomial, z1, z2) -> list[BracketIdentityReport]:
    """The bracket identity defects at every point (z1[i], z2[i]), from one evaluation.

    The first point, in order, where they are undefined raises: DegenerateLevi
    where the jet's D or the det polynomial is <= EPS_D_DEFAULT, ZeroDifferential where
    L vanishes.  Vectors are arrays of shape (components, points).
    """
    z1 = np.asarray(z1, dtype=complex).ravel()
    z2 = np.asarray(z2, dtype=complex).ravel()
    values = evaluate_many(_identity_polynomials(p), z1, z2)
    jets = jets_from_values(z1, z2, values)
    llbar, n = values[8:12], values[12:14]
    dn, ddet, dL = values[14:22].reshape(2, 4, -1), values[22:26], values[26:34].reshape(2, 4, -1)
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
    defect_llbar = _peak(llbar - np.concatenate([D * Z, -D * Zc])) / (1.0 + np.abs(D) * _peak(Z))

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


def extension_ingredients(p: HermitianPolynomial, q: Point, m_max: int = TYPE_CAP_DEFAULT,
                          tol: float = TYPE_TOL_DEFAULT) -> tuple[PolyVectorField, complex]:
    """(1,0) part V of the type witness and the transversality value phi = d(rho)(V) / rho."""
    report = point_type(p, q, m_max=m_max, tol=tol)
    if report.witness is None:
        raise TypeCapExceeded(f"no witness up to length {m_max} at {q.as_pair()}")
    _, field = next(
        entry for entry in bracket_level(p, report.type_m)  # type: ignore[arg-type]
        if entry[0] == report.witness
    )
    V = PolyVectorField(field.c1, field.c2, Polynomial.zero(), Polynomial.zero())
    rho = p(*q.as_pair()).real
    phi = report.pairing_value / rho
    if abs(phi) <= tol:
        raise VanishingPhi(f"phi = {phi} at {q.as_pair()}")
    return V, phi


_DEFAULT_RAYS: tuple[tuple[complex, complex], ...] = tuple(
    (d1 / cmath.sqrt(abs(d1) ** 2 + abs(d2) ** 2) * 1.0,
     d2 / cmath.sqrt(abs(d1) ** 2 + abs(d2) ** 2) * 1.0)
    for d1, d2 in [
        (1, 1), (1, -1), (1, 1j), (1j, 1),
        (2, 1), (1, 2), (1 + 1j, 1 - 1j), (1 - 2j, 2 + 1j),
    ]
)


def _neville_to_zero(ts: Sequence[float], vals: Sequence[complex]) -> complex:
    table = list(vals)
    n = len(table)
    for level in range(1, n):
        for i in range(n - level):
            t0, t1 = ts[i], ts[i + level]
            table[i] = (t1 * table[i] - t0 * table[i + 1]) / (t1 - t0)
    return table[0]


def extend_gradient(p: HermitianPolynomial, q: Point,
                    rays: Sequence[tuple[complex, complex]] | None = None) -> GradientValue:
    """Complex gradient at a point with rho > 0: the cofactor formula where D > EPS_D_DEFAULT,
    otherwise the common limit along approach rays.

    Each usable ray contributes a polynomial extrapolation of the cofactor
    formula to ray parameter 0; the extrapolants must agree within EXT_TOL_DEFAULT
    relative (NoConvergence otherwise).
    """
    z1, z2 = q.as_pair()
    jet = eval_jet(p, q)
    if jet.rho <= 0.0:
        raise NonPositiveRho(f"rho({q.as_pair()}) = {jet.rho} <= 0")
    if jet.D > EPS_D_DEFAULT:
        return complex_gradient(jet)

    # seven ray parameters, halving from 0.05 (1 + |q|)
    base_t = 0.05 * (1.0 + q.norm())
    ts = [base_t * 0.5**j for j in range(7)]
    directions = rays if rays is not None else _DEFAULT_RAYS
    # every ray point at once; the loop below keeps the per-point checks, and
    # their order, of evaluating one point at a time
    pts = [(z1 + t * d1, z2 + t * d2) for d1, d2 in directions for t in ts]
    z = np.array(pts, dtype=complex).reshape(-1, 2)
    finite = np.isfinite(z).all(axis=1)
    jets = eval_jets(p, z[:, 0], z[:, 1])
    Z1s, Z2s, _ = complex_gradients(jets)
    rho_l, det_l, D_l = jets.rho.tolist(), jets.det.tolist(), jets.D.tolist()
    Z_l = list(zip(Z1s.tolist(), Z2s.tolist()))
    results = []
    for r in range(len(directions)):
        ray_ts, vals = [], []
        for j, i in enumerate(range(r * len(ts), (r + 1) * len(ts))):
            if not finite[i]:
                Point(*pts[i])  # raises the ValueError of a non-finite point
            if rho_l[i] <= 0.0 or det_l[i] <= EPS_D_DEFAULT:
                continue
            if D_l[i] <= EPS_D_DEFAULT:
                raise degenerate_levi(D_l[i], pts[i])
            ray_ts.append(ts[j])
            vals.append(Z_l[i])
        if len(ray_ts) < 4:
            continue
        Z1 = _neville_to_zero(ray_ts, [v[0] for v in vals])
        Z2 = _neville_to_zero(ray_ts, [v[1] for v in vals])
        results.append((Z1, Z2))

    if not results:
        raise AllRaysDegenerate(f"no usable approach ray at {q.as_pair()}")

    arr = np.array(results)
    spread = float(np.max(np.abs(arr - arr.mean(axis=0))))
    scale = 1.0 + float(np.max(np.abs(arr)))
    if spread > EXT_TOL_DEFAULT * scale:
        raise NoConvergence(f"ray extrapolants disagree by {spread:.3e} "
                            f"(> {EXT_TOL_DEFAULT} relative) at {q.as_pair()}")
    Z1, Z2 = (complex(v) for v in arr.mean(axis=0))
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
    """The complex gradient at a point with rho > 0: the polynomial Z where it exists,
    otherwise extend_gradient (the cofactor formula, or the ray limit where
    D <= EPS_D_DEFAULT).
    Its ``method`` names the branch taken."""
    Z = polynomial_gradient(p)
    if Z is None:
        return extend_gradient(p, q)
    z1, z2 = q.as_pair()
    rho = p(z1, z2).real
    if rho <= 0.0:
        raise NonPositiveRho(f"rho({q.as_pair()}) = {rho} <= 0")
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
        scalar = rho.real <= 0.0
    else:
        jets = eval_jets(p, z1, z2)
        Z1, Z2, _ = complex_gradients(jets)
        scalar = (jets.rho <= 0.0) | ~(jets.D > EPS_D_DEFAULT)  # extend_gradient's own test
    for i in np.flatnonzero(scalar):  # where the batch formula does not hold or gradient raises
        g = gradient(p, Point(z1[i], z2[i]))
        Z1[i], Z2[i] = g.Z1, g.Z2
    return Z1, Z2
