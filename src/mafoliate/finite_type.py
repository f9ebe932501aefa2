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

Where the Levi determinant D vanishes, the complex gradient is recovered in two
independent ways: as the limit of the cofactor formula along approach rays
avoiding the degenerate set (polynomial extrapolation to the ray parameter 0),
and, when a chart flattening the foliation is available, from the leaf-chart
formula Z = (1 / u_w1) d/dw1 pushed to ambient coordinates.
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
    jet_polynomials,
)
from .errors import (
    AllRaysDegenerate,
    DegenerateLevi,
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

    @classmethod
    def holomorphic_part(cls, field: "PolyVectorField") -> "PolyVectorField":
        zero = Polynomial.zero()
        return cls(field.c1, field.c2, zero, zero)

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

    def apply_to(self, f: Polynomial) -> Polynomial:
        """Apply the derivation to a function (all four Wirtinger directions)."""
        out = Polynomial.zero()
        for coeff, var in zip(self.components(), VARIABLES):
            if not coeff.is_zero():
                out = out + coeff * f.derive(var)
        return out


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


class _GradientCalculus:
    """Exact rational partial derivatives of Z = N / D, evaluated pointwise."""

    def __init__(self, p: HermitianPolynomial):
        jp = jet_polynomials(p)
        self.n = (jp.n1, jp.n2)
        self.det = jp.det
        self.dn = tuple(tuple(nj.derive(v) for v in VARIABLES) for nj in self.n)
        self.ddet = tuple(self.det.derive(v) for v in VARIABLES)

    def at(self, q: Point, eps_D: float) -> tuple[tuple[complex, complex], list[list[complex]]]:
        z1, z2 = q.as_pair()
        D = self.det(z1, z2).real
        if D <= eps_D:
            raise DegenerateLevi(f"D = {D} <= {eps_D} at {q.as_pair()}")
        nv = [nj(z1, z2) for nj in self.n]
        ddet = [dd(z1, z2) for dd in self.ddet]
        Z = (nv[0] / D, nv[1] / D)
        dZ = [[(self.dn[j][k](z1, z2) * D - nv[j] * ddet[k]) / D**2 for k in range(4)]
              for j in range(2)]
        return Z, dZ


@lru_cache(maxsize=64)
def _gradient_calculus(p: HermitianPolynomial) -> _GradientCalculus:
    return _GradientCalculus(p)


@lru_cache(maxsize=64)
def _l_partials(p: HermitianPolynomial) -> tuple[tuple[Polynomial, ...], ...]:
    L = tangential_field(p)
    return tuple(tuple(c.derive(v) for v in VARIABLES) for c in (L.c1, L.c2))


def _span_fit(vec: np.ndarray, basis: list[np.ndarray]) -> tuple[np.ndarray, float]:
    A = np.stack(basis, axis=1)
    coeff, *_ = np.linalg.lstsq(A, vec, rcond=None)
    resid = vec - A @ coeff
    return coeff, float(np.max(np.abs(resid)))


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


def bracket_identities_check(p: HermitianPolynomial, q: Point,
                             eps_D: float = EPS_D_DEFAULT) -> BracketIdentityReport:
    jet = eval_jet(p, q)
    if jet.D <= eps_D:
        raise DegenerateLevi(f"D = {jet.D} <= {eps_D} at {q.as_pair()}")
    z1, z2 = q.as_pair()
    grad = complex_gradient(jet, eps_D)
    Z = np.array(grad.as_vector())
    Zc = Z.conjugate()

    gens = _generators(p)
    Lv = np.array(gens["L"].evaluate(q))  # (c1, c2, 0, 0)
    L10 = Lv[:2]
    Lb01 = L10.conjugate()

    # (a) [L, Lbar] against the cofactor field D (Z - Zbar)
    w = np.array(bracket_level(p, 2)[0][1].evaluate(q))
    target = np.concatenate([jet.D * Z, -jet.D * Zc])
    scale_a = 1.0 + abs(jet.D) * float(np.max(np.abs(Z)))
    defect_llbar = float(np.max(np.abs(w - target))) / scale_a

    # exact rational partials of Z for the remaining brackets
    gc = _gradient_calculus(p)
    _, dZ = gc.at(q, eps_D)
    lp = _l_partials(p)
    lpv = [[lp[j][k](z1, z2) for k in range(4)] for j in range(2)]

    # (b) [L, Z] = phi1 L
    lz = np.array([
        sum(L10[k] * dZ[j][k] for k in range(2)) - sum(Z[k] * lpv[j][k] for k in range(2))
        for j in range(2)
    ])
    denom = float(np.vdot(L10, L10).real)
    if denom == 0.0:
        raise ZeroDifferential(f"L vanishes at {q.as_pair()}")
    phi1 = complex(np.vdot(L10, lz)) / denom
    defect_lz = float(np.max(np.abs(lz - phi1 * L10))) / (1.0 + float(np.max(np.abs(lz))))

    # (c) [L, Zbar] = psi1 L + psi2 Lbar
    lzb_10 = np.array([
        -sum(Zc[k] * lpv[j][2 + k] for k in range(2)) for j in range(2)
    ])
    lzb_01 = np.array([
        sum(L10[k] * dZ[j][2 + k].conjugate() for k in range(2)) for j in range(2)
    ])
    psi1, r1 = _span_fit(lzb_10, [L10])
    psi2, r2 = _span_fit(lzb_01, [Lb01])
    scale_c = 1.0 + max(float(np.max(np.abs(lzb_10))), float(np.max(np.abs(lzb_01))))
    defect_lzbar = max(r1, r2) / scale_c

    # (d) [Z, Zbar] = eta1 L + eta2 Lbar, equivalently tangent to the level set
    zzb_10 = np.array([
        -sum(Zc[k] * dZ[j][2 + k] for k in range(2)) for j in range(2)
    ])
    zzb_01 = np.array([
        sum(Z[k] * dZ[j][2 + k].conjugate() for k in range(2)) for j in range(2)
    ])
    eta1, r1 = _span_fit(zzb_10, [L10])
    eta2, r2 = _span_fit(zzb_01, [Lb01])
    scale_d = 1.0 + max(float(np.max(np.abs(zzb_10))), float(np.max(np.abs(zzb_01))))
    defect_zzbar = max(r1, r2) / scale_d
    d10 = np.array([jet.d1, jet.d2])
    drho_val = complex(np.dot(d10, zzb_10) + np.dot(d10.conjugate(), zzb_01))
    drho_zzbar = abs(drho_val) / (jet.gradient_scale() * scale_d)

    return BracketIdentityReport(
        q, defect_llbar, defect_lz, defect_lzbar, defect_zzbar, drho_zzbar,
        {"phi1": phi1, "psi1": complex(psi1[0]), "psi2": complex(psi2[0]),
         "eta1": complex(eta1[0]), "eta2": complex(eta2[0])},
    )


# ---------------------------------------------------------------------------
# extension across Levi-degenerate points
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
    V = PolyVectorField.holomorphic_part(field)
    rho = p(*q.as_pair()).real
    phi = report.pairing_value / rho
    if abs(phi) <= tol:
        raise VanishingPhi(f"phi = {phi} at {q.as_pair()}")
    return V, phi


@dataclass(frozen=True)
class LeafChart:
    """Holomorphic chart w -> z flattening the foliation to {w2 = const}."""

    to_ambient: Callable[[complex, complex], tuple[complex, complex]]
    w_point: tuple[complex, complex]


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


def _chart_gradient(p: HermitianPolynomial, chart: LeafChart, h: float = 1e-6) -> tuple[complex, complex]:
    w1, w2 = chart.w_point

    def u(a: complex, b: complex) -> float:
        x, y = chart.to_ambient(a, b)
        return float(np.log(p(x, y).real))

    # Wirtinger d/dw1 of the real function u, by central differences
    du_dx = (u(w1 + h, w2) - u(w1 - h, w2)) / (2 * h)
    du_dy = (u(w1 + 1j * h, w2) - u(w1 - 1j * h, w2)) / (2 * h)
    u_w1 = 0.5 * (du_dx - 1j * du_dy)
    # holomorphic derivative of the chart along w1
    zp = chart.to_ambient(w1 + h, w2)
    zm = chart.to_ambient(w1 - h, w2)
    dchart = ((zp[0] - zm[0]) / (2 * h), (zp[1] - zm[1]) / (2 * h))
    return (dchart[0] / u_w1, dchart[1] / u_w1)


def extend_gradient(p: HermitianPolynomial, q: Point, eps_D: float = EPS_D_DEFAULT,
                    tol_ext: float = EXT_TOL_DEFAULT,
                    rays: Sequence[tuple[complex, complex]] | None = None,
                    leaf_chart: LeafChart | None = None,
                    t0: float | None = None, levels: int = 7,
                    ratio: float = 0.5) -> GradientValue:
    """Gradient at a Levi-degenerate point, as the common limit along approach rays.

    Each usable ray contributes a polynomial extrapolation of the cofactor
    formula to ray parameter 0; the extrapolants must agree within `tol_ext`
    relative (NoConvergence otherwise).  A supplied leaf chart is used as an
    independent cross-check through Z = (1 / u_w1) d/dw1.
    """
    z1, z2 = q.as_pair()
    rho = p(z1, z2).real
    if rho <= 0.0:
        raise NonPositiveRho(f"rho({q.as_pair()}) = {rho} <= 0")
    jet = eval_jet(p, q)
    if jet.D > eps_D:
        return complex_gradient(jet, eps_D)

    base_t = t0 if t0 is not None else 0.05 * (1.0 + q.norm())
    ts = [base_t * ratio**j for j in range(levels)]
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
            if rho_l[i] <= 0.0 or det_l[i] <= eps_D:
                continue
            if D_l[i] <= eps_D:
                raise degenerate_levi(D_l[i], eps_D, pts[i])
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
    if spread > tol_ext * scale:
        raise NoConvergence(
            f"ray extrapolants disagree by {spread:.3e} (> {tol_ext} relative) at {q.as_pair()}"
        )
    Z1, Z2 = (complex(v) for v in arr.mean(axis=0))

    if leaf_chart is not None:
        c1, c2 = _chart_gradient(p, leaf_chart)
        gap = max(abs(c1 - Z1), abs(c2 - Z2))
        if gap > tol_ext * scale:
            raise NoConvergence(
                f"leaf-chart value ({c1}, {c2}) disagrees with ray limit ({Z1}, {Z2})"
            )

    pairing = jet.d1 * Z1 + jet.d2 * Z2 - rho
    return GradientValue(Z1, Z2, pairing)


def gradient_anywhere(p: HermitianPolynomial, q: Point, eps_D: float = EPS_D_DEFAULT,
                      tol_ext: float = EXT_TOL_DEFAULT) -> GradientValue:
    """Cofactor gradient where D > eps_D, ray-limit extension otherwise; rho must be positive."""
    jet = eval_jet(p, q)
    if jet.rho <= 0.0:
        raise NonPositiveRho(f"rho({q.as_pair()}) = {jet.rho} <= 0")
    if jet.D > eps_D:
        return complex_gradient(jet, eps_D)
    return extend_gradient(p, q, eps_D=eps_D, tol_ext=tol_ext)
