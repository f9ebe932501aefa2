"""Pointwise Monge-Ampere residuals, the complex gradient Z, and the singular pairing.

For u = log rho, rho a real-valued polynomial, the degenerate complex
Monge-Ampere equation (dd^c u)^2 = 0 reduces in coordinates to the scalar identity

    rho * D - B = 0

with D, B the Levi determinant and bordered scalar of the jet.  At strictly
pseudoconvex points (D > 0) the annihilator of dd^c u is spanned by the
complex gradient

    Z^1 = (rho_{2 2bar} rho_1bar - rho_{2 1bar} rho_2bar) / D
    Z^2 = (rho_{1 1bar} rho_2bar - rho_{1 2bar} rho_1bar) / D,

the unique (1,0) field with sum_mu rho_{mu nubar} Z^mu = rho_nubar, and the
equation is equivalent to the eigenfunction identity d(rho)(Z) = rho.

Both sides are polynomials: with N^mu = D * Z^mu the cofactor numerators,
B = rho_1 N^1 + rho_2 N^2, so ``is_ma_exact`` decides the equation by
checking that rho * D - rho_1 N^1 - rho_2 N^2 is the zero polynomial.  The
equation is required on the open set rho > 0, and a polynomial vanishing on
a nonempty open set vanishes identically, so the check is complete.  The
sampled residuals of ``ma_scan`` (``ma_residual`` at each sample, the
polynomial values batched by ``calculus.evaluate_many``) stay as its
independent numeric oracle.

``omega_pairing`` evaluates the singular metric at one jet.  It treats
(1,1)-forms matrix-style,

    ddc_f(V, W) = sum f_{mu nubar} V^mu conj(W^nu),

normalized so that ddc_rho(L, Lbar) = B, which under the equation equals
D * rho for the tangential field L.  With ddc_u = ddc_rho / rho -
d(rho)(V) conj(d(rho)(W)) / rho^2 for u = log rho, the singular metric

    Omega(V, W) = rho * ddc_u(V, W) / D + d(rho)(V) * conj(d(rho)(W)) / rho

satisfies Omega(Z, Z) = rho, Omega(Z, L) = 0, Omega(L, L) = rho wherever the
equation holds; Omega is exposed only through pairings, never as a global
object, since only those combinations extend across degenerate points.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .calculus import (
    SWEEP_BLOCK,
    Point,
    Polynomial,
    WirtingerJet,
    evaluate_many,
    jet_polynomials,
    point_array,
)
from .errors import DegenerateLevi, NonPositiveRho

EPS_D_DEFAULT = 1e-10  # D <= this is Levi-degenerate: no cofactor formula there
SAMPLE_D_CUTOFF = 1e-6  # sampled points keep the det polynomial above this times rho^2

Vector = tuple[complex, complex]


class MAReport(NamedTuple):
    """Residual record at one point; `normalized` is dimensionless in [-1, 1]."""

    point: Point
    rho: float
    D: float
    B: float
    residual: float
    normalized: float


class GradientValue(NamedTuple):
    """Value of the complex gradient, the defect of d(rho)(Z) - rho, and the branch that
    gave it: "cofactor", or finite_type's "polynomial" or "ray_limit_extension"."""

    Z1: complex
    Z2: complex
    pairing_check: complex
    method: str = "cofactor"

    def as_vector(self) -> Vector:
        return (self.Z1, self.Z2)


def is_ma_exact(p: Polynomial) -> bool:
    """Whether log p solves the Monge-Ampere equation: rho * D - B is the zero polynomial."""
    jp = jet_polynomials(p)
    return (p * jp.det - p.derive_along(jp.n1, jp.n2, Polynomial.zero(), Polynomial.zero())).is_zero()


def ma_residual(jet: WirtingerJet) -> MAReport:
    """Monge-Ampere residual rho*D - B at the jet's point; requires rho > 0."""
    if jet.rho <= 0.0:
        raise NonPositiveRho(f"rho = {jet.rho} <= 0 at {jet.point.as_pair()}")
    residual = jet.rho * jet.D - jet.B
    normalized = residual / (abs(jet.rho * jet.D) + abs(jet.B) + 1e-300)
    return MAReport(jet.point, jet.rho, jet.D, jet.B, residual, normalized)


def degenerate_levi(D: float, pair: Vector) -> DegenerateLevi:
    """The error complex_gradient raises at a point where D <= EPS_D_DEFAULT."""
    return DegenerateLevi(f"D = {D} <= {EPS_D_DEFAULT} at {pair}; use the finite-type extension")


def complex_gradient(jet: WirtingerJet) -> GradientValue:
    """Complex gradient from the 2x2 Levi cofactors; DegenerateLevi when D <= EPS_D_DEFAULT."""
    if jet.D <= EPS_D_DEFAULT:
        raise degenerate_levi(jet.D, jet.point.as_pair())
    (h11, h12), (h21, h22) = jet.levi
    db1 = jet.d1.conjugate()
    db2 = jet.d2.conjugate()
    Z1 = (h22 * db1 - h21 * db2) / jet.D
    Z2 = (h11 * db2 - h12 * db1) / jet.D
    pairing = jet.d1 * Z1 + jet.d2 * Z2 - jet.rho
    return GradientValue(Z1, Z2, pairing)


def omega_pairing(jet: WirtingerJet, V: Vector, W: Vector) -> complex:
    """Omega(V, conj W) for (1,0) tangent vectors V, W at the jet's point."""
    r = jet.rho
    if r <= 0.0:
        raise NonPositiveRho(f"rho = {r} <= 0")
    if jet.D <= EPS_D_DEFAULT:
        raise degenerate_levi(jet.D, jet.point.as_pair())
    (h11, h12), (h21, h22) = jet.levi
    w0 = W[0].conjugate()
    w1 = W[1].conjugate()
    ddc_rho = h11 * V[0] * w0 + h12 * V[0] * w1 + h21 * V[1] * w0 + h22 * V[1] * w1
    d_rho_v = jet.d1 * V[0] + jet.d2 * V[1]
    conj_d_rho_w = (jet.d1 * W[0] + jet.d2 * W[1]).conjugate()
    ddc_u = ddc_rho / r - d_rho_v * conj_d_rho_w / r**2
    return r * ddc_u / jet.D + d_rho_v * conj_d_rho_w / r


def ma_scan(p: Polynomial, points: Iterable[Point]) -> list[MAReport]:
    """ma_residual of every point's jet; the polynomial values come from evaluate_many,
    a block of SWEEP_BLOCK points at a time, which bounds the per-point lists."""
    points = list(points)
    jp = jet_polynomials(p)
    polys = (p, jp.d1, jp.d2, jp.h11, jp.h12, jp.h21, jp.h22)
    reports: list[MAReport] = []
    for start in range(0, len(points), SWEEP_BLOCK):
        block = points[start:start + SWEEP_BLOCK]
        values = evaluate_many(polys, *point_array(block).T)
        reports += [ma_residual(WirtingerJet.from_values(q, *row))
                    for q, row in zip(block, values.T.tolist())]
    return reports


MA_CSV_COLUMNS = ("x1", "y1", "x2", "y2", "rho", "D", "B", "residual", "normalized")


def write_ma_csv(reports: Sequence[MAReport], path, version: str, poly_hash: str) -> None:
    """Plot-ready residual table; metadata rides in leading comment lines."""
    import csv

    with open(path, "w", newline="") as fh:
        fh.write(f"# mafoliate {version}\n")
        fh.write(f"# poly_sha256 {poly_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(MA_CSV_COLUMNS)
        for rep in reports:
            z1, z2 = rep.point.as_pair()
            writer.writerow([repr(x) for x in (z1.real, z1.imag, z2.real, z2.imag, rep.rho,
                                               rep.D, rep.B, rep.residual, rep.normalized)])
