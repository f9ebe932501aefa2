"""Pointwise Monge-Ampere residuals, the complex gradient Z, and the singular pairing.

For u = log rho, the degenerate complex Monge-Ampere equation (dd^c u)^2 = 0
reduces in coordinates to the scalar identity

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
sampled residuals of ``ma_scan`` stay as its independent numeric oracle.

The pairing evaluator treats (1,1)-forms matrix-style,

    ddc_f(V, W) = sum f_{mu nubar} V^mu conj(W^nu),

normalized so that ddc_rho(L, Lbar) = B, which under the equation equals
D * rho for the tangential field L.  On that normalization the singular
metric

    Omega(V, W) = rho * ddc_u(V, W) / D + d(rho)(V) * conj(d(rho)(W)) / rho

satisfies Omega(Z, Z) = rho, Omega(Z, L) = 0, Omega(L, L) = rho wherever the
equation holds; Omega is exposed only through pairings, never as a global
object, since only those combinations extend across degenerate points.
"""

from __future__ import annotations

import csv
from typing import Iterable, NamedTuple, Sequence

from ._numpy import np
from .calculus import (
    SWEEP_BLOCK,
    HermitianPolynomial,
    JetBatch,
    Point,
    WirtingerJet,
    cdiv_real,
    cmul,
    complex_array,
    eval_jets,
    jet_polynomials,
    point_array,
)
from .errors import DegenerateLevi, NonPositiveRho

EPS_D_DEFAULT = 1e-10  # D <= this is Levi-degenerate: no cofactor formula there
SAMPLE_D_CUTOFF = 1e-6  # sampled points keep the det polynomial above this

Vector = tuple[complex, complex]


class MAReport(NamedTuple):
    """Residual record at one point; `normalized` is dimensionless in [-1, 1]."""

    point: Point
    rho: float
    D: float
    B: float
    residual: float
    normalized: float

    def to_json_dict(self) -> dict:
        z1, z2 = self.point.as_pair()
        return {
            "x1": z1.real, "y1": z1.imag, "x2": z2.real, "y2": z2.imag,
            "rho": self.rho, "D": self.D, "B": self.B,
            "residual": self.residual, "normalized": self.normalized,
        }


class GradientValue(NamedTuple):
    """Value of the complex gradient, the defect of d(rho)(Z) - rho, and the branch that
    gave it: "cofactor", or finite_type's "polynomial" or "ray_limit_extension"."""

    Z1: complex
    Z2: complex
    pairing_check: complex
    method: str = "cofactor"

    def as_vector(self) -> Vector:
        return (self.Z1, self.Z2)


def is_ma_exact(p: HermitianPolynomial) -> bool:
    """Whether log p solves the Monge-Ampere equation: rho * D - B is the zero polynomial."""
    jp = jet_polynomials(p)
    return (p * jp.det - (jp.d1 * jp.n1 + jp.d2 * jp.n2)).is_zero()


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


def complex_gradients(jets: JetBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Z1, Z2 and the pairing defect at every point of the batch, bit for bit as
    complex_gradient computes them.  Entries where D <= EPS_D_DEFAULT mean nothing: the
    caller checks ``jets.D`` where complex_gradient would raise."""
    with np.errstate(all="ignore"):
        h = np.stack([jets.h22, jets.h21, jets.h11, jets.h12])
        db = np.stack([jets.d1, jets.d2, jets.d2, jets.d1]).conjugate()
        # cofactor products h22 db1, h21 db2, h11 db2, h12 db1, then the two differences
        p_r, p_i = cmul(h.real, h.imag, db.real, db.imag)
        Z_r, Z_i = cdiv_real(p_r[::2] - p_r[1::2], p_i[::2] - p_i[1::2], jets.D)
        d = np.stack([jets.d1, jets.d2])
        q_r, q_i = cmul(d.real, d.imag, Z_r, Z_i)
        Z = complex_array(Z_r, Z_i)
        return Z[0], Z[1], complex_array((q_r[0] + q_r[1]) - jets.rho, q_i[0] + q_i[1])


def require_nondegenerate(jets: JetBatch) -> None:
    """Raise what complex_gradient raises at the first point of the batch with
    D <= EPS_D_DEFAULT."""
    bad = np.flatnonzero(jets.D <= EPS_D_DEFAULT)
    if bad.size:
        raise degenerate_levi(jets.D[bad[0]].item(), jets.pair(bad[0]))


class HermitianPairing:
    """(1,1)-form evaluator over one jet: ddc_rho, ddc_u, d(rho), and Omega."""

    def __init__(self, jet: WirtingerJet):
        self.jet = jet

    def d_rho(self, V: Vector) -> complex:
        return self.jet.d1 * V[0] + self.jet.d2 * V[1]

    def ddc_rho(self, V: Vector, W: Vector) -> complex:
        (h11, h12), (h21, h22) = self.jet.levi
        w0 = W[0].conjugate()
        w1 = W[1].conjugate()
        return (h11 * V[0] * w0 + h12 * V[0] * w1 + h21 * V[1] * w0 + h22 * V[1] * w1)

    def ddc_u(self, V: Vector, W: Vector) -> complex:
        if self.jet.rho <= 0.0:
            raise NonPositiveRho(f"rho = {self.jet.rho} <= 0")
        r = self.jet.rho
        return self.ddc_rho(V, W) / r - self.d_rho(V) * self.d_rho(W).conjugate() / r**2

    def omega(self, V: Vector, W: Vector) -> complex:
        if self.jet.rho <= 0.0:
            raise NonPositiveRho(f"rho = {self.jet.rho} <= 0")
        if self.jet.D <= EPS_D_DEFAULT:
            raise degenerate_levi(self.jet.D, self.jet.point.as_pair())
        return (self.jet.rho * self.ddc_u(V, W) / self.jet.D
                + self.d_rho(V) * self.d_rho(W).conjugate() / self.jet.rho)


def omega_pairing(jet: WirtingerJet, V: Vector, W: Vector) -> complex:
    """Omega(V, conj W) for (1,0) tangent vectors V, W at the jet's point."""
    return HermitianPairing(jet).omega(V, W)


def ma_scan(p: HermitianPolynomial, points: Iterable[Point]) -> list[MAReport]:
    """ma_residual of every point's jet, evaluated in batches; the same reports and errors."""
    points = list(points)
    reports: list[MAReport] = []
    for start in range(0, len(points), SWEEP_BLOCK):
        block = points[start:start + SWEEP_BLOCK]
        jets = eval_jets(p, *point_array(block).T)
        bad = np.flatnonzero(jets.rho <= 0.0)
        if bad.size:
            raise NonPositiveRho(f"rho = {jets.rho[bad[0]].item()} <= 0 at {jets.pair(bad[0])}")
        with np.errstate(all="ignore"):
            rho_D = jets.rho * jets.D
            residual = rho_D - jets.B
            normalized = residual / (np.abs(rho_D) + np.abs(jets.B) + 1e-300)
        reports += [MAReport(q, *values) for q, *values in zip(
            block, *(a.tolist() for a in (jets.rho, jets.D, jets.B, residual, normalized)))]
    return reports


MA_CSV_COLUMNS = ("x1", "y1", "x2", "y2", "rho", "D", "B", "residual", "normalized")


def write_ma_csv(reports: Sequence[MAReport], path, version: str, poly_hash: str) -> None:
    """Plot-ready residual table; metadata rides in leading comment lines."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# mafoliate {version}\n")
        fh.write(f"# poly_sha256 {poly_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(MA_CSV_COLUMNS)
        for rep in reports:
            row = rep.to_json_dict()
            writer.writerow([repr(row[c]) for c in MA_CSV_COLUMNS])
