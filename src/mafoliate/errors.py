"""Exception hierarchy for the toolkit.

Every error raised by the analysis modules derives from ``MafoliateError`` so
callers (and the CLI) can separate tool failures from ordinary Python bugs.
"""


class MafoliateError(Exception):
    """Base class for all toolkit errors."""


class RealityViolation(MafoliateError):
    """A polynomial's coefficients are not conjugate-paired, so it is not real-valued."""


class NegativeExponent(MafoliateError):
    """A monomial key carries a negative or non-integer exponent."""


class MalformedPolynomial(MafoliateError, TypeError):
    """A polynomial source or coefficient has the wrong type (a JSON number where terms belong)."""


class CoefficientOverflow(MafoliateError, OverflowError):
    """An exact coefficient, of the input or of a polynomial derived from it, is too
    large for a double, so the polynomial cannot be evaluated."""


class NonPositiveRho(MafoliateError):
    """An operation that requires rho > 0 was invoked where rho <= 0 or is not finite."""


class DegenerateLevi(MafoliateError):
    """The Levi determinant is at or below monge_ampere.EPS_D_DEFAULT, so the cofactor
    formula for Z does not apply there."""


class ZeroDifferential(MafoliateError):
    """d(rho) vanishes at the requested point; no level hypersurface there."""


class NoExtension(MafoliateError):
    """Z does not extend to the Levi-degenerate point: det < 0 there (the Levi form is
    indefinite), or Z has a pole along an approach ray, or its limit depends on the ray."""


class AllRaysDegenerate(MafoliateError):
    """det vanishes identically, or is negative next to the point, on every approach ray."""


class FlowEscape(MafoliateError):
    """A flow trajectory left the domain rho > 0, exhausted its step budget, or does not
    raise rho (so no flow time reaches another level)."""


class UnreachableLevel(MafoliateError):
    """Radial root-finding finds no regular point of a level set {rho = r}: rho does not
    cross r along a ray, or r is a critical value, met where the ray starts."""


class IncompleteTrace(MafoliateError):
    """Leaf diagnostics were requested on a trace whose grid is not fully populated."""


class RankDeficientSamples(MafoliateError):
    """The least-squares sample set cannot determine the requested coefficients."""


class NonVanishingAtCenter(MafoliateError):
    """Weight extraction requires the fitted field to vanish at the origin."""


class ComplexEigenvalues(MafoliateError):
    """The linear part of the fitted field has eigenvalues with large imaginary parts."""


class NotHomogeneous(MafoliateError):
    """The polynomial mixes total degrees where homogeneity is required."""


class NotPositive(MafoliateError):
    """The polynomial fails to be positive on the test sphere; carries a witness point."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness
