"""mafoliate: desk-scale verification of Monge-Ampere exhaustions on C^2.

Exact Wirtinger calculus for real polynomials in (z, zbar), an exact
Monge-Ampere certificate with pointwise residuals as its oracle, the complex
gradient, finite-type analysis via exact Lie brackets with gradient extension
across Levi-degenerate points, foliation leaf tracing, and the homogeneous /
weighted-circular verdicts.
"""

__version__ = "0.1.0"

from .calculus import (
    BidegreeProfile,
    GaussianRational,
    MonomialKey,
    Point,
    Polynomial,
    WirtingerJet,
    bidegree_decompose,
    canonical_json,
    eval_jet,
    evaluate_many,
    parse_polynomial,
    polynomial_hash,
    real_polynomial,
    serialize_polynomial,
    substitute_linear,
)
from .corpus import CORPUS_NAMES, MA_CORPUS_NAMES, corpus, load, ma_corpus
from .errors import (
    AllRaysDegenerate,
    CoefficientOverflow,
    ComplexEigenvalues,
    DegenerateLevi,
    FlowEscape,
    IncompleteTrace,
    MafoliateError,
    MalformedPolynomial,
    NegativeExponent,
    NoExtension,
    NonPositiveRho,
    NonVanishingAtCenter,
    NotHomogeneous,
    NotPositive,
    RankDeficientSamples,
    RealityViolation,
    UnreachableLevel,
    ZeroDifferential,
)
from .finite_type import (
    BracketIdentityReport,
    PolyVectorField,
    TypeReport,
    bracket_identities,
    bracket_identities_check,
    extend_gradient,
    gradient,
    lie_bracket,
    pair_d_rho,
    point_type,
    polynomial_gradient,
    tangential_field,
)
from .foliation import (
    BurnsVerdict,
    FlowConfig,
    HolomorphicFit,
    LeafDiagnostics,
    LeafTrace,
    TransportReport,
    WeightEstimate,
    ZeroSetReport,
    burns_verify,
    estimate_weights,
    fit_holomorphic_Z,
    leaf_diagnostics,
    level_set_samples,
    level_transport,
    make_grid,
    trace_leaf,
    weighted_homogeneity_check,
    write_leaf_csv,
    zero_set_check,
)
from .monge_ampere import (
    GradientValue,
    MAReport,
    complex_gradient,
    is_ma_exact,
    ma_residual,
    ma_scan,
    omega_pairing,
    write_ma_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
