"""folicurve: exact curvature identities and rotational CMC profiles for
sphere-foliated hypersurfaces in Riemannian and Lorentzian hyperbolic products."""

from .identity import (
    GeometrySignature,
    LORENTZIAN,
    RIEMANNIAN,
    bracket_cubic,
    neg_nH_S3,
    verify_squared_identity,
)
from .geometry import (
    FoliationJet,
    SurfacePoint,
    constancy_scan,
    euclidean_to_hyperbolic,
    hyperbolic_to_euclidean,
    is_spacelike,
    mean_curvature_at,
    mean_curvature_fd,
)
from .profiles import (
    HermiteProfile,
    RotationalProfile,
    cmc_rhs,
    integrate_profile,
    validate_profile,
)
from .exprlang import ProfileFunctions

__version__ = "0.1.0"

__all__ = [
    "GeometrySignature",
    "RIEMANNIAN",
    "LORENTZIAN",
    "bracket_cubic",
    "neg_nH_S3",
    "verify_squared_identity",
    "FoliationJet",
    "SurfacePoint",
    "constancy_scan",
    "euclidean_to_hyperbolic",
    "hyperbolic_to_euclidean",
    "is_spacelike",
    "mean_curvature_at",
    "mean_curvature_fd",
    "HermiteProfile",
    "RotationalProfile",
    "cmc_rhs",
    "integrate_profile",
    "validate_profile",
    "ProfileFunctions",
]
