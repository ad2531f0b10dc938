"""Numerical toolkit for the quadratic interaction map on the nonnegative
orthant: exact fixed-point enumeration, stability classification, trajectory
fates, basin-boundary extraction, and randomized structural verification."""

import logging

from .dynamics import (
    DEFAULT_BUDGET,
    EPS_CONV,
    R_ESCAPE,
    BoundarySample,
    FateEvidence,
    FateOutcome,
    FateReport,
    RegionKind,
    basin_boundary,
    classify_fate,
    iterate,
    region_membership,
    stable_tangent_n2,
    unstable_line_slope,
    unstable_ray,
)
from .errors import (
    DimensionMismatch,
    DomainError,
    EigenSolverError,
    QdynError,
    RegionNotApplicable,
    VerticalLineError,
)
from .fixed_points import (
    MAX_ENUM_DIM,
    FixedPoint,
    SupportMask,
    coefficient_determinant,
    enumerate_fixed_points,
    fixed_point_for_support,
    interior_fixed_point,
)
from .model import Rates, apply, as_state, jacobian
from .stability import (
    TAU_UNIT,
    CharPolyN2,
    RootLocation,
    StabilityClass,
    StabilityTag,
    char_poly_coeffs_n2,
    classify,
    eigenvalue_two_residual,
    interior_discriminant_n3,
    interior_secondary_eig_n2,
    interior_secondary_eigs_n3,
    nonhyperbolic_condition,
    root_location,
    sorted_spectrum,
    spectrum_at,
)

# Diagnostics reach stderr only through a handler the application installs
# (the CLI installs one when QDYN_LOG is set), never logging's last resort.
logging.getLogger("qdyn").addHandler(logging.NullHandler())

__version__ = "0.1.0"

__all__ = [
    "BoundarySample",
    "CharPolyN2",
    "DEFAULT_BUDGET",
    "DimensionMismatch",
    "DomainError",
    "EPS_CONV",
    "EigenSolverError",
    "FateEvidence",
    "FateOutcome",
    "FateReport",
    "FixedPoint",
    "MAX_ENUM_DIM",
    "QdynError",
    "R_ESCAPE",
    "Rates",
    "RegionKind",
    "RegionNotApplicable",
    "RootLocation",
    "StabilityClass",
    "StabilityTag",
    "SupportMask",
    "TAU_UNIT",
    "VerticalLineError",
    "apply",
    "as_state",
    "basin_boundary",
    "char_poly_coeffs_n2",
    "classify",
    "classify_fate",
    "coefficient_determinant",
    "enumerate_fixed_points",
    "eigenvalue_two_residual",
    "fixed_point_for_support",
    "interior_discriminant_n3",
    "interior_fixed_point",
    "interior_secondary_eig_n2",
    "interior_secondary_eigs_n3",
    "iterate",
    "jacobian",
    "nonhyperbolic_condition",
    "region_membership",
    "root_location",
    "sorted_spectrum",
    "spectrum_at",
    "stable_tangent_n2",
    "unstable_line_slope",
    "unstable_ray",
]
