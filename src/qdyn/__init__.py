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
)
from .errors import (
    DimensionMismatch,
    DomainError,
    EigenSolverError,
    QdynError,
    RegionNotApplicable,
)
from .fixed_points import (
    MAX_ENUM_DIM,
    FixedPoint,
    SupportMask,
    enumerate_fixed_points,
    fixed_point_for_support,
    interior_fixed_point,
)
from .model import Rates, apply, as_state, jacobian
from .stability import (
    TAU_UNIT,
    StabilityClass,
    StabilityTag,
    classify,
    eigenvalue_two_residual,
    nonhyperbolic_condition,
    sorted_spectrum,
    spectrum_at,
)

# Diagnostics reach stderr only through a handler the application installs
# (the CLI installs one when QDYN_LOG is set), never logging's last resort.
logging.getLogger("qdyn").addHandler(logging.NullHandler())

__version__ = "0.1.0"

__all__ = [
    "BoundarySample",
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
    "StabilityClass",
    "StabilityTag",
    "SupportMask",
    "TAU_UNIT",
    "apply",
    "as_state",
    "basin_boundary",
    "classify",
    "classify_fate",
    "enumerate_fixed_points",
    "eigenvalue_two_residual",
    "fixed_point_for_support",
    "interior_fixed_point",
    "iterate",
    "jacobian",
    "nonhyperbolic_condition",
    "region_membership",
    "sorted_spectrum",
    "spectrum_at",
]
