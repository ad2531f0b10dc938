"""Exception types shared across the package."""


class QdynError(Exception):
    """Base class for all qdyn errors."""


class DimensionMismatch(QdynError):
    """Vector or matrix sizes do not agree."""


class DomainError(QdynError):
    """Input outside the accepted domain (negative, nonfinite, or bad shape)."""


class EigenSolverError(QdynError):
    """The eigenvalue iteration did not converge."""

