"""Jacobian spectra at fixed points and their classification.

Eigenvalues come from a dense nonsymmetric solver (LAPACK's balancing +
Hessenberg + shifted-QR path via numpy).  A table of fixed points, given
as coordinate rows, gets its Jacobians in stacks of at most _STACK_ROWS
rows, each built only when it is reached; each stack gets its spectra from
one stacked solver call, sorted row by row into canonical order, and its
eigenvalue-2 residuals from one stacked determinant.  A table that fits
one stack costs one Jacobian build and one solver call; a single point is
the one-row case.  The verification sweep builds its own Jacobian stacks
and solves them with the same two calls, `_eigvals` and `_eig2_residuals`.

Every fixed point except the origin has the eigenvalue 2, so the origin is
the only attractor; the test suite proves this for every support size m
with sympy, and `eigenvalue_two_residual` measures it in floats, one
array expression per Jacobian stack, wherever ||J||_inf^n is in float
range.  At a feasible nonzero point the other m - 1 eigenvalues of the
support block lie in [0, 1] and those off the support are r_k s (s the
coordinate sum).  So
the point is nonhyperbolic where some r_k s is 1, and otherwise a saddle
when m >= 2 or some r_k s < 1, repelling if not.  `nonhyperbolic_condition`
tests r_k s = 1 for all n rates at once, with no eigensolver.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, EigenSolverError
from .fixed_points import FixedPoint, SupportMask, _support_row
from .model import Rates, _numbers, _tolerance, jacobian

TAU_UNIT = 1e-9  # half-width of the modulus band treated as "on the unit circle"
NONHYP_REL_TOL = 1e-12  # relative tolerance for the nonhyperbolicity certificate
# rows per Jacobian stack, so a table of any size is built and solved in
# stacks of at most 13 MB at n = 20; 2^12, so a verify table is one stack
# and a verify chunk is _STACK_ROWS // 2^n draws
_STACK_ROWS = 4096


class StabilityTag(enum.Enum):
    ATTRACTING = "attracting"
    REPELLING = "repelling"
    SADDLE = "saddle"
    NONHYPERBOLIC = "nonhyperbolic"


@dataclass(frozen=True)
class StabilityClass:
    tag: StabilityTag
    inside: int  # eigenvalues with |lam| < 1 - tol
    outside: int  # eigenvalues with |lam| > 1 + tol
    on_unit: int  # eigenvalues within tol of the unit circle


def sorted_spectrum(values) -> np.ndarray:
    """Sort eigenvalues by descending modulus, then ascending argument; a
    stack of spectra (one per row) is sorted row by row."""
    v = np.atleast_1d(_numbers(values, "eigenvalues", complex))
    order = np.lexsort((np.angle(v), -np.abs(v)), axis=-1)
    return np.take_along_axis(v, order, axis=-1)


def _stacks(rates: Rates, point):
    """The Jacobian stacks at `point`: one per _STACK_ROWS coordinate rows
    (one for a single point), each built only when the caller reaches it."""
    x = np.atleast_1d(point.coords if isinstance(point, FixedPoint) else _numbers(point, "point"))
    cuts = range(_STACK_ROWS, len(x) if x.ndim > 1 else 0, _STACK_ROWS)  # a single point is never cut
    return (jacobian(rates, rows) for rows in np.split(x, cuts))


def spectrum_at(rates: Rates, point) -> np.ndarray:
    """All n eigenvalues of the Jacobian at a fixed point, in canonical order.

    `point` is a FixedPoint or its coordinates; coordinates given as rows
    (shape (k, n)) get one spectrum per row, from one stacked solver call
    per stack of at most _STACK_ROWS rows.
    """
    return np.concatenate([sorted_spectrum(_eigvals(stack)) for stack in _stacks(rates, point)])


def _eigvals(stack: np.ndarray) -> np.ndarray:
    # the unsorted eigenvalues of a Jacobian stack, from one solver call
    try:
        return np.linalg.eigvals(stack)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigenvalue iteration failed: {exc}") from exc


def classify(eigenvalues, tol: float = TAU_UNIT):
    """Classify a spectrum by counting moduli against the unit circle; a
    stack of spectra (one per row) gets a list with one class per row, and
    anything of more dimensions is a DimensionMismatch.

    Anything within `tol`, finite and positive, of the circle is reported
    nonhyperbolic rather than guessed to a side; an infinite eigenvalue
    counts as outside, and a NaN one, which lies on no side, is a
    DomainError.
    """
    eigenvalues = _numbers(eigenvalues, "eigenvalues", complex)
    if eigenvalues.ndim > 2:
        raise DimensionMismatch(f"eigenvalues must be a spectrum or a stack of them, got shape {eigenvalues.shape}")
    if np.isnan(eigenvalues).any():
        raise DomainError("eigenvalues must not be NaN: a NaN lies on no side of the unit circle")
    columns = _classes(np.atleast_2d(eigenvalues), _tolerance(tol))
    classes = [StabilityClass(*row) for row in zip(*(column.tolist() for column in columns))]
    return classes if eigenvalues.ndim > 1 else classes[0]


# a spectrum's tag is the first of these whose condition on its counts holds
_TAGS = np.array([StabilityTag.NONHYPERBOLIC, StabilityTag.ATTRACTING, StabilityTag.REPELLING,
                  StabilityTag.SADDLE], dtype=object)


def _classes(spectra: np.ndarray, tol: float) -> tuple:
    """The fields of `StabilityClass` for a stack of spectra, one per row,
    as columns: the tags (an object array) and the counts inside, outside
    and on the unit circle."""
    mods = np.abs(spectra)
    size = mods.shape[-1]
    if size == 0:
        raise DomainError("empty spectrum")
    on_unit = np.sum(np.abs(mods - 1.0) <= tol, axis=-1)
    inside = np.sum(mods < 1.0 - tol, axis=-1)
    outside = np.sum(mods > 1.0 + tol, axis=-1)
    tags = _TAGS[np.select([on_unit > 0, inside == size, outside == size], [0, 1, 2], 3)]
    return tags, inside, outside, on_unit


def eigenvalue_two_residual(rates: Rates, point):
    """|det(J - 2I)| at a non-origin fixed point, normalized by ||J||_inf^n.

    The determinant vanishes identically at every fixed point except the
    origin; the normalization makes the floating-point residual comparable
    across dimensions.  Where ||J||_inf^n is not strictly between 0 and inf
    (the origin's null Jacobian, underflow, overflow, a nonfinite Jacobian)
    there is no residual to report: DomainError.  `point` is as in
    `spectrum_at`; rows of coordinates get a list with one residual per row.
    """
    residuals = np.hstack([_eig2_residuals(stack) for stack in _stacks(rates, point)]).tolist()
    # rows (ndim 2) get a list; a point's coordinates (ndim 1) and a FixedPoint (ndim 0) a float
    return residuals if np.ndim(point) > 1 else residuals[0]


def _eig2_residuals(stack: np.ndarray) -> np.ndarray:
    # the residual of each Jacobian of a stack, shaped like its leading axes,
    # from one determinant call; float_power is the C library's pow, which
    # np.power's vector loop can miss in the last bit.  Past the float range
    # a norm power is rejected and a determinant is inf, with no warning.
    with np.errstate(over="ignore"):
        scales = np.float_power(np.max(np.sum(np.abs(stack), axis=-1), axis=-1), stack.shape[-1])
        if not np.all((0.0 < scales) & (scales < np.inf)):
            raise DomainError("null Jacobian or ||J||_inf^n out of float range: the residual needs 0 < ||J||^n < inf")
        return np.abs(np.linalg.det(stack - 2.0 * np.eye(stack.shape[-1]))) / scales


def nonhyperbolic_condition(rates: Rates, support: SupportMask) -> bool:
    """Certificate that the fixed point on `support` has the eigenvalue 1.

    On a support S of m coordinates, with R = sum_{j in S} 1/r_j, the point's
    coordinate sum is s = 2R/(2m - 1).  Its spectrum is r_k s for each k off
    S together with the roots of the support block, and one of those is 1
    exactly when r_k s = 1 for some k in S.  So the certificate is True iff
    r_k R equals (2m - 1)/2 for some k, within relative NONHYP_REL_TOL.  A
    feasible nonzero point has no other eigenvalue on the unit circle, so
    there the certificate decides, up to its tolerance, whether the point is
    nonhyperbolic.
    """
    indices = np.flatnonzero(_support_row(rates, support))
    if not indices.size:
        raise DomainError("certificate requires a nonempty support")
    restricted = float(np.sum(1.0 / rates.values[indices]))
    target = (2.0 * indices.size - 1.0) / 2.0
    with np.errstate(over="ignore"):  # an r_k R past the float range is inf, never the target
        return bool(np.any(np.abs(rates.values * restricted - target) <= NONHYP_REL_TOL * target))
