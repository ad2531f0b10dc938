"""Jacobian spectra at fixed points and their classification.

Eigenvalues come from a dense nonsymmetric solver (LAPACK's balancing +
Hessenberg + shifted-QR path via numpy).  A table of fixed points, given as
coordinate rows, gets its Jacobians as one stack, its spectra from one
stacked solver call sorted row by row into canonical order, and its
eigenvalue-2 residuals from one stacked determinant; a single point is the
one-row case.  The closed forms for n = 2 and n = 3 below exist as
independent cross-checks.  A striking structural fact, verified here
numerically: every fixed point except the origin has the eigenvalue 2, so
the origin is the only attractor.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, DomainError, EigenSolverError
from .fixed_points import FixedPoint, SupportMask
from .model import Rates, jacobian

TAU_UNIT = 1e-9  # half-width of the modulus band treated as "on the unit circle"
NONHYP_REL_TOL = 1e-12  # relative tolerance for the nonhyperbolicity certificate
# Callers pass a large table in slices of this many rows, so that its
# Jacobian stack stays small (13 MB at n = 20)
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


class RootLocation(enum.Enum):
    ONE_ROOT_ABOVE_ONE_OTHER_INSIDE_UNIT = "one_root_above_one_other_inside_unit"
    ONE_ROOT_ABOVE_ONE_OTHER_OUTSIDE_UNIT = "one_root_above_one_other_outside_unit"
    NOT_APPLICABLE = "not_applicable"


class CharPolyN2(NamedTuple):
    """Coefficients of lam^2 + b*lam + c at the interior point (n = 2).

    f_at_one and f_at_minus_one are the factored closed forms of F(1) and
    F(-1), exposed for the saddle argument tests.
    """

    b: float
    c: float
    f_at_one: float
    f_at_minus_one: float


def sorted_spectrum(values) -> np.ndarray:
    """Sort eigenvalues by descending modulus, then ascending argument; a
    stack of spectra (one per row) is sorted row by row."""
    v = np.atleast_1d(np.asarray(values, dtype=complex))
    order = np.lexsort((np.angle(v), -np.abs(v)), axis=-1)
    return np.take_along_axis(v, order, axis=-1)


def _coords(point) -> np.ndarray:
    return point.coords if isinstance(point, FixedPoint) else np.asarray(point, dtype=float)


def spectrum_at(rates: Rates, point, jac=None) -> np.ndarray:
    """All n eigenvalues of the Jacobian at a fixed point, in canonical order.

    `point` is a FixedPoint or its coordinates; coordinates given as rows
    (shape (k, n)) get one spectrum per row from one stacked solver call.
    `jac` is the Jacobian (stack) at `point` when the caller has built it.
    """
    if jac is None:
        jac = jacobian(rates, _coords(point))
    try:
        eigs = np.linalg.eigvals(jac)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigenvalue iteration failed: {exc}") from exc
    return sorted_spectrum(eigs)


def classify(eigenvalues, tol: float = TAU_UNIT):
    """Classify a spectrum by counting moduli against the unit circle; a
    stack of spectra (one per row) gets a list with one class per row.

    Anything within `tol` of the circle is reported nonhyperbolic rather
    than guessed to a side.
    """
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    mods = np.abs(np.asarray(eigenvalues, dtype=complex))
    rows = np.atleast_2d(mods)
    size = rows.shape[-1]
    if size == 0:
        raise DomainError("empty spectrum")
    on_units = np.sum(np.abs(rows - 1.0) <= tol, axis=-1).tolist()
    insides = np.sum(rows < 1.0 - tol, axis=-1).tolist()
    outsides = np.sum(rows > 1.0 + tol, axis=-1).tolist()
    classes = []
    for inside, outside, on_unit in zip(insides, outsides, on_units):
        if on_unit > 0:
            tag = StabilityTag.NONHYPERBOLIC
        elif inside == size:
            tag = StabilityTag.ATTRACTING
        elif outside == size:
            tag = StabilityTag.REPELLING
        else:
            tag = StabilityTag.SADDLE
        classes.append(StabilityClass(tag, inside, outside, on_unit))
    return classes if mods.ndim > 1 else classes[0]


def root_location(b: float, c: float) -> RootLocation:
    """Locate the roots of F(lam) = lam^2 + b*lam + c relative to 1.

    When F(1) < 0 exactly one root lies in (1, inf); the other root is
    inside the unit circle iff F(-1) > 0.  When F(1) >= 0 the dichotomy
    does not apply.
    """
    f_one = 1.0 + b + c
    if f_one >= 0.0:
        return RootLocation.NOT_APPLICABLE
    f_minus_one = 1.0 - b + c
    if f_minus_one > 0.0:
        return RootLocation.ONE_ROOT_ABOVE_ONE_OTHER_INSIDE_UNIT
    return RootLocation.ONE_ROOT_ABOVE_ONE_OTHER_OUTSIDE_UNIT


def char_poly_coeffs_n2(rates: Rates) -> CharPolyN2:
    """Characteristic polynomial of the Jacobian at the interior point, n = 2."""
    if rates.n != 2:
        raise DimensionMismatch(f"closed form requires n=2, got n={rates.n}")
    t1, t2 = (float(v) for v in rates.values)
    prod = t1 * t2
    b = -2.0 * (t1 + t2) ** 2 / (3.0 * prod)
    c = (4.0 * (t1 + t2) ** 2 - 4.0 * (5.0 * prod - 2.0 * t1**2 - 2.0 * t2**2)) / (9.0 * prod)
    f_at_one = (2.0 * t1 - t2) * (t1 - 2.0 * t2) / (3.0 * prod)
    f_at_minus_one = (2.0 * t1**2 + 2.0 * t2**2 + prod) / prod
    return CharPolyN2(b, c, f_at_one, f_at_minus_one)


def interior_secondary_eig_n2(rates: Rates) -> float:
    """The non-2 eigenvalue at the interior point for n = 2."""
    if rates.n != 2:
        raise DimensionMismatch(f"closed form requires n=2, got n={rates.n}")
    t1, t2 = rates.values
    return float(2.0 * (t1**2 + t2**2 - t1 * t2) / (3.0 * t1 * t2))


def interior_discriminant_n3(rates: Rates) -> float:
    """Discriminant of the quadratic factor of the interior characteristic
    polynomial for n = 3.

    Never negative for positive rates, so the pair is real.  With e1, e2, e3
    the elementary symmetric functions of the rates, 25 e3^2 times the
    discriminant is a quadratic in e3 that decreases up to e3 = 7 e1 e2 / 45,
    beyond the AM-GM bound e3 <= e1 e2 / 9.  So with e1 and e2 fixed it is
    least at the largest e3, where two rates are equal, and at rates
    (1, 1, c) it is 16 (c - 1)^2 (c - 2)^2.  It is zero (a double
    eigenvalue) exactly at rates proportional to (1, 1, 1) or to a
    permutation of (1, 1, 2), where rounding can leave it a few eps below 0.
    """
    if rates.n != 3:
        raise DimensionMismatch(f"closed form requires n=3, got n={rates.n}")
    recip = rates.reciprocal_sum()
    total = float(rates.values.sum())
    pair = float(
        rates.values[0] * rates.values[1]
        + rates.values[0] * rates.values[2]
        + rates.values[1] * rates.values[2]
    )
    return (
        0.16 * recip**2 * total**2
        - 11.2 * recip * total
        + 1.92 * recip**2 * pair
        + 36.0
    )


def interior_secondary_eigs_n3(rates: Rates) -> tuple[complex, complex]:
    """The two non-2 eigenvalues at the interior point for n = 3.

    Returned as (lam_minus, lam_plus), as complex numbers: the discriminant
    is never negative (see `interior_discriminant_n3`), so both are real,
    up to a rounding-sized imaginary part where it is zero.
    """
    d = interior_discriminant_n3(rates)
    recip = rates.reciprocal_sum()
    total = float(rates.values.sum())
    base = 0.4 * recip * total - 2.0
    root = np.sqrt(complex(d))
    return complex((base - root) / 2.0), complex((base + root) / 2.0)


def eigenvalue_two_residual(rates: Rates, point, jac=None):
    """|det(J - 2I)| at a non-origin fixed point, normalized by ||J||_inf^n.

    The determinant vanishes identically at every fixed point except the
    origin; the normalization makes the floating-point residual comparable
    across dimensions.  `point` and `jac` are as in `spectrum_at`; rows of
    coordinates get a list with one residual per row.
    """
    if jac is None:
        jac = jacobian(rates, _coords(point))
    norms = np.max(np.sum(np.abs(jac), axis=-1), axis=-1)
    if np.any(norms == 0.0):
        raise DomainError("null Jacobian: the eigenvalue-2 identity excludes the origin")
    dets = np.abs(np.linalg.det(jac - 2.0 * np.eye(rates.n)))
    # Python's float power: numpy's array power can differ in the last bit
    residuals = [det / norm**rates.n for det, norm in zip(np.ravel(dets).tolist(), np.ravel(norms).tolist())]
    return residuals if jac.ndim > 2 else residuals[0]


def nonhyperbolic_condition(rates: Rates, support: SupportMask) -> bool:
    """Certificate that the fixed point on `support` is nonhyperbolic.

    True iff r_i * sum_{j in support} 1/r_j equals (2*m - 1)/2 for some i in
    the support, where m is the support size, within relative NONHYP_REL_TOL.
    """
    if support.n != rates.n:
        raise DimensionMismatch(f"support is for n={support.n}, rates have n={rates.n}")
    indices = support.indices()
    if not indices:
        raise DomainError("certificate requires a nonempty support")
    restricted = float(np.sum(1.0 / rates.values[list(indices)]))
    target = (2.0 * len(indices) - 1.0) / 2.0
    for i in indices:
        if abs(float(rates.values[i]) * restricted - target) <= NONHYP_REL_TOL * target:
            return True
    return False
