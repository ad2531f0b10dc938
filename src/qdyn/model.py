"""The quadratic interaction map on the nonnegative orthant, and its Jacobian.

One step of the discrete-time system sends a state x = (x_1, ..., x_n),
x_k >= 0, to

    x_k' = (r_k * x_k / 2) * (x_k + 2 * sum_{i != k} x_i),

where the per-coordinate rates r_k are strictly positive.  The map is
homogeneous of degree two and preserves the nonnegative orthant.  States are
plain 1-d float arrays; `as_state` enforces the domain at the library
boundary.  The package's other argument rules (numbers, tolerances,
integers and seeds) are here too, one owner each.  All values here are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError


@dataclass(frozen=True)
class Rates:
    """Strictly positive rate vector of length >= 2."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.atleast_1d(_numbers(self.values, "rates"))
        if values.ndim != 1:
            raise DomainError(f"rates must be a 1-d vector, got shape {values.shape}")
        if values.size < 2:
            raise DomainError(f"n must be >= 2, got {values.size} rate(s)")
        if not ((0.0 < values) & (values < np.inf)).all():  # False for NaN too
            raise DomainError("rates must be finite and strictly positive")
        # 4*n*sum(1/r_k) bounds every intermediate of the closed-form fixed
        # points; Python floats overflow to inf without a warning
        if not math.isfinite(4.0 * values.size * sum(1.0 / r for r in values.tolist())):
            raise DomainError("rates too small: 4*n*sum(1/r_k) overflows")
        values = values.copy()  # read-only, so that no caller can change it
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.size


def as_state(x, n: int | None = None) -> np.ndarray:
    """Validate x as a state in the nonnegative orthant and return it as an array.

    Rejects (rather than clamps) negative or nonfinite coordinates: silently
    clamping would corrupt downstream fate classification.
    """
    arr = np.atleast_1d(_numbers(x, "state"))
    if arr.ndim != 1:
        raise DimensionMismatch(f"state must be a 1-d vector, got shape {arr.shape}")
    if n is not None and arr.size != n:
        raise DimensionMismatch(f"state has length {arr.size}, expected {n}")
    if not np.isfinite(arr).all():
        raise DomainError("state must be finite")
    if (arr < 0.0).any():
        raise DomainError("state must be componentwise nonnegative")
    return arr


# the items numpy converts to floats but that are no numbers: a bool to 1.0,
# a numeric string to its number, None to NaN
_NOT_NUMBERS = (bool, np.bool_, str, bytes, type(None))


def _numbers(x, name: str, dtype: type = float) -> np.ndarray:
    # x as a float array, or a complex one for dtype=complex; one of
    # _NOT_NUMBERS anywhere in x, a bool or string array, or an item that
    # dtype refuses or cannot hold raises DomainError
    try:
        items = x if isinstance(x, np.ndarray) else np.asarray(x, dtype=object)
        if items.dtype.kind in "bSU" or items.dtype == object and any(isinstance(v, _NOT_NUMBERS) for v in items.flat):
            raise TypeError
        return np.asarray(x, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be numbers, got {x!r}") from None


def _tolerance(tol) -> float:
    # a tolerance argument, checked and returned as a float: a real number,
    # not a bool, finite and positive as a float, so that an integer past the
    # float range counts as inf (the chained comparison is False for NaN too)
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
        raise DomainError(f"tol must be a number, got {tol!r}")
    value = math.inf if tol > sys.float_info.max else float(tol)
    if not 0.0 < value < math.inf:
        raise DomainError(f"tol must be finite and positive, got {value}")
    return value


def _integer(name: str, value, low: int | None = None) -> int:
    # an integer-valued argument as a Python int, at least `low` where one is
    # given: numpy integers pass, floats do not, and neither does a bool, an
    # int subclass in Python
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise DomainError(f"{name} must be >= {low}, got {value}")
    return value


def _seed(seed) -> int:
    # a generator seed, checked: an integer Philox key, which is 128-bit
    seed = _integer("seed", seed)
    if not 0 <= seed < 2**128:
        raise DomainError(f"seed must be in [0, 2^128), got {seed}")
    return seed


def _lhs(x: np.ndarray) -> np.ndarray:
    # x_k + 2*sum_{i != k} x_i == 2*sum(x) - x_k, for a state or for each row of a stack
    return 2.0 * x.sum(axis=-1, keepdims=True) - x


def _step(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    return 0.5 * theta * x * _lhs(x)


def apply(rates: Rates, x) -> np.ndarray:
    """One application of the map to a state in the nonnegative orthant; a
    step past the float range raises DomainError, with no numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        step = _step(rates.values, as_state(x, rates.n))
    if not np.isfinite(step).all():
        raise DomainError("the step overflows the float range")
    return step


def jacobian(rates: Rates, x) -> np.ndarray:
    """Jacobian matrix of the map at x; for states given as rows (shape
    (k, n)), the stack of their k Jacobians.

    Entry (k, k) is r_k * sum(x) and entry (k, j), j != k, is r_k * x_k.
    Negative coordinates are allowed here: stability analysis evaluates the
    Jacobian at infeasible algebraic fixed points as well.
    """
    arr = np.atleast_1d(_numbers(x, "state"))
    if arr.ndim > 2 or arr.shape[-1] != rates.n:
        raise DimensionMismatch(f"state has shape {arr.shape}, expected ({rates.n},) or (k, {rates.n})")
    if not np.all(np.isfinite(arr)):
        raise DomainError("state must be finite")
    return _jacobian(rates.values, arr.reshape(-1, rates.n)).reshape(arr.shape + (rates.n,))


def _jacobian(theta: np.ndarray, rows: np.ndarray) -> np.ndarray:
    # The Jacobians at the rows of a (k, n) stack, under one rate vector or
    # one rate row per state (theta of shape (n,) or (k, n)).
    n = rows.shape[1]
    diag = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):
        # entries past the float range become inf; the eigensolver rejects them
        jac = np.repeat((theta * rows)[:, :, None], n, axis=2)
        jac[:, diag, diag] = theta * rows.sum(axis=1, keepdims=True)
    return jac
