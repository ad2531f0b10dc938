"""Closed-form enumeration of the map's fixed points.

For every subset of coordinates there is exactly one algebraic fixed point:
the coordinates outside the subset are zero and the rest solve the linear
system x_k + 2*sum_{i != k} x_i = 2/r_k restricted to the subset.  There are
2^n of them in total; points with a negative coordinate are kept and marked
infeasible, since stability analysis needs the full algebraic set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError
from .model import Rates, _integer, _step

MAX_ENUM_DIM = 20  # enumeration is 2^n points; hard cap


@dataclass(frozen=True)
class SupportMask:
    """Set of coordinates (0-based) that are nonzero at a fixed point, stored
    as a mask: bit k of `mask_int` is set iff coordinate k is nonzero."""

    n: int
    mask_int: int

    def __post_init__(self) -> None:
        # exact ints pass without a call, since the enumeration builds 2^n
        # masks; other fields are checked and stored as Python ints.  The
        # range test builds no 2^n: a mask in range has no bit at n or above.
        if type(self.n) is not int or type(self.mask_int) is not int or self.n < 0:
            object.__setattr__(self, "n", _integer("n", self.n, 0))
            object.__setattr__(self, "mask_int", _integer("mask_int", self.mask_int))
        if self.mask_int < 0 or self.mask_int >> self.n:
            raise DimensionMismatch(f"mask {self.mask_int} out of range for n={self.n}")

    def bits(self) -> tuple[int, ...]:
        return tuple(self.mask_int >> k & 1 for k in range(self.n))

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "SupportMask":
        return cls(len(bits), _mask(bits))

    @classmethod
    def full(cls, n: int) -> "SupportMask":
        return cls(n, (1 << n) - 1)


@dataclass(frozen=True)
class FixedPoint:
    """An algebraic fixed point with its support, feasibility, and residual."""

    coords: np.ndarray
    support: SupportMask
    feasible: bool
    residual: float

    @property
    def is_origin(self) -> bool:
        return self.support.mask_int == 0


def _all_supports(n: int) -> np.ndarray:
    # One int8 row of support bits per mask 0 .. 2^n - 1 (row index == mask):
    # 1 where the coordinate is in the support, else 0, under the enumeration
    # cap, filled one column at a time, so no 2^n x n int64 table is ever held
    if n > MAX_ENUM_DIM:
        raise DomainError(f"n={n} exceeds the enumeration cap ({MAX_ENUM_DIM})")
    masks = np.arange(1 << n)
    bits = np.empty((masks.size, n), dtype=np.int8)
    for k in range(n):
        bits[:, k] = (masks >> k) & 1
    return bits


def _mask(bits: Sequence[int]) -> int:
    # a support's mask as a Python int, exact for any n: bit k is set iff bits[k] is
    return sum(1 << k for k in np.flatnonzero(bits).tolist())


def _points(theta: np.ndarray, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordinates, residuals |H(x) - x|_inf and feasibility (every
    coordinate nonnegative), one row per row of support bits (1 where the
    coordinate is in the support), under one rate vector or one rate row
    per row of bits (theta of shape (n,) or (k, n)).

    The nonzero coordinates are the reduced form of the Cramer solution on
    the support, 4*sum_S(1/r) - (4m - 2)/r_k over 2m - 1 for a support S of
    m coordinates, which avoids the product of all rates (it overflows for
    large subsystems).  Supports of one size are solved in one broadcast, so
    each row's sums are the ones a 1-d solve on that support would give.
    """
    sizes, rates = bits.sum(axis=1), np.broadcast_to(theta, bits.shape)
    coords = np.zeros(bits.shape)
    for m in set(sizes.tolist()) - {0}:  # the origin's row stays zero
        rows = np.nonzero(sizes == m)[0]
        at = rows[:, None], np.nonzero(bits[rows])[1].reshape(rows.size, m)
        recip = 1.0 / rates[at]
        # a singleton is the plain 2/r case, exact also where 1/r is subnormal
        coords[at] = 2.0 / rates[at] if m == 1 else (
            (4.0 * recip.sum(axis=1, keepdims=True) - (4.0 * m - 2.0) * recip) / (2.0 * m - 1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        # extreme rates can overflow the step, and the residual is then inf or nan
        residual = np.max(np.abs(_step(theta, coords) - coords), axis=1)
    coords.flags.writeable = False
    return coords, residual, np.all(coords >= 0.0, axis=1)


def fixed_point_for_support(rates: Rates, support: SupportMask) -> FixedPoint:
    """The unique algebraic fixed point whose nonzero set is exactly `support`.

    The nonzero coordinates are the interior solution of the subsystem on the
    support, so restriction consistency is exact by construction.  The empty
    support yields the origin.
    """
    coords, residual, feasible = _points(rates.values, _support_row(rates, support))
    return FixedPoint(coords[0], support, bool(feasible[0]), float(residual[0]))


def _support_row(rates: Rates, support: SupportMask) -> np.ndarray:
    # the support's bits as one row, for rates of the support's own n
    if support.n != rates.n:
        raise DimensionMismatch(f"support is for n={support.n}, rates have n={rates.n}")
    return np.array([support.bits()])


def interior_fixed_point(rates: Rates) -> FixedPoint:
    """The fixed point with every coordinate nonzero (feasible or not)."""
    return fixed_point_for_support(rates, SupportMask.full(rates.n))


def enumerate_fixed_points(rates: Rates) -> list[FixedPoint]:
    """All 2^n algebraic fixed points, ordered by support mask ascending."""
    coords, residual, feasible = _points(rates.values, _all_supports(rates.n))
    return [
        FixedPoint(x, SupportMask(rates.n, mask), ok, res)
        for mask, (x, ok, res) in enumerate(zip(coords, feasible.tolist(), residual.tolist()))
    ]

