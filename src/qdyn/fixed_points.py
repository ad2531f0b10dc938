"""Closed-form enumeration of the map's fixed points.

For every subset of coordinates there is exactly one algebraic fixed point:
the coordinates outside the subset are zero and the rest solve the linear
system x_k + 2*sum_{i != k} x_i = 2/r_k restricted to the subset.  There are
2^n of them in total; points with a negative coordinate are kept and marked
infeasible, since stability analysis needs the full algebraic set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError
from .model import Rates, _readonly, apply_unchecked

MAX_ENUM_DIM = 20  # enumeration is 2^n points; hard cap


@dataclass(frozen=True)
class SupportMask:
    """Set of coordinates (0-based) that are nonzero at a fixed point."""

    n: int
    nonzero: frozenset[int]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"dimension must be >= 1, got {self.n}")
        nonzero = frozenset(int(i) for i in self.nonzero)
        if nonzero and (min(nonzero) < 0 or max(nonzero) >= self.n):
            raise DimensionMismatch(f"support indices out of range for n={self.n}: {sorted(nonzero)}")
        object.__setattr__(self, "nonzero", nonzero)

    @property
    def r(self) -> int:
        """Number of zero coordinates."""
        return self.n - len(self.nonzero)

    @property
    def mask_int(self) -> int:
        """Binary encoding: bit k set iff coordinate k is nonzero."""
        return sum(1 << i for i in self.nonzero)

    def bits(self) -> tuple[int, ...]:
        return tuple(1 if i in self.nonzero else 0 for i in range(self.n))

    def indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.nonzero))

    @classmethod
    def from_mask_int(cls, n: int, mask: int) -> "SupportMask":
        if mask < 0 or mask >= (1 << n):
            raise DomainError(f"mask {mask} out of range for n={n}")
        return cls(n, frozenset(i for i in range(n) if mask >> i & 1))

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "SupportMask":
        return cls(len(bits), frozenset(i for i, b in enumerate(bits) if b))

    @classmethod
    def full(cls, n: int) -> "SupportMask":
        return cls(n, frozenset(range(n)))


@dataclass(frozen=True)
class FixedPoint:
    """An algebraic fixed point with its support, feasibility, and residual."""

    coords: np.ndarray
    support: SupportMask
    feasible: bool
    residual: float

    @property
    def is_origin(self) -> bool:
        return not self.support.nonzero


def _interior_coords(theta: np.ndarray) -> np.ndarray:
    # Reduced form of the Cramer solution: avoids the product of all rates,
    # which overflows for large subsystems.  Singleton subsystems are the
    # plain 2/r case.
    m = theta.size
    if m == 1:
        return np.array([2.0 / theta[0]])
    recip = 1.0 / theta
    return (4.0 * recip.sum() - (4.0 * m - 2.0) * recip) / (2.0 * m - 1.0)


def fixed_point_for_support(rates: Rates, support: SupportMask) -> FixedPoint:
    """The unique algebraic fixed point whose nonzero set is exactly `support`.

    The nonzero coordinates are the interior solution of the subsystem on the
    support, so restriction consistency is exact by construction.  The empty
    support yields the origin.
    """
    if support.n != rates.n:
        raise DimensionMismatch(f"support is for n={support.n}, rates have n={rates.n}")
    coords = np.zeros(rates.n)
    if support.nonzero:
        idx = list(support.indices())
        coords[idx] = _interior_coords(rates.values[idx])
    with np.errstate(over="ignore", invalid="ignore"):
        # extreme rates can overflow the step; the residual is then inf or nan
        residual = float(np.max(np.abs(apply_unchecked(rates, coords) - coords)))
    feasible = bool(np.all(coords >= 0.0))
    return FixedPoint(_readonly(coords), support, feasible, residual)


def interior_fixed_point(rates: Rates) -> FixedPoint:
    """The fixed point with every coordinate nonzero (feasible or not)."""
    return fixed_point_for_support(rates, SupportMask.full(rates.n))


def enumerate_fixed_points(rates: Rates) -> list[FixedPoint]:
    """All 2^n algebraic fixed points, ordered by support mask ascending."""
    if rates.n > MAX_ENUM_DIM:
        raise DomainError(f"n={rates.n} exceeds the enumeration cap ({MAX_ENUM_DIM})")
    return [
        fixed_point_for_support(rates, SupportMask.from_mask_int(rates.n, mask))
        for mask in range(1 << rates.n)
    ]


def feasible_nonzero_points(rates: Rates) -> tuple[list[int], np.ndarray]:
    """Masks and coordinates (one row each) of the feasible nonzero fixed
    points, mask-ascending.

    Bit for bit the feasible non-origin entries of `enumerate_fixed_points`,
    without building the others.  On a support S the smallest-rate coordinate
    has the sign of the slack 1/2 - sum_{j in S} (1 - r_min(S)/r_j); the
    deficit sum only grows with S, so every subset of a feasible support is
    feasible.  Supports are therefore grown depth-first in increasing index
    order and a branch is dropped once its deficit exceeds 1/2 (plus a
    round-off margin; the kept points pass the exact coordinate test).  The
    cost is proportional to the points returned, which is 2^n - 1 for equal
    rates, so the enumeration cap still applies.
    """
    n = rates.n
    if n > MAX_ENUM_DIM:
        raise DomainError(f"n={n} exceeds the enumeration cap ({MAX_ENUM_DIM})")
    theta = rates.values
    rate = theta.tolist()
    found: list[tuple[int, np.ndarray]] = []
    stack: list[tuple[list[int], int, float, float]] = [([], 0, 0.0, float("inf"))]
    while stack:
        idx, mask, recip_sum, r_min = stack.pop()
        for k in range(idx[-1] + 1 if idx else 0, n):
            sub, low, total = idx + [k], min(r_min, rate[k]), recip_sum + 1.0 / rate[k]
            if len(sub) - low * total > 0.5 + 1e-9:
                continue
            coords = np.zeros(n)
            coords[sub] = _interior_coords(theta[sub])
            if np.all(coords >= 0.0):
                found.append((mask | 1 << k, coords))
            stack.append((sub, mask | 1 << k, total, low))
    found.sort(key=lambda item: item[0])
    return [mask for mask, _ in found], np.array([c for _, c in found]).reshape(len(found), n)


def coefficient_determinant(n: int) -> float:
    """Determinant of the n x n matrix with 1 on the diagonal and 2 elsewhere.

    Closed form (-1)^(n-1) * (2n - 1); the coefficient matrix of the linear
    system behind `_interior_coords`.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return float((-1.0) ** (n - 1) * (2 * n - 1))
