"""Trajectory iteration, fate classification, invariant regions, and
invariant-manifold data.

The global picture driving everything here: the polyhedral regions MBAR1
(all constraints x_k + 2*sum_{i != k} x_i <= 2/r_k) and MBAR2 (all >=) are
forward-invariant, trajectories inside them converge to the origin
respectively escape to infinity, and in the plane the two basins are
separated by an invariant curve through the nonzero fixed points.  Fate
classification exploits the regions as shortcuts; the separating curve has
no usable closed form and is extracted by bisection instead.
"""

from __future__ import annotations

import enum
import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, RegionNotApplicable, VerticalLineError
from .fixed_points import feasible_nonzero_points, interior_fixed_point
from .model import Rates, _readonly, _step, as_state
from .stability import StabilityTag, classify, spectrum_at

log = logging.getLogger("qdyn.dynamics")

EPS_CONV = 1e-12  # inf-norm below which a trajectory counts as collapsed
R_ESCAPE = 1e8  # inf-norm above which a trajectory counts as escaped
DEFAULT_BUDGET = 100_000
REGION_MARGIN = 1e-12  # strict-interior margin for the region shortcut
PROXIMITY_RTOL = 1e-11  # fixed-point detection, relative to max(1, |coords|)
MAX_DOUBLINGS = 60


class RegionKind(enum.Enum):
    # M1/M2 need r1 < 2*r2 and r2 < 2*r1; M3/M4 need r1 > 2*r2; M5/M6 need
    # r2 > 2*r1.  All six are n=2 only; MBAR1/MBAR2 exist for every n.
    M1 = "m1"
    M2 = "m2"
    M3 = "m3"
    M4 = "m4"
    M5 = "m5"
    M6 = "m6"
    MBAR1 = "mbar1"
    MBAR2 = "mbar2"


class FateOutcome(enum.Enum):
    TO_ORIGIN = "to_origin"
    TO_INFINITY = "to_infinity"
    TO_FIXED_POINT = "to_fixed_point"
    UNDETERMINED = "undetermined"


class FateEvidence(enum.Enum):
    REGION_CONTAINMENT = "region_containment"
    NORM_THRESHOLD = "norm_threshold"
    FIXED_POINT_PROXIMITY = "fixed_point_proximity"
    ITERATION_CAP = "iteration_cap"


@dataclass(frozen=True)
class FateReport:
    outcome: FateOutcome
    steps_used: int
    final_state: np.ndarray
    evidence: FateEvidence
    fixed_point_index: int | None = None  # index into the mask-ordered enumeration


@dataclass(frozen=True)
class BoundarySample:
    """One bisected point of the basin boundary on a vertical line.

    The bracket [x2_low, x2_high] is certified when `flagged` is False:
    the lower end iterates to the origin and the upper end escapes.
    Flagged samples report whatever bracket was obtained plus the reason.
    """

    x1: float
    x2_low: float
    x2_high: float
    width: float
    flagged: bool
    note: str = ""

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.x2_low + self.x2_high)


def _constraints(rates: Rates, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # lhs_k = x_k + 2*sum_{i != k} x_i, bound_k = 2/r_k; a sum past the
    # float range is inf, which lies above every bound
    with np.errstate(over="ignore"):
        lhs = 2.0 * x.sum() - x
    return lhs, 2.0 / rates.values


def region_membership(rates: Rates, x, region: RegionKind) -> bool:
    """Non-strict membership test; raises RegionNotApplicable outside the
    parameter regime where the region is defined."""
    arr = as_state(x, rates.n)
    lhs, bound = _constraints(rates, arr)
    if region is RegionKind.MBAR1:
        return bool(np.all(lhs <= bound))
    if region is RegionKind.MBAR2:
        return bool(np.all(lhs >= bound))
    if rates.n != 2:
        raise RegionNotApplicable(f"{region.value} is defined only for n=2, got n={rates.n}")
    t1, t2 = rates.values
    if region in (RegionKind.M1, RegionKind.M2):
        if not (t1 < 2.0 * t2 and t2 < 2.0 * t1):
            raise RegionNotApplicable(f"{region.value} requires r1 < 2*r2 and r2 < 2*r1")
        if region is RegionKind.M1:
            return bool(lhs[0] <= bound[0] and lhs[1] <= bound[1])
        return bool(lhs[0] >= bound[0] and lhs[1] >= bound[1])
    if region in (RegionKind.M3, RegionKind.M4):
        if not t1 > 2.0 * t2:
            raise RegionNotApplicable(f"{region.value} requires r1 > 2*r2")
        return bool(lhs[0] <= bound[0]) if region is RegionKind.M3 else bool(lhs[1] >= bound[1])
    if not t2 > 2.0 * t1:
        raise RegionNotApplicable(f"{region.value} requires r2 > 2*r1")
    return bool(lhs[1] <= bound[1]) if region is RegionKind.M5 else bool(lhs[0] >= bound[0])


def _orbit(theta: np.ndarray, x: np.ndarray):
    """Yield (state, inf-norm) along the orbit of x, ending after the first
    state whose norm leaves [EPS_CONV, R_ESCAPE] or before a nonfinite state.

    The only place the map is stepped.  A nonfinite step (quadratic blow-up
    past the float range, reachable only from enormous inputs or rates) is
    logged and ends the orbit at the last finite state; callers walk it
    under np.errstate so that numpy does not warn about it.
    """
    for states in itertools.count(1):
        norm = float(np.abs(x).max())  # array methods: this runs once per step
        yield x, norm
        if norm < EPS_CONV or norm > R_ESCAPE:
            return
        x = _step(theta, x)
        if not np.isfinite(x).all():
            log.warning("overflow step; orbit truncated at %d states", states)
            return


def iterate(rates: Rates, x0, max_steps: int) -> np.ndarray:
    """Trajectory [x0, H(x0), ...] as an array of shape (steps+1, n).

    Stops early once the inf-norm leaves [EPS_CONV, R_ESCAPE]; the crossing
    state is included.  A nonfinite iterate (possible only from enormous
    inputs) truncates the trajectory at the last finite state.
    """
    if max_steps < 0:
        raise DomainError(f"max_steps must be >= 0, got {max_steps}")
    orbit = _orbit(rates.values, as_state(x0, rates.n))
    with np.errstate(over="ignore", invalid="ignore"):
        return np.array([x for x, _ in itertools.islice(orbit, max_steps + 1)])


def classify_fate(rates: Rates, x0, budget: int = DEFAULT_BUDGET) -> FateReport:
    """Asymptotic outcome of the trajectory starting at x0.

    Stopping rules, checked in order at every step (including step 0):
    proximity to a feasible nonzero fixed point (within PROXIMITY_RTOL of
    max(1, |coords|)); strict interior of MBAR1 (to the origin) or MBAR2
    (to infinity); the inf-norm thresholds.  The region shortcut needs the
    strict margin REGION_MARGIN because the nonzero fixed points sit
    exactly on the region boundaries.  The outcome is undetermined only
    when the iteration budget runs out.

    Only the feasible nonzero fixed points are built as proximity targets,
    from their closed-form supports (`feasible_nonzero_points`: supports are
    grown while the deficit sum_{j in S} (1 - r_min(S)/r_j) stays at most
    1/2), not all 2^n algebraic points.  A hit reports the target's support
    mask, which is its index in the mask-ordered enumeration.
    """
    x = as_state(x0, rates.n)
    return _fate(rates, x, budget, _fate_targets(rates))


def _fate_targets(rates: Rates) -> tuple[np.ndarray, np.ndarray, list[int]]:
    # Coordinates, proximity radii and support masks of the fate targets.
    masks, coords = feasible_nonzero_points(rates)
    return coords, PROXIMITY_RTOL * np.maximum(1.0, np.max(np.abs(coords), axis=1)), masks


def _fate(rates: Rates, x: np.ndarray, budget: int, targets) -> FateReport:
    if budget < 1:
        raise DomainError(f"budget must be >= 1, got {budget}")
    target_coords, target_tols, masks = targets
    bound = 2.0 / rates.values
    with np.errstate(over="ignore", invalid="ignore"):
        for steps, (x, norm) in enumerate(_orbit(rates.values, x)):
            dist = np.max(np.abs(target_coords - x), axis=1)
            hits = np.nonzero(dist <= target_tols)[0]
            if hits.size:
                return FateReport(
                    FateOutcome.TO_FIXED_POINT, steps, _readonly(x),
                    FateEvidence.FIXED_POINT_PROXIMITY, masks[int(hits[0])],
                )
            lhs = 2.0 * x.sum() - x
            if np.all(lhs < bound - REGION_MARGIN):
                return FateReport(FateOutcome.TO_ORIGIN, steps, _readonly(x), FateEvidence.REGION_CONTAINMENT)
            if np.all(lhs > bound + REGION_MARGIN):
                return FateReport(FateOutcome.TO_INFINITY, steps, _readonly(x), FateEvidence.REGION_CONTAINMENT)
            if norm < EPS_CONV:
                return FateReport(FateOutcome.TO_ORIGIN, steps, _readonly(x), FateEvidence.NORM_THRESHOLD)
            if norm > R_ESCAPE:
                return FateReport(FateOutcome.TO_INFINITY, steps, _readonly(x), FateEvidence.NORM_THRESHOLD)
            if steps >= budget:
                return FateReport(FateOutcome.UNDETERMINED, steps, _readonly(x), FateEvidence.ITERATION_CAP)
    # The orbit ended before a nonfinite state: the next step overflowed.
    return FateReport(FateOutcome.TO_INFINITY, steps + 1, _readonly(x), FateEvidence.NORM_THRESHOLD)


def unstable_line_slope(rates: Rates) -> float:
    """Slope of the invariant line through the origin and the interior point
    (n = 2): (2*r2 - r1) / (2*r1 - r2)."""
    if rates.n != 2:
        raise DimensionMismatch(f"the line slope is an n=2 closed form, got n={rates.n}")
    t1, t2 = rates.values
    denom = 2.0 * t1 - t2
    if denom == 0.0:
        raise VerticalLineError("2*r1 == r2: the invariant line is vertical")
    return float((2.0 * t2 - t1) / denom)


def unstable_ray(rates: Rates) -> np.ndarray:
    """Direction of the invariant ray through the interior fixed point,
    normalized to unit inf-norm (read-only).

    Coordinate ratios along the ray are preserved by the map, so it is the
    unstable manifold of the interior point whenever that point is feasible.
    """
    point = interior_fixed_point(rates)
    if not point.feasible:
        raise DomainError("the interior fixed point is infeasible; no ray in the orthant")
    return _readonly(point.coords / float(np.max(point.coords)))


def stable_tangent_n2(rates: Rates) -> np.ndarray:
    """Tangent vector (1, -r2/r1) of the basin boundary at the interior
    saddle point (n = 2)."""
    if rates.n != 2:
        raise DimensionMismatch(f"the tangent is an n=2 closed form, got n={rates.n}")
    point = interior_fixed_point(rates)
    if not point.feasible or not np.all(point.coords > 0.0):
        raise DomainError("the interior fixed point must be strictly positive")
    tag = classify(spectrum_at(rates, point)).tag
    if tag is not StabilityTag.SADDLE:
        raise DomainError(f"the interior fixed point is {tag.value}, not a saddle")
    t1, t2 = rates.values
    return np.array([1.0, -t2 / t1])


def basin_boundary(rates: Rates, x1_grid, tol: float = 1e-8, budget: int = DEFAULT_BUDGET) -> list[BoundarySample]:
    """Bisect the basin boundary on vertical lines x1 = const (n = 2).

    For each abscissa the escape side is bracketed by doubling x2 upward
    from max(2/r2, 1) until the fate is to-infinity (at most MAX_DOUBLINGS
    doublings), then the fate flip is bisected down to width <= tol.  The
    map is order-preserving on the orthant (dH_k/dx_j >= 0), so fates are
    ordered origin < fixed point < infinity along every increasing line and
    a vertical line flips at most once; the bisection relies on that order
    and does not re-check it.  Samples are flagged, never fabricated, and
    the note says why:

    - "no fate flip": x2 = 0 already escapes;
    - "no escaping upper bracket": MAX_DOUBLINGS doublings never escaped;
    - "bisection landed on a fixed point": a midpoint hit a fixed point and
      the straddle at a quarter of tol around it did not certify;
    - "lower bracket fate is ...": the lower end reached a fixed point or
      ran out of budget instead of going to the origin;
    - "float resolution reached": the bracket ends are adjacent floats
      further apart than tol.

    Every fate follows the rules of `classify_fate`.
    The feasible nonzero fixed points it stops at are built once per call
    (grown over the supports whose deficit stays at most 1/2) and shared by
    all bracket, bisection and straddle fates.
    """
    if rates.n != 2:
        raise DimensionMismatch(f"boundary extraction requires n=2, got n={rates.n}")
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    grid = np.atleast_1d(np.asarray(x1_grid, dtype=float))
    if np.any(grid < 0.0) or not np.all(np.isfinite(grid)):
        raise DomainError("x1 grid must be finite and nonnegative")
    targets = _fate_targets(rates)

    def fate(x1: float, x2: float) -> FateReport:
        return _fate(rates, np.array([x1, x2]), budget, targets)

    return [_bisect_line(rates, float(x1), fate, tol) for x1 in grid]


def _bisect_line(rates: Rates, x1: float, fate, tol: float) -> BoundarySample:
    low_fate = fate(x1, 0.0).outcome
    if low_fate is FateOutcome.TO_INFINITY:
        log.debug("x1=%g: escapes already at x2=0", x1)
        return BoundarySample(x1, 0.0, 0.0, 0.0, True, "no fate flip: x2=0 already escapes")

    low, high = 0.0, max(2.0 / float(rates.values[1]), 1.0)
    for doublings in range(MAX_DOUBLINGS + 1):
        if fate(x1, high).outcome is FateOutcome.TO_INFINITY:
            break
        if doublings == MAX_DOUBLINGS:
            return BoundarySample(
                x1, low, high, high - low, True,
                f"no escaping upper bracket within {MAX_DOUBLINGS} doublings",
            )
        high *= 2.0

    # From here on `high` only moves to escaping midpoints.
    while high - low > tol:
        mid = 0.5 * (low + high)
        if mid <= low or mid >= high:
            break  # float resolution exhausted
        report = fate(x1, mid)
        if report.outcome is FateOutcome.TO_FIXED_POINT:
            # The midpoint landed on the boundary curve itself (inside the
            # proximity radius of a fixed point).  Straddle the hit by a
            # quarter of the requested width, far outside that radius, to
            # certify an origin/infinity bracket; flag it if that fails.
            lo_try, hi_try = mid - 0.25 * tol, mid + 0.25 * tol
            # (low >= 0, so a straddle inside the bracket stays positive)
            if (low < lo_try and hi_try < high
                    and fate(x1, lo_try).outcome is FateOutcome.TO_ORIGIN
                    and fate(x1, hi_try).outcome is FateOutcome.TO_INFINITY):
                return BoundarySample(x1, lo_try, hi_try, hi_try - lo_try, False, "")
            return BoundarySample(
                x1, low, high, high - low, True,
                f"bisection landed on a fixed point at x2={mid!r}",
            )
        if report.outcome is FateOutcome.TO_INFINITY:
            high = mid
        else:
            low, low_fate = mid, report.outcome

    notes = []
    if low_fate is not FateOutcome.TO_ORIGIN:
        notes.append(f"lower bracket fate is {low_fate.value}")
    if high - low > tol:  # only the float-resolution break leaves it this wide
        notes.append(f"float resolution reached at width {high - low!r}")
    note = "; ".join(notes)
    return BoundarySample(x1, low, high, high - low, bool(note), note)
