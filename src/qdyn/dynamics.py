"""Trajectory iteration, fate classification, invariant regions, and the
planar basin boundary.

The global picture driving everything here: the polyhedral regions MBAR1
(all constraints x_k + 2*sum_{i != k} x_i <= 2/r_k) and MBAR2 (all >=) are
forward-invariant, trajectories inside them converge to the origin
respectively escape to infinity, and in the plane the two basins are
separated by an invariant curve through the nonzero fixed points.  Fate
classification exploits the regions as shortcuts.  The separating curve
has no usable closed form, but on a vertical line the two regions are
closed-form intervals, so they bracket the curve, and the bracket is cut
into equal parts until it is tol wide.

Every fate's stopping rules are `_rules`, checked over a block of states.
The kernel, `_fates`, steps a stack of starts in lockstep, a block of
states per round, and drops each row at the first state where a rule fires.
The map keeps supports, so a state near a fixed point has one candidate,
the closed-form point on its own large coordinates; no table of fixed
points is built and fates work at any n.
`classify_fate` hands it one start or many; `basin_boundary` searches all
lines of a grid together through it, one call per round: the two bracket
ends of every line first, then up to 15 equally spaced cuts of every
bracket that is still wider than tol.  Each nonzero fixed point has the
eigenvalue 2, so cuts 16 times closer to the boundary, the stable manifold
of a saddle, leave it about 4 steps later than the last round's slowest
fate; the search sizes each round's first block of states from that.
`iterate` keeps every state of a single orbit and steps it in its own loop:
its orbits in `simulate` stop after about six steps, where blocks of states
measured no clear gain (within 3% of the loop when they double from 1 or 4
states, 14% slower at 32).  `simulate` reads its fate off its trajectory,
checked as one block, whenever the trajectory shows it, and steps the
kernel only for a fate past the trajectory's last state.
"""

from __future__ import annotations

import enum
import logging
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError
from .fixed_points import _mask, _points
from .model import Rates, _integer, _lhs, _numbers, _step, _tolerance, as_state

log = logging.getLogger("qdyn.dynamics")

EPS_CONV = 1e-12  # inf-norm below which a trajectory counts as collapsed
R_ESCAPE = 1e8  # inf-norm above which a trajectory counts as escaped
DEFAULT_BUDGET = 100_000
DEFAULT_BISECT_TOL = 1e-8  # basin bracket width
REGION_MARGIN = 1e-12  # strict-interior margin for the region shortcut
PROXIMITY_RTOL = 1e-11  # fixed-point detection, relative to max(1, |coords|)


class RegionKind(enum.Enum):
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
    fixed_point_index: int | None  # index into the mask-ordered enumeration


@dataclass(frozen=True)
class BoundarySample:
    """One located point of the basin boundary on a vertical line.

    The bracket [x2_low, x2_high] is certified when `flagged` is False:
    the lower end iterates to the origin and the upper end escapes.
    Flagged samples report whatever bracket was obtained plus the reason.
    """

    x1: float
    x2_low: float
    x2_high: float
    width: float
    flagged: bool
    note: str

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.x2_low + self.x2_high)


def region_membership(rates: Rates, x, region: RegionKind):
    """Non-strict membership of x in MBAR1 or MBAR2, at any n; for states
    given as rows (shape (k, n)), an array with one bool per row."""
    rows, stacked = _state_rows(rates, x)
    inside = _in_region(rates.values, rows, _is_mbar1(region))
    return inside if stacked else bool(inside[0])


def _is_mbar1(region: RegionKind) -> bool:
    # a region argument as _in_region's flag; anything but a RegionKind is an error
    if not isinstance(region, RegionKind):
        raise DomainError(f"region must be a RegionKind, got {region!r}")
    return region is RegionKind.MBAR1


def _in_region(theta: np.ndarray, x: np.ndarray, mbar1) -> np.ndarray:
    """Non-strict membership of each state of x (rows on its last axis) in
    MBAR1 where `mbar1` is True and in MBAR2 where it is False, under one
    rate vector or one per state (theta broadcast against x)."""
    # lhs_k = x_k + 2*sum_{i != k} x_i, bound_k = 2/r_k; a sum past the
    # float range is inf, which lies above every bound
    with np.errstate(over="ignore"):
        lhs = _lhs(x)
    bound = 2.0 / theta
    return np.where(mbar1, np.all(lhs <= bound, axis=-1), np.all(lhs >= bound, axis=-1))


def _state_rows(rates: Rates, x) -> tuple[np.ndarray, bool]:
    # x validated as states, as rows of shape (k, n), and whether it came as rows
    arr = _numbers(x, "state")
    if arr.ndim != 2:
        return as_state(arr, rates.n)[None], False
    if arr.shape[1] != rates.n:
        raise DimensionMismatch(f"states have shape {arr.shape}, expected (k, {rates.n})")
    return as_state(arr.ravel()).reshape(arr.shape), True


def iterate(rates: Rates, x0, max_steps: int) -> np.ndarray:
    """Trajectory [x0, H(x0), ...] as an array of shape (steps+1, n).

    Stops early once the inf-norm leaves [EPS_CONV, R_ESCAPE]; the crossing
    state is included.  A nonfinite iterate (possible only from enormous
    inputs or rates) is logged and truncates the trajectory at the last
    finite state, as in the fate kernel.

    The (max_steps + 1, n) array is allocated before the first step, so a
    count whose array cannot exist fails at once, even for an orbit that
    would stop early: past numpy's size limit with a DomainError, and below
    it, where the allocator refuses, with numpy's MemoryError.  The filled
    rows are returned as a copy, so an early stop does not keep the large
    buffer alive.
    """
    max_steps = _integer("max_steps", max_steps)
    rows = sys.maxsize // (8 * rates.n)  # numpy's row cap for an (m, n) float64 array: intp is ssize_t
    if not 0 <= max_steps < rows:
        raise DomainError(f"max_steps must be in [0, {rows - 1}], got {max_steps}")
    x = as_state(x0, rates.n)
    states = np.empty((max_steps + 1, rates.n))
    states[0], used, norm = x, 1, x.max()  # the inf-norm: the map keeps the orthant
    with np.errstate(over="ignore", invalid="ignore"):
        while used <= max_steps and EPS_CONV <= norm <= R_ESCAPE:
            x = _step(rates.values, x)
            norm = x.max()  # nonfinite where some coordinate is
            if not math.isfinite(norm):
                log.warning("overflow step; orbit truncated at %d states", used)
                break
            states[used], used = x, used + 1
    return states[:used].copy()


def classify_fate(rates: Rates, x0, budget: int = DEFAULT_BUDGET) -> FateReport | list[FateReport]:
    """Asymptotic outcome of the trajectory starting at x0; for starts given
    as rows (shape (k, n)), the list of their k reports, stepped together.

    Stopping rules, checked in order at every state (including the start):
    an inf-norm below EPS_CONV (to the origin); proximity to a feasible
    nonzero fixed point (within PROXIMITY_RTOL of max(1, |coords|)); strict
    interior of MBAR1 (to the origin) or MBAR2 (to infinity); an inf-norm
    above R_ESCAPE (to infinity).  Collapse comes first: the proximity
    radius never drops below PROXIMITY_RTOL, and with rates above about
    1.8e11/(2n - 1) a feasible point lies that close to the origin.  The
    region shortcut needs the strict margin REGION_MARGIN because the
    nonzero fixed points sit exactly on the region boundaries.  The outcome
    is undetermined only when the iteration budget, an integer >= 1, runs
    out.  A row's report does not depend on the rows stepped with it, nor
    on the blocks of states the kernel checks the rules over.

    Proximity needs no table of fixed points, so any n works.  The map
    keeps supports (a positive coordinate stays positive, a zero one zero)
    and the fixed point on a support is unique and in closed form, so a
    state has one candidate: the point on its large coordinates,
    S = {k : x_k > 2 PROXIMITY_RTOL max(1, |x|)}.  Every feasible point
    within the radius has support S or a superset of it, so a hit reports
    the smallest such support mask, which is the point's index in the
    mask-ordered enumeration.  A feasible point with a coordinate within
    about 3 PROXIMITY_RTOL max(1, |p|) of 0 (rates near the transcritical
    condition r_k s = 1, or above about 7e10) can be missed, and the orbit
    then steps on.
    """
    rows, stacked = _state_rows(rates, x0)
    rule, steps, final, masks = _fates(rates, rows, budget)
    final.flags.writeable = False  # each report's final state is a read-only row view of it
    reports = list(map(FateReport, _OUTCOMES[rule], steps, final, _EVIDENCE[rule], masks))
    return reports if stacked else reports[0]


def _trajectory_fate(rates: Rates, trajectory: np.ndarray, budget: int) -> FateReport:
    """`classify_fate`'s report on the start of `iterate`'s trajectory, read
    off the trajectory wherever a stopping rule fires inside it.

    The trajectory is checked as one block of the kernel's: its states are
    `_step`'s, as the kernel's are, its lhs, `_lhs`'s, and its norms, the
    row maxima, are the kernel's bit for bit, and the budget rule sits at
    state `budget` when the trajectory reaches it.  Only a trajectory that
    ends before any rule fires, at its step cap or at an overflowing step,
    has its start classified by `classify_fate`.  `budget` comes checked,
    as the CLI's settings check it: an integer >= 1."""
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = _lhs(trajectory)
        fired, support = _rules(rates.values, trajectory[:, :, None], lhs[:, :, None],
                                trajectory.max(axis=1)[:, None], 0, budget)
    first = int(fired.argmax())  # state, rule: flattened, the first True is the first stop
    if not fired.flat[first]:
        return classify_fate(rates, trajectory[0], budget)
    j, code = divmod(first, len(_OUTCOMES))
    return FateReport(_OUTCOMES[code], j, trajectory[j], _EVIDENCE[code], _mask(support[j, 0]) if code == 1 else None)


# Outcome and evidence of each stopping rule, in the order a fate checks
# them at every state: collapse, proximity, strict MBAR1, strict MBAR2,
# escape, budget, and last _OVERFLOW, a step past the float range, which
# ends the orbit at its last finite state with the escape rule.
_OUTCOMES = np.array([FateOutcome.TO_ORIGIN, FateOutcome.TO_FIXED_POINT, FateOutcome.TO_ORIGIN,
                      FateOutcome.TO_INFINITY, FateOutcome.TO_INFINITY, FateOutcome.UNDETERMINED,
                      FateOutcome.TO_INFINITY], dtype=object)
_EVIDENCE = np.array([FateEvidence.NORM_THRESHOLD, FateEvidence.FIXED_POINT_PROXIMITY,
                      *[FateEvidence.REGION_CONTAINMENT] * 2, FateEvidence.NORM_THRESHOLD,
                      FateEvidence.ITERATION_CAP, FateEvidence.NORM_THRESHOLD], dtype=object)
_ESCAPES = _OUTCOMES == FateOutcome.TO_INFINITY  # by rule code: whether the orbit escapes
_OVERFLOW = 6
_FIRST_BLOCK, _LAST_BLOCK = 4, 32  # states per round: the first round's by default, doubling up to the last
_BLOCK_CELLS = 4096  # cap on states * rows * n checked in a round of more than one state


def _fates(rates: Rates, x: np.ndarray, budget: int, first: int = _FIRST_BLOCK) -> tuple:
    """The fate kernel: the starts given as the rows of x (shape (k, n)),
    stepped in lockstep.

    Each row meets the stopping rules of `classify_fate` in their order and
    leaves the stack at the state where one fires.  A round steps every
    live row a block of states ahead and checks the rules once over the
    block; a row ends at its first state where one fires, and the states
    past it are dropped.  The first round's block has `first` states
    (_FIRST_BLOCK unless the caller knows better), the next 2 _FIRST_BLOCK,
    and then twice as many each round up to _LAST_BLOCK; every block has
    at most _BLOCK_CELLS cells (one state at least): a short orbit pays for
    few spare states, and a large stack is bound by arithmetic, not by the
    numpy calls per state.  A block ends at the budget, so that rule fires
    only at its last state.  Where a rule fires does not depend on the
    blocks.  The stacked step is `_step`'s arithmetic row by row, so a
    row's fate is bit for bit the one it gets alone.  A row whose step
    overflows is logged and escapes from its last finite state.  Returns,
    one entry per row, the codes of the rules that fired (an int array, an
    index into _OUTCOMES, _EVIDENCE and _ESCAPES), the steps used (a list),
    the final states (an array of rows) and the support masks of the fixed
    points reached (a list of ints, None where none was).  The rules are
    `_rules`'; the kernel adds only the overflow rule.
    """
    budget = _integer("budget", budget, 1)
    theta, half = rates.values, (0.5 * rates.values)[:, None]
    rule, steps_used = np.empty(len(x), dtype=int), np.empty(len(x), dtype=int)
    final, mask, rows = np.empty_like(x), [None] * len(x), np.arange(len(x))
    x, t0, block = x.T, 0, _FIRST_BLOCK  # coordinate first, so that the rules reduce over a leading axis
    with np.errstate(over="ignore", invalid="ignore"):
        while rows.size:
            k = min(block if t0 else first, max(1, _BLOCK_CELLS // x.size), budget - t0 + 1)
            states = np.empty((k + 1, *x.shape))
            states[0], x = x, states[:k]
            lhs = np.empty(x.shape)
            _step_block(half, states, lhs)
            norm = np.maximum.reduce(states, axis=1)  # the inf-norm: the map keeps the orthant
            fired, support = _rules(theta, x, lhs, norm[:k], t0, budget)
            np.logical_not(np.isfinite(norm[1:]), out=fired[:, _OVERFLOW])  # max |x| is finite where every x is
            del lhs  # so that a round holds one block of states at a time
            # state, rule, row: flattened, a row's first True is its first stop and the rule that fired
            fired = fired.reshape(-1, len(rows))
            earliest, stopped = fired.argmax(axis=0), np.logical_or.reduce(fired, axis=0)
            if stopped.any():
                at, (j, code) = rows[stopped], np.divmod(earliest[stopped], len(_OUTCOMES))
                rule[at], over = code, code == _OVERFLOW
                steps_used[at], final[at] = t0 + j + over, x[j, :, stopped]
                if over.any():
                    for steps in np.sort(steps_used[at[over]]).tolist():
                        log.warning("overflow step; orbit truncated at %d states", steps)
                reached = code == 1
                if reached.any():  # proximity
                    for row, bits in zip(at[reached].tolist(), support[j[reached], np.flatnonzero(stopped)[reached]]):
                        mask[row] = _mask(bits)
            live = ~stopped
            rows, x, t0, block = rows[live], states[k][:, live], t0 + k, min(2 * block, _LAST_BLOCK)
            del states  # before the next round allocates its own
    return rule, steps_used.tolist(), final, mask


def _rules(theta: np.ndarray, x: np.ndarray, lhs: np.ndarray, norm: np.ndarray, t0: int, budget: int) -> tuple:
    """The stopping rules of `classify_fate` over a block of states: x and
    their lhs (x_k + 2 sum_{i != k} x_i) hold coordinates on axis 1, shapes
    (k, n, rows), norm their inf-norms, shape (k, rows), and t0 is the
    number of the block's first state.  Returns the rules that fire, a bool
    array (k, len(_OUTCOMES), rows) in the order of _OUTCOMES, _OVERFLOW
    left False, and the support bits (k, rows, n) of the proximity
    candidates, None where no state came near one.  lhs is spent.

    The proximity candidate is built only for the states that pass a gate
    read off the region tests' lhs: at a fixed point on S, lhs_k = 2/r_k
    for every k in S, and lhs moves by at most (2n - 1) times the radius
    within it, so a state can be near one only if some |lhs_k - 2/r_k| is
    at most 4 n PROXIMITY_RTOL max(1, |x|).
    """
    k, n, rows = x.shape
    bound, support = (2.0 / theta)[:, None], None
    fired = np.zeros((k, len(_OUTCOMES), rows), dtype=bool)
    np.less(norm, EPS_CONV, out=fired[:, 0])
    np.logical_and.reduce(lhs < bound - REGION_MARGIN, axis=1, out=fired[:, 2])
    np.logical_and.reduce(lhs > bound + REGION_MARGIN, axis=1, out=fired[:, 3])
    np.greater(norm, R_ESCAPE, out=fired[:, 4])
    if budget - t0 < k:
        fired[budget - t0, 5] = True
    np.abs(np.subtract(lhs, bound, out=lhs), out=lhs)  # |lhs - 2/r|
    near = np.minimum.reduce(lhs, axis=1) <= 4 * n * PROXIMITY_RTOL * np.maximum(1.0, norm)
    if near.any():
        support = np.zeros((k, rows, n), dtype=bool)
        support[near], fired[:, 1][near] = _candidate(theta, x.transpose(0, 2, 1)[near], norm[near])
    return fired, support


def _step_block(half: np.ndarray, states: np.ndarray, lhs: np.ndarray) -> None:
    """Fill states[1:] with `_step` of the state before each, and lhs[j]
    with the lhs of states[j]; the stacks hold coordinates first, shapes
    (k + 1, n, rows) and (k, n, rows), and half is 0.5 * theta as a column.

    Each row's sum reads the row's coordinates in order, as `_step` sums a
    row, from a row-major copy held in lhs[j] until lhs[j] is written.  The
    copy holds the coordinates doubled, so its sum is `_step`'s 2 * sum bit
    for bit: doubling a nonnegative float is exact, and rounding commutes
    with it short of overflow, where both give inf."""
    for state, lhs_j, by_row, after in zip(states, lhs, lhs.reshape(len(lhs), -1, len(half)), states[1:]):
        np.multiply(state.T, 2.0, out=by_row)
        total = np.add.reduce(by_row, axis=1)
        np.subtract(total, state, out=lhs_j)
        np.multiply(half, state, out=after)
        np.multiply(after, lhs_j, out=after)


def _candidate(theta: np.ndarray, x: np.ndarray, norm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's one proximity candidate: the support bits of its
    coordinates above 2 PROXIMITY_RTOL max(1, |x|), and whether the fixed
    point on that support is nonzero, feasible and within PROXIMITY_RTOL
    max(1, |p|) of the row.  The point comes from `_points`, so it is bit
    for bit the enumeration's."""
    bits = x > 2.0 * PROXIMITY_RTOL * np.maximum(1.0, norm)[:, None]
    coords, _, feasible = _points(theta, bits)
    radius = PROXIMITY_RTOL * np.maximum(1.0, np.abs(coords).max(axis=1))
    return bits, bits.any(axis=1) & feasible & (np.abs(coords - x).max(axis=1) <= radius)


_SECTIONS = 16  # equal parts a searching bracket is cut into per round


def basin_boundary(rates: Rates, x1_grid, tol: float = DEFAULT_BISECT_TOL, budget: int = DEFAULT_BUDGET) -> list[BoundarySample]:
    """Locate the basin boundary on vertical lines x1 = const (n = 2), each
    to a bracket at most tol wide, tol finite and positive.

    On the line x1 = c the forward-invariant regions are closed-form
    intervals: MBAR1 is x2 <= min(a, b) and MBAR2 is x2 >= max(a, b), with
    a = (2/r1 - c)/2 and b = 2/r2 - 2c.  Each line starts from the bracket
    [min(a, b) - tol/4, max(a, b) + tol/4], both ends clipped at 0, whose
    ends the region rule settles at step 0 once tol/4 clears REGION_MARGIN.
    The map is order-preserving on the orthant (dH_k/dx_j >= 0), so fates
    are ordered origin < fixed point < infinity along every increasing line
    and a vertical line flips at most once; the search relies on that order
    and does not re-check it.  Each round cuts every bracket wider than tol
    into k = min(16, floor(2 * width / tol)) equal parts and takes the fates
    of the k - 1 cuts; the new bracket is the cut before the first escaping
    cut and that cut, so a cut that reaches a fixed point counts as not
    escaping.  Sixteen parts do the work of four bisection steps, and the
    last round leaves a width from about tol/2 to tol.  The nonzero fixed
    points on a line lie at a or b, at most a quarter of tol inside a
    bracket end, and the bound on k keeps every cut at least tol/2 inside
    the ends, so a cut reaches one only when tol/4 is below its proximity
    radius.  Samples are flagged, never fabricated, and the note says why:

    - "no fate flip": the lower end already escapes (past x1 = 2/r1 the
      bracket is clipped to x2 = 0);
    - "lower bracket fate is ...": the lower end reached a fixed point or
      ran out of budget instead of going to the origin;
    - "upper bracket fate is ...": the upper end reached a fixed point or
      ran out of budget instead of escaping; the line is not searched;
    - "float resolution reached": a round moved neither end, because no
      cut fell strictly between them (they are adjacent floats), and they
      are further apart than tol.

    All lines advance in lockstep, one fate-kernel call per round: both
    bracket ends of every line in the first round, then the cuts of every
    line still searching.

    Every fate follows the rules of `classify_fate`; no fixed point is
    built before a fate comes near one.
    """
    if rates.n != 2:
        raise DimensionMismatch(f"basin boundary requires n = 2, got n = {rates.n}")
    tol = _tolerance(tol)
    x1 = np.atleast_1d(_numbers(x1_grid, "x1 grid"))
    if x1.ndim != 1:
        raise DimensionMismatch(f"x1 grid must be 1-d, got shape {x1.shape}")
    if np.any(x1 < 0.0) or not np.all(np.isfinite(x1)):
        raise DomainError("x1 grid must be finite and nonnegative")
    r1, r2 = rates.values
    with np.errstate(over="ignore"):
        a, b = 0.5 * (2.0 / r1 - x1), 2.0 / r2 - 2.0 * x1
        low, high = np.maximum(np.minimum(a, b) - 0.25 * tol, 0.0), np.maximum(np.maximum(a, b) + 0.25 * tol, 0.0)
    ends = np.column_stack((np.repeat(x1, 2), np.column_stack((low, high)).ravel()))
    rule, steps = _fates(rates, ends, budget, 1)[:2]  # fates as rule codes; the ends settle at state 0
    low_rule, high_rule = rule.reshape(-1, 2).T
    for at in np.flatnonzero(_ESCAPES[low_rule]):
        log.debug("x1=%g: escapes already at x2=%g", x1[at], low[at])

    # Fates only rise up a line, so each round's new bracket is the last
    # non-escaping cut and the first escaping one.  A line stops once its
    # bracket is at most tol wide or a round moves neither end.
    searching = ~_ESCAPES[low_rule] & _ESCAPES[high_rule] & (high - low > tol)
    cut = np.arange(1, _SECTIONS + 1)
    while searching.any():
        at = np.flatnonzero(searching)
        lo, hi = low[at, None], high[at, None]
        with np.errstate(over="ignore"):
            # k <= 2 * width / tol keeps every cut tol/2 off both ends; the
            # columns past the k - 1 cuts hold hi, whose fate is known
            k = np.minimum(_SECTIONS, np.floor(2.0 * (hi - lo) / tol))
            inner = cut < k
            cuts = np.where(inner, lo + (hi - lo) / k * cut, hi)
        codes = np.tile(high_rule[at, None], _SECTIONS)  # an escaping code where a column holds hi
        starts = np.column_stack((np.repeat(x1[at], inner.sum(axis=1)), cuts[inner]))
        # cuts 16 times closer to the boundary, the stable manifold of a saddle
        # with the eigenvalue 2, leave it about log2(16) = 4 steps after the
        # last round's slowest fate, and a stop at state j takes j + 1 states
        codes[inner], steps = _fates(rates, starts, budget, max(steps) + 5)[:2]
        points, codes = np.column_stack((lo, cuts)), np.column_stack((low_rule[at], codes))
        first = _ESCAPES[codes].argmax(axis=1)
        rows = np.arange(at.size)
        low[at], low_rule[at], high[at] = points[rows, first - 1], codes[rows, first - 1], points[rows, first]
        searching[at] = ((low[at] != lo[:, 0]) | (high[at] != hi[:, 0])) & (high[at] - low[at] > tol)
    lines = zip(x1.tolist(), low.tolist(), high.tolist(), _OUTCOMES[low_rule], _OUTCOMES[high_rule])
    return [_sample(*line, tol) for line in lines]


def _sample(x1: float, low: float, high: float, low_fate, high_fate, tol: float) -> BoundarySample:
    """The sample of one searched line, flagged with the reasons it is not
    certified."""
    if low_fate is FateOutcome.TO_INFINITY:
        return BoundarySample(x1, low, low, 0.0, True, f"no fate flip: x2={low:g} already escapes")
    notes = []
    if low_fate is not FateOutcome.TO_ORIGIN:
        notes.append(f"lower bracket fate is {low_fate.value}")
    if high_fate is not FateOutcome.TO_INFINITY:
        notes.append(f"upper bracket fate is {high_fate.value}")
    elif high - low > tol:  # only a round that moved neither end leaves it this wide
        notes.append(f"float resolution reached at width {high - low!r}")
    note = "; ".join(notes)
    return BoundarySample(x1, low, high, high - low, bool(note), note)
