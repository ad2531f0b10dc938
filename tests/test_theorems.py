"""Structural theorems of the map as property tests.

- Order: H is order-preserving on the orthant (dH_k/dx_j >= 0), so x <= y
  implies fate(x) <= fate(y) in the order origin < fixed point < infinity.
  `basin_boundary` bisects on this order without re-checking it.
- Basin certificates: on a vertical line MBAR1 and MBAR2 are closed-form
  intervals, and `basin_boundary` bisects between them.  Every bracket it
  does not flag is at most tol wide, and fresh fates of its ends go to the
  origin and to infinity.
- Singletons: every support {k} has the feasible point x_k = 2/r_k.
- Scaling conjugacy: H_{r/c}(c x) = c H_r(x).  For c a power of two every
  product in the closed forms scales exactly, so tables, Jacobians and
  spectra can be compared bit for bit.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdyn import FateOutcome, Rates, basin_boundary, classify_fate, jacobian, spectrum_at
from qdyn.fixed_points import _all_supports, _points, feasible_nonzero_points

PROPERTY = settings(derandomize=True, deadline=None)

RANK = {FateOutcome.TO_ORIGIN: 0, FateOutcome.TO_FIXED_POINT: 1, FateOutcome.TO_INFINITY: 2}

RATE = st.floats(0.1, 3.0)
UNIT = st.floats(0.01, 1.0)


def vectors(n: int, elements=UNIT):
    return st.lists(elements, min_size=n, max_size=n).map(np.array)


@st.composite
def starts(draw, n_max: int = 6):
    """Rates and a start between the scales where the MBAR1 and MBAR2
    constraints begin to bind along its direction."""
    n = draw(st.integers(2, n_max))
    theta = draw(vectors(n, RATE))
    u = draw(vectors(n))
    u /= u.sum()
    critical = 2.0 / (theta * (2.0 - u))
    scale = draw(st.floats(0.5 * critical.min(), 1.5 * critical.max()))
    return Rates(theta), scale * u


@st.composite
def ordered_starts(draw):
    rates, x = draw(starts())
    step = draw(st.floats(0.0, 0.5)) * float(x.sum())
    return rates, x, x + step * draw(vectors(rates.n, st.floats(0.0, 1.0)))


class TestOrderMonotonicity:
    @given(ordered_starts())
    @settings(PROPERTY, max_examples=300)
    def test_larger_start_never_has_a_smaller_fate(self, case):
        rates, x, y = case
        fx, fy = classify_fate(rates, x).outcome, classify_fate(rates, y).outcome
        if FateOutcome.UNDETERMINED not in (fx, fy):
            assert RANK[fx] <= RANK[fy]

    @pytest.mark.parametrize("theta", [(0.4, 0.6), (0.8, 0.2), (0.2, 0.8)])
    def test_fates_never_decrease_up_vertical_lines(self, theta):
        # one line per x1 short of the axis point 2/r1, from x2 = 0 to three
        # times the axis point 2/r2, so every line goes from origin to infinity
        rates = Rates(theta)
        for x1 in np.linspace(0.0, 0.98 * 2.0 / theta[0], 5):
            ranks = [RANK[classify_fate(rates, [x1, x2]).outcome] for x2 in np.linspace(0.0, 6.0 / theta[1], 41)]
            assert ranks[0] == 0 and ranks[-1] == 2
            assert ranks == sorted(ranks)


# r2/r1 in each planar regime: r1 < 2 r2 and r2 < 2 r1, r1 > 2 r2, r2 > 2 r1
REGIME_RATIOS = ((0.55, 1.8), (0.1, 0.45), (2.2, 10.0))


@st.composite
def basin_lines(draw):
    """Planar rates in one of the three regimes, a grid of the abscissas of
    their nonzero fixed points and a few more up to past 2/r1, and a tol."""
    r1 = draw(RATE)
    ratio = draw(st.sampled_from(REGIME_RATIOS).flatmap(lambda bounds: st.floats(*bounds)))
    rates = Rates([r1, r1 * ratio])
    _, coords = feasible_nonzero_points(rates)
    drawn = draw(st.lists(st.floats(0.0, 2.5 / r1), min_size=1, max_size=4))
    return rates, [*coords[:, 0], *drawn], 10.0 ** -draw(st.integers(3, 12))


class TestBasinCertificates:
    @given(basin_lines())
    @settings(PROPERTY, max_examples=100)
    def test_unflagged_brackets_are_certified_by_fresh_fates(self, case):
        rates, grid, tol = case
        for sample in basin_boundary(rates, grid, tol=tol):
            if not sample.flagged:
                assert sample.width <= tol
                low, high = classify_fate(rates, [[sample.x1, sample.x2_low], [sample.x1, sample.x2_high]])
                assert (low.outcome, high.outcome) == (FateOutcome.TO_ORIGIN, FateOutcome.TO_INFINITY)


class TestSingletons:
    @given(st.integers(2, 12).flatmap(lambda n: vectors(n, st.floats(1e-3, 1e3))))
    @PROPERTY
    def test_feasible_points_include_every_singleton(self, theta):
        masks, coords = feasible_nonzero_points(Rates(theta))
        singles = [masks.index(1 << k) for k in range(theta.size)]
        assert np.array_equal(coords[singles], np.diag(2.0 / theta))


class TestScalingConjugacy:
    @given(st.integers(2, 10).flatmap(lambda n: vectors(n, RATE)), st.integers(-8, 8))
    @settings(PROPERTY, max_examples=60)
    def test_table_jacobians_and_spectra_scale_exactly(self, theta, k):
        c = 2.0**k
        rates, scaled = Rates(theta), Rates(theta / c)
        bits = _all_supports(rates)
        coords, residual = _points(rates.values, bits)
        coords_c, residual_c = _points(scaled.values, bits)
        assert np.array_equal(coords_c, c * coords)
        assert np.array_equal(residual_c, c * residual)
        assert np.array_equal(jacobian(scaled, coords_c), jacobian(rates, coords))
        assert np.array_equal(spectrum_at(scaled, coords_c), spectrum_at(rates, coords))

    @given(starts(n_max=8), st.integers(-4, 4))
    @settings(PROPERTY, max_examples=200)
    def test_origin_and_infinity_fates_are_equal(self, case, k):
        # The orbit scales exactly, but the norm thresholds, the proximity
        # radius and the budget do not: an orbit that passes close to a saddle
        # or runs out of steps may end differently.  Only the two outcomes
        # the orbit alone decides are compared; the fixed points themselves
        # are compared bit for bit above.
        rates, x = case
        c = 2.0**k
        outcome = classify_fate(rates, x).outcome
        scaled = classify_fate(Rates(rates.values / c), c * x).outcome
        if {outcome, scaled} <= {FateOutcome.TO_ORIGIN, FateOutcome.TO_INFINITY}:
            assert scaled == outcome
