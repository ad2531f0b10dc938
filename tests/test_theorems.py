"""Structural theorems of the map as property tests.

- Order: H is order-preserving on the orthant (dH_k/dx_j >= 0), so x <= y
  implies fate(x) <= fate(y) in the order origin < fixed point < infinity.
  `basin_boundary` cuts its brackets on this order without re-checking it.
- Basin certificates: on a vertical line MBAR1 and MBAR2 are closed-form
  intervals, and `basin_boundary` searches between them.  Every bracket it
  does not flag is at most tol wide, and fresh fates of its ends go to the
  origin and to infinity.
- Singletons: every support {k} has the feasible point x_k = 2/r_k.
- Scaling conjugacy: H_{r/c}(c x) = c H_r(x).  For c a power of two every
  product in the closed forms scales exactly, so tables, Jacobians and
  spectra can be compared bit for bit.
- Spectral structure: at a fixed point with support S and s = sum(x), the
  rows of J off S are diagonal, so the spectrum is {r_k s : k not in S}
  together with eig(J_SS), J_SS = diag(d) + u 1^T with d_k = r_k (s - x_k)
  and u_k = r_k x_k.  At a feasible point u > 0, and diag(sqrt(u)) carries
  J_SS to the symmetric diag(d) + sqrt(u) sqrt(u)^T: the spectrum is real
  and interlaces the sorted d_k.
- The n = 3 interior discriminant is never negative (a proof is recorded
  in `interior_discriminant_n3` and checked by the sympy oracle).

Hypothesis runs derandomized, so every run draws the same examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdyn import FateOutcome, Rates, basin_boundary, classify_fate, interior_discriminant_n3, jacobian, spectrum_at
from qdyn.fixed_points import _all_supports, _points, feasible_nonzero_points

PROPERTY = settings(derandomize=True, deadline=None)

RANK = {FateOutcome.TO_ORIGIN: 0, FateOutcome.TO_FIXED_POINT: 1, FateOutcome.TO_INFINITY: 2}

RATE = st.floats(0.1, 3.0)
UNIT = st.floats(0.01, 1.0)


EPS = float(np.finfo(float).eps)


def vectors(n: int, elements=UNIT):
    return st.lists(elements, min_size=n, max_size=n).map(np.array)


def log_uniform(low: float, high: float):
    return st.floats(np.log10(low), np.log10(high)).map(lambda e: 10.0**e)


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


class TestSpectralStructure:
    @given(st.integers(2, 8).flatmap(lambda n: vectors(n, log_uniform(0.01, 100.0))))
    @settings(PROPERTY, max_examples=300)
    def test_feasible_spectra_are_real_and_interlace(self, theta):
        rates, n = Rates(theta), theta.size
        masks, coords = feasible_nonzero_points(rates)
        jac = jacobian(rates, coords)
        for mask, x, j, spectrum in zip(masks, coords, jac, spectrum_at(rates, coords, jac=jac)):
            on = ((mask >> np.arange(n)) & 1).astype(bool)
            s = x.sum()
            d, u = theta[on] * (s - x[on]), theta[on] * x[on]
            root = np.sqrt(u)
            block = np.linalg.eigvalsh(np.diag(d) + np.outer(root, root))  # ascending
            expected = np.sort(np.concatenate([theta[~on] * s, block]))
            # eigvalsh is backward stable and the matrix symmetric, so (Weyl)
            # each value is within a small multiple of n eps ||A||_2 of the
            # exact one, and ||A||_2 <= max d + sum u.
            sym_err = 64 * n * EPS * (d.max() + u.sum())
            # eigvals is backward stable too, but J_SS = diag(sqrt(u)) A
            # diag(sqrt(u))^-1, so (Bauer-Fike) its backward error, a small
            # multiple of n eps ||J||, is multiplied by the eigenvector
            # condition, at most cond(diag(sqrt(u))).  The off-S rows have no
            # off-diagonal entry, so balancing splits them off exactly.
            gen_err = 64 * n * EPS * np.abs(j).sum(axis=1).max() * (root.max() / root.min())
            assert np.all(np.abs(spectrum.imag) <= gen_err)
            assert np.all(np.abs(np.sort(spectrum.real) - expected) <= gen_err + sym_err)
            # d_(1) <= l_1 <= d_(2) <= l_2 <= ... <= d_(m) <= l_m
            ds = np.sort(d)
            assert np.all(ds - sym_err <= block) and np.all(block[:-1] <= ds[1:] + sym_err)


class TestInteriorDiscriminantN3:
    @staticmethod
    def rounding(theta):
        # the four terms 0.16 R^2 T^2, 11.2 R T, 1.92 R^2 P and 36 (R the
        # reciprocal sum, T the sum, P the pair sum) each take at most about
        # 15 roundings of eps/2, and their sum three more: the computed value
        # is within about 9 eps of the sum of their sizes; 32 eps leaves room
        recip, total = float(np.sum(1.0 / theta)), float(np.sum(theta))
        pair = float(theta[0] * theta[1] + theta[0] * theta[2] + theta[1] * theta[2])
        terms = (0.16 * recip**2 * total**2, 11.2 * recip * total, 1.92 * recip**2 * pair, 36.0)
        return 32 * EPS * sum(terms)

    @given(vectors(3, log_uniform(1e-3, 1e3)))
    @settings(PROPERTY, max_examples=1000)
    def test_never_negative(self, theta):
        assert interior_discriminant_n3(Rates(theta)) >= -self.rounding(theta)

    @pytest.mark.parametrize("theta", [(1, 1, 2), (2, 1, 1), (1, 2, 1), (0.3, 0.3, 0.6), (1, 1, 1), (7.5, 7.5, 7.5)])
    def test_zero_on_the_double_root_rays(self, theta):
        # rates proportional to (1, 1, 1) or a permutation of (1, 1, 2)
        theta = np.array(theta, dtype=float)
        assert abs(interior_discriminant_n3(Rates(theta))) <= self.rounding(theta)
