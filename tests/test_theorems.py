"""Structural theorems of the map as property tests.

- Order: H is order-preserving on the orthant (dH_k/dx_j >= 0), so x <= y
  implies fate(x) <= fate(y) in the order origin < fixed point < infinity.
  `basin_boundary` cuts its brackets on this order without re-checking it.
- Basin certificates: on a vertical line MBAR1 and MBAR2 are closed-form
  intervals, and `basin_boundary` searches between them.  Every bracket it
  does not flag is at most tol wide, and fresh fates of its ends go to the
  origin and to infinity.
- Singletons: every support {k} has the feasible point x_k = 2/r_k.
- Support invariance: x_k' = (r_k x_k / 2)(x_k + 2 sum_{i != k} x_i), so a
  zero coordinate stays zero and a positive one stays positive short of
  underflow.  A fate therefore needs only the fixed point on its own
  support as a proximity candidate.
- Scaling conjugacy: H_{r/c}(c x) = c H_r(x).  For c a power of two every
  product in the closed forms scales exactly, so tables, Jacobians and
  spectra can be compared bit for bit.
- Spectral structure: at a fixed point with support S and s = sum(x), the
  rows of J off S are diagonal, so the spectrum is {r_k s : k not in S}
  together with eig(J_SS), J_SS = diag(d) + u 1^T with d_k = r_k (s - x_k)
  and u_k = r_k x_k.  At a feasible point u > 0, and diag(sqrt(u)) carries
  J_SS to the symmetric diag(d) + sqrt(u) sqrt(u)^T: the spectrum is real
  and interlaces the sorted d_k.
- Fixed-point types: at a feasible point on S (m = |S|), x_k = 2s - 2/r_k
  and s = 2R/(2m - 1) with R = sum_S 1/r_k.  Every x_j >= 0 gives
  1/r_j <= s, so 1/r_k = R - sum_{j != k} 1/r_j >= s/2, and 1 <= r_k s <= 2
  on S: every d_k = 2 - r_k s lies in [0, 1].  The eigenvalue 2 is the
  largest of J_SS (the sympy oracle), and the other m - 1 lie in
  [min d, max d].  So with no r_k s equal to 1 the point is never
  attracting: it has (m - 1) + #{k not in S : r_k s < 1} eigenvalues inside
  the unit circle, and is a saddle if that count is positive, repelling
  otherwise.  It is nonhyperbolic exactly where some r_k s is 1, which
  `nonhyperbolic_condition` tests for every k with no eigensolver.  In
  the plane a strictly positive interior point therefore is a saddle, with
  no spectrum solved to confirm it, and the basin boundary leaves it along
  (1, -r2/r1) (`TestStableTangent` in `tests/test_dynamics.py`).
- Infeasible points (a claim with one step of its proof open): at a point
  on S with b >= 1 negative coordinates and sum s, the spectrum is real,
  and the eigenvalues above 1, less the r_k s above 1 off S, number
  b + 1.  So at least two lie outside the unit circle and the point is
  never attracting.  Sketch: with d_k = 2 - r_k s and u_k = r_k x_k =
  2 (r_k s - 1), the eigenvalues of J_SS away from the poles d_k are the
  roots of the secular equation f(lam) = 1 + sum_S u_k / (d_k - lam).  A
  negative x_k has u_k < 0 and d_k in (1, 2); the other p = m - b have
  u_k >= 0 and d_k <= 1, and s > 0 forces p >= 1.  Between consecutive
  poles whose weights have the same sign f runs from one infinity to the
  other, which gives p - 1 real roots at or below 1 and b - 1 in (1, 2);
  lam = 2 lies to the right of every pole.  That makes m - 1 real roots,
  so the last one is real too, since complex roots come in pairs.  Open:
  that the last root lies above 1, which makes b + 1 support eigenvalues
  above 1.  `TestInfeasiblePoints` checks the claim on seeded tables.
- Water-filling: with x = t u and sum u = 1, the direction u moves by the
  replicator map of the payoff matrix A = 2 r 1^T - diag(r).  On sum z = 0,
  z^T A z = -sum r_k z_k^2 < 0, so the game is strictly stable and has one
  equilibrium: the feasible nonzero fixed point with every off-support
  r_k s <= 1.  Its support is the m largest rates for the one m that fills
  (`water_fill` in `tests/helpers.py`).
- Region redundancy: with lhs_k = x_k + 2 sum_{i != k} x_i, 2 lhs_j -
  lhs_k = 3 x_k + 2 sum_{i != j, k} x_i >= 0 (the sympy oracle), so
  lhs_k <= 2 lhs_j.  Where r_j > 2 r_k, MBAR1's constraint j (lhs_j <=
  2/r_j) implies its constraint k strictly, since lhs_k <= 4/r_j < 2/r_k,
  and MBAR2's constraint k implies its constraint j strictly.  This holds
  at every n; at n = 2 it makes the paper's regime-gated regions M1..M6
  the two MBAR regions, so the package has only MBAR1 and MBAR2.
- Permutation equivariance: relabelling the coordinates, H_{Pr}(Px) =
  P H_r(x), maps each fixed point of support mask m to the permuted mask,
  with the same spectrum and class.  At n = 2 every sum has two terms and
  a + b == b + a in floating point, so swapping the rates mirrors the table
  and every fate bit for bit.
- The n = 3 interior discriminant is never negative (a proof is recorded
  in `interior_discriminant_n3` in `tests/helpers.py` and checked by the
  sympy oracle).

Hypothesis runs derandomized, so every run draws the same examples.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdyn import (
    TAU_UNIT, FateOutcome, Rates, StabilityClass, StabilityTag, SupportMask, basin_boundary, classify, classify_fate,
    iterate, jacobian, nonhyperbolic_condition, spectrum_at,
)
from qdyn.fixed_points import _all_supports, _points
from helpers import feasible_nonzero_points, interior_discriminant_n3, precise_spectrum, water_fill

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


@st.composite
def support_starts(draw):
    """A start between the MBAR1 and MBAR2 scales with some coordinates set
    to zero and some shrunk by up to 1e-150."""
    rates, x = draw(starts(n_max=8))
    zero = np.array(draw(st.lists(st.booleans(), min_size=rates.n, max_size=rates.n)))
    shrink = 10.0 ** -np.array(draw(st.lists(st.sampled_from([0, 0, 5, 50, 150]), min_size=rates.n,
                                             max_size=rates.n)))
    return rates, np.where(zero, 0.0, x * shrink)


class TestSupportInvariance:
    @given(support_starts())
    @settings(PROPERTY, max_examples=300)
    def test_orbits_keep_their_support(self, case):
        rates, x0 = case
        orbit = iterate(rates, x0, 1000)
        tiny = np.log(np.finfo(float).tiny)
        for x, y in zip(orbit[:-1], orbit[1:]):
            assert np.all(y[x == 0.0] == 0.0)
            # the step forms (r_k / 2) x_k, then its product with lhs_k >= x_k;
            # a coordinate may underflow to 0 only where one of them is below
            # the smallest normal float
            on = x > 0.0
            with np.errstate(divide="ignore"):  # log(0) = -inf where the first product underflows
                half = np.log(0.5 * rates.values[on] * x[on])
            lhs = 2.0 * x.sum() - x[on]
            assert np.all(y[on][(half > tiny) & (half + np.log(lhs) > tiny)] > 0.0)


class TestScalingConjugacy:
    @given(st.integers(2, 10).flatmap(lambda n: vectors(n, RATE)), st.integers(-8, 8))
    @settings(PROPERTY, max_examples=60)
    def test_table_jacobians_and_spectra_scale_exactly(self, theta, k):
        c = 2.0**k
        rates, scaled = Rates(theta), Rates(theta / c)
        bits = _all_supports(rates.n)
        coords, residual = _points(rates.values, bits)[:2]
        coords_c, residual_c = _points(scaled.values, bits)[:2]
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


# Below this distance of some r_k s from 1 the closed-form type is not
# compared: an eigenvalue may lie near the TAU_UNIT band
TYPE_MARGIN = 1e-6


def precise_class(theta, on):
    """`classify` of the 50-digit spectrum at the feasible point on the
    support `on`, from the closed form in mpmath."""
    return classify(precise_spectrum(theta, on), TAU_UNIT)


class TestSpectralStructure:
    @given(st.integers(2, 8).flatmap(lambda n: vectors(n, log_uniform(0.01, 100.0))))
    @settings(PROPERTY, max_examples=300)
    # The draws keep every r_k s at least 1e-3 from 1.  These rates put
    # r_k s about 1e-8 from 1, on and off S, and inside the TAU_UNIT band.
    # (Exactly 1 on S makes u_k = 0, outside the Bauer-Fike bound below.)
    @example(np.array([1.0, 0.5 * (1.0 + 1e-8)]))
    @example(np.array([1.0, 0.5 * (1.0 - 1e-8)]))
    @example(np.array([1.0, 0.5 * (1.0 + 1e-11)]))
    @example(np.array([1.0, 1.0, 0.75 * (1.0 + 1e-8)]))
    @example(np.array([1.0, 1.0, 0.75 * (1.0 + 1e-11)]))
    def test_feasible_spectra_are_real_and_interlace(self, theta):
        rates, n = Rates(theta), theta.size
        masks, coords = feasible_nonzero_points(rates)
        jac = jacobian(rates, coords)
        for mask, x, j, spectrum in zip(masks, coords, jac, spectrum_at(rates, coords)):
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
            # the type theorem: 1 <= r_k s <= 2 on S, and the class follows
            # from m and the r_k s off S
            rs = theta * s
            assert np.all((1.0 - 16 * n * EPS <= rs[on]) & (rs[on] <= 2.0 + 16 * n * EPS))
            # the certificate tests r_k s = 1 for every k with no eigensolver
            certified = nonhyperbolic_condition(rates, SupportMask(n, mask))
            if np.min(np.abs(rs - 1.0)) < TYPE_MARGIN:
                expected = precise_class(theta, on)
                assert classify(spectrum) == expected
                assert not certified or expected.tag is StabilityTag.NONHYPERBOLIC
            else:
                assert not certified
                inside = int(on.sum()) - 1 + int(np.sum(rs[~on] < 1.0))
                tag = StabilityTag.SADDLE if inside else StabilityTag.REPELLING
                assert classify(spectrum) == StabilityClass(tag, inside, n - inside, 0)


INFEASIBLE_FAMILIES = {
    "uniform": lambda rng, n: rng.uniform(0.05, 3.0, n),
    "log-uniform": lambda rng, n: 10.0 ** rng.uniform(-2.0, 2.0, n),
    "near-equal": lambda rng, n: rng.uniform(1.0, 1.5, n),
}


class TestInfeasiblePoints:
    # "Above 1" counts real parts, not moduli: where some d_k = 2 - r_k s
    # lies below -1, the support block has negative roots below -1, and a
    # count of moduli misses b + 1 on about half of the points.
    # Every case draws some infeasible points.  Near-equal rates start at
    # n = 3: at n = 2 the pair's point is (4/r_j - 2/r_k)/3 in coordinate k,
    # positive while the rates are within a factor 2, so it has none.
    BAND = 1e-9

    @pytest.mark.parametrize("family, n", [(family, n) for n in range(2, 13) for family in INFEASIBLE_FAMILIES
                                           if (family, n) != ("near-equal", 2)])
    def test_real_spectrum_with_b_plus_1_support_eigenvalues_above_1(self, family, n):
        rng = np.random.default_rng([n, list(INFEASIBLE_FAMILIES).index(family)])
        checked = 0
        for _ in range(6 if n <= 9 else 2):
            theta = INFEASIBLE_FAMILIES[family](rng, n)
            rates = Rates(theta)
            bits = _all_supports(rates.n)
            coords, _, feasible = _points(theta, bits)
            bits, coords = bits[~feasible], coords[~feasible]
            spectra = spectrum_at(rates, coords)
            assert np.all(np.abs(spectra.imag) <= self.BAND * np.maximum(1.0, np.abs(spectra)))
            negative = np.sum(coords < 0.0, axis=1)
            off_above = np.sum((bits == 0) & (theta * coords.sum(axis=1, keepdims=True) > 1.0 + self.BAND), axis=1)
            above = np.sum(spectra.real > 1.0 + self.BAND, axis=1)
            assert np.array_equal(above - off_above, negative + 1)
            assert StabilityTag.ATTRACTING not in {c.tag for c in classify(spectra)}
            checked += len(coords)
        assert checked > 0


@st.composite
def lopsided_cases(draw):
    """Exact rational rates with r_j = (2 + e) r_k, e > 0, for a drawn pair
    j != k, a start with x_j = 1 and the other coordinates shrunk by a drawn
    weight (the bound lhs_k <= 2 lhs_j is tight at weight 0), and a scale t
    in (0, 1]."""
    n = draw(st.integers(2, 6))
    unit = st.fractions(0, 1, max_denominator=10**6)
    theta = draw(st.lists(st.fractions(Fraction(1, 1000), 3, max_denominator=1000), min_size=n, max_size=n))
    j, k = draw(st.permutations(range(n)))[:2]
    theta[j] = (2 + draw(unit.filter(bool))) * theta[k]
    weight = draw(unit)
    x = [Fraction(1) if i == j else weight * draw(unit) for i in range(n)]
    return theta, x, j, k, draw(unit.filter(bool))


def constraint_sums(x):
    return [2 * sum(x) - v for v in x]


class TestRegionRedundancy:
    @given(lopsided_cases())
    @example(([Fraction(1), 2 + Fraction(1, 10**12)], [Fraction(0), Fraction(1)], 1, 0, Fraction(1)))
    @PROPERTY
    def test_one_constraint_implies_the_other(self, case):
        theta, x, j, k, t = case
        lhs = constraint_sums(x)
        assert lhs[k] <= 2 * lhs[j]
        # MBAR1: constraint j holds, with equality at t = 1
        inside = constraint_sums([t * 2 / (theta[j] * lhs[j]) * v for v in x])
        assert inside[j] <= 2 / theta[j]
        assert inside[k] < 2 / theta[k]
        # MBAR2: constraint k holds, with equality at t = 1
        outside = constraint_sums([2 / (t * theta[k] * lhs[k]) * v for v in x])
        assert outside[k] >= 2 / theta[k]
        assert outside[j] > 2 / theta[j]


def permuted_rates(n: int):
    return st.tuples(vectors(n, log_uniform(0.01, 100.0)), st.permutations(range(n)).map(np.array))


class TestPermutationEquivariance:
    SWAP = [0, 2, 1, 3]  # each planar mask with its two bits swapped

    @given(vectors(2, log_uniform(0.01, 100.0)))
    @settings(PROPERTY, max_examples=300)
    def test_planar_swap_mirrors_table_and_fates_bit_for_bit(self, theta):
        rates, swapped = Rates(theta), Rates(theta[::-1])
        bits = _all_supports(rates.n)
        coords, residual = _points(rates.values, bits)[:2]
        coords_s, residual_s = _points(swapped.values, bits)[:2]
        assert np.array_equal(coords_s[self.SWAP], coords[:, ::-1])
        assert np.array_equal(residual_s[self.SWAP], residual)
        # a 7 x 7 grid of starts in units of the axis points 2/r_k, from the
        # origin past both singleton fixed points to where orbits escape
        grid = np.linspace(0.0, 3.0, 7)
        x = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2) * (2.0 / theta)
        for fate, mirrored in zip(classify_fate(rates, x), classify_fate(swapped, x[:, ::-1])):
            assert (mirrored.outcome, mirrored.evidence, mirrored.steps_used) == (
                fate.outcome, fate.evidence, fate.steps_used)
            assert np.array_equal(mirrored.final_state, fate.final_state[::-1])
            index = fate.fixed_point_index
            assert mirrored.fixed_point_index == (None if index is None else self.SWAP[index])

    @given(st.integers(3, 6).flatmap(permuted_rates))
    @settings(PROPERTY, max_examples=200)
    def test_enumeration_maps_masks_to_permuted_masks(self, case):
        theta, perm = case
        n = theta.size
        rates, permuted = Rates(theta), Rates(theta[perm])
        bits = _all_supports(rates.n)
        coords = _points(rates.values, bits)[0]
        # coordinate k of the permuted system is coordinate perm[k] here, so
        # the point of mask m is the point of the mask whose bit k is bit
        # perm[k] of m
        image = (bits[:, perm] << np.arange(n)).sum(axis=1)
        coords_p = _points(permuted.values, bits)[0][image]
        # Both tables sum the same reciprocals, in another order: the sums
        # differ by at most about 2 m eps sum_S(1/r), and the closed form
        # divides them by 2m - 1 after scaling by 4.  The rest of the
        # arithmetic is the same on both sides.
        recip = (bits / theta).sum(axis=1)
        scale = 4.0 * recip / np.maximum(2 * bits.sum(axis=1) - 1, 1)
        assert np.all(np.abs(coords_p[:, np.argsort(perm)] - coords).max(axis=1) <= 4 * n * EPS * scale)
        jac = jacobian(rates, coords)
        spectra, spectra_p = spectrum_at(rates, coords), spectrum_at(permuted, coords_p)
        assert classify(spectra_p) == classify(spectra)
        # eigvals is backward stable: each spectrum is exact for a Jacobian
        # within a small multiple of n eps ||J||_F of P J P^T (the permuted
        # Jacobian also carries the coordinates' rounding, of the same size).
        # By Bauer-Fike each eigenvalue then moves by at most cond_2(V) times
        # that, V the eigenvectors of J.
        tols = 16 * n * EPS * np.linalg.norm(jac, axis=(1, 2)) * np.linalg.cond(np.linalg.eig(jac)[1])
        for spectrum, spectrum_p, tol in zip(spectra, spectra_p, tols):
            # the canonical order sorts by modulus, so eigenvalues whose
            # moduli tie within rounding may come in either order: match each
            # to the nearest one left
            left = list(spectrum_p)
            for lam in spectrum:
                nearest = int(np.argmin(np.abs(np.array(left) - lam)))
                assert abs(left.pop(nearest) - lam) <= tol


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


RATE_FAMILIES = {
    "uniform": lambda rng, n: rng.uniform(0.1, 3.0, n),
    "log-uniform": lambda rng, n: 10.0 ** rng.uniform(-2.0, 2.0, n),
    "near-equal": lambda rng, n: 0.7 * (1.0 + 1e-3 * rng.random(n)),
}


class TestWaterFilling:
    # Off the support, r_k s <= 1 is read with a relative slack of 1e-12, so
    # an equilibrium whose r_k s rounds a few ulps above 1 still counts.  An
    # r_k s within rounding of 1 is the transcritical edge, where the points
    # on S and on S + {k} coincide and either answer would be right; the
    # test asserts that no draw comes within 1e-9 of it, so no verdict here
    # rests on rounding.
    SLACK, EDGE = 1e-12, 1e-9

    @pytest.mark.parametrize("family", RATE_FAMILIES)
    @pytest.mark.parametrize("n", range(2, 11))
    def test_one_feasible_point_is_the_equilibrium(self, family, n):
        rng = np.random.default_rng([n, list(RATE_FAMILIES).index(family)])
        for _ in range(40):
            theta = RATE_FAMILIES[family](rng, n)
            bits = _all_supports(Rates(theta).n)
            coords = _points(theta, bits)[0]
            size = bits.sum(axis=1)
            s = 2.0 * (bits @ (1.0 / theta)) / (2 * size - 1)  # the origin's row reads -0.0
            rs = theta * s[:, None]
            feasible = np.all(coords >= 0.0, axis=1) & (size > 0)
            assert np.all(np.abs(rs[feasible] - 1.0) > self.EDGE)
            stable = np.all((bits == 1) | (rs <= 1.0 + self.SLACK), axis=1)
            assert np.flatnonzero(feasible & stable).tolist() == [water_fill(theta)], theta.tolist()
