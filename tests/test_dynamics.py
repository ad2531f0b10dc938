import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qdyn import (
    DEFAULT_BUDGET,
    DimensionMismatch,
    DomainError,
    FateEvidence,
    FateOutcome,
    FateReport,
    Rates,
    RegionKind,
    apply,
    basin_boundary,
    classify_fate,
    enumerate_fixed_points,
    interior_fixed_point,
    iterate,
    jacobian,
    region_membership,
)
from qdyn import dynamics
from qdyn.dynamics import (
    _BLOCK_CELLS, _EVIDENCE, _OUTCOMES, EPS_CONV, PROXIMITY_RTOL, R_ESCAPE, _candidate, _fates, _step_block,
    _trajectory_fate,
)
from qdyn.fixed_points import _points
from qdyn.model import _step
from qdyn.verify import make_rng, sample_in_region, sample_rates
from helpers import feasible_nonzero_points, sample_feasible_interior, table_fates


class TestIterate:
    def test_collapse_from_small_start(self):
        traj = iterate(Rates([1.0, 1.0]), [0.1, 0.1], 50)
        assert np.max(np.abs(traj[-1])) < 1e-12
        assert len(traj) <= 51

    def test_escape_from_large_start(self):
        traj = iterate(Rates([1.0, 1.0]), [2.0, 2.0], 50)
        assert np.max(np.abs(traj[-1])) > 1e8

    def test_fixed_point_is_constant(self, rates_04_06):
        fp = interior_fixed_point(rates_04_06)
        traj = iterate(rates_04_06, fp.coords, 20)
        assert len(traj) == 21
        np.testing.assert_allclose(traj, np.tile(fp.coords, (21, 1)), atol=1e-12)

    def test_crossing_state_included(self):
        traj = iterate(Rates([1.0, 1.0]), [2.0, 2.0], 50)
        assert np.max(np.abs(traj[-2])) <= 1e8 < np.max(np.abs(traj[-1]))

    def test_rejects_negative_start(self, rates_04_06):
        with pytest.raises(DomainError):
            iterate(rates_04_06, [-0.1, 0.1], 10)

    def test_step_count_must_be_an_integer(self, rates_04_06):
        fp = interior_fixed_point(rates_04_06)
        with pytest.raises(DomainError, match="integer"):
            iterate(rates_04_06, fp.coords, 2.0)
        with pytest.raises(DomainError, match="max_steps must be an integer, got True"):
            iterate(rates_04_06, fp.coords, True)  # a bool is no integer, though Python's bool is an int
        assert iterate(rates_04_06, fp.coords, np.int64(2)).shape == (3, 2)

    def test_step_count_bounds(self, rates_04_06):
        with pytest.raises(DomainError, match="max_steps must be in"):
            iterate(rates_04_06, [0.1, 0.1], -1)
        # one row past numpy's size limit for an (m, 2) float64 array
        limit = np.iinfo(np.intp).max // 16
        with pytest.raises(DomainError, match=f"max_steps must be in \\[0, {limit - 1}\\]"):
            iterate(rates_04_06, [5.0, 5.0], limit)
        # below the limit the array is refused by the allocator, before any step
        with pytest.raises(MemoryError):
            iterate(rates_04_06, [5.0, 5.0], 10**15)
        # x0 is validated before the array is allocated
        with pytest.raises(DomainError, match="nonnegative"):
            iterate(rates_04_06, [-0.1, 0.1], 10**15)

    def test_early_stop_returns_only_the_filled_rows(self):
        traj = iterate(Rates([1.0, 1.0]), [2.0, 2.0], 10**6)
        assert traj.shape == (6, 2) and traj.base is None
        np.testing.assert_array_equal(traj, iterate(Rates([1.0, 1.0]), [2.0, 2.0], 5))


    @pytest.mark.parametrize("steps", [0, 1, 2, 5, 100])
    def test_equals_a_plain_step_loop_bit_for_bit(self, steps):
        # starts that collapse, escape, take real steps between the MBAR
        # scales, and (with rates 1e-300 and 1e300) overflow at the first step
        rng, truncated = make_rng(6), 0
        for n in range(2, 11):
            rates = sample_rates(rng, n)
            overflowing = Rates(np.concatenate([[1e-300, 1e300], rates.values[2:]]))
            for x0 in [*band_starts(rng, rates, 6), np.full(n, 1e-3), np.full(n, 10.0), np.full(n, 1e5)]:
                for r in (rates, overflowing):
                    expected = plain_orbit(r, x0, steps)
                    traj = iterate(r, x0, steps)
                    assert traj.shape == expected.shape and traj.tobytes() == expected.tobytes()
                    truncated += len(traj) <= steps and EPS_CONV <= traj[-1].max() <= R_ESCAPE
        assert truncated or steps == 0


def plain_orbit(rates, x, steps):
    """`iterate`'s orbit as a plain loop of `_step`: a state is kept while
    the last one's inf-norm lies in [EPS_CONV, R_ESCAPE], up to `steps`
    steps, and the orbit ends before a state with a nonfinite coordinate."""
    states = [x]
    with np.errstate(over="ignore", invalid="ignore"):
        while len(states) <= steps and EPS_CONV <= np.abs(states[-1]).max() <= R_ESCAPE:
            x = _step(rates.values, states[-1])
            if not np.isfinite(x).all():
                break
            states.append(x)
    return np.array(states)


def band_starts(rng, rates, count):
    """Starts along random directions u, scaled between the MBAR1 and MBAR2
    critical scales 2/(r_k (2 - u_k)), as the fates benchmark draws them."""
    starts = []
    for _ in range(count):
        u = rng.exponential(size=rates.n)
        u /= u.sum()
        critical = 2.0 / (rates.values * (2.0 - u))
        starts.append(rng.uniform(critical.min(), critical.max()) * u)
    return starts


class TestRegionMembership:
    def test_m1_example(self, rates_04_06):
        # the paper's planar region M1 is MBAR1 at n = 2 (test_theorems.py)
        assert region_membership(rates_04_06, [0.1, 0.1], RegionKind.MBAR1)

    def test_interior_point_on_both_closed_regions(self):
        # the interior point solves the constraints with equality; for unit
        # rates the float evaluation is exact, so it sits in both closed sets
        rates = Rates([1.0, 1.0])
        coords = interior_fixed_point(rates).coords
        assert region_membership(rates, coords, RegionKind.MBAR1)
        assert region_membership(rates, coords, RegionKind.MBAR2)

    def test_interior_point_equalities_up_to_roundoff(self, rates_04_06):
        coords = interior_fixed_point(rates_04_06).coords
        lhs = 2.0 * coords.sum() - coords
        np.testing.assert_allclose(lhs, 2.0 / rates_04_06.values, rtol=1e-14)
        assert region_membership(rates_04_06, coords * (1.0 - 1e-9), RegionKind.MBAR1)
        assert region_membership(rates_04_06, coords * (1.0 + 1e-9), RegionKind.MBAR2)

    def test_origin_in_mbar1_any_n(self, rates_ones3):
        assert region_membership(rates_ones3, [0.0, 0.0, 0.0], RegionKind.MBAR1)

    def test_overflowing_constraint_is_above_every_bound(self):
        # the constraint sum overflows to inf: outside MBAR1, inside MBAR2, no warning
        rates = Rates([1.0, 1.0])
        assert not region_membership(rates, [1e308, 1e308], RegionKind.MBAR1)
        assert region_membership(rates, [1e308, 1e308], RegionKind.MBAR2)

    @pytest.mark.parametrize("region", list(RegionKind))
    def test_rows_give_each_rows_answer(self, region):
        # a stack gets one bool per row, each the row's own answer: rows on a
        # face, on an axis, at the bounds, past them and overflowing to inf
        rates = Rates([0.4, 0.6, 1.5])
        rows = np.array([
            [0.1, 0.0, 0.2], [0.0, 0.0, 0.1], [0.0, 3.0, 0.0], [5.0, 0.0, 0.0], [1e308, 1e308, 0.0],
            [0.0, 0.0, 2.0 / 1.5], [2.0, 2.0, 2.0], [0.0, 0.0, 0.0], [1e-300, 0.0, 1e308], [0.3, 0.2, 0.1],
        ])
        answers = region_membership(rates, rows, region)
        assert answers.dtype == bool and answers.shape == (len(rows),)
        assert answers.tolist() == [region_membership(rates, x, region) for x in rows]
        assert set(answers.tolist()) == {False, True}
        assert region_membership(rates, rows[:0], region).shape == (0,)

    @pytest.mark.parametrize("rows", [[[0.1, 0.1, 0.1]], [[0.1, -0.1]], [[0.1, float("nan")]]])
    def test_rows_are_validated(self, rates_04_06, rows):
        with pytest.raises((DimensionMismatch, DomainError)):
            region_membership(rates_04_06, rows, RegionKind.MBAR1)

    def test_invariance_sweep(self):
        # one map application keeps membership of MBAR1 and MBAR2 at n = 2..6
        rng = make_rng(21)
        checked = 0
        while checked < 500:
            n = int(2 + rng.integers(0, 5))
            rates = sample_rates(rng, n)
            region = RegionKind.MBAR1 if checked % 2 else RegionKind.MBAR2
            x = sample_in_region(rng, rates, region)
            x_next = apply(rates, x)
            assert region_membership(rates, x_next, region)
            if region is RegionKind.MBAR1:
                assert np.all(x_next <= x)
            else:
                assert np.all(x_next >= x)
            checked += 1


class TestClassifyFate:
    def test_region_shortcut_to_origin(self, rates_04_06):
        report = classify_fate(rates_04_06, [0.1, 0.1])
        assert report.outcome is FateOutcome.TO_ORIGIN
        assert report.evidence is FateEvidence.REGION_CONTAINMENT
        assert report.steps_used == 0

    def test_region_shortcut_to_infinity(self, rates_04_06):
        report = classify_fate(rates_04_06, [3.0, 3.0])
        assert report.outcome is FateOutcome.TO_INFINITY
        assert report.steps_used == 0

    def test_interior_point_reports_itself(self, rates_04_06):
        fp = interior_fixed_point(rates_04_06)
        report = classify_fate(rates_04_06, fp.coords)
        assert report.outcome is FateOutcome.TO_FIXED_POINT
        assert report.evidence is FateEvidence.FIXED_POINT_PROXIMITY
        assert report.fixed_point_index == 3

    def test_origin_start_goes_to_origin(self, rates_04_06):
        report = classify_fate(rates_04_06, [0.0, 0.0])
        assert report.outcome is FateOutcome.TO_ORIGIN

    def test_collapse_is_checked_before_proximity(self):
        # the axis point (2e-12, 0) lies inside the origin's proximity
        # radius (1e-11): the start has collapsed, it has not reached it
        report = classify_fate(Rates([1e12, 1.0]), [0.0, 0.0])
        assert report.outcome is FateOutcome.TO_ORIGIN
        assert report.evidence is FateEvidence.NORM_THRESHOLD
        assert report.fixed_point_index is None and report.steps_used == 0

    def test_budget_exhaustion_is_undetermined(self, rates_04_06):
        # just below the axis fixed point the descent is slow (13 steps to
        # reach a region); a tiny budget must give up honestly
        report = classify_fate(rates_04_06, [4.999, 0.0], budget=1)
        assert report.outcome is FateOutcome.UNDETERMINED
        assert report.evidence is FateEvidence.ITERATION_CAP
        full = classify_fate(rates_04_06, [4.999, 0.0])
        assert full.outcome is FateOutcome.TO_ORIGIN

    def test_rejects_zero_budget(self, rates_04_06):
        with pytest.raises(DomainError):
            classify_fate(rates_04_06, [0.1, 0.1], budget=0)

    @pytest.mark.parametrize("budget", [2.5, float("inf"), "3", True, np.True_])
    def test_budget_must_be_an_integer(self, rates_04_06, budget):
        with pytest.raises(DomainError, match="integer"):
            classify_fate(rates_04_06, [4.999, 0.0], budget=budget)

    def test_budget_accepts_numpy_integers(self, rates_04_06):
        report = classify_fate(rates_04_06, [4.999, 0.0], budget=np.int64(3))
        assert report.outcome is FateOutcome.UNDETERMINED and type(report.steps_used) is int
        assert report.steps_used == 3

    def test_degenerate_support_reports_first_mask(self):
        # masks 2 and 3 share the coordinates (0, 1); the lower mask wins
        assert classify_fate(Rates([1.0, 2.0]), [0.0, 1.0]).fixed_point_index == 2

    def test_simulates_at_n21_and_n70(self):
        # a fate builds no table of fixed points, so it has no enumeration cap
        assert classify_fate(Rates(np.ones(21)), np.zeros(21)).outcome is FateOutcome.TO_ORIGIN
        assert classify_fate(Rates(np.ones(21)), np.full(21, 0.1)).outcome is FateOutcome.TO_INFINITY
        # the interior point's mask has 70 bits: an exact Python int, past int64
        rates = Rates(np.ones(70))
        report = classify_fate(rates, interior_fixed_point(rates).coords)
        assert report.outcome is FateOutcome.TO_FIXED_POINT and report.steps_used == 0
        assert type(report.fixed_point_index) is int and report.fixed_point_index == 2**70 - 1
        axis = np.zeros(70)
        axis[69] = 2.0
        assert classify_fate(rates, axis).fixed_point_index == 1 << 69

    def test_overflowing_step_escapes_from_the_last_finite_state(self):
        # no region or threshold holds at x0, and the first step overflows
        rates = Rates([1e-300, 1e300])
        report = classify_fate(rates, [1e5, 1e5])
        assert report.outcome is FateOutcome.TO_INFINITY
        assert report.steps_used == 1
        assert report.evidence is FateEvidence.NORM_THRESHOLD
        np.testing.assert_array_equal(report.final_state, [1e5, 1e5])
        np.testing.assert_array_equal(iterate(rates, [1e5, 1e5], 3), [[1e5, 1e5]])

    def test_final_state_lies_on_the_iterated_orbit(self):
        # starts between the scales where the MBAR1 and MBAR2 constraints
        # bind along a random direction, so the fate takes real steps
        rng = make_rng(4)
        for draw in range(200):
            n = 2 + draw % 7
            rates = sample_rates(rng, n)
            u = -np.log(1.0 - rng.random(n))
            u /= u.sum()
            critical = 2.0 / (rates.values * (2.0 - u))
            x0 = (critical.min() + (critical.max() - critical.min()) * rng.random()) * u
            report = classify_fate(rates, x0)
            traj = iterate(rates, x0, report.steps_used)
            assert len(traj) == report.steps_used + 1
            np.testing.assert_array_equal(traj[-1], report.final_state)


def trajectory_fate_starts():
    """Rates at n = 2..10 (every other n near one level, so that many supports
    are feasible), each with six starts between the MBAR scales and up to six
    feasible nonzero fixed points scaled by 1 - 1e-12 and 1 + 1e-12."""
    rng = make_rng(8)
    for n in range(2, 11):
        rates = sample_feasible_interior(rng, n) if n % 2 else sample_rates(rng, n)
        _, points = feasible_nonzero_points(rates)
        points = points[rng.permutation(len(points))[:6]]
        yield rates, [*band_starts(rng, rates, 6), *(points * (1.0 - 1e-12)), *(points * (1.0 + 1e-12))]


class TestTrajectoryFate:
    @pytest.mark.parametrize("budget", [1, 2, 3, DEFAULT_BUDGET])
    @pytest.mark.parametrize("steps", [0, 1, 2, 100])
    def test_equals_classify_fate_and_steps_the_kernel_only_past_the_trajectory(self, monkeypatch, steps, budget):
        # the fate is classify_fate's, final state bit for bit; the kernel
        # runs exactly when no rule fires inside the trajectory, which is
        # when the fate lies past its last state
        calls = []
        monkeypatch.setattr(dynamics, "_fates", lambda *args: calls.append(args) or _fates(*args))
        read, stepped = 0, 0
        for rates, starts in trajectory_fate_starts():
            for x0 in starts:
                traj = iterate(rates, x0, steps)
                kept = traj.copy()
                calls.clear()
                report = _trajectory_fate(rates, traj, budget)
                calls_made = len(calls)
                assert kernel_fields(report) == kernel_fields(classify_fate(rates, x0, budget))
                assert traj.tobytes() == kept.tobytes() and traj.tobytes() == iterate(rates, x0, steps).tobytes()
                assert calls_made == (report.steps_used >= len(traj))
                read, stepped = read + (not calls_made), stepped + calls_made
        # every seeded fate here ends within 100 steps
        assert read > 0 and (stepped > 0) == (steps < min(budget, 100))

    def test_an_overflowing_trajectory_steps_the_kernel(self, caplog):
        # the first step overflows: the trajectory is the start alone, and
        # the kernel logs the overflow once more, as classify_fate does
        rates, x0 = Rates([1e-10, 1e300]), [0.0, 2e4]
        with caplog.at_level(logging.WARNING, logger="qdyn"):
            traj = iterate(rates, x0, 100)
            report = _trajectory_fate(rates, traj, DEFAULT_BUDGET)
        assert [r.getMessage() for r in caplog.records] == ["overflow step; orbit truncated at 1 states"] * 2
        assert traj.tobytes() == np.array([x0]).tobytes()
        assert kernel_fields(report) == kernel_fields(classify_fate(rates, x0))
        assert report.steps_used == 1 and report.evidence is FateEvidence.NORM_THRESHOLD


def kernel_fields(report):
    return (report.outcome, report.evidence, report.steps_used, report.fixed_point_index, report.final_state.tobytes())


@st.composite
def start_stacks(draw, overflowing=st.booleans()):
    """Rates at n = 2..8 and a stack of starts: between the scales where the
    MBAR1 and MBAR2 constraints bind, at feasible fixed points, and (with
    one rate at 1e-300 and one at 1e300) starts whose first step overflows."""
    n = draw(st.integers(2, 8))
    theta = np.array(draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n)))
    overflowing = draw(overflowing)
    if overflowing:
        theta[:2] = 1e-300, 1e300
    rates = Rates(theta)
    _, points = feasible_nonzero_points(rates)
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        u = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
        u /= u.sum()
        critical = 2.0 / (theta * (2.0 - u))
        kind = draw(st.sampled_from(["band", "fixed point", "large"]))
        if kind == "fixed point":
            rows.append(points[draw(st.integers(0, len(points) - 1))])
        elif kind == "large" and overflowing:
            rows.append(10.0 ** draw(st.integers(5, 8)) * u)
        else:
            rows.append(draw(st.floats(0.5 * critical.min(), 1.5 * critical.max())) * u)
    return rates, np.array(rows)


def kernel_result(result):
    # rule codes, not outcome and evidence: the escape rule and an overflow
    # map to the same pair
    rule, steps, final, masks = result
    return rule.tolist(), steps, final.tobytes(), masks


def long_orbit_starts():
    """Starts on three lines of the planar basin boundary at rates (0.5, 0.8),
    below and above it by a relative 1e-16 to 0.9; their fates stop at every
    state from 0 to 40."""
    rates = Rates([0.5, 0.8])
    d = np.geomspace(1e-16, 0.9, 60)
    return rates, np.array([[s.x1, x2] for s in basin_boundary(rates, [1.44, 2.52, 2.88], tol=1e-15)
                            for x2 in np.concatenate([s.x2_low * (1.0 - d), s.x2_high * (1.0 + d)])])


def cell_capped_starts():
    """The long orbit starts and their neighbours up to 4 ulps away: 3240 rows."""
    rates, x = long_orbit_starts()
    shifted = [x]
    for toward in (np.inf, 0.0):
        y = x
        for _ in range(4):
            y = np.nextafter(y, toward)
            shifted.append(y)
    return rates, np.vstack(shifted)


def oracle_case(rng, draw):
    """Rates at n = 2..10, U(0.1, 3) or (every third draw) within 2% of one
    level, so that many supports are feasible; and starts drawn as the fates
    benchmark draws them (between the MBAR1 and MBAR2 scales along a random
    direction), every feasible nonzero point, and each point perturbed by a
    relative 1e-13 to 1e-10."""
    n = 2 + draw % 9
    theta = rng.uniform(0.1, 3.0) * (1.0 + 0.02 * rng.uniform(-1.0, 1.0, n)) if draw % 3 == 0 else rng.uniform(
        0.1, 3.0, n)
    rows = []
    for _ in range(20):
        u = rng.exponential(size=n)
        u /= u.sum()
        critical = 2.0 / (theta * (2.0 - u))
        rows.append(rng.uniform(critical.min(), critical.max()) * u)
    _, points = feasible_nonzero_points(Rates(theta))
    delta = 10.0 ** rng.uniform(-13.0, -10.0, size=(len(points), 1))
    perturbed = points * (1.0 + delta * rng.uniform(-1.0, 1.0, size=points.shape))
    return Rates(theta), np.vstack([rows, points, perturbed])


class TestFateKernel:
    @given(start_stacks(), st.sampled_from([1, 2, 3, 4, 5, DEFAULT_BUDGET]))
    @settings(derandomize=True, deadline=None, max_examples=200)
    def test_stacked_rows_equal_their_one_row_calls(self, case, budget):
        rates, starts = case
        stacked = classify_fate(rates, starts, budget)
        assert [kernel_fields(r) for r in stacked] == [kernel_fields(classify_fate(rates, x, budget)) for x in starts]

    def test_rows_return_a_list_and_one_start_a_report(self, rates_04_06):
        assert isinstance(classify_fate(rates_04_06, [0.1, 0.1]), FateReport)
        assert classify_fate(rates_04_06, np.empty((0, 2))) == []
        assert [r.outcome for r in classify_fate(rates_04_06, [[0.1, 0.1], [3.0, 3.0]])] == [
            FateOutcome.TO_ORIGIN, FateOutcome.TO_INFINITY,
        ]

    def test_final_states_are_read_only(self, rates_04_06):
        # each report's final state is a row view of one read-only array, and
        # refuses to be made writeable again
        one = classify_fate(rates_04_06, [0.1, 0.1])
        reports = classify_fate(rates_04_06, np.array([[0.1, 0.1], [3.0, 3.0], [1.0, 1.5]]))
        for state in [one.final_state] + [r.final_state for r in reports]:
            assert not state.flags.writeable
            with pytest.raises(ValueError):
                state.flags.writeable = True
            with pytest.raises(ValueError):
                state[0] = 0.0

    @pytest.mark.parametrize("starts", [[[0.1, 0.1, 0.1]], [[0.1, -0.1]], [[0.1, float("nan")]]])
    def test_rows_are_validated(self, rates_04_06, starts):
        with pytest.raises((DimensionMismatch, DomainError)):
            classify_fate(rates_04_06, starts)

    def test_equals_the_target_table_oracle(self):
        # outcome, evidence, steps, final state and mask bit for bit against
        # proximity tested on the table of all feasible nonzero points
        rng = make_rng(31)
        starts = hits = 0
        for draw in range(135):
            rates, x = oracle_case(rng, draw)
            result = kernel_result(_fates(rates, x, DEFAULT_BUDGET))
            assert result == kernel_result(table_fates(rates, x, DEFAULT_BUDGET)), (draw, rates.values)
            starts, hits = starts + len(x), hits + sum(m is not None for m in result[3])
        assert starts > 10_000 and hits > starts / 2

    # The kernel checks the rules once per block of 4 (or `first`), 8, 16,
    # then 32 states, at most _BLOCK_CELLS cells; the next six tests put a
    # stop at every offset of those blocks and compare with the table
    # oracle, which checks them at every state.
    def test_stops_at_every_state_up_to_40_equal_the_oracle(self):
        rates, x = long_orbit_starts()
        result = kernel_result(_fates(rates, x, DEFAULT_BUDGET))
        assert set(range(41)) <= set(result[1])
        assert result == kernel_result(table_fates(rates, x, DEFAULT_BUDGET))

    def test_every_budget_up_to_70_equals_the_oracle(self):
        rates, x = long_orbit_starts()
        for budget in range(1, 71):
            assert kernel_result(_fates(rates, x, budget)) == kernel_result(table_fates(rates, x, budget)), budget

    def test_cell_capped_stack_equals_the_oracle(self):
        # 3240 rows, so that the first rounds step one state at a time
        rates, x = cell_capped_starts()
        assert x.size > _BLOCK_CELLS
        result = kernel_result(_fates(rates, x, DEFAULT_BUDGET))
        assert set(range(41)) <= set(result[1])
        assert result == kernel_result(table_fates(rates, x, DEFAULT_BUDGET))

    def test_first_block_of_any_size_equals_the_oracle(self):
        # the basin search sizes the first block from the last round's
        # fates; a stop must not depend on it, at any budget
        rates, x = long_orbit_starts()
        for budget in [DEFAULT_BUDGET, *range(1, 11)]:
            oracle = kernel_result(table_fates(rates, x, budget))
            for first in range(1, 41):
                assert kernel_result(_fates(rates, x, budget, first)) == oracle, (budget, first)

    def test_cell_capped_stack_with_a_long_first_block_equals_the_oracle(self):
        # the cell cap, not the first block, sets the states of the first rounds
        rates, x = cell_capped_starts()
        oracle = kernel_result(table_fates(rates, x, DEFAULT_BUDGET))
        assert kernel_result(_fates(rates, x, DEFAULT_BUDGET, 32)) == oracle

    @given(start_stacks(overflowing=st.just(True)), st.sampled_from([1, 2, 3, 4, 5, DEFAULT_BUDGET]))
    @settings(derandomize=True, deadline=None, max_examples=100,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_overflowing_rows_equal_the_oracle_and_log_once_each(self, caplog, case, budget):
        rates, x = case
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="qdyn.dynamics"):
            result = _fates(rates, x, budget)
        assert kernel_result(result) == kernel_result(table_fates(rates, x, budget))
        # an overflow escapes from a finite state at or below R_ESCAPE, where the escape rule does not fire
        rule, steps_used, finals = result[:3]
        overflowed = [steps for outcome, evidence, steps, final in zip(_OUTCOMES[rule], _EVIDENCE[rule], steps_used, finals)
                      if outcome is FateOutcome.TO_INFINITY and evidence is FateEvidence.NORM_THRESHOLD
                      and final.max() <= R_ESCAPE]
        assert [record.args[0] for record in caplog.records] == sorted(overflowed)
        assert all(record.message.endswith(f"at {record.args[0]} states") for record in caplog.records)

    def test_block_step_is_the_map_step_bit_for_bit(self):
        # exponents from the subnormals to past the float range, zeros, and
        # n past the eight coordinates where numpy's row sum changes its order
        rng = make_rng(36)
        for draw in range(300):
            n, rows = 2 + draw % 40, 1 + draw % 13
            x = np.ldexp(rng.random((rows, n)), rng.integers(-1080, 1000, (rows, n)))
            x[rng.random((rows, n)) < 0.2] = 0.0
            theta = rng.uniform(0.1, 3.0, n)
            states, lhs = np.empty((2, n, rows)), np.empty((1, n, rows))
            states[0] = x.T
            with np.errstate(over="ignore", invalid="ignore"):
                _step_block((0.5 * theta)[:, None], states, lhs)
                assert states[1].T.tobytes() == _step(theta, x).tobytes()
                assert lhs[0].T.tobytes() == (2.0 * x.sum(axis=1, keepdims=True) - x).tobytes()

    def test_working_set_of_a_large_stack(self):
        # 20,000 starts at n = 16 (2.56 MB): the cell cap steps them one
        # state at a time.  Under tracemalloc, the per-step kernel that
        # blocks replaced peaked at 5.4 times the input's bytes, this one at
        # 4.7; blocks of two states at this size would take 6.8.
        rng = make_rng(35)
        rates = sample_rates(rng, 16)
        u = rng.exponential(size=(20_000, 16))
        u /= u.sum(axis=1, keepdims=True)
        critical = 2.0 / (rates.values * (2.0 - u))
        low, high = critical.min(axis=1, keepdims=True), critical.max(axis=1, keepdims=True)
        x = (low + (high - low) * rng.random((20_000, 1))) * u
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            classify_fate(rates, x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 6.0 * x.nbytes

    def test_gate_passes_every_state_within_the_radius(self):
        # the gate bounds how far lhs can move from 2/r within the radius:
        # (2n - 1) times it, the most when every coordinate moves one way
        rng = make_rng(32)
        for draw in range(90):
            rates, _ = oracle_case(rng, draw)
            _, points = feasible_nonzero_points(rates)
            radius = PROXIMITY_RTOL * np.maximum(1.0, np.abs(points).max(axis=1, keepdims=True))
            signs = np.where(rng.random(points.shape) < 0.5, -1.0, 1.0)
            signs[points == 0.0] = 1.0
            x = np.vstack([points + 0.999 * radius, points + 0.999 * radius * signs])
            keep = (x >= 0.0).all(axis=1) & (np.tile(points, (2, 1)) > 3.0 * np.tile(radius, (2, 1))).any(axis=1)
            oracle = table_fates(rates, x[keep], DEFAULT_BUDGET)
            assert all(e is FateEvidence.FIXED_POINT_PROXIMITY for e in _EVIDENCE[oracle[0]]) and set(oracle[1]) == {0}
            assert kernel_result(_fates(rates, x[keep], DEFAULT_BUDGET)) == kernel_result(oracle), rates.values

    def test_a_point_inside_the_radius_of_0_can_be_missed(self):
        # at rates (1e-300, 1e300) the axis point (0, 2e-300) lies inside
        # the radius of the origin.  From (5e-12, 5e-12), within the radius
        # of that point and above EPS_CONV, both coordinates are below
        # 2 PROXIMITY_RTOL, so the kernel has no candidate and the orbit
        # escapes at step 1, where the table stops it at once.
        rates, x = Rates([1e-300, 1e300]), np.array([[5e-12, 5e-12]])
        assert kernel_result(table_fates(rates, x, 1))[:2] == ([1], [0])  # proximity, at the start
        assert kernel_result(_fates(rates, x, 1))[:2] == ([4], [1])  # the escape norm, a step later

    def test_candidate_points_are_the_enumeration_rows(self):
        # the candidate is `_points` on its support, whose sums over the
        # gathered reciprocals do not depend on the rows solved with it
        rng = make_rng(33)
        for n in range(8, 13):
            rates = Rates(rng.uniform(1.0, 1.05, n))
            masks, points = feasible_nonzero_points(rates)
            pick = rng.choice(len(masks), size=min(len(masks), 200), replace=False)
            bits, hit = _candidate(rates.values, points[pick], np.abs(points[pick]).max(axis=1))
            assert hit.all()
            assert bits.tolist() == [[bool(masks[i] >> k & 1) for k in range(n)] for i in pick]
            assert np.array_equal(_points(rates.values, bits)[0], points[pick])

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_near_the_transcritical_condition_a_point_can_be_missed(self, n):
        # r_n just above the rate where the interior point's last coordinate,
        # 2s - 2/r_n, is 0, so that the coordinate ranges from about 1e-13 to
        # 1e-9.  The table stops a start at the point at once: at the point,
        # or at the point without its last coordinate once that is inside
        # the radius.  The kernel's candidate drops the coordinate below
        # 2 PROXIMITY_RTOL max(1, |x|), so in between it misses and steps on
        # (to the origin, to infinity, or to the axis point, as rounding has it).
        missed = 0
        for eps in np.geomspace(1e-13, 1e-9, 41):
            theta = np.ones(n)
            theta[-1] = (4 * n - 6) / (4 * (n - 1)) * (1.0 + eps)
            rates = Rates(theta)
            x = np.array([interior_fixed_point(rates).coords])
            small = x[0, -1] / (PROXIMITY_RTOL * max(1.0, np.abs(x).max()))
            kernel, oracle = kernel_result(_fates(rates, x, 1000)), kernel_result(table_fates(rates, x, 1000))
            assert (list(_EVIDENCE[oracle[0]]), oracle[1]) == ([FateEvidence.FIXED_POINT_PROXIMITY], [0])
            if kernel != oracle:
                assert small <= 3.0 and kernel[1][0] > 0, eps
                missed += 1
        assert missed > 0

    @pytest.mark.parametrize("theta, start, mask, rule, outcome, steps", [
        ((1e12, 1e12), (2e-12, 0.0), 1, 5, FateOutcome.UNDETERMINED, 50),  # the start is the axis point
        ((1e11, 3.0), (2e-11, 0.0), 1, 2, FateOutcome.TO_ORIGIN, 50),  # strict MBAR1; the start is the axis point
        ((1e-300, 1e300), (5e-12, 5e-12), 2, 4, FateOutcome.TO_INFINITY, 1),  # the escape norm, not an overflow
    ])
    def test_a_point_with_only_tiny_coordinates_can_be_missed(self, theta, start, mask, rule, outcome, steps):
        # no coordinate of the start is above 2 PROXIMITY_RTOL, so the kernel
        # has no candidate and steps on, where the table stops the start at
        # once by proximity; a fix of the miss has to change this test.  The
        # kernel's rule code is checked as well as the report, which gives
        # the escape norm and an overflow the same outcome and evidence.
        rates, x = Rates(theta), np.array([start])
        assert np.all(x <= 2.0 * PROXIMITY_RTOL)
        codes, steps_used, _, masks = kernel_result(table_fates(rates, x, 50))
        assert (codes, steps_used, masks) == ([1], [0], [mask])
        assert kernel_result(_fates(rates, x, 50))[:2] == ([rule], [steps])
        report = classify_fate(rates, start, 50)
        assert (report.outcome, report.steps_used, report.fixed_point_index) == (outcome, steps, None)


class TestUnstableLine:
    # the invariant line through the origin and the interior point (n = 2)
    # has slope x2/x1 = (2 r2 - r1)/(2 r1 - r2); at 2 r1 = r2 the point has
    # x1 = 0 and the line is the x2 axis
    def test_slope_examples(self):
        for theta, slope in (([0.4, 0.6], 4.0), ([1.0, 1.0], 1.0), ([0.6, 0.4], 0.25)):
            x1, x2 = interior_fixed_point(Rates(theta)).coords
            assert x2 / x1 == pytest.approx(slope, abs=1e-12)
        assert interior_fixed_point(Rates([1.0, 2.0])).coords[0] == 0.0

    def test_slope_matches_interior_ratio(self):
        for theta in ([0.4, 0.6], [1.0, 1.0], [0.6, 0.4], [0.5, 0.8], [1.3, 0.9], [0.8, 0.2]):
            (x1, x2), (t1, t2) = interior_fixed_point(Rates(theta)).coords, theta
            assert x2 / x1 == pytest.approx((2.0 * t2 - t1) / (2.0 * t1 - t2), rel=1e-12)


class TestUnstableRay:
    # coordinate ratios on the ray through the interior point are preserved
    # by the map; its direction at unit inf-norm is coords / max(coords)
    def test_symmetric_direction(self, rates_ones3):
        coords = interior_fixed_point(rates_ones3).coords
        np.testing.assert_allclose(coords / coords.max(), [1.0, 1.0, 1.0])

    def test_direction_04_06(self, rates_04_06):
        coords = interior_fixed_point(rates_04_06).coords
        np.testing.assert_allclose(coords / coords.max(), [0.25, 1.0], atol=1e-12)

    def test_ratio_preserved_under_map(self):
        # note r3 = 2*r1 makes the interior point degenerate: (0, 0, 1);
        # the ray collapses onto the x3 axis but stays invariant
        rates = Rates([1.0, 1.0, 2.0])
        coords = interior_fixed_point(rates).coords
        direction = coords / coords.max()
        np.testing.assert_allclose(direction, [0.0, 0.0, 1.0])
        for scale in (0.3, 1.7):
            x = scale * direction
            x_next = apply(rates, x)
            nz = x > 0.0
            assert np.all(x_next[~nz] == 0.0)
            ratios = x_next[nz] / x[nz]
            assert np.max(np.abs(ratios / ratios[0] - 1.0)) <= 1e-12

    def test_ratio_preserved_generic_triple(self):
        rates = Rates([1.0, 1.1, 0.9])
        coords = interior_fixed_point(rates).coords
        direction = coords / coords.max()
        assert np.all(direction > 0.0)
        for scale in (0.3, 1.7):
            x = scale * direction
            x_next = apply(rates, x)
            ratios = x_next / x
            assert np.max(np.abs(ratios / ratios[0] - 1.0)) <= 1e-12

    def test_ray_fate_dichotomy(self):
        rng = make_rng(23)
        for k in range(30):
            rates = sample_feasible_interior(rng, 2 + k % 5)
            coords = interior_fixed_point(rates).coords
            assert classify_fate(rates, 0.5 * coords).outcome is FateOutcome.TO_ORIGIN
            assert classify_fate(rates, 1.5 * coords).outcome is FateOutcome.TO_INFINITY


class TestStableTangent:
    # the basin boundary is tangent to (1, -r2/r1) at a strictly positive
    # interior point (n = 2), the eigenvector of its secondary eigenvalue
    # lam2 = 2 (r1^2 + r2^2 - r1 r2) / (3 r1 r2); the other eigenvalue is 2
    def test_examples(self):
        # r2 s = 1 + eps/3 puts lam2 within TAU_UNIT of 1, where classify
        # reports nonhyperbolic, but x2 = 2 eps/3 > 0 keeps it below 1
        examples = [([0.4, 0.6], [1.0, -1.5]), ([1.0, 1.0], [1.0, -1.0]), ([0.5, 0.8], [1.0, -1.6])]
        examples += [([2.0 * (1.0 - eps), 1.0], [1.0, -0.5]) for eps in (1e-10, 1e-12)]
        for theta, tangent in examples:
            rates = Rates(theta)
            values, vectors = np.linalg.eig(jacobian(rates, interior_fixed_point(rates).coords))
            v = vectors[:, np.argmin(values)]
            np.testing.assert_allclose(v / v[0], tangent)

    def test_is_eigenvector_of_secondary_eigenvalue(self):
        for theta in ([0.4, 0.6], [1.0, 1.0], [0.5, 0.8], [1.3, 0.9], [2.0 * (1.0 - 1e-10), 1.0], [2.0 * (1.0 - 1e-12), 1.0]):
            rates = Rates(theta)
            t1, t2 = rates.values
            v = np.array([1.0, -t2 / t1])
            jac = jacobian(rates, interior_fixed_point(rates).coords)
            lam2 = 2.0 * (t1**2 + t2**2 - t1 * t2) / (3.0 * t1 * t2)
            assert np.max(np.abs(jac @ v - lam2 * v)) <= 1e-10


class TestBasinBoundary:
    def test_axis_anchor(self, rates_04_06):
        sample = basin_boundary(rates_04_06, [0.0], tol=1e-6)[0]
        assert not sample.flagged
        assert sample.midpoint == pytest.approx(10.0 / 3.0, abs=1e-4)
        assert sample.width <= 1e-6

    @pytest.mark.parametrize("mask", [0b10, 0b11], ids=["axis", "saddle"])
    def test_lines_through_fixed_points_are_certified_around_them(self, mask):
        # the axis point (0, 2/r2) and the interior saddle sit a quarter of
        # tol inside a bracket end, and the certified bracket holds them.
        # At tol 1e-9 and 1e-10 a quarter of tol exceeds the proximity
        # radius, so a cut closer than tol/2 to an end could reach the point.
        cases = [((0.4, 0.6), 1e-6)] + [
            (theta, tol)
            for theta in [(0.8, 1.2), (1, 1.5), (1.5, 1), (3, 1), (1, 3), (0.5, 2), (2, 2), (1.2, 2.5)]
            for tol in (1e-9, 1e-10)
        ]
        for theta, tol in cases:
            rates = Rates(theta)
            masks, coords = feasible_nonzero_points(rates)
            if mask not in masks:
                continue  # no feasible interior saddle in this regime
            x1, x2 = coords[masks.index(mask)]
            sample = basin_boundary(rates, [x1], tol=tol)[0]
            assert not sample.flagged and sample.width <= tol, (theta, tol)
            assert sample.x2_low < x2 < sample.x2_high, (theta, tol)

    def test_interior_anchor(self, rates_04_06):
        sample = basin_boundary(rates_04_06, [5.0 / 9.0], tol=1e-6)[0]
        assert sample.midpoint == pytest.approx(20.0 / 9.0, abs=1e-4)

    def test_lopsided_regime_anchor(self):
        sample = basin_boundary(Rates([0.8, 0.2]), [0.0], tol=1e-6)[0]
        assert sample.midpoint == pytest.approx(10.0, abs=1e-4)

    def test_passes_near_all_nonzero_fixed_points(self, rates_04_06):
        tol = 1e-6
        samples = basin_boundary(rates_04_06, [0.0, 5.0 / 9.0, 5.0], tol=tol)
        targets = [10.0 / 3.0, 20.0 / 9.0, 0.0]
        for sample, target in zip(samples, targets):
            assert abs(sample.midpoint - target) <= 10.0 * tol

    def test_line_with_no_flip_is_flagged(self, rates_04_06):
        # beyond 2/r1 the whole vertical line escapes
        sample = basin_boundary(rates_04_06, [6.0], tol=1e-6)[0]
        assert sample.flagged
        assert "no fate flip" in sample.note

    def test_budget_limited_lower_end_has_one_note(self, rates_04_06):
        # the bracket's lower end runs out of budget; that is the whole note
        for sample in basin_boundary(rates_04_06, [1.0, 2.0], budget=1):
            assert sample.flagged
            assert sample.note == "lower bracket fate is undetermined"

    def test_float_resolution_is_flagged(self, rates_04_06):
        # no float bracket near x2 ~ 1 is 1e-300 wide; the search stops at
        # adjacent floats and says so instead of certifying the width
        for sample in basin_boundary(rates_04_06, [1.0, 2.0], tol=1e-300):
            assert sample.flagged
            assert np.nextafter(sample.x2_low, np.inf) == sample.x2_high
            assert sample.note == f"float resolution reached at width {sample.width!r}"

    def test_upper_end_at_a_fixed_point_is_flagged(self, rates_04_06):
        # at tol 1e-12 the upper end 2/r2 + tol/4 lies inside the proximity
        # radius of the axis point (0, 2/r2); the line is not searched
        sample = basin_boundary(rates_04_06, [0.0], tol=1e-12)[0]
        assert sample.flagged and sample.note == "upper bracket fate is to_fixed_point"
        assert (sample.x2_low, sample.x2_high) == pytest.approx((1.0 / 0.4, 2.0 / 0.6))

    @pytest.mark.parametrize("theta", [(0.4, 0.6), (0.8, 0.2), (0.2, 0.8)])
    def test_first_round_settles_both_bracket_ends_in_the_regions(self, theta, monkeypatch):
        # the bracket ends lie a quarter of tol inside MBAR1 and MBAR2, so
        # every end above the x1 axis stops at step 0 by the region rule
        from qdyn import dynamics

        rounds = []
        original = dynamics._fates

        def recording(*args):
            result = original(*args)
            rounds.append((args[1], *result[:2]))
            return result

        monkeypatch.setattr(dynamics, "_fates", recording)
        rates = Rates(theta)
        for x1 in np.linspace(0.0, 2.5 / theta[0], 11):
            rounds.clear()
            sample = basin_boundary(rates, [x1])[0]
            starts, rule, steps = rounds[0]
            assert starts.shape == (2, 2) and np.all(starts[:, 0] == x1)
            low, high = starts[:, 1]
            assert low <= sample.x2_low <= sample.x2_high <= high
            ends = zip(starts[:, 1], _OUTCOMES[rule], _EVIDENCE[rule], steps,
                       (FateOutcome.TO_ORIGIN, FateOutcome.TO_INFINITY))
            for x2, *fate, expected in ends:
                if x2 > 0.0:
                    assert fate == [expected, FateEvidence.REGION_CONTAINMENT, 0]

    @pytest.mark.parametrize("theta", [(0.4, 0.6), (0.8, 0.2), (0.2, 0.8)])
    @pytest.mark.parametrize("budget", [3, DEFAULT_BUDGET])
    def test_grid_equals_its_lines_one_at_a_time(self, theta, budget):
        # lines through fixed points, budget-limited, no-flip and ordinary
        # lines in one grid
        rates = Rates(theta)
        grid = np.linspace(0.0, 6.0, 13)
        lines = [sample for x1 in grid for sample in basin_boundary(rates, [x1], tol=1e-10, budget=budget)]
        assert basin_boundary(rates, grid, tol=1e-10, budget=budget) == lines

    def test_lines_bisect_in_lockstep(self, rates_04_06, monkeypatch):
        # nine lines take no more kernel calls than the slowest one alone
        from qdyn import dynamics

        calls = []
        original = dynamics._fates
        monkeypatch.setattr(dynamics, "_fates", lambda *args: calls.append(len(args[1])) or original(*args))
        grid = np.linspace(0.1, 4.9, 9)
        alone = []
        for x1 in grid:
            calls.clear()
            basin_boundary(rates_04_06, [x1])
            alone.append(len(calls))
        calls.clear()
        basin_boundary(rates_04_06, grid)
        assert len(calls) <= max(alone)
        assert max(calls) > 9  # every round cuts each searching line into several parts

    def test_search_work_is_counted_and_bounded(self, monkeypatch):
        # counted, not timed: the fate kernel's block rounds and stepped
        # states over seeded grids of 2 to 5 lines in all three regimes at
        # tol 1e-8.  The bracket ends settle at state 0, and each round's
        # cuts leave the boundary about 4 steps after the last round's
        # slowest fate (the eigenvalue 2), so a first block sized from it
        # settles most rounds at once.  Blocks of 4, 8, 16 and 32 states
        # from every call took 2.6 block rounds per search round here
        # (1278 in 495) and stepped 11,804 states.
        from qdyn import dynamics

        blocks, rounds, firsts = [], [], []
        step_block, fates = dynamics._step_block, dynamics._fates
        monkeypatch.setattr(dynamics, "_step_block", lambda *args: blocks.append(len(args[2])) or step_block(*args))
        monkeypatch.setattr(dynamics, "_fates", lambda *args: rounds.append(len(args[1])) or fates(*args))
        rng = make_rng(38)
        for low_ratio, high_ratio in [(0.6, 1.7), (2.2, 4.0), (0.25, 1 / 2.2)]:  # r1 / r2 in each regime
            for lines in [2, 3, 4, 5] * 5:
                r2 = rng.uniform(0.3, 1.5)
                rates = Rates([r2 * np.exp(rng.uniform(np.log(low_ratio), np.log(high_ratio))), r2])
                lo, hi = np.sort(rng.uniform(0.0, min(6.0, 0.98 * 2.0 / rates.values[0]), 2))
                firsts.append(len(blocks))
                basin_boundary(rates, np.linspace(lo, hi, lines), tol=1e-8)
        assert {blocks[i] for i in firsts} == {1}
        assert len(blocks) <= 1.6 * len(rounds)
        assert sum(blocks) <= 11_804

    @pytest.mark.parametrize(
        "theta, grid",
        [((1e-300, 1.0), [0.0, 1.0]), ((1e300, 1e-300), np.linspace(0.0, 1e5, 3)), ((0.4, 0.6), [1e308])],
    )
    def test_extreme_inputs_raise_no_warning(self, theta, grid):
        # brackets near 1e300 wide, where 2 * width / tol overflows, and a
        # line where 2 * x1 does; the suite turns every RuntimeWarning into
        # an error
        samples = basin_boundary(Rates(theta), grid)
        assert len(samples) == len(grid)

    def test_lower_end_at_the_origin_collapses_under_extreme_rates(self):
        # the axis point (2e-300, 0) is within the proximity radius of the
        # lower end x2 = 0; the upper end (0, 2e300) is the other axis point
        sample = basin_boundary(Rates([1e300, 1e-300]), [0.0])[0]
        assert sample.x2_low == 0.0
        assert sample.note == "upper bracket fate is to_fixed_point"

    def test_rejects_nan_tolerance(self, rates_04_06):
        with pytest.raises(DomainError):
            basin_boundary(rates_04_06, [0.5, 1.0], tol=float("nan"))

    def test_rejects_infinite_tolerance(self, rates_04_06):
        # an infinite tol would certify a bracket whose upper end is not a state
        with pytest.raises(DomainError, match="tol must be finite and positive, got inf"):
            basin_boundary(rates_04_06, [1.0], tol=float("inf"))

    @pytest.mark.parametrize("tol", [True, np.True_])
    def test_rejects_boolean_tolerance(self, rates_04_06, tol):
        # True would pass as tol = 1 and certify a bracket about 0.6 wide
        with pytest.raises(DomainError, match="tol must be a number, got "):
            basin_boundary(rates_04_06, [1.0], tol=tol)

    def test_rejects_grid_that_is_not_1d(self, rates_04_06):
        with pytest.raises(DimensionMismatch, match=r"x1 grid must be 1-d, got shape \(1, 2\)"):
            basin_boundary(rates_04_06, [[0.1, 0.2]])

    def test_requires_n2(self, rates_ones3):
        with pytest.raises(DimensionMismatch):
            basin_boundary(rates_ones3, [0.0], tol=1e-6)

    def test_grid_order_preserved(self, rates_04_06):
        grid = [1.0, 0.25, 2.0]
        samples = basin_boundary(rates_04_06, grid, tol=1e-4)
        assert [s.x1 for s in samples] == grid
