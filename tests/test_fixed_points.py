import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdyn import (
    DimensionMismatch,
    DomainError,
    Rates,
    SupportMask,
    enumerate_fixed_points,
    fixed_point_for_support,
    interior_fixed_point,
)
from qdyn.fixed_points import _points, _support_bits
from qdyn.model import _step
from helpers import explicit_coefficient_matrix, newton_fixed_point_search


class TestSupportMask:
    def test_mask_roundtrip(self):
        m = SupportMask(3, 5)
        assert m.indices() == (0, 2)
        assert m.bits() == (1, 0, 1)
        assert m.mask_int == 5

    def test_from_bits(self):
        assert SupportMask.from_bits([0, 1, 1]).indices() == (1, 2)

    def test_rejects_out_of_range(self):
        for mask in (-1, 4, 1 << 5):
            with pytest.raises(DimensionMismatch, match=f"mask {mask} out of range for n=2"):
                SupportMask(2, mask)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_views_of_every_mask_agree(self, n):
        # the int form's views against the bit table the enumeration solves on
        table = _support_bits(np.arange(1 << n), n).tolist()
        for mask, row in enumerate(table):
            self.check_views(SupportMask(n, mask), row)

    def test_views_past_the_64th_coordinate(self):
        n = 70
        mask = 1 << 69 | 1 << 64 | 1 << 63 | 1 << 3 | 1
        row = [1 if k in (0, 3, 63, 64, 69) else 0 for k in range(n)]
        self.check_views(SupportMask(n, mask), row)

    @staticmethod
    def check_views(support, row):
        n = support.n
        assert support.bits() == tuple(row)
        assert support.indices() == tuple(k for k in range(n) if row[k])
        assert SupportMask.from_bits(support.bits()) == support


class TestInteriorFixedPoint:
    def test_example_04_06(self, rates_04_06):
        fp = interior_fixed_point(rates_04_06)
        np.testing.assert_allclose(fp.coords, [5.0 / 9.0, 20.0 / 9.0], atol=1e-14)
        assert fp.feasible
        assert fp.residual <= 1e-10

    def test_symmetric_n3(self, rates_ones3):
        fp = interior_fixed_point(rates_ones3)
        np.testing.assert_allclose(fp.coords, [0.4, 0.4, 0.4], atol=1e-15)

    def test_infeasible_example(self):
        fp = interior_fixed_point(Rates([0.8, 0.2]))
        np.testing.assert_allclose(fp.coords, [35.0 / 6.0, -5.0 / 3.0], atol=1e-13)
        assert not fp.feasible


class TestFixedPointForSupport:
    def test_singleton(self, rates_04_06):
        fp = fixed_point_for_support(rates_04_06, SupportMask.from_bits([1, 0]))
        np.testing.assert_array_equal(fp.coords, [5.0, 0.0])
        assert fp.feasible

    def test_pair_within_n3(self, rates_ones3):
        fp = fixed_point_for_support(rates_ones3, SupportMask.from_bits([0, 1, 1]))
        np.testing.assert_allclose(fp.coords, [0.0, 2.0 / 3.0, 2.0 / 3.0], atol=1e-15)
        assert fp.residual <= 1e-12

    def test_empty_support_is_origin(self, rates_ones3):
        fp = fixed_point_for_support(rates_ones3, SupportMask(3, 0))
        np.testing.assert_array_equal(fp.coords, [0.0, 0.0, 0.0])
        assert fp.is_origin and fp.feasible and fp.residual == 0.0

    def test_support_for_another_n_rejected(self, rates_ones3):
        with pytest.raises(DimensionMismatch):
            fixed_point_for_support(rates_ones3, SupportMask(2, 1))

    def test_restriction_consistency_is_exact(self):
        # the support solution must equal the interior solution of the
        # restricted subsystem, bitwise
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            rates = Rates(0.05 + 2.95 * rng.random(n))
            mask = int(rng.integers(1, 1 << n))
            support = SupportMask(n, mask)
            idx = list(support.indices())
            fp = fixed_point_for_support(rates, support)
            if len(idx) >= 2:
                sub = interior_fixed_point(Rates(rates.values[idx]))
                assert np.array_equal(fp.coords[idx], sub.coords)
            else:
                assert fp.coords[idx[0]] == 2.0 / rates.values[idx[0]]


class TestEnumeration:
    def test_example_04_06(self, rates_04_06):
        points = enumerate_fixed_points(rates_04_06)
        assert [p.support.mask_int for p in points] == [0, 1, 2, 3]
        np.testing.assert_allclose(points[0].coords, [0.0, 0.0])
        np.testing.assert_allclose(points[1].coords, [5.0, 0.0])
        np.testing.assert_allclose(points[2].coords, [0.0, 10.0 / 3.0])
        np.testing.assert_allclose(points[3].coords, [5.0 / 9.0, 20.0 / 9.0])
        assert all(p.residual <= 1e-10 for p in points)

    def test_symmetric_all_feasible(self, rates_ones3):
        points = enumerate_fixed_points(rates_ones3)
        assert len(points) == 8
        assert all(p.feasible for p in points)

    def test_count_n4(self):
        assert len(enumerate_fixed_points(Rates([1.0, 2.0, 0.5, 1.5]))) == 16

    def test_degenerate_support_keeps_exact_zero(self):
        # rates (1, 2): the interior point (0, 1) has an exact zero and is
        # feasible, so it shares its coordinates with the axis point
        points = enumerate_fixed_points(Rates([1.0, 2.0]))
        assert [p.feasible for p in points] == [True, True, True, True]
        assert np.array_equal(points[2].coords, [0.0, 1.0]) and np.array_equal(points[3].coords, [0.0, 1.0])

    def test_cap(self):
        with pytest.raises(DomainError, match="cap"):
            enumerate_fixed_points(Rates(np.ones(21)))

    def test_practical_bound_n12(self):
        rng = np.random.default_rng(7)
        rates = Rates(0.05 + 2.95 * rng.random(12))
        points = enumerate_fixed_points(rates)
        assert len(points) == 4096
        worst = max(p.residual / max(1.0, float(np.max(np.abs(p.coords)))) for p in points)
        assert worst <= 1e-9

    @given(st.integers(2, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_count_is_power_of_two(self, n, seed):
        rng = np.random.default_rng(seed)
        rates = Rates(0.05 + 2.95 * rng.random(n))
        assert len(enumerate_fixed_points(rates)) == 2**n

    def test_residual_property_sweep(self):
        # 200 seeded draws over n in 2..8
        rng = np.random.default_rng(1234)
        for k in range(200):
            n = 2 + k % 7
            rates = Rates(3.0 - 2.95 * rng.random(n))
            for fp in enumerate_fixed_points(rates):
                scale = max(1.0, float(np.max(np.abs(fp.coords))))
                assert fp.residual <= 1e-9 * scale

    def test_coords_match_unchecked_apply(self, rates_04_06):
        for fp in enumerate_fixed_points(rates_04_06):
            np.testing.assert_allclose(_step(rates_04_06.values, fp.coords), fp.coords, atol=1e-12)


def one_support_solve(theta: np.ndarray, idx: list[int]) -> np.ndarray:
    # the closed form as a 1-d solve on one support (2/r for a singleton)
    if len(idx) == 1:
        return np.array([2.0 / theta[idx[0]]])
    recip = 1.0 / theta[idx]
    m = len(idx)
    return (4.0 * recip.sum() - (4.0 * m - 2.0) * recip) / (2.0 * m - 1.0)


class TestPointTable:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 9, 12])
    def test_rows_equal_one_support_solves_bit_for_bit(self, n):
        # supports of 9 or more coordinates are where numpy sums pairwise
        rng = np.random.default_rng(40 + n)
        rates = Rates(0.05 + 2.95 * rng.random(n))
        masks = rng.permutation(1 << n)
        coords, residual = _points(rates.values, _support_bits(masks, n))[:2]
        for row, mask in enumerate(masks.tolist()):
            idx = [k for k in range(n) if mask >> k & 1]
            expected = np.zeros(n)
            if idx:
                expected[idx] = one_support_solve(rates.values, idx)
            assert np.array_equal(coords[row], expected), mask
            assert residual[row] == np.max(np.abs(_step(rates.values, expected) - expected)), mask

    @pytest.mark.parametrize("n", [1, 2, 7, 12])
    def test_support_bits_are_int8_rows_of_the_masks(self, n):
        # one int8 column per coordinate, the rows of the broadcast int64 shift
        masks = np.random.default_rng(n).permutation(1 << n)
        bits = _support_bits(masks, n)
        assert bits.dtype == np.int8 and bits.shape == (1 << n, n)
        assert np.array_equal(bits, (masks.reshape(-1, 1).astype(np.int64) >> np.arange(n)) & 1)
        assert _support_bits([], n).shape == (0, n)

    def test_table_is_readonly(self, rates_ones3):
        coords = _points(rates_ones3.values, np.array([[1, 0, 0], [1, 1, 1]]))[0]
        with pytest.raises(ValueError):
            coords[0, 0] = 1.0

    def test_singleton_is_exact_where_reciprocal_is_subnormal(self):
        rates = Rates([1.7e308, 1.0])
        point = fixed_point_for_support(rates, SupportMask.from_bits([1, 0]))
        assert point.coords[0] == 2.0 / 1.7e308

    def test_supports_past_the_64th_coordinate(self):
        # supports are Python-int masks and bit rows, not int64 masks, so
        # any n works one support at a time
        rates = Rates(np.ones(70))
        np.testing.assert_allclose(interior_fixed_point(rates).coords, np.full(70, 2.0 / 139.0), rtol=1e-14)
        point = fixed_point_for_support(rates, SupportMask(70, 1 << 69 | 1))
        assert point.feasible and point.residual < 1e-15
        np.testing.assert_allclose(point.coords[[0, 69]], [2.0 / 3.0, 2.0 / 3.0], rtol=1e-15)
        assert not point.coords[1:69].any()


class TestCoefficientDeterminant:
    # the n x n matrix with 1 on the diagonal and 2 elsewhere, the
    # coefficient matrix behind the closed-form points, has determinant
    # (-1)^(n-1) (2n - 1), so every support has exactly one point
    def test_small_cases(self):
        for n, closed in ((1, 1.0), (2, -3.0), (5, 9.0)):
            lu = float(np.linalg.det(explicit_coefficient_matrix(n)))
            assert abs(lu - closed) <= 1e-10 * abs(closed)

    def test_against_lu_factorization(self):
        for n in range(1, 13):
            lu = float(np.linalg.det(explicit_coefficient_matrix(n)))
            closed = (-1.0) ** (n - 1) * (2 * n - 1)
            assert abs(lu - closed) <= 1e-10 * abs(closed)


class TestBruteForceUniqueness:
    @pytest.mark.parametrize("theta", [(0.4, 0.6), (0.8, 0.2), (1.0, 1.0, 1.0), (0.3, 0.5, 0.4)])
    def test_grid_newton_finds_nothing_new(self, theta):
        rates = Rates(list(theta))
        n = rates.n
        top = 3.0 * float(np.max(2.0 / rates.values))
        axes = [np.linspace(0.0, top, 12 if n == 3 else 30)] * n
        starts = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, n)
        found = newton_fixed_point_search(rates, starts)
        enumerated = np.array([p.coords for p in enumerate_fixed_points(rates)])
        for sol in found:
            gap = np.min(np.max(np.abs(enumerated - sol), axis=1))
            assert gap <= 1e-6, f"unlisted fixed point near {sol}"
