import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdyn import (DimensionMismatch, DomainError, Rates, apply, as_state, basin_boundary, classify_fate,
                  eigenvalue_two_residual, iterate, jacobian, spectrum_at)
from qdyn.model import _numbers
from helpers import fd_jacobian


def theta_and_state(max_n=6, rate_max=3.0, state_max=2.0):
    # exact zeros allowed, but no subnormal magnitudes: scaling by powers of
    # two stops being exact below the normal float range
    coordinate = st.one_of(st.just(0.0), st.floats(1e-6, state_max))
    return st.integers(min_value=2, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(0.05, rate_max), min_size=n, max_size=n),
            st.lists(coordinate, min_size=n, max_size=n),
        )
    )


class TestRates:
    def test_accepts_lists(self):
        r = Rates([0.4, 0.6])
        assert r.n == 2
        assert r.values.dtype == float

    def test_rejects_single_rate(self):
        with pytest.raises(DomainError, match="n must be >= 2"):
            Rates([0.4])
        with pytest.raises(DomainError, match="rates must be a 1-d vector"):
            Rates([[1.0, 2.0]])

    def test_rejects_nonpositive_and_nonfinite(self):
        with pytest.raises(DomainError):
            Rates([1.0, 0.0])
        with pytest.raises(DomainError):
            Rates([1.0, -2.0])
        with pytest.raises(DomainError):
            Rates([1.0, np.inf])

    @pytest.mark.parametrize("values", [[True, True], np.array([True, False]), np.ones(3, dtype=bool)])
    def test_rejects_booleans(self, values):
        # numpy converts True to 1.0, which would make unit rates
        with pytest.raises(DomainError, match="rates must be numbers, got "):
            Rates(values)

    @pytest.mark.parametrize("values", [[1.0, 1e-309], [1e308, 1e-308]])
    def test_rejects_rates_whose_fixed_points_overflow(self, values):
        # 4*n*sum(1/r_k) bounds every intermediate of the closed-form points
        with pytest.raises(DomainError, match="rates too small"):
            Rates(values)

    def test_accepts_extreme_rates_with_finite_fixed_points(self):
        assert Rates([1e-300, 1e300]).n == 2

    def test_values_are_readonly(self):
        r = Rates([1.0, 2.0])
        with pytest.raises(ValueError):
            r.values[0] = 5.0


class TestApply:
    def test_origin_is_fixed(self):
        assert np.array_equal(apply(Rates([1.0, 1.0]), [0.0, 0.0]), [0.0, 0.0])

    def test_axis_point_is_fixed(self, rates_04_06):
        # (2/r1, 0) maps to itself
        out = apply(rates_04_06, [5.0, 0.0])
        np.testing.assert_allclose(out, [5.0, 0.0], rtol=0, atol=1e-14)

    def test_symmetric_interior_is_fixed(self, rates_ones3):
        out = apply(rates_ones3, [0.4, 0.4, 0.4])
        np.testing.assert_allclose(out, [0.4, 0.4, 0.4], rtol=0, atol=1e-15)

    def test_hand_evaluated_step(self):
        # each coordinate: (1 * 1 / 2) * (1 + 2*1) = 1.5
        out = apply(Rates([1.0, 1.0]), [1.0, 1.0])
        np.testing.assert_allclose(out, [1.5, 1.5], rtol=0, atol=0)

    def test_dimension_mismatch(self, rates_04_06):
        with pytest.raises(DimensionMismatch):
            apply(rates_04_06, [1.0, 2.0, 3.0])

    def test_rejects_negative_and_nonfinite(self, rates_04_06):
        with pytest.raises(DomainError):
            apply(rates_04_06, [-1.0, 2.0])
        with pytest.raises(DomainError):
            apply(rates_04_06, [np.nan, 2.0])

    @given(theta_and_state())
    @settings(max_examples=80)
    def test_positivity_preservation(self, pair):
        theta, x = pair
        out = apply(Rates(theta), x)
        assert np.all(out >= 0.0)

    @given(theta_and_state(), st.sampled_from([0.0, 0.5, 2.0]))
    @settings(max_examples=80)
    def test_degree_two_homogeneity(self, pair, c):
        # scaling by powers of two is exact in binary floating point
        theta, x = pair
        rates = Rates(theta)
        lhs = apply(rates, c * np.asarray(x))
        rhs = c * c * apply(rates, x)
        assert np.array_equal(lhs, rhs)


class TestJacobian:
    def test_null_at_origin(self, rates_04_06):
        assert np.array_equal(jacobian(rates_04_06, [0.0, 0.0]), np.zeros((2, 2)))

    def test_interior_closed_form_n2(self, rates_04_06):
        t1, t2 = 0.4, 0.6
        x = np.array([(4 * t1 - 2 * t2) / (3 * t1 * t2), (4 * t2 - 2 * t1) / (3 * t1 * t2)])
        expected = np.array(
            [
                [2 * (t1 + t2) / (3 * t2), (4 * t1 - 2 * t2) / (3 * t2)],
                [(4 * t2 - 2 * t1) / (3 * t1), 2 * (t1 + t2) / (3 * t1)],
            ]
        )
        np.testing.assert_allclose(jacobian(rates_04_06, x), expected, atol=1e-14)
        np.testing.assert_allclose(jacobian(rates_04_06, x), fd_jacobian(rates_04_06, x), atol=1e-6)

    def test_symmetric_n3(self, rates_ones3):
        jac = jacobian(rates_ones3, [0.4, 0.4, 0.4])
        expected = np.full((3, 3), 0.4)
        np.fill_diagonal(expected, 1.2)
        np.testing.assert_allclose(jac, expected, atol=1e-15)

    def test_finite_difference_consistency_sweep(self):
        # 100 random points, rates and states in (0, 2], n in 2..6
        rng = np.random.default_rng(42)
        for k in range(100):
            n = 2 + k % 5
            rates = Rates(2.0 - 2.0 * rng.random(n) * (1 - 1e-9))
            x = 2.0 - 2.0 * rng.random(n)
            err = np.max(np.abs(jacobian(rates, x) - fd_jacobian(rates, x)))
            assert err <= 1e-6

    def test_allows_negative_coordinates(self, rates_04_06):
        jac = jacobian(rates_04_06, [-1.0, 2.0])
        np.testing.assert_allclose(jac, [[0.4, -0.4], [1.2, 0.6]], atol=1e-15)

    def test_dimension_mismatch(self, rates_04_06):
        with pytest.raises(DimensionMismatch):
            jacobian(rates_04_06, [1.0, 2.0, 3.0])


class TestAsState:
    def test_passthrough(self):
        np.testing.assert_array_equal(as_state([1.0, 2.0], 2), [1.0, 2.0])

    def test_rejects_matrix(self):
        with pytest.raises(DimensionMismatch):
            as_state(np.zeros((2, 2)))


UNIT = Rates([1.0, 1.0])


@pytest.mark.parametrize(
    "name, call",
    [
        ("rates", lambda: Rates([True, 0.5])),
        ("rates", lambda: Rates([0.5, np.True_])),
        ("state", lambda: as_state([0.1, False])),
        ("state", lambda: apply(UNIT, [True, 0.1])),
        ("state", lambda: iterate(UNIT, [True, 0.1], 3)),
        ("state", lambda: classify_fate(UNIT, [True, 0.1])),
        ("state", lambda: classify_fate(UNIT, [[0.1, 0.1], [True, 0.1]])),
        ("x1 grid", lambda: basin_boundary(Rates([0.4, 0.6]), [True], tol=1e-8)),
        ("x1 grid", lambda: basin_boundary(Rates([0.4, 0.6]), [0.5, np.True_], tol=1e-8)),
        ("state", lambda: jacobian(Rates([1, 0.5]), [True, 0.5])),
        ("state", lambda: jacobian(Rates([1, 0.5]), np.array([[0.5, 0.5], [1, 0]], dtype=bool))),
        ("point", lambda: eigenvalue_two_residual(Rates([1, 0.5]), [True, 0.0])),
        ("point", lambda: spectrum_at(Rates([1, 0.5]), [[2.0, 0.0], [np.True_, 0.0]])),
        ("rates", lambda: Rates(["1", "2"])),
        ("rates", lambda: Rates(np.array(["1", "2"]))),
        ("rates", lambda: Rates([b"1", 2])),
        ("rates", lambda: Rates("ab")),
        ("rates", lambda: Rates([None, 1])),
        ("rates", lambda: Rates([1, {}])),
        ("rates", lambda: Rates([10**400, 1])),
        ("state", lambda: as_state(["0.1", "0.2"])),
        ("x1 grid", lambda: basin_boundary(Rates([0.4, 0.6]), ["1.0"])),
    ],
    ids=["rates", "rates-numpy-bool", "as_state", "apply", "iterate", "classify_fate", "classify_fate-rows",
         "basin_boundary", "basin_boundary-numpy-bool", "jacobian", "jacobian-bool-rows", "eigenvalue_two_residual",
         "spectrum_at-rows", "rates-strings", "rates-string-array", "rates-bytes", "rates-string", "rates-none",
         "rates-dict", "rates-past-float-range", "as_state-strings", "basin_boundary-strings"],
)
def test_an_item_that_is_no_number_is_refused(name, call):
    # numpy converts a list that mixes bools and numbers to floats, True to
    # 1.0, a numeric string to its number and None to NaN; float() refuses a
    # dict or a non-numeric string and cannot hold 10**400
    with pytest.raises(DomainError, match=f"{name} must be numbers, got "):
        call()


def test_a_float_array_passes_through_uncopied():
    # the number check costs a fixed-point table's Jacobians no copy
    x = np.random.default_rng(0).random((4096, 12))
    assert _numbers(x, "point") is x


def test_every_exported_name_exists():
    # a name left in __all__ after its removal breaks `from qdyn import *`
    import qdyn

    assert [name for name in qdyn.__all__ if not hasattr(qdyn, name)] == []
    assert "apply_unchecked" not in qdyn.__all__
