import numpy as np
import pytest

from qdyn import (
    DimensionMismatch,
    DomainError,
    EigenSolverError,
    Rates,
    StabilityTag,
    SupportMask,
    classify,
    eigenvalue_two_residual,
    enumerate_fixed_points,
    fixed_point_for_support,
    interior_fixed_point,
    jacobian,
    nonhyperbolic_condition,
    sorted_spectrum,
    spectrum_at,
)
from helpers import (
    RootLocation,
    char_poly_coeffs_n2,
    interior_discriminant_n3,
    interior_secondary_eig_n2,
    interior_secondary_eigs_n3,
    precise_spectrum,
    quadratic_roots,
    root_location,
)


def sample_rates(rng, n, low=0.05, high=3.0):
    return Rates(high - (high - low) * rng.random(n))


class TestSpectrum:
    def test_sorted_by_modulus_then_argument(self):
        vals = sorted_spectrum([1.0, -2.0, 1j, -1j])
        assert vals[0] == -2.0
        # the unit-modulus triple: ascending argument -pi/2, 0, pi/2
        np.testing.assert_allclose(vals[1:], [-1j, 1.0, 1j])

    def test_origin_spectrum_is_zero(self, rates_04_06):
        origin = enumerate_fixed_points(rates_04_06)[0]
        np.testing.assert_array_equal(spectrum_at(rates_04_06, origin), [0.0, 0.0])

    def test_axis_point_n2(self, rates_04_06):
        # triangular Jacobian: eigenvalues 2 and 2*r2/r1 = 3
        e1 = fixed_point_for_support(rates_04_06, SupportMask.from_bits([1, 0]))
        np.testing.assert_allclose(spectrum_at(rates_04_06, e1), [3.0, 2.0], atol=1e-12)

    def test_reported_triple_002_002_01(self):
        rates = Rates([0.02, 0.02, 0.1])
        spectrum = spectrum_at(rates, interior_fixed_point(rates))
        for target in (2.0, 1.12, 3.04):
            assert np.min(np.abs(spectrum - target)) <= 0.01

    def test_reported_triple_03_05_04(self):
        rates = Rates([0.3, 0.5, 0.4])
        spectrum = spectrum_at(rates, interior_fixed_point(rates))
        for target in (2.0, 0.64, 1.12):
            assert np.min(np.abs(spectrum - target)) <= 0.01

    def test_nonfinite_jacobian_is_a_solver_error(self):
        # r1 * x2 overflows at the axis point (0, 2e300): the solver refuses the inf
        rates = Rates([1e300, 1e-300])
        with pytest.raises(EigenSolverError, match="eigenvalue iteration failed"):
            spectrum_at(rates, fixed_point_for_support(rates, SupportMask.from_bits([0, 1])))

    def test_conjugate_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rates = sample_rates(rng, int(rng.integers(2, 7)))
            for fp in enumerate_fixed_points(rates):
                spec = spectrum_at(rates, fp)
                np.testing.assert_allclose(
                    np.sort_complex(spec), np.sort_complex(np.conj(spec)), atol=1e-9
                )


class TestClassify:
    def test_table_examples(self):
        assert classify([0.0, 0.0]).tag is StabilityTag.ATTRACTING
        assert classify([2.0, 3.0]).tag is StabilityTag.REPELLING
        assert classify([2.0, 0.5]).tag is StabilityTag.SADDLE
        assert classify([2.0, 1.0]).tag is StabilityTag.NONHYPERBOLIC

    def test_counts(self):
        cls = classify([2.0, 1.0, 0.5])
        assert (cls.inside, cls.outside, cls.on_unit) == (1, 1, 1)
        cls = classify([np.inf, 0.5])  # an infinite eigenvalue lies outside
        assert (cls.inside, cls.outside, cls.on_unit) == (1, 1, 0)

    def test_band_width_honored(self):
        assert classify([2.0, 1.0 + 5e-10]).tag is StabilityTag.NONHYPERBOLIC
        assert classify([2.0, 1.0 + 5e-10], tol=1e-12).tag is StabilityTag.REPELLING

    def test_rejects_bad_tolerance(self):
        with pytest.raises(DomainError):
            classify([1.0], tol=0.0)
        with pytest.raises(DomainError, match="empty spectrum"):
            classify([])

    def test_rejects_nan_tolerance(self):
        with pytest.raises(DomainError):
            classify([1.0], tol=float("nan"))

    def test_rejects_infinite_tolerance(self):
        # an infinite band would call every spectrum nonhyperbolic
        with pytest.raises(DomainError, match="tol must be finite and positive, got inf"):
            classify([0.5, 2.0], tol=float("inf"))

    @pytest.mark.parametrize("tol", [True, np.True_, "1e-3", None])
    def test_rejects_tolerance_that_is_no_number(self, tol):
        # True would pass as tol = 1 and call the spectrum nonhyperbolic
        with pytest.raises(DomainError, match="tol must be a number, got "):
            classify([0.5, 2.0], tol=tol)

    @pytest.mark.parametrize("tol", [10**400, 10**5000], ids=["401-digits", "past-int-repr-limit"])
    def test_rejects_integer_tolerance_past_the_float_range(self, tol):
        # as a float it is inf; 10**5000 has more digits than str() of an int may
        with pytest.raises(DomainError, match="tol must be finite and positive, got inf"):
            classify([0.5, 2.0], tol=tol)

    @pytest.mark.parametrize("read, values", [(classify, ["2", "0.5"]), (classify, [True, 2.0]),
                                              (classify, [None, 1.0]), (sorted_spectrum, ["2", "0.5"])],
                             ids=["classify-strings", "classify-bool", "classify-none", "sorted-strings"])
    def test_an_eigenvalue_that_is_no_number_is_refused(self, read, values):
        # as complex, numpy reads "2" as 2, True as 1 and None as nan
        with pytest.raises(DomainError, match="eigenvalues must be numbers, got "):
            read(values)

    @pytest.mark.parametrize("values", [[np.nan, 0.5], [[0.5, complex(1, np.nan)]], [complex(np.nan, 0.0), 2.0]],
                             ids=["real", "stack-imaginary-part", "real-part"])
    def test_a_nan_eigenvalue_is_refused(self, values):
        # a NaN modulus lies on no side of the unit circle, so no count may take it
        with pytest.raises(DomainError, match="eigenvalues must not be NaN"):
            classify(values)

    def test_number_lists_and_stacks_are_read(self):
        assert classify([2, 0.5 + 0.1j]).tag is StabilityTag.SADDLE
        assert classify(np.float32([2.0, 3.0])).tag is StabilityTag.REPELLING
        stack = np.array([[2.0, 0.5], [0.1, 0.2j]])
        assert [c.tag for c in classify(stack)] == [StabilityTag.SADDLE, StabilityTag.ATTRACTING]
        np.testing.assert_array_equal(sorted_spectrum(stack), [[2.0, 0.5], [0.2j, 0.1]])
        np.testing.assert_array_equal(sorted_spectrum([1, -2]), [-2.0, 1.0])


class TestRootLocation:
    def test_examples(self):
        assert root_location(-2.5, 1.0) is RootLocation.ONE_ROOT_ABOVE_ONE_OTHER_INSIDE_UNIT
        assert root_location(-3.0, 1.0) is RootLocation.ONE_ROOT_ABOVE_ONE_OTHER_INSIDE_UNIT
        assert root_location(0.0, 1.0) is RootLocation.NOT_APPLICABLE

    def test_against_quadratic_formula(self):
        hi, lo = quadratic_roots(-3.0, 1.0)
        assert hi == pytest.approx((3 + np.sqrt(5)) / 2)
        assert lo == pytest.approx((3 - np.sqrt(5)) / 2)
        assert hi > 1.0 and abs(lo) < 1.0

    def test_other_root_outside(self):
        # (lam - 2)(lam + 3): F(1) = -6 < 0, F(-1) = 0, root -3 not inside
        assert root_location(1.0, -6.0) is RootLocation.ONE_ROOT_ABOVE_ONE_OTHER_OUTSIDE_UNIT


class TestCharPolyN2:
    def test_unit_rates(self):
        cp = char_poly_coeffs_n2(Rates([1.0, 1.0]))
        assert cp.b == pytest.approx(-8.0 / 3.0)
        assert cp.c == pytest.approx(4.0 / 3.0)

    def test_boundary_f1_is_zero(self):
        assert char_poly_coeffs_n2(Rates([1.0, 2.0])).f_at_one == 0.0

    def test_factored_forms_match_evaluation(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            rates = sample_rates(rng, 2)
            cp = char_poly_coeffs_n2(rates)
            assert cp.f_at_one == pytest.approx(1.0 + cp.b + cp.c, abs=1e-10)
            assert cp.f_at_minus_one == pytest.approx(1.0 - cp.b + cp.c, abs=1e-10)

    def test_matches_trace_and_determinant(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            rates = sample_rates(rng, 2)
            jac = jacobian(rates, interior_fixed_point(rates).coords)
            cp = char_poly_coeffs_n2(rates)
            assert cp.b == pytest.approx(-np.trace(jac), rel=1e-12)
            assert cp.c == pytest.approx(np.linalg.det(jac), rel=1e-12)

    def test_roots_match_spectrum(self, rates_04_06):
        cp = char_poly_coeffs_n2(rates_04_06)
        roots = quadratic_roots(cp.b, cp.c)
        spec = spectrum_at(rates_04_06, interior_fixed_point(rates_04_06))
        np.testing.assert_allclose(np.real(spec), roots, atol=1e-9)

    def test_rejects_other_dimensions(self, rates_ones3):
        with pytest.raises(DimensionMismatch):
            char_poly_coeffs_n2(rates_ones3)


class TestEigenvalueTwo:
    def test_interior_04_06(self, rates_04_06):
        assert eigenvalue_two_residual(rates_04_06, interior_fixed_point(rates_04_06)) <= 1e-10

    def test_all_nonzero_points_symmetric_n3(self, rates_ones3):
        for fp in enumerate_fixed_points(rates_ones3)[1:]:
            assert eigenvalue_two_residual(rates_ones3, fp) <= 1e-10

    def test_random_n8_interior(self):
        rng = np.random.default_rng(11)
        rates = sample_rates(rng, 8)
        fp = interior_fixed_point(rates)
        assert eigenvalue_two_residual(rates, fp) <= 1e-8

    def test_origin_rejected(self, rates_04_06):
        with pytest.raises(DomainError):
            eigenvalue_two_residual(rates_04_06, enumerate_fixed_points(rates_04_06)[0])

    def test_sweep_distance_and_residual(self):
        rng = np.random.default_rng(12)
        for k in range(60):
            n = 2 + k % 7
            rates = sample_rates(rng, n)
            for fp in enumerate_fixed_points(rates)[1:]:
                spec = spectrum_at(rates, fp)
                assert np.min(np.abs(spec - 2.0)) <= 1e-6
                assert eigenvalue_two_residual(rates, fp) <= 1e-8

    def test_no_attracting_point_but_origin(self):
        rng = np.random.default_rng(13)
        for k in range(40):
            n = 2 + k % 7
            rates = sample_rates(rng, n)
            for fp in enumerate_fixed_points(rates):
                tag = classify(spectrum_at(rates, fp)).tag
                if fp.is_origin:
                    assert tag is StabilityTag.ATTRACTING
                else:
                    assert tag is not StabilityTag.ATTRACTING


class TestStackedSpectra:
    def test_rows_equal_one_matrix_calls_bit_for_bit(self):
        rng = np.random.default_rng(21)
        for n in (2, 3, 5, 8, 9):
            rates = sample_rates(rng, n)
            points = enumerate_fixed_points(rates)
            coords = np.array([p.coords for p in points])
            jacs = jacobian(rates, coords)
            spectra = spectrum_at(rates, coords)
            residuals = eigenvalue_two_residual(rates, coords[1:])
            classes = classify(spectra)
            for k, point in enumerate(points):
                x = point.coords
                jac = np.repeat((rates.values * x)[:, None], n, axis=1)
                np.fill_diagonal(jac, rates.values * x.sum())
                assert np.array_equal(jacs[k], jac)
                assert np.array_equal(jacobian(rates, x), jac)
                eigs = np.asarray(np.linalg.eigvals(jac), dtype=complex)
                assert np.array_equal(spectra[k], eigs[np.lexsort((np.angle(eigs), -np.abs(eigs)))])
                assert np.array_equal(spectrum_at(rates, point), spectra[k])
                assert classes[k] == classify(eigs)
                if k:
                    norm = float(np.linalg.norm(jac, np.inf))
                    assert residuals[k - 1] == abs(np.linalg.det(jac - 2.0 * np.eye(n))) / norm**n
                    assert eigenvalue_two_residual(rates, point) == residuals[k - 1]

    def test_one_row_gives_a_list_and_a_point_gives_a_scalar(self, rates_04_06):
        point = interior_fixed_point(rates_04_06)
        rows = point.coords[None]
        assert jacobian(rates_04_06, rows).shape == (1, 2, 2)
        assert spectrum_at(rates_04_06, rows).shape == (1, 2)
        assert isinstance(classify(spectrum_at(rates_04_06, rows)), list)
        assert isinstance(eigenvalue_two_residual(rates_04_06, rows), list)
        assert isinstance(eigenvalue_two_residual(rates_04_06, point), float)

    def test_large_tables_are_built_and_solved_in_bounded_stacks(self, monkeypatch):
        from qdyn import model, stability

        rates = Rates([0.4, 0.6, 1.1])
        points = enumerate_fixed_points(rates)
        coords = np.array([p.coords for p in points])
        spectra = spectrum_at(rates, coords)
        residuals = eigenvalue_two_residual(rates, coords[1:])
        stacks = []

        def counted(rates, x):
            stacks.append(len(x) if x.ndim > 1 else "point")
            return model.jacobian(rates, x)

        monkeypatch.setattr(stability, "jacobian", counted)
        monkeypatch.setattr(stability, "_STACK_ROWS", 3)
        assert np.array_equal(spectrum_at(rates, coords), spectra)
        assert eigenvalue_two_residual(rates, coords[1:]) == residuals
        assert stacks == [3, 3, 2, 3, 3, 1]

        stacks.clear()
        empty = np.zeros((0, 3))
        assert spectrum_at(rates, empty).shape == (0, 3)
        assert eigenvalue_two_residual(rates, empty) == []
        # a single point is one stack whatever the bound
        monkeypatch.setattr(stability, "_STACK_ROWS", 1)
        for point in (points[7], coords[7]):
            assert np.array_equal(spectrum_at(rates, point), spectra[7])
            assert eigenvalue_two_residual(rates, point) == residuals[6]
        assert stacks == [0, 0, "point", "point", "point", "point"]

    @pytest.mark.parametrize("point", [1.0, np.float64(2.0), np.array(2.0)], ids=["float", "numpy-scalar", "0-d"])
    def test_a_bare_number_is_a_state_of_length_one(self, rates_04_06, point):
        match = r"state has shape \(1,\), expected \(2,\) or \(k, 2\)"
        for read in (spectrum_at, eigenvalue_two_residual):
            with pytest.raises(DimensionMismatch, match=match):
                read(rates_04_06, point)

    def test_jacobian_rejects_other_shapes(self, rates_04_06):
        for x in (np.zeros((2, 2, 2)), np.zeros((3, 3))):
            with pytest.raises(DimensionMismatch):
                jacobian(rates_04_06, x)
        with pytest.raises(DomainError, match="state must be finite"):
            jacobian(rates_04_06, [np.inf, 0.0])

    @pytest.mark.parametrize(
        "theta, point",
        [
            ([1.0, 1.0], [1e-200, 0.0]),  # ||J||^2 underflows to 0
            ([1e80, 1e-80], [0.0, 2e80]),  # the point on support {2}: ||J||^2 = 4e320 overflows
            ([1e300, 1e-300], [0.0, 2e300]),  # the point on support {2}: r1 * x2 overflows to inf in J
        ],
    )
    def test_norm_power_outside_the_float_range_rejected(self, theta, point):
        for x in (point, [point]):
            with pytest.raises(DomainError, match="null Jacobian"):
                eigenvalue_two_residual(Rates(theta), x)

    def test_determinant_past_the_float_range_is_inf(self):
        # not a fixed point: ||J|| = 1, but J - 2I is triangular with n - 1
        # diagonal entries -3, so |det| = (2 + 1/n) 3^(n - 1) overflows at n = 650
        n = 650
        x = np.zeros(n)
        x[0] = -1.0
        assert eigenvalue_two_residual(Rates([1.0 / n] + [1.0] * (n - 1)), x) == np.inf

    def test_null_jacobian_rejected(self):
        with pytest.raises(DomainError, match="null Jacobian"):
            eigenvalue_two_residual(Rates([1.0, 2.0, 3.0]), np.zeros((2, 3)))


class TestRegimeClassification:
    def test_interior_saddle_in_coexistence_regime(self):
        rng = np.random.default_rng(14)
        checked = 0
        while checked < 100:
            rates = sample_rates(rng, 2)
            t1, t2 = rates.values
            if 2 * t1 - t2 <= 1e-6 or 2 * t2 - t1 <= 1e-6:
                continue
            checked += 1
            fp = interior_fixed_point(rates)
            assert classify(spectrum_at(rates, fp)).tag is StabilityTag.SADDLE
            cp = char_poly_coeffs_n2(rates)
            assert root_location(cp.b, cp.c) is RootLocation.ONE_ROOT_ABOVE_ONE_OTHER_INSIDE_UNIT

    def test_axis_point_regimes(self):
        # eigenvalues at (2/r1, 0) are 2 and 2*r2/r1
        assert classify(spectrum_at(Rates([0.4, 0.6]), fixed_point_for_support(Rates([0.4, 0.6]), SupportMask.from_bits([1, 0])))).tag is StabilityTag.REPELLING
        assert classify(spectrum_at(Rates([0.8, 0.2]), fixed_point_for_support(Rates([0.8, 0.2]), SupportMask.from_bits([1, 0])))).tag is StabilityTag.SADDLE

    def test_exact_ratio_two_is_nonhyperbolic(self):
        # r1 = 2*r2 exactly: eigenvalue 2*r2/r1 = 1
        rates = Rates([1.0, 0.5])
        e1 = fixed_point_for_support(rates, SupportMask.from_bits([1, 0]))
        assert classify(spectrum_at(rates, e1)).tag is StabilityTag.NONHYPERBOLIC


class TestClosedFormsN3:
    def test_matches_eig_solver_sweep(self):
        rng = np.random.default_rng(15)
        done = 0
        while done < 100:
            rates = sample_rates(rng, 3)
            d = interior_discriminant_n3(rates)
            lam_minus, lam_plus = interior_secondary_eigs_n3(rates)
            spec = spectrum_at(rates, interior_fixed_point(rates))
            if d >= 0.0:
                expected = np.sort([2.0, lam_minus.real, lam_plus.real])
                np.testing.assert_allclose(np.sort(spec.real), expected, atol=1e-8)
                np.testing.assert_allclose(spec.imag, 0.0, atol=1e-8)
            else:
                # conjugate pair: compare moduli
                got = np.sort(np.abs(spec))
                expected = np.sort(np.abs([2.0, lam_minus, lam_plus]))
                np.testing.assert_allclose(got, expected, atol=1e-8)
            done += 1

    def test_reported_values_are_exact(self):
        lam_minus, lam_plus = interior_secondary_eigs_n3(Rates([0.02, 0.02, 0.1]))
        assert lam_minus.real == pytest.approx(1.12, abs=1e-9)
        assert lam_plus.real == pytest.approx(3.04, abs=1e-9)

    def test_secondary_eig_n2_closed_form(self, rates_04_06):
        lam2 = interior_secondary_eig_n2(rates_04_06)
        assert lam2 == pytest.approx(7.0 / 9.0, abs=1e-12)
        spec = spectrum_at(rates_04_06, interior_fixed_point(rates_04_06))
        assert np.min(np.abs(spec - lam2)) <= 1e-9


class TestNonhyperbolicCondition:
    def test_symmetric_full_support_is_regular(self, rates_ones3):
        assert not nonhyperbolic_condition(rates_ones3, SupportMask.full(3))

    def test_constructed_degenerate_triple(self):
        # r3 * (1/1 + 1/1 + 1/r3) = 2.5 solved by r3 = 0.75
        rates = Rates([1.0, 1.0, 0.75])
        assert nonhyperbolic_condition(rates, SupportMask.full(3))

    def test_singletons_never_fire(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            rates = sample_rates(rng, int(rng.integers(2, 7)))
            for i in range(rates.n):
                support = SupportMask(rates.n, 1 << i)
                assert not nonhyperbolic_condition(rates, support)

    def test_off_support_eigenvalue_one_is_certified(self):
        # r2 s = 1 off the support {0}: the spectrum at (2, 0) is {2, 1}
        rates = Rates([1.0, 0.5])
        support = SupportMask.from_bits([1, 0])
        spectrum = spectrum_at(rates, fixed_point_for_support(rates, support))
        np.testing.assert_array_equal(spectrum, [2.0, 1.0])
        assert classify(spectrum).tag is StabilityTag.NONHYPERBOLIC
        assert nonhyperbolic_condition(rates, support)

    def test_agrees_with_the_precise_spectrum_on_every_mask(self):
        # every nonzero mask, infeasible ones included: the certificate is
        # True exactly where the 50-digit spectrum has an eigenvalue at 1,
        # on the support (r_k s = 1 in the support block) or off it
        for theta in [(1, 0.5), (1, 1, 0.75), (0.5, 1, 0.25), (2, 1, 1, 0.7)]:
            rates, n = Rates(theta), len(theta)
            for mask in range(1, 1 << n):
                spectrum = np.array(precise_spectrum(theta, (mask >> np.arange(n)) & 1))
                has_one = bool(np.any(np.abs(spectrum - 1.0) <= 1e-10))
                assert nonhyperbolic_condition(rates, SupportMask(n, mask)) == has_one, (theta, mask)

    def test_empty_support_rejected(self, rates_ones3):
        with pytest.raises(DomainError):
            nonhyperbolic_condition(rates_ones3, SupportMask(3, 0))
        with pytest.raises(DimensionMismatch):
            nonhyperbolic_condition(rates_ones3, SupportMask(2, 1))
