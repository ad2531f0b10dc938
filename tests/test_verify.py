import math
import tracemalloc

import numpy as np
import pytest

from qdyn import DomainError, Rates, RegionKind, region_membership
from qdyn.fixed_points import _points
from qdyn.stability import StabilityTag, _classes, _eig2_residuals, _eigvals
from qdyn.verify import (
    CHECK_TOLERANCES, POINTS_PER_REGION, _check_draws, make_rng, sample_in_region, sample_rates, verification_sweep,
)
from helpers import check_one_trial, sweep_draws, sweep_oracle


def test_sample_rates_in_open_closed_interval():
    rng = make_rng(1)
    for _ in range(200):
        rates = sample_rates(rng, 4)
        assert np.all(rates.values > 0.05) and np.all(rates.values <= 3.0)


def test_sampled_points_live_in_their_region():
    rng = make_rng(2)
    for k in range(100):
        rates = sample_rates(rng, 2 + k % 5)
        x1 = sample_in_region(rng, rates, RegionKind.MBAR1)
        assert region_membership(rates, x1, RegionKind.MBAR1)
        x2 = sample_in_region(rng, rates, RegionKind.MBAR2)
        assert region_membership(rates, x2, RegionKind.MBAR2)


@pytest.mark.parametrize("region", ["mbar1", None])
def test_a_region_must_be_a_region_kind(region):
    # a member's value or None is no region: it must not be read as MBAR2
    rates = Rates([0.4, 0.6])
    with pytest.raises(DomainError, match="RegionKind"):
        region_membership(rates, [0.1, 0.1], region)
    with pytest.raises(DomainError, match="RegionKind"):
        sample_in_region(make_rng(1), rates, region)


def test_sweep_summary_shape_and_pass():
    summary = verification_sweep(n=3, trials=20, seed=17)
    assert summary.passed
    assert len(summary.checks) == 6
    assert summary.checks[0].worst <= summary.checks[0].tolerance


def test_trial_metrics_are_named_by_the_checks():
    rng = make_rng(5)
    metrics = check_one_trial(sample_rates(rng, 3), rng)
    assert list(metrics) == list(CHECK_TOLERANCES)
    summary = verification_sweep(n=3, trials=2, seed=5)
    assert [(c.name, c.tolerance) for c in summary.checks] == list(CHECK_TOLERANCES.items())


def test_count_check_sees_a_repeated_point():
    # rates (1, 2): the full support solves to (0, 1), the point of support
    # {1}, so only 3 of the 4 algebraic points are distinct; the chunk's other
    # draw, (1, 1.5), has 4
    uniforms = make_rng(0).random((2, 2 * POINTS_PER_REGION, 3))
    table = _check_draws(np.array([[1.0, 2.0], [1.0, 1.5]]), uniforms)
    assert table.shape == (len(CHECK_TOLERANCES), 2)  # a row per check, a column per draw
    assert dict(zip(CHECK_TOLERANCES, table))["fixed-point count == 2^n"].tolist() == [1.0, 0.0]


# (n, trials): every n with a few draws, then draw counts on both sides of a
# chunk edge (16 draws a chunk at n = 8, 512 at n = 3, 1 at n = 12)
EDGES = [(n, 3) for n in range(2, 10)] + [(10, 2), (11, 2), (12, 2)] + [
    (8, 15), (8, 16), (8, 17), (8, 33), (3, 511), (3, 512), (3, 513)]


@pytest.mark.parametrize("n, trials", EDGES)
def test_sweep_equals_the_draw_by_draw_oracle(n, trials):
    seed = 1000 * n + trials
    assert verification_sweep(n, trials, seed) == sweep_oracle(n, trials, seed)


@pytest.mark.parametrize("n, trials", [(2, 7), (8, 17), (3, 513), (12, 2)])
def test_every_draw_offending_keeps_the_first_five_in_draw_order(monkeypatch, n, trials):
    for name in CHECK_TOLERANCES:
        monkeypatch.setitem(CHECK_TOLERANCES, name, -1.0)
    summary = verification_sweep(n, trials, 3)
    assert summary == sweep_oracle(n, trials, 3)
    firsts = tuple(theta for theta, _ in sweep_draws(n, min(trials, 5), 3))
    assert all(not c.passed and c.failures == firsts for c in summary.checks)


def test_sweep_records_the_first_five_failures(monkeypatch):
    name = "eigenvalue-2 distance min |lam - 2|"
    draws = sweep_draws(3, 20, 17)
    tol = float(np.median([metrics[name] for _, metrics in draws]))
    offenders = [theta for theta, metrics in draws if metrics[name] > tol]
    assert 5 < len(offenders) < len(draws)
    monkeypatch.setitem(CHECK_TOLERANCES, name, tol)
    summary = verification_sweep(3, 20, 17)
    assert not summary.passed
    assert [c.name for c in summary.checks if not c.passed] == [name]
    check = next(c for c in summary.checks if c.name == name)
    assert check.tolerance == tol
    assert check.failures == tuple(offenders[:5])


def _origin_saddle(spectra, tol):
    # every table's origin row, the first of its 2^3 points, tagged a saddle
    tags, *counts = _classes(spectra, tol)
    tags = tags.copy()
    tags[:: 1 << 3] = StabilityTag.SADDLE
    return (tags, *counts)


def _residuals_raised(theta, bits):
    coords, residuals = _points(theta, bits)[:2]
    return coords, residuals + 1e-6


def _full_support_repeated(theta, bits):
    # each table's full-support row (mask 2^n - 1) holds the point of mask
    # 2^n - 2: a true fixed point, so only the count can tell
    coords, residuals = (a.copy() for a in _points(theta, bits)[:2])
    size = 1 << bits.shape[1]
    coords[size - 1 :: size], residuals[size - 1 :: size] = coords[size - 2 :: size], residuals[size - 2 :: size]
    return coords, residuals


def _eigenvalue_two_moved(stack):
    spectra = _eigvals(stack)
    return np.where(np.abs(spectra - 2.0) <= 1e-6, spectra + 1e-3, spectra)


def _nan_residual(theta, bits):
    # one NaN residual in each table, on its first non-origin row
    coords, residuals = _points(theta, bits)[:2]
    residuals = residuals.copy()
    residuals[1 :: 1 << bits.shape[1]] = np.nan
    return coords, residuals


def _nan_eigenvalue(stack):
    # one NaN eigenvalue in each table, on its first non-origin row
    spectra = _eigvals(stack).copy()
    spectra[1 :: 1 << stack.shape[-1], 0] = np.nan
    return spectra


def _nan_det_residual(stack):
    # one NaN in each table's eigenvalue-2 residuals (stack: draws x non-origin rows)
    residuals = _eig2_residuals(stack)
    residuals[:, 0] = np.nan
    return residuals


# a fault seeded into the sweep, the one check it must fail and its worst metric;
# the NaN faults pass every check where a NaN-dropping max folds the metrics
FAULTS = {
    "residual": ("_points", _residuals_raised, "fixed-point residual (relative)", lambda worst: 1e-9 < worst < 2e-6),
    "repeated-point": ("_points", _full_support_repeated, "fixed-point count == 2^n", lambda worst: worst == 1.0),
    "eigenvalue-off-two": ("_eigvals", _eigenvalue_two_moved, "eigenvalue-2 distance min |lam - 2|",
                           lambda worst: 1e-6 < worst <= 1e-3 + 1e-6),
    "eigenvalue-two-residual": ("_eig2_residuals", lambda stack: np.ones(stack.shape[:-2]),
                                "eigenvalue-2 residual |det(J - 2I)| / ||J||^n", lambda worst: worst == 1.0),
    "nan-residual": ("_points", _nan_residual, "fixed-point residual (relative)", math.isnan),
    "nan-eigenvalue": ("_eigvals", _nan_eigenvalue, "eigenvalue-2 distance min |lam - 2|", math.isnan),
    "nan-det-residual": ("_eig2_residuals", _nan_det_residual, "eigenvalue-2 residual |det(J - 2I)| / ||J||^n",
                         math.isnan),
    # every one of the 2 * POINTS_PER_REGION sampled states leaves its region
    "region-miss": ("_in_region", lambda theta, x, mbar1: np.zeros(x.shape[:-1], dtype=bool),
                    "MBAR one-step invariance and monotonicity", lambda worst: worst == 4.0),
    "origin-not-attracting": ("_classes", _origin_saddle, "attracting only at the origin", lambda worst: worst == 1.0),
    # every state moves outward by a relative 1e-9: the MBAR1 samples, which must
    # move inward, fail with no region miss
    "outward-move": ("_step", lambda theta, x: x * (1 + 1e-9),
                     "MBAR one-step invariance and monotonicity", lambda worst: 0.0 < worst < 1.0),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_sweep_fails_each_seeded_fault_on_its_check_alone(monkeypatch, fault):
    from qdyn import verify

    target, replacement, name, worst_ok = FAULTS[fault]
    draws = sweep_draws(3, 7, 17)
    monkeypatch.setattr(verify, target, replacement)
    summary = verification_sweep(3, 7, 17)
    assert not summary.passed
    check = next(c for c in summary.checks if c.name == name)
    assert worst_ok(check.worst) and not check.passed
    assert check.failures == tuple(theta for theta, _ in draws[:5])
    assert all(c.passed for c in summary.checks if c.name != name)


def test_one_jacobian_stack_per_chunk(monkeypatch):
    # a chunk's tables get their Jacobians in one build of at most
    # _STACK_ROWS rows, and the spectra and the eigenvalue-2 residuals are
    # one solver call and one determinant call on that stack
    from qdyn import model, stability, verify

    built, solved, residuals = [], [], []

    def counted(theta, rows):
        built.append(model._jacobian(theta, rows))
        return built[-1]

    def on_the_stack(calls, fn):
        def call(stack):
            assert np.shares_memory(stack, built[-1])
            calls.append(stack.size // stack.shape[-1] ** 2)
            return fn(stack)
        return call

    def rebuilt(*args):
        raise AssertionError("Jacobian built again inside stability")

    monkeypatch.setattr(verify, "_jacobian", counted)
    monkeypatch.setattr(verify, "_eigvals", on_the_stack(solved, stability._eigvals))
    monkeypatch.setattr(verify, "_eig2_residuals", on_the_stack(residuals, stability._eig2_residuals))
    monkeypatch.setattr(stability, "jacobian", rebuilt)
    assert verification_sweep(4, 2, 0).passed
    assert verification_sweep(8, 33, 0).passed
    assert [len(jac) for jac in built] == [32, 4096, 4096, 256]
    assert solved == [32, 4096, 4096, 256]
    assert residuals == [30, 4080, 4080, 255]  # all but each table's origin
    assert max(solved) <= stability._STACK_ROWS


def test_every_accepted_table_is_one_jacobian_stack():
    # verification_sweep takes n <= 12, so a chunk holds one draw at least:
    # the Jacobian stack of its 2^n points stays within the bound
    # `stability` keeps
    from qdyn import stability

    assert 2**12 <= stability._STACK_ROWS


def test_memory_does_not_grow_with_the_draw_count():
    # 600 draws at n = 3 are two chunks, 5000 are ten: no array grows with
    # the draws, so the peak stays that of one chunk
    def peak(trials):
        tracemalloc.start()
        try:
            verification_sweep(3, trials, 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    verification_sweep(3, 600, 0)  # first-call allocations are not the sweep's
    assert peak(5000) <= 1.5 * peak(600)


@pytest.mark.parametrize("seed", [-1, 2**128, 2**200])
def test_seed_outside_the_philox_key_range_rejected(seed):
    with pytest.raises(DomainError, match=r"seed must be in \[0, 2\^128\)"):
        verification_sweep(2, 1, seed)


@pytest.mark.parametrize("n, trials", [(1, 1), (2, 0), (13, 1)])
def test_sweep_needs_two_coordinates_and_one_trial(n, trials):
    with pytest.raises(DomainError):
        verification_sweep(n, trials, 0)


@pytest.mark.parametrize(
    "n, trials, seed",
    [(3.5, 2, 0), (3, 2.5, 0), (3, 2, 1.5), (3.0, 2, 0), (3, 2, "1"), (3, True, 0), (3, 2, False), (np.True_, 2, 0)],
)
def test_sweep_takes_integers_only(n, trials, seed):
    # a float is no integer, even where its value is one, and neither is a bool
    with pytest.raises(DomainError, match="must be an integer"):
        verification_sweep(n, trials, seed)


def test_numpy_integers_are_integers():
    summary = verification_sweep(np.int64(3), np.uint8(2), np.int32(5))
    assert summary.checks == verification_sweep(3, 2, 5).checks
    with pytest.raises(DomainError, match="seed must be an integer"):
        make_rng(np.float64(5.0))


def test_largest_seed_accepted():
    assert verification_sweep(2, 1, 2**128 - 1).passed


def test_sweep_is_reproducible():
    a = verification_sweep(n=2, trials=15, seed=99)
    b = verification_sweep(n=2, trials=15, seed=99)
    assert [c.worst for c in a.checks] == [c.worst for c in b.checks]
