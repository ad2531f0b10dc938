import numpy as np
import pytest

from qdyn import DomainError, Rates, RegionKind, region_membership
from qdyn.verify import CHECK_TOLERANCES, _check_one_trial, make_rng, sample_in_region, sample_rates, verification_sweep


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


def test_sweep_summary_shape_and_pass():
    summary = verification_sweep(n=3, trials=20, seed=17)
    assert summary.passed
    assert len(summary.checks) == 6
    assert summary.checks[0].worst <= summary.checks[0].tolerance


def test_trial_metrics_are_named_by_the_checks():
    rng = make_rng(5)
    metrics = _check_one_trial(sample_rates(rng, 3), rng)
    assert list(metrics) == list(CHECK_TOLERANCES)
    summary = verification_sweep(n=3, trials=2, seed=5)
    assert [(c.name, c.tolerance) for c in summary.checks] == list(CHECK_TOLERANCES.items())


def test_count_check_sees_a_repeated_point():
    # rates (1, 2): the full support solves to (0, 1), the point of support
    # {1}, so only 3 of the 4 algebraic points are distinct
    metrics = _check_one_trial(Rates([1.0, 2.0]), make_rng(0))
    assert metrics["fixed-point count == 2^n"] == 1.0
    metrics = _check_one_trial(Rates([1.0, 1.5]), make_rng(0))
    assert metrics["fixed-point count == 2^n"] == 0.0


def _draws(n, trials, seed):
    # the sweep's rate draws and trial metrics, in draw order
    rng = make_rng(seed)
    draws = []
    for _ in range(trials):
        rates = sample_rates(rng, n)
        draws.append((repr(rates.values.tolist()), _check_one_trial(rates, rng)))
    return draws


def test_sweep_records_the_first_five_failures(monkeypatch):
    name = "eigenvalue-2 distance min |lam - 2|"
    draws = _draws(3, 20, 17)
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


def test_sweep_counts_each_region_miss(monkeypatch):
    # every one of the 2 * POINTS_PER_REGION sampled states leaves its region
    from qdyn import verify

    name = "MBAR one-step invariance and monotonicity"
    monkeypatch.setattr(verify, "region_membership", lambda rates, x, region: False)
    draws = _draws(3, 7, 17)
    assert [metrics[name] for _, metrics in draws] == [4.0] * 7
    summary = verification_sweep(3, 7, 17)
    assert not summary.passed
    check = next(c for c in summary.checks if c.name == name)
    assert check.worst == 4.0 and not check.passed
    assert check.failures == tuple(theta for theta, _ in draws[:5])


def test_one_jacobian_stack_per_trial(monkeypatch):
    # the whole table of 2^n points gets its Jacobians in one build, shared
    # by the spectra and the eigenvalue-2 residuals
    from qdyn import model, stability, verify

    stacks = []

    def counted(rates, x):
        stacks.append(len(x))
        return model.jacobian(rates, x)

    def rebuilt(*args):
        raise AssertionError("Jacobian built again inside stability")

    monkeypatch.setattr(verify, "jacobian", counted)
    monkeypatch.setattr(stability, "jacobian", rebuilt)
    assert verification_sweep(4, 2, 0).passed
    assert stacks == [16, 16]


def test_every_accepted_table_is_one_jacobian_stack():
    # verification_sweep takes n <= 12, so the one Jacobian stack a trial
    # builds for its 2^n points stays within the bound `stability` keeps
    from qdyn import stability

    assert 2**12 <= stability._STACK_ROWS


@pytest.mark.parametrize("seed", [-1, 2**128, 2**200])
def test_seed_outside_the_philox_key_range_rejected(seed):
    with pytest.raises(DomainError, match=r"seed must be in \[0, 2\^128\)"):
        verification_sweep(2, 1, seed)


@pytest.mark.parametrize("n, trials", [(1, 1), (2, 0), (13, 1)])
def test_sweep_needs_two_coordinates_and_one_trial(n, trials):
    with pytest.raises(DomainError):
        verification_sweep(n, trials, 0)


def test_largest_seed_accepted():
    assert verification_sweep(2, 1, 2**128 - 1).passed


def test_sweep_is_reproducible():
    a = verification_sweep(n=2, trials=15, seed=99)
    b = verification_sweep(n=2, trials=15, seed=99)
    assert [c.worst for c in a.checks] == [c.worst for c in b.checks]
