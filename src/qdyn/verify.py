"""Seeded randomized verification of the structural identities.

Rate vectors are drawn with a Philox counter-based generator (64-bit keyed,
splittable), built only from raw uniform doubles so the stream is
reproducible across platforms and numpy versions.  Each draw is checked
for: fixed-point count and residuals, the eigenvalue-2 identity at every
non-origin fixed point, the origin being the only attractor, and one-step
invariance plus monotonicity of the MBAR regions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import RegionKind, region_membership
from .errors import DomainError
from .fixed_points import _all_supports, _points
from .model import Rates, apply, jacobian
from .stability import StabilityTag, classify, eigenvalue_two_residual, spectrum_at

RATE_LOW = 0.05
RATE_HIGH = 3.0

RESIDUAL_RTOL = 1e-9
EIG_TWO_DISTANCE_TOL = 1e-6
EIG_TWO_RESIDUAL_TOL = 1e-8
POINTS_PER_REGION = 2  # MBAR1 and MBAR2 samples per rate draw

# check name -> tolerance on its worst metric, in report order
CHECK_TOLERANCES = {
    "fixed-point residual (relative)": RESIDUAL_RTOL,
    "fixed-point count == 2^n": 0.0,
    "eigenvalue-2 distance min |lam - 2|": EIG_TWO_DISTANCE_TOL,
    "eigenvalue-2 residual |det(J - 2I)| / ||J||^n": EIG_TWO_RESIDUAL_TOL,
    "attracting only at the origin": 0.0,
    "MBAR one-step invariance and monotonicity": 0.0,
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    worst: float
    tolerance: float
    passed: bool
    failures: tuple[str, ...]


@dataclass(frozen=True)
class VerificationSummary:
    n: int
    trials: int
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def make_rng(seed: int) -> np.random.Generator:
    # Philox keys are 128-bit
    if not 0 <= seed < 2**128:
        raise DomainError(f"seed must be in [0, 2^128), got {seed}")
    return np.random.Generator(np.random.Philox(key=seed))


def sample_rates(rng: np.random.Generator, n: int) -> Rates:
    """Uniform draw from (RATE_LOW, RATE_HIGH]^n."""
    return Rates(RATE_HIGH - (RATE_HIGH - RATE_LOW) * rng.random(n))


def sample_in_region(rng: np.random.Generator, rates: Rates, region: RegionKind) -> np.ndarray:
    """Random point strictly inside MBAR1 or MBAR2.

    Along a random direction u (sum 1), the scale s satisfies all MBAR1
    constraints iff s <= min_k 2/(r_k*(2 - u_k)); MBAR2 flips the bound.
    """
    # a uniform direction on the simplex: exponentials via inverse CDF on
    # (0, 1], normalized to sum 1
    e = -np.log(1.0 - rng.random(rates.n))
    u = e / e.sum()
    critical = 2.0 / (rates.values * (2.0 - u))
    if region is RegionKind.MBAR1:
        s = float(critical.min()) * rng.random()
    else:
        s = float(critical.max()) * (1.0 + 2.0 * rng.random())
    return s * u


def _check_one_trial(rates: Rates, rng: np.random.Generator) -> dict[str, float]:
    """Worst-case metric per check name (a key of CHECK_TOLERANCES) for a
    single rate draw; everything is 0-or-positive, bigger is worse."""
    bits = _all_supports(rates)
    coords, residuals = _points(rates.values, bits)
    # a zero inside a support repeats the point of a smaller support, so the
    # 2^n points are distinct exactly when no row's nonzero set differs from
    # its support
    count_err = float(np.count_nonzero(np.any((coords != 0.0) != (bits == 1), axis=1)))
    residual = float(np.max(residuals / np.maximum(1.0, np.max(np.abs(coords), axis=1))))

    # the table's one Jacobian stack (n <= 12), shared by spectra and
    # residuals; row 0 is the origin, the only point without the eigenvalue 2
    jacs = jacobian(rates, coords)
    spectra = spectrum_at(rates, coords, jacs)
    eig_resid = max(eigenvalue_two_residual(rates, coords[1:], jacs[1:]))
    eig_dist = float(np.max(np.min(np.abs(spectra[1:] - 2.0), axis=1)))
    attracting = [cls.tag is StabilityTag.ATTRACTING for cls in classify(spectra)]
    attracting_err = float((not attracting[0]) + sum(attracting[1:]))

    region_err = 0.0
    for region in (RegionKind.MBAR1, RegionKind.MBAR2):
        for _ in range(POINTS_PER_REGION):
            x = sample_in_region(rng, rates, region)
            x_next = apply(rates, x)
            if not region_membership(rates, x_next, region):
                region_err += 1.0
            diff = x_next - x if region is RegionKind.MBAR1 else x - x_next
            region_err = max(region_err, float(np.max(diff)))
    return {
        "fixed-point residual (relative)": residual,
        "fixed-point count == 2^n": count_err,
        "eigenvalue-2 distance min |lam - 2|": eig_dist,
        "eigenvalue-2 residual |det(J - 2I)| / ||J||^n": eig_resid,
        "attracting only at the origin": attracting_err,
        "MBAR one-step invariance and monotonicity": region_err,
    }


def verification_sweep(n: int, trials: int, seed: int) -> VerificationSummary:
    """Run all randomized checks over `trials` seeded rate draws at
    dimension 2 <= n <= 12, whose 2^n fixed points are one Jacobian stack."""
    if not 2 <= n <= 12:
        raise DomainError(f"verify requires 2 <= n <= 12, got n = {n}")
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    rng = make_rng(seed)

    worsts = dict.fromkeys(CHECK_TOLERANCES, 0.0)
    failures: dict[str, list[str]] = {name: [] for name in CHECK_TOLERANCES}

    for _ in range(trials):
        rates = sample_rates(rng, n)
        for name, value in _check_one_trial(rates, rng).items():
            worsts[name] = max(worsts[name], value)
            if value > CHECK_TOLERANCES[name] and len(failures[name]) < 5:
                failures[name].append(repr(rates.values.tolist()))

    checks = tuple(
        CheckResult(name, worsts[name], tol, worsts[name] <= tol, tuple(failures[name]))
        for name, tol in CHECK_TOLERANCES.items()
    )
    return VerificationSummary(n=n, trials=trials, seed=seed, checks=checks)
