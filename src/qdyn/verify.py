"""Seeded randomized verification of the structural identities.

Rate vectors are drawn with a Philox counter-based generator (64-bit keyed,
splittable), built only from raw uniform doubles so the stream is
reproducible across platforms and numpy versions.  Each draw is checked
for: fixed-point count and residuals, the eigenvalue-2 identity at every
non-origin fixed point, the origin being the only attractor, and one-step
invariance plus monotonicity of the MBAR regions.

Draws are checked in chunks of one Jacobian stack: the 2^n-point tables of
_STACK_ROWS // 2^n draws are one table, with one Jacobian build, one
eigensolver call and one determinant call, and the chunk's uniforms come
from one call to the generator, which hands them out in the order that draw
after draw would take them.  Each draw's metrics are bit for bit those of
checking one draw at a time.  A check's worst metric is their NaN-propagating
maximum, and a draw offends where its metric is not within the tolerance:
a NaN metric fails its check, names its draw and is reported as the worst.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import RegionKind, _in_region, _integer, _is_mbar1
from .errors import DomainError
from .fixed_points import _points, _support_bits
from .model import Rates, _jacobian, _step
from .stability import _STACK_ROWS, TAU_UNIT, StabilityTag, _classes, _eig2_residuals, _eigvals

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
    return np.random.Generator(np.random.Philox(key=_seed(seed)))


def _seed(seed) -> int:
    # a generator seed, checked: an integer Philox key, which is 128-bit
    seed = _integer("seed", seed)
    if not 0 <= seed < 2**128:
        raise DomainError(f"seed must be in [0, 2^128), got {seed}")
    return seed


def sample_rates(rng: np.random.Generator, n: int) -> Rates:
    """Uniform draw from (RATE_LOW, RATE_HIGH]^n."""
    return Rates(_rate_values(rng.random(n)))


def _rate_values(uniforms: np.ndarray) -> np.ndarray:
    # uniforms on [0, 1) to rates on (RATE_LOW, RATE_HIGH]
    return RATE_HIGH - (RATE_HIGH - RATE_LOW) * uniforms


def sample_in_region(rng: np.random.Generator, rates: Rates, region: RegionKind) -> np.ndarray:
    """Random point strictly inside MBAR1 or MBAR2.

    Along a random direction u (sum 1), the scale s satisfies all MBAR1
    constraints iff s <= min_k 2/(r_k*(2 - u_k)); MBAR2 flips the bound.
    """
    return _region_points(rates.values, rng.random(rates.n + 1), _is_mbar1(region))


def _region_points(theta: np.ndarray, uniforms: np.ndarray, mbar1) -> np.ndarray:
    """The points of `sample_in_region` from n + 1 uniforms each (on the last
    axis of `uniforms`, theta broadcast against it): inside MBAR1 where
    `mbar1` is True, else inside MBAR2."""
    # a uniform direction on the simplex: exponentials via inverse CDF on
    # (0, 1], normalized to sum 1
    e = -np.log(1.0 - uniforms[..., :-1])
    u = e / e.sum(axis=-1, keepdims=True)
    critical = 2.0 / (theta * (2.0 - u))
    scale = uniforms[..., -1]
    s = np.where(mbar1, critical.min(axis=-1) * scale, critical.max(axis=-1) * (1.0 + 2.0 * scale))
    return s[..., None] * u


def _check_draws(theta: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """The metrics of the draws whose rates are the rows of theta (shape
    (k, n)), as one (6, k) array: a row per check in CHECK_TOLERANCES order,
    a column per draw.  `uniforms` holds the n + 1 uniforms of each of a
    draw's region samples (shape (k, 2 * POINTS_PER_REGION, n + 1)).  The
    MBAR metric is the number of samples that left their region plus the
    largest outward move, or 0 without one.  Every metric is 0 or positive
    on a working program, and bigger is worse."""
    k, n = theta.shape
    size = 1 << n
    # the draws' tables one after the other, each its 2^n points by mask
    bits = np.tile(_support_bits(np.arange(size), n), (k, 1))
    rate_rows = np.repeat(theta, size, axis=0)
    coords, residuals = _points(rate_rows, bits)[:2]
    # a zero inside a support repeats the point of a smaller support, so the
    # 2^n points are distinct exactly when no row's nonzero set differs from
    # its support
    count_err = np.any((coords != 0.0) != (bits == 1), axis=1).reshape(k, size).sum(axis=1)
    residual = (residuals / np.maximum(1.0, np.max(np.abs(coords), axis=1))).reshape(k, size).max(axis=1)

    # one Jacobian stack, shared by spectra and residuals; row 0 of each
    # table is the origin, the only point without the eigenvalue 2
    jacs = _jacobian(rate_rows, coords)
    spectra = _eigvals(jacs)
    eig_dist = np.abs(spectra - 2.0).min(axis=1).reshape(k, size)[:, 1:].max(axis=1)
    eig_resid = _eig2_residuals(jacs.reshape(k, size, n, n)[:, 1:]).max(axis=1)
    attracting = (_classes(spectra, TAU_UNIT)[0] == StabilityTag.ATTRACTING).reshape(k, size)
    attracting_err = ~attracting[:, 0] + attracting[:, 1:].sum(axis=1)

    # each draw's samples: POINTS_PER_REGION in MBAR1, then as many in MBAR2
    mbar1 = np.arange(2 * POINTS_PER_REGION) < POINTS_PER_REGION
    x = _region_points(theta[:, None], uniforms, mbar1)
    x_next = _step(theta[:, None], x)
    missed = ~_in_region(theta[:, None], x_next, mbar1)
    moved = np.where(mbar1[:, None], x_next - x, x - x_next).max(axis=2)
    region_err = missed.sum(axis=1) + np.maximum(moved.max(axis=1), 0.0)
    return np.stack([residual, count_err, eig_dist, eig_resid, attracting_err, region_err])


def verification_sweep(n: int, trials: int, seed: int) -> VerificationSummary:
    """Run all randomized checks over `trials` seeded rate draws at
    dimension 2 <= n <= 12, in chunks of _STACK_ROWS // 2^n draws whose
    fixed points are one Jacobian stack.  n, trials and seed must be
    integers (numpy integers too)."""
    n, trials = _integer("n", n), _integer("trials", trials)
    if not 2 <= n <= 12:
        raise DomainError(f"verify requires 2 <= n <= 12, got n = {n}")
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    rng = make_rng(seed)
    tols = np.array(list(CHECK_TOLERANCES.values()))
    worst, failures = np.zeros(len(tols)), [[] for _ in tols]

    chunk = _STACK_ROWS >> n
    for start in range(0, trials, chunk):
        k = min(chunk, trials - start)
        # each draw takes n uniforms for its rates, then n + 1 per region sample
        uniforms = rng.random((k, n + 2 * POINTS_PER_REGION * (n + 1)))
        theta = _rate_values(uniforms[:, :n])
        metrics = _check_draws(theta, uniforms[:, n:].reshape(k, -1, n + 1))
        # NaN propagates through the worst and is no metric within its tolerance
        worst = np.maximum(worst, metrics.max(axis=1))
        for found, offending in zip(failures, ~(metrics <= tols[:, None])):
            found += [repr(theta[i].tolist()) for i in np.flatnonzero(offending)[:5 - len(found)]]

    checks = zip(CHECK_TOLERANCES.items(), worst.tolist(), failures)
    return VerificationSummary(n, trials, seed, tuple(
        CheckResult(name, w, tol, w <= tol, tuple(found)) for (name, tol), w, found in checks))
