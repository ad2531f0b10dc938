"""Shared oracles for the test suite: finite differences, brute-force fixed
point search, stable quadratic roots, feasible-rate sampling, the fate
kernel run against a table of every feasible nonzero fixed point, the
50-digit spectrum at a fixed point, the water-filling support of the
equilibrium fixed point, the verify sweep one draw at a time, and the
closed-form interior spectra for n = 2 and n = 3."""

from __future__ import annotations

import enum
import itertools
import math
from typing import NamedTuple

import mpmath
import numpy as np

from qdyn import (
    DimensionMismatch, Rates, RegionKind, StabilityTag, apply, classify, eigenvalue_two_residual,
    interior_fixed_point, region_membership, spectrum_at,
)
from qdyn.dynamics import _OVERFLOW, EPS_CONV, PROXIMITY_RTOL, R_ESCAPE, REGION_MARGIN
from qdyn.fixed_points import _all_supports, _points
from qdyn.model import _step
from qdyn.verify import (
    CHECK_TOLERANCES, POINTS_PER_REGION, CheckResult, VerificationSummary, make_rng, sample_in_region, sample_rates,
)


def fd_jacobian(rates: Rates, x, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference Jacobian of one map application.

    Uses the step arithmetic without the orthant check, so probes a hair
    below zero stay legal.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        out[:, j] = (_step(rates.values, x + e) - _step(rates.values, x - e)) / (2.0 * h)
    return out


def quadratic_roots(b: float, c: float) -> tuple[float, float]:
    """Real roots of lam^2 + b*lam + c, computed stably, sorted descending."""
    disc = b * b - 4.0 * c
    assert disc >= 0.0, f"complex roots for b={b}, c={c}"
    if b == 0.0 and c == 0.0:
        return 0.0, 0.0
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    roots = sorted((q, c / q if q != 0.0 else 0.0), reverse=True)
    return roots[0], roots[1]


def newton_fixed_point_search(rates: Rates, starts: np.ndarray, iters: int = 30) -> np.ndarray:
    """Polish a batch of starting points toward solutions of H(x) = x.

    Returns the converged solutions (residual <= 1e-10); divergent or
    singular batches are dropped.
    """
    n = rates.n
    x = np.array(starts, dtype=float)
    eye = np.eye(n)
    for _ in range(iters):
        s = x.sum(axis=1, keepdims=True)
        g = 0.5 * rates.values * x * (2.0 * s - x) - x
        jac = np.repeat((rates.values * x)[:, :, None], n, axis=2)
        idx = np.arange(n)
        jac[:, idx, idx] = rates.values * s
        try:
            delta = np.linalg.solve(jac - eye, -g[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # perturb the whole batch off the singular set and continue
            x = x + 1e-9
            continue
        keep = np.all(np.isfinite(delta), axis=1)
        x = np.where(keep[:, None], x + delta, x)
    s = x.sum(axis=1, keepdims=True)
    residual = np.max(np.abs(0.5 * rates.values * x * (2.0 * s - x) - x), axis=1)
    good = np.isfinite(residual) & (residual <= 1e-10)
    return x[good]


def sample_feasible_interior(rng: np.random.Generator, n: int) -> Rates:
    """Seeded draw of rates whose interior fixed point is strictly positive.

    The interior point is feasible only when the rates are nearly
    proportional, so draw a base level with narrow per-coordinate jitter
    (width shrinking with n) and reject the rare miss.
    """
    w = 0.4 / n
    while True:
        base = 0.1 + 2.4 * rng.random()
        rates = Rates(base * (1.0 - w + 2.0 * w * rng.random(n)))
        if np.all(interior_fixed_point(rates).coords > 0.0):
            return rates


def explicit_coefficient_matrix(n: int) -> np.ndarray:
    out = np.full((n, n), 2.0)
    np.fill_diagonal(out, 1.0)
    return out


def feasible_nonzero_points(rates: Rates) -> tuple[list[int], np.ndarray]:
    """Masks and coordinates (one row each) of the feasible nonzero fixed
    points, mask-ascending: the rows of the full enumeration whose
    coordinates are all nonnegative, without the origin."""
    coords = _points(rates.values, _all_supports(rates))[0]
    keep = np.all(coords >= 0.0, axis=1)
    keep[0] = False
    return np.flatnonzero(keep).tolist(), coords[keep]


def precise_spectrum(theta, on) -> list[complex]:
    """The 50-digit mpmath spectrum at the fixed point on the support `on`
    (1 or True where the coordinate is in it), feasible or not, from the
    closed form x_k = 2s - 2/r_k, s = 2 sum_S(1/r) / (2m - 1)."""
    with mpmath.workdps(50):
        r = [mpmath.mpf(float(t)) for t in theta]
        support = np.flatnonzero(on).tolist()
        s = 2 * mpmath.fsum(1 / r[k] for k in support) / (2 * len(support) - 1)
        x = [2 * s - 2 / r[k] if on[k] else mpmath.mpf(0) for k in range(len(r))]
        jac = mpmath.matrix([[r[i] * (s if i == j else x[i]) for j in range(len(r))] for i in range(len(r))])
        return [complex(lam) for lam in mpmath.eig(jac, left=False, right=False)]


def water_fill(theta) -> int:
    """The support mask (bit k for coordinate k) of the feasible nonzero
    fixed point with every off-support r_k s <= 1, by water-filling: the m
    largest rates, with s = 2R/(2m - 1) and R the sum of 1/r over them, for
    the m whose point has r_k s >= 1 on the support and r_k s <= 1 off it
    (x_k = 2s - 2/r_k has the sign of r_k s - 1)."""
    theta = np.asarray(theta, dtype=float)
    order = np.argsort(-theta, kind="stable")
    r = theta[order]
    for m in range(1, len(r) + 1):
        s = 2.0 * float(np.sum(1.0 / r[:m])) / (2 * m - 1)
        if r[m - 1] * s >= 1.0 and (m == len(r) or r[m] * s <= 1.0):
            return sum(1 << int(k) for k in order[:m])
    raise AssertionError(f"no support fills at rates {theta.tolist()}")


def table_fates(rates: Rates, x: np.ndarray, budget: int) -> tuple:
    """The fate kernel's stopping rules with proximity tested against the
    table of every feasible nonzero fixed point, where the lowest mask
    within its radius wins; returns what `dynamics._fates` returns.

    The rows are stepped together as in the kernel, in slices that keep the
    (rows, points, n) distance array near a few megabytes.
    """
    masks, coords = feasible_nonzero_points(rates)
    radius = PROXIMITY_RTOL * np.maximum(1.0, np.max(np.abs(coords), axis=1))
    below, above = 2.0 / rates.values - REGION_MARGIN, 2.0 / rates.values + REGION_MARGIN
    rule, steps_used = np.empty(len(x), dtype=int), np.empty(len(x), dtype=int)
    final, mask = np.empty_like(x), np.full(len(x), -1)
    per_slice = max(1, (1 << 16) // (len(masks) * rates.n))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(x), per_slice):
            rows = np.arange(start, min(start + per_slice, len(x)))
            state = x[rows]
            for steps in itertools.count():
                lhs = 2.0 * state.sum(axis=1, keepdims=True) - state
                norm = np.abs(state).max(axis=1)
                near = np.abs(coords - state[:, None]).max(axis=2) <= radius
                fired = [norm < EPS_CONV, near.any(axis=1), (lhs < below).all(axis=1), (lhs > above).all(axis=1),
                         norm > R_ESCAPE, np.full(len(rows), steps >= budget)]
                done = np.any(fired, axis=0)
                at = rows[done]
                rule[at], steps_used[at], final[at] = np.argmax(fired, axis=0)[done], steps, state[done]
                mask[at] = np.where(rule[at] == 1, np.array(masks)[near[done].argmax(axis=1)], -1)
                rows, state, lhs = rows[~done], state[~done], lhs[~done]
                if not rows.size:
                    break
                state_next = 0.5 * rates.values * state * lhs
                finite = np.isfinite(state_next).all(axis=1)
                at = rows[~finite]
                rule[at], steps_used[at], final[at] = _OVERFLOW, steps + 1, state[~finite]
                rows, state = rows[finite], state_next[finite]
                if not rows.size:
                    break
    return rule, steps_used.tolist(), final, [None if m < 0 else m for m in mask.tolist()]


def check_one_trial(rates: Rates, rng: np.random.Generator) -> dict[str, float]:
    """Worst-case metric per check name (a key of CHECK_TOLERANCES) for a
    single rate draw, through the public per-draw calls; the sweep's checks
    before they were made in chunks of draws."""
    bits = _all_supports(rates)
    coords, residuals = _points(rates.values, bits)[:2]
    count_err = float(np.count_nonzero(np.any((coords != 0.0) != (bits == 1), axis=1)))
    residual = float(np.max(residuals / np.maximum(1.0, np.max(np.abs(coords), axis=1))))

    spectra = spectrum_at(rates, coords)
    eig_resid = float(np.max(eigenvalue_two_residual(rates, coords[1:])))
    eig_dist = float(np.max(np.min(np.abs(spectra[1:] - 2.0), axis=1)))
    attracting = [cls.tag is StabilityTag.ATTRACTING for cls in classify(spectra)]
    attracting_err = float((not attracting[0]) + sum(attracting[1:]))

    # the samples that left their region plus the largest outward move
    misses, outward = 0, 0.0
    for region in (RegionKind.MBAR1, RegionKind.MBAR2):
        for _ in range(POINTS_PER_REGION):
            x = sample_in_region(rng, rates, region)
            x_next = apply(rates, x)
            misses += not region_membership(rates, x_next, region)
            outward = float(np.maximum(outward, np.max(x_next - x if region is RegionKind.MBAR1 else x - x_next)))
    region_err = misses + outward
    return dict(zip(CHECK_TOLERANCES, (residual, count_err, eig_dist, eig_resid, attracting_err, region_err)))


def sweep_draws(n: int, trials: int, seed: int) -> list[tuple[str, dict[str, float]]]:
    """The sweep's rate draws (as the summary prints them) and their
    `check_one_trial` metrics, one draw at a time, in draw order."""
    rng = make_rng(seed)
    draws = []
    for _ in range(trials):
        rates = sample_rates(rng, n)
        draws.append((repr(rates.values.tolist()), check_one_trial(rates, rng)))
    return draws


def sweep_oracle(n: int, trials: int, seed: int) -> VerificationSummary:
    """The summary `verification_sweep` must give, folded from
    `sweep_draws` one draw at a time: each check's worst metric is a
    NaN-propagating max, and a draw offends where `not value <= tol`, so a
    NaN metric fails."""
    worsts = dict.fromkeys(CHECK_TOLERANCES, 0.0)
    failures: dict[str, list[str]] = {name: [] for name in CHECK_TOLERANCES}
    for theta, metrics in sweep_draws(n, trials, seed):
        for name, value in metrics.items():
            worsts[name] = float(np.maximum(worsts[name], value))
            if not value <= CHECK_TOLERANCES[name] and len(failures[name]) < 5:
                failures[name].append(theta)
    checks = tuple(CheckResult(name, worsts[name], tol, worsts[name] <= tol, tuple(failures[name]))
                   for name, tol in CHECK_TOLERANCES.items())
    return VerificationSummary(n, trials, seed, checks)


class RootLocation(enum.Enum):
    ONE_ROOT_ABOVE_ONE_OTHER_INSIDE_UNIT = "one_root_above_one_other_inside_unit"
    ONE_ROOT_ABOVE_ONE_OTHER_OUTSIDE_UNIT = "one_root_above_one_other_outside_unit"
    NOT_APPLICABLE = "not_applicable"


class CharPolyN2(NamedTuple):
    """Coefficients of lam^2 + b*lam + c at the interior point (n = 2).

    f_at_one and f_at_minus_one are the factored closed forms of F(1) and
    F(-1), exposed for the saddle argument tests.
    """

    b: float
    c: float
    f_at_one: float
    f_at_minus_one: float


def root_location(b: float, c: float) -> RootLocation:
    """Locate the roots of F(lam) = lam^2 + b*lam + c relative to 1.

    When F(1) < 0 exactly one root lies in (1, inf); the other root is
    inside the unit circle iff F(-1) > 0.  When F(1) >= 0 the dichotomy
    does not apply.
    """
    f_one = 1.0 + b + c
    if f_one >= 0.0:
        return RootLocation.NOT_APPLICABLE
    f_minus_one = 1.0 - b + c
    if f_minus_one > 0.0:
        return RootLocation.ONE_ROOT_ABOVE_ONE_OTHER_INSIDE_UNIT
    return RootLocation.ONE_ROOT_ABOVE_ONE_OTHER_OUTSIDE_UNIT


def char_poly_coeffs_n2(rates: Rates) -> CharPolyN2:
    """Characteristic polynomial of the Jacobian at the interior point, n = 2."""
    if rates.n != 2:
        raise DimensionMismatch(f"closed form requires n=2, got n={rates.n}")
    t1, t2 = (float(v) for v in rates.values)
    prod = t1 * t2
    b = -2.0 * (t1 + t2) ** 2 / (3.0 * prod)
    c = (4.0 * (t1 + t2) ** 2 - 4.0 * (5.0 * prod - 2.0 * t1**2 - 2.0 * t2**2)) / (9.0 * prod)
    f_at_one = (2.0 * t1 - t2) * (t1 - 2.0 * t2) / (3.0 * prod)
    f_at_minus_one = (2.0 * t1**2 + 2.0 * t2**2 + prod) / prod
    return CharPolyN2(b, c, f_at_one, f_at_minus_one)


def interior_secondary_eig_n2(rates: Rates) -> float:
    """The non-2 eigenvalue at the interior point for n = 2."""
    if rates.n != 2:
        raise DimensionMismatch(f"closed form requires n=2, got n={rates.n}")
    t1, t2 = rates.values
    return float(2.0 * (t1**2 + t2**2 - t1 * t2) / (3.0 * t1 * t2))


def interior_discriminant_n3(rates: Rates) -> float:
    """Discriminant of the quadratic factor of the interior characteristic
    polynomial for n = 3.

    Never negative for positive rates, so the pair is real.  With e1, e2, e3
    the elementary symmetric functions of the rates, 25 e3^2 times the
    discriminant is a quadratic in e3 that decreases up to e3 = 7 e1 e2 / 45,
    beyond the AM-GM bound e3 <= e1 e2 / 9.  So with e1 and e2 fixed it is
    least at the largest e3, where two rates are equal, and at rates
    (1, 1, c) it is 16 (c - 1)^2 (c - 2)^2.  It is zero (a double
    eigenvalue) exactly at rates proportional to (1, 1, 1) or to a
    permutation of (1, 1, 2), where rounding can leave it a few eps below 0.
    """
    if rates.n != 3:
        raise DimensionMismatch(f"closed form requires n=3, got n={rates.n}")
    recip = float(np.sum(1.0 / rates.values))
    total = float(rates.values.sum())
    pair = float(
        rates.values[0] * rates.values[1]
        + rates.values[0] * rates.values[2]
        + rates.values[1] * rates.values[2]
    )
    return (
        0.16 * recip**2 * total**2
        - 11.2 * recip * total
        + 1.92 * recip**2 * pair
        + 36.0
    )


def interior_secondary_eigs_n3(rates: Rates) -> tuple[complex, complex]:
    """The two non-2 eigenvalues at the interior point for n = 3.

    Returned as (lam_minus, lam_plus), as complex numbers: the discriminant
    is never negative (see `interior_discriminant_n3`), so both are real,
    up to a rounding-sized imaginary part where it is zero.
    """
    d = interior_discriminant_n3(rates)
    recip = float(np.sum(1.0 / rates.values))
    total = float(rates.values.sum())
    base = 0.4 * recip * total - 2.0
    root = np.sqrt(complex(d))
    return complex((base - root) / 2.0), complex((base + root) / 2.0)
