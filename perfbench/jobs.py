"""Seeded job generators for the four benchmark workloads.

Each workload is an endless sequence of blocks.  A block holds a fixed
composition of job kinds (dimension, format, regime, size) in a seeded
random order with seeded random inputs.  A run measures whole blocks, so
every run sees the same mix and only the inputs and their order change with
the seed; that keeps the medians and the p90 of job time inside one kind of
job instead of on the edge between two.  Inputs reach the program only as
argv, with floats written by repr so that they round-trip exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

WORKLOADS = ("boundary", "fates", "spectra", "verify")

# Rate-pair regimes of the planar boundary, as the regions M1..M6 split them.
REGIMES = ("balanced", "r1_over_2r2", "r2_over_2r1")
BOUNDARY_LINES = (2, 3, 4, 5)  # lines per basin job, once per regime in a block
BOUNDARY_TOL = "1e-8"
X1_MAX = 6.0

# The mixes below are chosen so that, with jobs sorted by time, the median
# and the p90 fall inside a group of similar jobs rather than on the step
# between two groups; a quantile on a step jumps with machine noise.
# (n, jobs per block); half of each n is JSON and half CSV.  Median among
# the n=8 CSV jobs, p90 among the n=10 JSON jobs.
SPECTRA_MIX = ((7, 40), (8, 28), (9, 12), (10, 12), (11, 6), (12, 2))
# (n, jobs per block).  Median among the n=6 jobs, p90 among the n=10 jobs.
FATES_MIX = ((2, 3), (3, 3), (4, 2), (5, 2), (6, 2), (7, 2), (8, 2), (9, 2), (10, 4))
FATES_STEPS = "100"
# (n, trials), one job each per block.  Median among the (6, 3) jobs, p90
# among the (8, 2) jobs.
VERIFY_MIX = ((3, 8), (4, 6), (5, 4), (6, 3), (6, 3), (7, 2), (8, 2), (8, 2))

RATE_LOW, RATE_HIGH = 0.1, 3.0


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    kind: str  # the block slot the job fills, e.g. "n=8 json"
    theta: tuple[float, ...] = ()
    props: dict = field(default_factory=dict)  # input properties (str values) counted into the run's shares


def make_rng(workload: str, seed: int) -> np.random.Generator:
    """Philox stream keyed by the seed, one independent stream per workload."""
    seq = np.random.SeedSequence([seed, WORKLOADS.index(workload)])
    return np.random.Generator(np.random.Philox(seq))


def floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _rates(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(RATE_LOW, RATE_HIGH, n)


def strata(rng: np.random.Generator, k: int) -> np.ndarray:
    """k uniform draws on [0, 1), one in each of k equal strata, in random order."""
    return (rng.permutation(k) + rng.uniform(size=k)) / k


def boundary_rates(regime: str, q_r2: float, q_ratio: float) -> np.ndarray:
    """Rate pair (r1, r2) strictly inside one regime, clear of its edges, at
    quantiles q_r2 of r2 and q_ratio of log(r1/r2)."""
    r2 = 0.3 + 1.2 * q_r2
    lo, hi = {"balanced": (0.6, 1.7), "r1_over_2r2": (2.2, 4.0), "r2_over_2r1": (0.25, 1 / 2.2)}[regime]
    return np.array([r2 * float(np.exp(np.log(lo) + q_ratio * np.log(hi / lo))), r2])


def basin_job(theta, lo: float, hi: float, lines: int, regime: str) -> Job:
    argv = ("basin", "--theta", floats(theta), "--x1-range", f"{float(lo)!r}:{float(hi)!r}:{lines}",
            "--tol", BOUNDARY_TOL)
    return Job(argv, f"{regime} lines={lines}", tuple(float(t) for t in theta), {"regime": regime})


def boundary_block(rng: np.random.Generator) -> list[Job]:
    """Per regime, one job per line count.  The rates and the ends of the x1
    range are drawn stratified over the regime's jobs, so that every block
    spans each range evenly and blocks cost about the same."""
    jobs = []
    k = len(BOUNDARY_LINES)
    for regime in REGIMES:
        for lines, *q in zip(BOUNDARY_LINES, *(strata(rng, k) for _ in range(4))):
            theta = boundary_rates(regime, q[0], q[1])
            # Beyond x1 = 2/r1 the line escapes already at x2 = 0 and has no
            # boundary to bracket, so the range stops short of it.
            top = min(X1_MAX, 0.98 * 2.0 / theta[0])
            lo, hi = sorted((top * q[2], top * q[3]))
            jobs.append(basin_job(theta, lo, hi, lines, regime))
    return jobs


def critical_scales(theta: np.ndarray, u: np.ndarray) -> tuple[float, float]:
    """Scales of direction u where the MBAR1 and MBAR2 constraints start to bind."""
    crit = 2.0 / (theta * (2.0 - u))
    return float(crit.min()), float(crit.max())


def simulate_job(theta, x0) -> Job:
    argv = ("simulate", "--theta", floats(theta), "--x0", floats(x0), "--steps", FATES_STEPS)
    return Job(argv, f"n={len(theta)}", tuple(float(t) for t in theta))


def fates_block(rng: np.random.Generator) -> list[Job]:
    jobs = []
    for n, count in FATES_MIX:
        for _ in range(count):
            theta = _rates(rng, n)
            u = rng.exponential(size=n)
            u /= u.sum()
            s_min, s_max = critical_scales(theta, u)
            jobs.append(simulate_job(theta, rng.uniform(s_min, s_max) * u))
    return jobs


def fixed_points_job(theta, fmt: str) -> Job:
    argv = ("fixed-points", "--theta", floats(theta), "--format", fmt)
    return Job(argv, f"n={len(theta)} {fmt}", tuple(float(t) for t in theta), {"format": fmt})


def spectra_block(rng: np.random.Generator) -> list[Job]:
    return [
        fixed_points_job(_rates(rng, n), ("json", "csv")[i % 2])
        for n, count in SPECTRA_MIX
        for i in range(count)
    ]


def verify_job(n: int, trials: int, seed: int) -> Job:
    argv = ("verify", "--n", str(n), "--trials", str(trials), "--seed", str(seed), "--format", "json")
    return Job(argv, f"n={n} trials={trials}")


def verify_block(rng: np.random.Generator) -> list[Job]:
    return [verify_job(n, trials, int(rng.integers(0, 2**31))) for n, trials in VERIFY_MIX]


BLOCKS: dict[str, Callable[[np.random.Generator], list[Job]]] = {
    "boundary": boundary_block,
    "fates": fates_block,
    "spectra": spectra_block,
    "verify": verify_block,
}


def blocks(workload: str, seed: int) -> Iterator[list[Job]]:
    """Endless seeded sequence of shuffled blocks for one workload."""
    rng = make_rng(workload, seed)
    make = BLOCKS[workload]
    while True:
        block = make(rng)
        yield [block[i] for i in rng.permutation(len(block))]


def toy_jobs() -> dict[str, list[Job]]:
    """One small job per workload, for warm-up and the self-test."""
    return {
        "boundary": [basin_job((0.4, 0.6), 0.5, 2.5, 2, "balanced")],
        "fates": [simulate_job((0.9, 1.1, 1.3), (0.4, 0.5, 0.6))],
        "spectra": [fixed_points_job((0.5, 0.7, 1.1), "json")],
        "verify": [verify_job(3, 2, 7)],
    }
