"""Output checks, one per workload, run outside the timed region.

Each check parses what one CLI job printed and tests invariants that hold
for every seed rather than comparing bytes, so a change that moves an
eigenvalue in its last digits is not a failure.  A check returns a
`Verdict`: whether the output is correct, how many user-level items it
delivered, and the output properties the run counts into its shares.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field

import numpy as np

from jobs import Job

RESIDUAL_RTOL = 1e-9
EIG_TWO_TOL = 1e-6
STEP_RTOL = 1e-12

OUTCOMES = ("to_origin", "to_infinity", "to_fixed_point", "undetermined")
EVIDENCE = ("region_containment", "norm_threshold", "fixed_point_proximity", "iteration_cap")
FATE_LINE = re.compile(
    r"# fate=(?P<outcome>\w+) steps_used=(?P<steps>\d+) evidence=(?P<evidence>\w+) "
    r"fixed_point_index=(?P<index>None|\d+) final=(?P<final>\S+)"
)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    items: int = 0
    reason: str = ""
    props: dict = field(default_factory=dict)


class CheckFailed(Exception):
    pass


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def step(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The map H applied row-wise: x_k' = (r_k x_k / 2)(2 sum(x) - x_k)."""
    return 0.5 * theta * x * (2.0 * x.sum(axis=-1, keepdims=True) - x)


def _close(actual: np.ndarray, expected: np.ndarray, rtol: float) -> bool:
    scale = np.max(np.abs(expected), axis=-1)
    return bool(np.all(np.max(np.abs(actual - expected), axis=-1) <= rtol * scale))


def _arg(job: Job, flag: str) -> str:
    return job.argv[job.argv.index(flag) + 1]


def check_basin(job: Job, out: str) -> Verdict:
    rows = list(csv.reader(io.StringIO(out)))
    require(rows and rows[0] == ["x1", "x2_low", "x2_high", "width", "flagged"], "bad basin header")
    body = rows[1:]
    lo, hi, count = _arg(job, "--x1-range").split(":")
    require(len(body) == int(count), f"{len(body)} boundary rows, expected {count}")
    tol = float(_arg(job, "--tol"))
    x1 = np.array([float(r[0]) for r in body])
    require(_close(x1[:, None], np.linspace(float(lo), float(hi), int(count))[:, None], STEP_RTOL),
            "x1 values are not the requested grid")
    flagged = 0
    for r in body:
        require(r[4] in ("true", "false"), f"bad flag {r[4]!r}")
        if r[4] == "true":
            flagged += 1
            continue
        x2_low, x2_high, width = float(r[1]), float(r[2]), float(r[3])
        require(0.0 <= x2_low < x2_high, f"unflagged bracket not ordered at x1={r[0]}")
        require(width <= tol, f"unflagged bracket wider than tol at x1={r[0]}")
    return Verdict(True, len(body), props={"flagged_lines": flagged})


def check_simulate(job: Job, out: str) -> Verdict:
    lines = out.splitlines()
    require(len(lines) >= 3, "simulate printed too little")
    theta = np.array(job.theta)
    n = theta.size
    rows = list(csv.reader(lines[:-1]))
    require(rows[0] == ["step"] + [f"x{k + 1}" for k in range(n)], "bad simulate header")
    traj = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    require([int(r[0]) for r in rows[1:]] == list(range(len(traj))), "step column not 0, 1, 2, ...")
    require(traj.shape[1] == n and 1 <= len(traj) <= int(_arg(job, "--steps")) + 1, "bad trajectory shape")
    x0 = np.array([float(v) for v in _arg(job, "--x0").split(",")])
    require(_close(traj[:1], x0[None, :], STEP_RTOL), "first row is not x0")
    require(_close(traj[1:], step(theta, traj[:-1]), STEP_RTOL), "a trajectory row is not H of the one before")
    m = FATE_LINE.fullmatch(lines[-1])
    require(m is not None, "fate line does not parse")
    require(m["outcome"] in OUTCOMES and m["evidence"] in EVIDENCE, "unknown fate outcome or evidence")
    final = np.array([float(v) for v in m["final"].split(",")])
    require(final.size == n, "final state has the wrong length")
    steps = int(m["steps"])
    if steps < len(traj):
        require(_close(final[None, :], traj[steps][None, :], STEP_RTOL), "final state is not trajectory row steps_used")
    return Verdict(True, 1, props={"outcome": m["outcome"], "evidence": m["evidence"]})


def _parse_points(job: Job, out: str):
    n = len(job.theta)
    if _arg(job, "--format") == "json":
        recs = json.loads(out)["fixed_points"]
        masks = np.array([r["mask"] for r in recs], dtype=np.int64)
        coords = np.array([r["coords"] for r in recs], dtype=float).reshape(len(recs), n)
        eig = np.array([r["eigenvalues"] for r in recs], dtype=float).reshape(len(recs), n, 2)
        classes = [r["class"] for r in recs]
    else:
        rows = list(csv.reader(io.StringIO(out)))
        header = rows[0]
        require(header[:4] == ["mask", "support", "feasible", "residual"] and header[-1] == "class",
                "bad fixed-points header")
        require(len(header) == 5 + 3 * n, "fixed-points header has the wrong width")
        body = rows[1:]
        masks = np.array([int(r[0]) for r in body], dtype=np.int64)
        values = np.array([[float(v) for v in r[4:-1]] for r in body], dtype=float).reshape(len(body), 3 * n)
        coords = values[:, :n]
        eig = values[:, n:].reshape(len(body), n, 2)
        classes = [r[-1] for r in body]
    return masks, coords, eig[..., 0] + 1j * eig[..., 1], classes


def check_fixed_points(job: Job, out: str) -> Verdict:
    theta = np.array(job.theta)
    n = theta.size
    masks, coords, eig, classes = _parse_points(job, out)
    count = 1 << n
    require(len(masks) == count, f"{len(masks)} fixed points, expected 2^{n}")
    require(np.array_equal(np.sort(masks), np.arange(count)), "masks are not 0 .. 2^n - 1")
    bits = (masks[:, None] >> np.arange(n)) & 1
    require(bool(np.all(coords[bits == 0] == 0.0)), "nonzero coordinate outside a support")
    residual = np.max(np.abs(step(theta, coords) - coords), axis=1)
    scale = np.maximum(1.0, np.max(np.abs(coords), axis=1))
    require(bool(np.all(residual <= RESIDUAL_RTOL * scale)), "relative residual above 1e-9")
    nonzero = masks != 0
    require(bool(np.all(np.min(np.abs(eig[nonzero] - 2.0), axis=1) <= EIG_TWO_TOL)),
            "a nonzero fixed point lacks the eigenvalue 2")
    attracting = np.array([c == "attracting" for c in classes])
    require(np.array_equal(attracting, ~nonzero), "attracting is not exactly the origin")
    return Verdict(True, count)


def check_verify(job: Job, out: str) -> Verdict:
    payload = json.loads(out)
    trials = int(_arg(job, "--trials"))
    require(payload["n"] == int(_arg(job, "--n")) and payload["trials"] == trials, "wrong sweep size")
    require(payload["passed"] is True and len(payload["checks"]) > 0, "verification did not pass")
    for c in payload["checks"]:
        require(c["worst"] <= c["tolerance"], f"{c['name']}: worst {c['worst']!r} above tolerance")
    return Verdict(True, trials)


CHECKS = {
    "basin": check_basin,
    "simulate": check_simulate,
    "fixed-points": check_fixed_points,
    "verify": check_verify,
}


def check(job: Job, code: int, out: str) -> Verdict:
    """Verdict on one job from its exit code and captured stdout."""
    if code != 0:
        return Verdict(False, reason=f"exit code {code}")
    try:
        return CHECKS[job.argv[0]](job, out)
    except CheckFailed as exc:
        return Verdict(False, reason=str(exc))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return Verdict(False, reason=f"unparseable output: {type(exc).__name__}: {exc}")
