"""Closed-loop harness: one client in one process runs CLI jobs back to back.

Each job calls `qdyn.cli.main(argv)` in-process with stdout and stderr
captured, and the next job starts only after the previous one has returned.
Only the `main` call is timed; output checks, the reference work that
scales job times and bookkeeping run between the timed regions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import checks
import jobs
import spans

MIN_JOBS = 100  # so that at least ten job times lie beyond the p90
# Stop measuring past this much wall time, whatever the job count, so that a
# much slower program still ends the run well within its time limit.
WALL_CAP_S = 120.0
SETUP_REPEATS = 9
PASSES = 2  # timed passes over the job list; a job's time is its fastest pass
REF_WINDOW = 6  # reference runs on each side of a call that set its local host speed
SETUP_CODE = "import qdyn, qdyn.cli; qdyn.cli.build_parser(); print(qdyn.__file__)"


@dataclass
class Tally:
    """What a run over jobs measured."""

    times: list[float] = field(default_factory=list)
    wall_times: list[float] = field(default_factory=list)
    reference_ms: float = math.nan
    items: int = 0
    failed: int = 0
    bytes_out: int = 0
    reasons: Counter = field(default_factory=Counter)
    props: Counter = field(default_factory=Counter)
    by_kind: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.times)


@dataclass
class Outcome:
    """One timed `main` call and, on a checked call, the check of its output."""

    elapsed: float
    code: int | None
    digest: str  # of stdout
    bytes_out: int
    stderr: str
    verdict: checks.Verdict | None = None


def execute(main, job: jobs.Job, check: bool = True) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    reason = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(list(job.argv))
        except Exception as exc:  # a raising job is a failed job, not a crashed run
            code = None
            reason = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    text = out.getvalue()
    outcome = Outcome(elapsed, code, hashlib.sha1(text.encode()).hexdigest(), len(text.encode()), err.getvalue())
    if check:
        outcome.verdict = checks.check(job, code, text) if reason is None else checks.Verdict(False, reason=reason)
    return outcome


def record(job: jobs.Job, outcome: Outcome, tally: Tally, seconds: float | None = None) -> None:
    """Count one job into the tally, with `seconds` as its time (default: the call's wall time)."""
    verdict = outcome.verdict
    seconds = outcome.elapsed if seconds is None else seconds
    tally.times.append(seconds)
    tally.by_kind.setdefault(job.kind, []).append(seconds)
    tally.bytes_out += outcome.bytes_out
    if verdict.ok:
        tally.items += verdict.items
    else:
        tally.failed += 1
        tally.reasons[f"{job.argv[0]}: {verdict.reason} {outcome.stderr.strip()[:200]}".strip()] += 1
    for key, value in {**job.props, **verdict.props}.items():
        if isinstance(value, str):
            tally.props[f"{key}={value}"] += 1
        else:
            tally.props[key] += value


def run_job(main, job: jobs.Job, tally: Tally) -> None:
    record(job, execute(main, job), tally)


def small_numpy_work() -> None:
    """Small numpy operations and integer arithmetic in a Python loop, like
    one step of the map or one bisection probe."""
    x, r = np.linspace(0.1, 1.0, 6), np.linspace(0.5, 1.5, 6)
    for _ in range(150):
        y = 0.5 * r * x * (x + 2.0 * (x.sum() - x))
        float(y.max()) + sum(v * v for v in range(20))


MATRICES = np.random.default_rng(0).uniform(size=(64, 10, 10))


def spectra_work() -> None:
    """Dense eigenvalues of a stack of small matrices, written out as JSON and
    as CSV text, like a fixed-points job."""
    values = np.linalg.eigvals(MATRICES)
    json.dumps([{"index": i, "eigenvalues": [[float(v.real), float(v.imag)] for v in row]}
                for i, row in enumerate(values)])
    "\n".join(",".join(repr(float(v)) for v in row.real) for row in values)


class Reference(NamedTuple):
    """Fixed work timed between jobs, and its typical time there on the
    2-core x86-64 host the benchmark was tuned on: job times are reported at
    the host speed where the work takes `base_ms`."""

    work: Callable[[], None]
    base_ms: float

    def seconds(self) -> float:
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start


# Contention from other tenants slows memory-heavy jobs more than
# interpreter-bound ones, so each workload is scaled by work of its own kind.
SMALL = Reference(small_numpy_work, 2.0)
REFERENCES = {"spectra": Reference(spectra_work, 5.0)}


def run_loop(main, blocks, seconds: float, min_jobs: int, tally: Tally, passes: int = PASSES,
             reference: Reference = SMALL) -> Tally:
    """Measure whole blocks for about `seconds`, in `passes` passes over one job list.

    The first pass runs blocks until it has used its share of `seconds` and
    holds at least `min_jobs` jobs, and checks every output.  The later
    passes rerun the same jobs, backward and forward in turn, so that the
    passes of one job lie seconds apart; each output must equal the first
    pass's byte for byte.

    On a shared host, other tenants slow everything down, in bursts and in
    phases that last minutes.  Two things keep that out of the job times.
    The `reference` work runs before every job and after the last, and each
    job's wall time is scaled by `reference.base_ms` over the median
    reference time of the REF_WINDOW runs on each side of it.  And a job's
    time is its fastest pass.  The raw wall times of the fastest passes go
    to `tally.wall_times`.
    """
    start = time.perf_counter()
    chosen: list[jobs.Job] = []
    best: list[Outcome] = []
    runs: list[tuple[int, float]] = []  # (index in chosen, wall seconds) in the order run
    ref = [reference.seconds()]

    def timed(i: int, check: bool) -> Outcome:
        outcome = execute(main, chosen[i], check)
        runs.append((i, outcome.elapsed))
        ref.append(reference.seconds())
        return outcome

    for block in blocks:
        block_start = time.perf_counter()
        for job in block:
            chosen.append(job)
            best.append(timed(len(chosen) - 1, True))
        used = passes * (time.perf_counter() - start)
        # Stop where the run comes closest to `seconds`: now, or after one more block.
        half_block = passes * (time.perf_counter() - block_start) / 2
        if (used + half_block >= seconds and len(chosen) >= min_jobs) or used > WALL_CAP_S:
            break
    for index in range(1, passes):
        for i in (reversed(range(len(chosen))) if index % 2 else range(len(chosen))):
            outcome = timed(i, False)
            kept = best[i]
            if kept.verdict.ok and (outcome.code, outcome.digest) != (kept.code, kept.digest):
                outcome.verdict = checks.Verdict(False, reason=f"pass {index + 1} output differs from pass 1")
                best[i] = outcome
    scaled = [math.inf] * len(chosen)
    wall = [math.inf] * len(chosen)
    for k, (i, elapsed) in enumerate(runs):
        local = statistics.median(ref[max(0, k + 1 - REF_WINDOW):k + 1 + REF_WINDOW])
        scaled[i] = min(scaled[i], elapsed * reference.base_ms / (1e3 * local))
        wall[i] = min(wall[i], elapsed)
    tally.reference_ms = 1e3 * statistics.median(ref)
    for job, outcome, job_s, wall_s in zip(chosen, best, scaled, wall):
        record(job, outcome, tally, job_s)
        tally.wall_times.append(wall_s)
    return tally


def leading_jobs(blocks, min_jobs: int) -> list[jobs.Job]:
    """Jobs of the fewest leading blocks that hold at least `min_jobs` jobs."""
    out: list[jobs.Job] = []
    for block in blocks:
        out += block
        if len(out) >= min_jobs:
            break
    return out


def setup_seconds(root: Path, repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall time for a fresh interpreter to import qdyn.cli and build its parser."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or not Path(proc.stdout.strip()).is_relative_to(root / "src"):
            raise RuntimeError(f"set-up interpreter did not import qdyn from {root / 'src'}: {proc.stderr[-500:]}")
    return times


def p50_p90(times: list[float]) -> tuple[float, float]:
    deciles = statistics.quantiles(times, n=10)
    return statistics.median(times), deciles[8]


def environment(root: Path) -> dict:
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "QDYN_LOG": os.environ.get("QDYN_LOG"),
        "git_sha": sha,
        "machine": platform.machine(),
    }


def shares(tally: Tally) -> dict[str, float]:
    """Share of jobs with each `key=value` property; a counted property such
    as flagged_lines is a share of the items."""
    out = {}
    for key, count in sorted(tally.props.items()):
        den = tally.attempted if "=" in key else tally.items
        out[key] = count / den if den else 0.0
    return out


def warm_up(main, workload: str) -> None:
    """Load lazily initialised code paths before timing; results are discarded."""
    for job in jobs.toy_jobs()[workload]:
        run_job(main, job, Tally())


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        min_jobs: int = MIN_JOBS, setup_repeats: int = SETUP_REPEATS) -> dict:
    import qdyn.cli

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(root)}
    blocks = jobs.blocks(workload, seed)
    if not trace:
        setup = setup_seconds(root, setup_repeats)
        warm_up(qdyn.cli.main, workload)
        tally = run_loop(qdyn.cli.main, blocks, seconds, min_jobs, Tally(),
                         reference=REFERENCES.get(workload, SMALL))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        p50, p90 = p50_p90(tally.times)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "items_per_s": (tally.items / sum(tally.times), "items/s"),
            "job_p50_ms": (1e3 * p50, "ms"),
            "job_p90_ms": (1e3 * p90, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        wall_p50, wall_p90 = p50_p90(tally.wall_times)
        record["wall_clock"] = {"items_per_s": tally.items / sum(tally.wall_times), "job_p50_ms": 1e3 * wall_p50,
                                "job_p90_ms": 1e3 * wall_p90, "reference_ms": tally.reference_ms}
        record["setup_samples_s"] = setup
        passes = [tally]
    else:
        # A fixed job list, so that every count repeats exactly for a seed.
        # Each job runs untraced and traced back to back, in alternating
        # order, so that both see the same machine and the ratio of the two
        # medians is the cost of tracing alone.
        warm_up(qdyn.cli.main, workload)
        tracer = spans.Tracer()
        main = tracer.wrap(spans.ROOT, qdyn.cli.main)
        plain, traced = Tally(), Tally()
        wall_end = time.perf_counter() + WALL_CAP_S
        for index, job in enumerate(leading_jobs(blocks, min_jobs)):
            tracer.current_job = index
            for tracing in ((False, True) if index % 2 == 0 else (True, False)):
                if tracing:
                    with spans.traced(tracer):
                        run_job(main, job, traced)
                else:
                    run_job(qdyn.cli.main, job, plain)
            if time.perf_counter() > wall_end:
                break
        leaked = spans.installed()
        if leaked:
            raise RuntimeError(f"tracing wrappers left installed: {leaked}")
        ratio = p50_p90(traced.times)[0] / p50_p90(plain.times)[0]
        metrics = spans.layer_metrics(tracer, traced.bytes_out, ratio)
        # Per-job noise on this kind of machine can exceed the cost of
        # tracing; the median of paired ratios is the steadier estimate.
        record["overhead_paired_median"] = statistics.median(t / p for t, p in zip(traced.times, plain.times))
        record["spans"] = len(tracer.name_id)
        record["layers"] = tracer.table()
        record["spans_file"] = str(write_spans(root, tracer, workload, seed))
        tally = plain
        passes = [plain, traced]

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    record.update({
        "jobs": tally.attempted,
        "items": tally.items,
        "job_seconds": sum(tally.times),
        "failed_frac": failed / attempted,
        "failure_reasons": dict(sum((p.reasons for p in passes), Counter())),
        "shares": shares(tally),
        "job_ms_by_kind": {kind: {"jobs": len(t), "p50": 1e3 * statistics.median(t)}
                           for kind, t in sorted(tally.by_kind.items())},
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })
    record["result"] = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                        "metrics": record["metrics"]}
    return record


def out_dir(root: Path) -> Path:
    path = root / "perfbench" / "out"
    path.mkdir(exist_ok=True)
    return path


def write_spans(root: Path, tracer: spans.Tracer, workload: str, seed: int) -> Path:
    path = out_dir(root) / f"spans-{workload}-seed{seed}.npz"
    tracer.save(path)
    return path
