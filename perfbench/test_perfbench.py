"""Self-test of the benchmark at toy sizes: one job per workload, tracing
off and on, plus the checks against deliberately corrupted output.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import harness  # noqa: E402
import jobs  # noqa: E402
import spans  # noqa: E402
import qdyn.cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def toy(workload: str) -> jobs.Job:
    return jobs.toy_jobs()[workload][0]


def output_of(job: jobs.Job) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert qdyn.cli.main(list(job.argv)) == 0
    return out.getvalue()


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_toy_job_passes_untraced(workload):
    tally = harness.Tally()
    harness.run_job(qdyn.cli.main, toy(workload), tally)
    assert (tally.attempted, tally.failed) == (1, 0), tally.reasons
    assert tally.items > 0
    assert spans.installed() == []


def test_csv_fixed_points_pass():
    job = jobs.fixed_points_job((0.5, 0.7, 1.1, 2.3), "csv")
    assert checks.check(job, 0, output_of(job)) == checks.Verdict(True, 16)


def test_traced_toy_jobs_report_every_layer_metric_and_uninstall():
    tracer = spans.Tracer()
    tally = harness.Tally()
    with spans.traced(tracer):
        assert spans.installed()
        main = tracer.wrap(spans.ROOT, qdyn.cli.main)
        for workload in jobs.WORKLOADS:
            harness.run_job(main, toy(workload), tally)
    assert spans.installed() == []
    assert tally.failed == 0, tally.reasons
    metrics = spans.layer_metrics(tracer, tally.bytes_out, 1.0)
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {k: unit for k, (_, unit) in metrics.items()}
    assert metrics["cli.main.calls"][0] == len(jobs.WORKLOADS)
    assert metrics["verify.trials"][0] == 2
    assert metrics["dynamics.basin.lines"][0] == 2
    for name in ("dynamics.fate.calls", "dynamics.iterate.calls", "stability.eig2.calls", "model.apply.calls",
                 "model.jacobian.calls", "fixed_points.for_support.calls"):
        assert metrics[name][0] > 0, name
    # Self time never exceeds duration, and children nest inside parents.
    table = tracer.table()
    assert all(0.0 <= row["self_s"] <= row["s"] + 1e-9 for row in table.values())


def _corrupt_fates(out: str) -> str:
    lines = out.splitlines()
    cells = lines[2].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-9))
    lines[2] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _corrupt_boundary(out: str) -> str:
    lines = out.splitlines()
    x1, low, high, width, flagged = lines[1].split(",")
    lines[1] = ",".join((x1, high, low, width, "false"))
    return "\n".join(lines) + "\n"


def _corrupt_spectra(out: str) -> str:
    payload = json.loads(out)
    payload["fixed_points"][3]["class"] = "attracting"
    return json.dumps(payload)


def _corrupt_verify(out: str) -> str:
    payload = json.loads(out)
    payload["checks"][0]["worst"] = 2 * payload["checks"][0]["tolerance"] + 1.0
    return json.dumps(payload)


CORRUPT = {
    "boundary": _corrupt_boundary,
    "fates": _corrupt_fates,
    "spectra": _corrupt_spectra,
    "verify": _corrupt_verify,
}


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_corrupted_output_sets_failed_frac(workload):
    def corrupting_main(argv):
        code = qdyn.cli.main(argv)
        real = sys.stdout.getvalue()
        sys.stdout.seek(0)
        sys.stdout.truncate()
        sys.stdout.write(CORRUPT[workload](real))
        return code

    tally = harness.Tally()
    harness.run_job(qdyn.cli.main, toy(workload), tally)
    harness.run_job(corrupting_main, toy(workload), tally)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_exit_code_and_exception_are_failures():
    tally = harness.Tally()

    def raising(argv):
        raise RuntimeError("boom")

    harness.run_job(lambda argv: 2, toy("fates"), tally)
    harness.run_job(raising, toy("fates"), tally)
    assert tally.failed == 2
    assert any("RuntimeError" in reason for reason in tally.reasons)


def test_second_pass_must_repeat_the_first_and_times_are_scaled():
    calls = []

    def drifting_main(argv):
        calls.append(argv)
        code = qdyn.cli.main(argv)
        if len(calls) > 1:  # the second pass prints one byte more
            print()
        return code

    block = [toy("fates")]
    tally = harness.run_loop(drifting_main, iter([block]), 0.0, 1, harness.Tally(), passes=2)
    assert (len(calls), tally.attempted, tally.failed) == (2, 1, 1)
    assert any("pass 2 output differs" in reason for reason in tally.reasons)

    tally = harness.run_loop(qdyn.cli.main, iter([block]), 0.0, 1, harness.Tally(), passes=2)
    assert (tally.attempted, tally.failed) == (1, 0)
    scale = harness.SMALL.base_ms / tally.reference_ms
    assert tally.times[0] == pytest.approx(tally.wall_times[0] * scale, rel=0.5)


def test_boundary_blocks_are_stratified():
    block = next(jobs.blocks("boundary", 11))
    for regime in jobs.REGIMES:
        r2 = sorted(j.theta[1] for j in block if j.props["regime"] == regime)
        strata = [int((v - 0.3) / 1.2 * len(r2)) for v in r2]
        assert strata == list(range(len(r2)))


def test_generator_is_seeded_with_a_fixed_mix():
    first = [next(jobs.blocks(w, 5)) for w in jobs.WORKLOADS]
    again = [next(jobs.blocks(w, 5)) for w in jobs.WORKLOADS]
    other = [next(jobs.blocks(w, 6)) for w in jobs.WORKLOADS]
    assert [[j.argv for j in b] for b in first] == [[j.argv for j in b] for b in again]
    assert all([j.argv for j in a] != [j.argv for j in b] for a, b in zip(first, other))
    spectra_a, spectra_b = first[2], other[2]
    assert sorted((len(j.theta), j.props["format"]) for j in spectra_a) == \
        sorted((len(j.theta), j.props["format"]) for j in spectra_b)
    for job in first[1]:  # fates: repr round-trips and the start lies between the critical scales
        theta = [float(v) for v in job.argv[2].split(",")]
        x0 = [float(v) for v in job.argv[4].split(",")]
        assert tuple(theta) == job.theta
        lo, hi = jobs.critical_scales(jobs.np.array(theta), jobs.np.array(x0) / sum(x0))
        assert lo * (1 - 1e-12) <= sum(x0) <= hi * (1 + 1e-12)
    regimes = [j.props["regime"] for j in first[0]]
    assert {r: regimes.count(r) for r in jobs.REGIMES} == dict.fromkeys(jobs.REGIMES, len(jobs.BOUNDARY_LINES))


@pytest.mark.parametrize("trace", [False, True])
def test_full_run_reports_the_declared_metrics(trace, monkeypatch):
    if not trace:
        def refuse(tracer):
            raise AssertionError("an untraced run installed tracing")

        monkeypatch.setattr(spans, "traced", refuse)
    record = harness.run("fates", 3, 0.01, trace, ROOT, min_jobs=1, setup_repeats=1)
    result = record["result"]
    section = "per_layer" if trace else "end_to_end"
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    assert all(m["value"] >= 0 for m in result["metrics"].values())
    assert spans.installed() == []


def test_run_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fates", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
