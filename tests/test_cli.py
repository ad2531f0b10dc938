import contextlib
import csv
import io
import json
import logging
import math
import re
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdyn import (TAU_UNIT, DomainError, Rates, basin_boundary, classify, classify_fate, enumerate_fixed_points, jacobian,
                  spectrum_at)
from qdyn import dynamics, stability
from qdyn.cli import _csv_rows, _in_stacks, _json_records, _parse, build_parser, main
from qdyn.dynamics import _fates
from qdyn.fixed_points import _all_supports, _points
from qdyn.stability import StabilityTag
from qdyn.verify import verification_sweep


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFixedPointsCommand:
    def test_four_records_with_saddle_interior(self, capsys):
        code, out, _ = run_cli(capsys, "fixed-points", "--theta", "0.4,0.6")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["fixed_points"]) == 4
        interior = payload["fixed_points"][3]
        assert interior["class"] == "saddle"
        assert interior["support"] == [1, 1]

    def test_symmetric_triple_all_feasible(self, capsys):
        code, out, _ = run_cli(capsys, "fixed-points", "--theta", "1,1,1")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["fixed_points"]) == 8
        assert all(rec["feasible"] for rec in payload["fixed_points"])

    def test_single_rate_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "fixed-points", "--theta", "0.4")
        assert code == 2
        assert "n must be >= 2" in err

    def test_json_roundtrip_full_precision(self, capsys):
        _, out, _ = run_cli(capsys, "fixed-points", "--theta", "0.4,0.6")
        payload = json.loads(out)
        expected = enumerate_fixed_points(Rates([0.4, 0.6]))
        for rec, fp in zip(payload["fixed_points"], expected):
            assert rec["coords"] == list(fp.coords)

    def test_csv_has_header_and_rows(self, capsys):
        code, out, _ = run_cli(capsys, "fixed-points", "--theta", "0.4,0.6", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("mask,support,feasible,residual,x1,x2,eig1_re")
        assert len(lines) == 5

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "fixed-points", "--theta", "0.7,1.3")
        _, second, _ = run_cli(capsys, "fixed-points", "--theta", "0.7,1.3")
        assert first == second

    @pytest.mark.parametrize(
        "argv",
        [("fixed-points", "--theta", "0.4,0.6,1.1"), ("classify", "--theta", "0.4,0.6,1.1", "--support", "1,0,1")],
    )
    def test_one_jacobian_stack_per_call(self, capsys, monkeypatch, argv):
        from qdyn import model, stability

        stacks = []

        def counted(rates, x):
            stacks.append(x.shape)
            return model.jacobian(rates, x)

        monkeypatch.setattr(stability, "jacobian", counted)
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert stacks == [(8 if argv[0] == "fixed-points" else 1, 3)]

    def test_large_tables_are_stacked_in_slices(self, capsys, monkeypatch):
        # _STACK_ROWS sets both the Jacobian stacks and the slices the table
        # is written in; the text across slice edges is the one-stack text
        from qdyn import model, stability

        stacks = []

        def counted(rates, x):
            stacks.append(len(x))
            return model.jacobian(rates, x)

        runs = [(argv, fmt) for argv in (("fixed-points", "--theta", "0.4,0.6,1.1"),
                                         ("classify", "--theta", "0.4,0.6,1.1", "--support", "1,0,1"))
                for fmt in ("csv", "json")]
        wholes = [run_cli(capsys, *argv, "--format", fmt)[1] for argv, fmt in runs]
        monkeypatch.setattr(stability, "jacobian", counted)
        monkeypatch.setattr(stability, "_STACK_ROWS", 3)
        for (argv, fmt), whole in zip(runs, wholes):
            stacks.clear()
            _, sliced, _ = run_cli(capsys, *argv, "--format", fmt)
            assert stacks == ([3, 3, 2] if argv[0] == "fixed-points" else [1])
            assert sliced == whole

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_error_in_a_later_stack_leaves_stdout_empty(self, capsys, fmt):
        # the first 4096 supports leave out the 1e-300 rate and solve; the
        # second stack's Jacobians overflow, r1 x13 = 1e300 * 2e300
        rates = Rates([1e300, *[1.0] * 11, 1e-300])
        coords, _, _ = _points(rates.values, _all_supports(rates.n))
        assert np.isfinite(jacobian(rates, coords[:4096])).all()
        code, out, err = run_cli(capsys, "fixed-points", "--theta", "1e300,1,1,1,1,1,1,1,1,1,1,1,1e-300", "--format", fmt)
        assert code == 2
        assert out == ""
        assert err.startswith("error: eigenvalue iteration failed") and err.count("\n") == 1

    def test_streamed_table_peak_memory(self):
        # the n = 16 JSON table is 65,536 records, about 100 MB of text; written
        # one stack at a time, the process peaks far below that plus its numbers
        theta = ",".join(map(repr, np.random.default_rng(5).uniform(0.1, 3.0, 16).tolist()))
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        env.pop("QDYN_LOG", None)
        # a fresh parent, so that RUSAGE_CHILDREN sees this one child only
        probe = (
            "import resource, subprocess, sys; "
            "proc = subprocess.run([sys.executable, '-m', 'qdyn.cli', 'fixed-points', '--theta', sys.argv[1]], "
            "stdout=subprocess.DEVNULL); "
            "print(proc.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
        )
        proc = subprocess.run([sys.executable, "-c", probe, theta], capture_output=True, text=True, env=env, check=True)
        code, peak_kb = map(int, proc.stdout.split())
        assert code == 0
        assert peak_kb < 150 * 1024


class TestClassifyCommand:
    def test_selected_support(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--theta", "1,1,1", "--support", "1,0,1")
        assert code == 0
        payload = json.loads(out)
        (rec,) = payload["fixed_points"]
        np.testing.assert_allclose(rec["coords"], [2.0 / 3.0, 0.0, 2.0 / 3.0])
        assert rec["class"] == "saddle"

    def test_support_past_the_64th_coordinate(self, capsys):
        theta = ",".join(["1"] * 70)
        bits = ",".join(["1"] + ["0"] * 68 + ["1"])
        code, out, _ = run_cli(capsys, "classify", "--theta", theta, "--support", bits)
        assert code == 0
        (rec,) = json.loads(out)["fixed_points"]
        assert rec["mask"] == rec["index"] == 2**69 + 1
        np.testing.assert_allclose([rec["coords"][0], rec["coords"][69]], [2.0 / 3.0, 2.0 / 3.0], rtol=1e-15)
        assert rec["class"] == "saddle"

    @pytest.mark.parametrize("bits", ["nan,1", "inf,1", "0.7,0.4", "1.0,0", "2,1", "1,", " 1,0"])
    def test_support_accepts_only_literal_bits(self, capsys, bits):
        code, out, err = run_cli(capsys, "classify", "--theta", "1,1", "--support", bits)
        assert code == 2
        assert out == "" and err.startswith("error: --support") and err.count("\n") == 1

    def test_support_length_mismatch(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--theta", "1,1", "--support", "1,0,1")
        assert code == 2
        assert "support" in err


class TestSimulateCommand:
    def test_collapse_fate(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--theta", "1,1", "--x0", "0.1,0.1", "--steps", "50")
        assert code == 0
        assert out.splitlines()[0] == "step,x1,x2"
        assert "fate=to_origin" in out

    def test_escape_fate(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--theta", "1,1", "--x0", "2,2", "--steps", "50")
        assert code == 0
        assert "fate=to_infinity" in out

    def test_fixed_point_start_is_constant(self, capsys):
        x0 = "0.6666666666666666,0.6666666666666666"
        code, out, _ = run_cli(capsys, "simulate", "--theta", "1,1", "--x0", x0, "--steps", "10")
        assert code == 0
        assert "fate=to_fixed_point" in out
        rows = [line.split(",") for line in out.splitlines()[1:12]]
        values = np.array([[float(v) for v in row[1:]] for row in rows])
        assert np.max(np.abs(values - 2.0 / 3.0)) <= 1e-6

    def test_seven_digit_start_stays_near_constant(self, capsys):
        # not exactly fixed: the 3.3e-8 offset doubles per step (multiplier
        # 2 at the interior point), so rows stay within 1e-6 up to step 4
        code, out, _ = run_cli(capsys, "simulate", "--theta", "1,1", "--x0", "0.6666667,0.6666667", "--steps", "4")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:6]]
        values = np.array([[float(v) for v in row[1:]] for row in rows])
        assert np.max(np.abs(values - 2.0 / 3.0)) <= 1e-6

    def test_dimension_mismatch(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--theta", "1,1", "--x0", "1,2,3")
        assert code == 2
        assert "length" in err

    @pytest.mark.parametrize("steps", ["1000000000000000", "10000000000000000000"])
    def test_unallocatable_step_count_is_one_line_usage_error(self, capsys, steps):
        # 1e15 rows is 14 PiB, past any address space (numpy's MemoryError);
        # 1e19 is past numpy's array size limit.  The start escapes in four
        # steps, so no test here can allocate the trajectory for real.
        code, out, err = run_cli(capsys, "simulate", "--theta", "1,1", "--x0", "5,5", "--steps", steps)
        assert code == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--theta", "1,1", "--x0", "0.1,0.1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["fate"]["outcome"] == "to_origin"

    @pytest.mark.parametrize("n", [21, 32, 70])
    def test_any_dimension_reaches_the_interior_point(self, capsys, n):
        # no enumeration cap on fates; the mask is printed as an exact int
        x0 = ",".join([repr(2.0 / (2 * n - 1))] * n)
        code, out, err = run_cli(capsys, "simulate", "--theta", ",".join(["1"] * n), "--x0", x0, "--steps", "2")
        assert code == 0 and err == ""
        assert f"fate=to_fixed_point steps_used=0 evidence=fixed_point_proximity fixed_point_index={2**n - 1} " in out

    @pytest.mark.parametrize("steps, calls", [("100", 0), ("16", 0), ("15", 1), ("0", 1)])
    def test_the_kernel_steps_only_a_fate_past_the_trajectory(self, capsys, monkeypatch, steps, calls):
        # this start escapes at state 16: a trajectory of 16 steps shows the fate
        made = []
        monkeypatch.setattr(dynamics, "_fates", lambda *args: made.append(args) or _fates(*args))
        code, out, _ = run_cli(capsys, "simulate", "--theta", "0.4,0.6", "--x0", "1,1.653425181", "--steps", steps)
        assert code == 0 and "# fate=to_infinity steps_used=16 evidence=region_containment " in out
        assert len(made) == calls

    def test_an_overflowing_step_is_logged_by_the_trajectory_and_the_kernel(self, capsys, monkeypatch):
        # the first step overflows, so the trajectory ends before the fate
        monkeypatch.setattr(logging.getLogger("qdyn"), "handlers", [])
        monkeypatch.setenv("QDYN_LOG", "warning")
        code, out, err = run_cli(capsys, "simulate", "--theta", "1e-10,1e300", "--x0", "0,2e4")
        assert code == 0 and out.endswith("# fate=to_infinity steps_used=1 evidence=norm_threshold "
                                          "fixed_point_index=None final=0.0,20000.0\n")
        assert err == "qdyn.dynamics WARNING overflow step; orbit truncated at 1 states\n" * 2


class TestBasinCommand:
    def test_axis_anchor_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "basin", "--theta", "0.4,0.6", "--x1-range", "0:1:2", "--tol", "1e-6"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x1,x2_low,x2_high,width,flagged"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        midpoint = 0.5 * (float(first[1]) + float(first[2]))
        assert abs(midpoint - 10.0 / 3.0) <= 1e-4
        assert first[4] == "false"

    def test_lopsided_regime(self, capsys):
        code, out, _ = run_cli(
            capsys, "basin", "--theta", "0.8,0.2", "--x1-range", "0:0:1", "--tol", "1e-6"
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert 0.5 * (float(row[1]) + float(row[2])) == pytest.approx(10.0, abs=1e-4)

    @pytest.mark.parametrize("spec", ["0:inf:2", "nan:1:2", "1e308:-1e308:3"])
    def test_nonfinite_range_is_one_line_usage_error(self, capsys, spec):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "basin", "--theta", "1,1", "--x1-range", spec)
        assert code == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_unallocatable_range_is_one_line_usage_error(self, capsys):
        counts = [
            "100000000000000",  # numpy refuses the 728 TiB grid before allocating anything
            # at numpy's size limit linspace fails with other errors than
            # MemoryError (its arange rounds the count to a float, so the
            # first of them already fails at 2^60 - 64); the count bound 2^53
            # rejects them all
            "1152921504606846912",
            "2000000000000000000",
            "9223372036854775807",
            "100000000000000000000",
        ]
        for count in counts:
            code, out, err = run_cli(capsys, "basin", "--theta", "1,1", "--x1-range", f"0:1:{count}")
            assert code == 2, count
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, count

    def test_requires_two_rates(self, capsys):
        code, _, err = run_cli(capsys, "basin", "--theta", "1,1,1", "--x1-range", "0:1:2")
        assert code == 2
        assert "n = 2" in err

    def test_bad_range_spec(self, capsys):
        code, _, err = run_cli(capsys, "basin", "--theta", "1,1", "--x1-range", "0:1")
        assert code == 2
        assert "x1-range" in err

    def test_bad_range_is_reported_before_the_dimension(self, capsys):
        # basin_boundary owns the n = 2 rule, and the range is read first
        code, out, err = run_cli(capsys, "basin", "--theta", "1,1,1", "--x1-range", "0:1")
        assert code == 2
        assert out == "" and err == "error: --x1-range expects lo:hi:count, got '0:1'\n"
        code, out, err = run_cli(capsys, "basin", "--theta", "1,1,1", "--x1-range", "0:1:2")
        assert out == "" and err == "error: basin boundary requires n = 2, got n = 3\n"


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "3", "--trials", "25", "--seed", "7")
        assert code == 0
        assert "eigenvalue-2 residual" in out
        assert "all checks passed" in out

    def test_single_trial_summary(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--trials", "1", "--seed", "1")
        assert code == 0
        assert "eigenvalue-2 residual" in out

    def test_n_bounds(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "1", "--trials", "5")
        assert code == 2
        assert "2 <= n <= 12" in err

    def test_deterministic_for_seed(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--n", "2", "--trials", "10", "--seed", "3")
        _, second, _ = run_cli(capsys, "verify", "--n", "2", "--trials", "10", "--seed", "3")
        assert first == second

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--trials", "5", "--seed", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert len(payload["checks"]) == 6

    def test_seed_past_the_philox_key_range_is_usage_error(self, capsys, tmp_path):
        # exit 1 is kept for a failed verification
        cfg = tmp_path / "seed.json"
        cfg.write_text(json.dumps({"seed": 2**128}))
        for extra in (("--seed", str(2**128)), ("--config", str(cfg))):
            code, out, err = run_cli(capsys, "verify", "--n", "2", "--trials", "1", *extra)
            assert code == 2
            assert out == "" and err == f"error: seed must be in [0, 2^128), got {2**128}\n"

    def test_failure_exits_one_and_prints_theta(self, capsys, monkeypatch):
        from qdyn import cli as cli_module
        from qdyn.verify import CheckResult, VerificationSummary

        failing = VerificationSummary(
            n=2, trials=1, seed=0,
            checks=(CheckResult("eigenvalue-2 residual", 1.0, 1e-8, False, ("[0.1, 0.2]",)),),
        )
        monkeypatch.setattr(cli_module, "verification_sweep", lambda *a, **k: failing)
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--trials", "1")
        assert code == 1
        assert "offending theta: [0.1, 0.2]" in out
        assert "FAIL" in out

    def test_nan_metric_fails_its_check(self, capsys, monkeypatch):
        # a NaN metric is the worst of its check and fails it: nan in text, NaN in JSON
        from qdyn import verify

        def nan_residuals(stack):
            return np.full(stack.shape[:-2], np.nan)

        monkeypatch.setattr(verify, "_eig2_residuals", nan_residuals)
        name = "eigenvalue-2 residual |det(J - 2I)| / ||J||^n"
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--trials", "1")
        assert code == 1
        assert f"{name}: max = nan (tol 1.0e-08): FAIL\n  offending theta: " in out
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--trials", "1", "--format", "json")
        assert code == 1
        assert '"worst": NaN,' in out and json.loads(out)["passed"] is False


class TestConfigFile:
    def test_config_overrides_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"theta": [1.0, 1.0, 1.0]}))
        code, out, _ = run_cli(capsys, "fixed-points", "--theta", "0.4,0.6", "--config", str(cfg))
        assert code == 0
        assert len(json.loads(out)["fixed_points"]) == 8

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"thetas": [1.0, 1.0]}))
        code, _, err = run_cli(capsys, "fixed-points", "--theta", "1,1", "--config", str(cfg))
        assert code == 2
        assert "unknown config keys" in err

    def test_fate_thresholds_are_not_config_keys(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"eps_conv": 1e-12}))
        code, out, err = run_cli(capsys, "simulate", "--theta", "1,1", "--x0", "0.1,0.1", "--config", str(cfg))
        assert code == 2
        assert out == "" and err == "error: unknown config keys: ['eps_conv']\n"

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "fixed-points", "--theta", "1,1", "--config", "/nonexistent.json")
        assert code == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"budget": "10"}', '{"tau_unit": null}', '{"budget": true}', '{"budget": 10.0}',
            '{"seed": 1.5}', '{"bisect_tol": false}', '{"theta": [1, "2"]}', '{"theta": 2}',
            '{"format": 3}', '{"tau_unit": NaN}', '{"bisect_tol": 1' + "0" * 400 + '}', '[1, 2]', '{"budget":',
        ],
    )
    def test_bad_value_is_usage_error(self, capsys, tmp_path, text):
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        code, _, err = run_cli(capsys, "simulate", "--theta", "1,1", "--x0", "0.1,0.1", "--config", str(cfg))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"budget": "10"}', "budget must be an integer, got '10'"),
            ('{"seed": 1.5}', "seed must be an integer, got 1.5"),
            ('{"tau_unit": null}', "tol must be a number, got None"),
            ('{"bisect_tol": "1e-3"}', "tol must be a number, got '1e-3'"),
            ('{"theta": [1, "2"]}', "rates must be numbers, got [1, '2']"),
            ('{"theta": "1,1"}', "rates must be numbers, got '1,1'"),
        ],
    )
    def test_wrong_kind_fails_with_the_library_message(self, capsys, tmp_path, text, message):
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        code, out, err = run_cli(capsys, "simulate", "--theta", "1,1", "--x0", "0.1,0.1", "--config", str(cfg))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_integer_tolerance_prints_as_float(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"bisect_tol": 1}')
        code, out, _ = run_cli(capsys, "basin", "--theta", "0.4,0.6", "--x1-range", "0:1:2", "--format", "json",
                               "--config", str(cfg))
        assert code == 0
        assert '\n  "tol": 1.0,\n' in out

    def test_typed_values_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"theta": [1, 1], "budget": 5, "tau_unit": 1, "format": "json"}))
        code, out, _ = run_cli(capsys, "simulate", "--theta", "2,2", "--x0", "0.1,0.1", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["theta"] == [1.0, 1.0]


def write_config(tmp_path, settings) -> str:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(settings))
    return str(path)


class TestSettingsPath:
    VERIFY = ("verify", "--n", "2", "--trials", "2", "--seed", "4")

    def test_verify_format_from_config(self, capsys, tmp_path):
        _, flagged, _ = run_cli(capsys, *self.VERIFY, "--format", "json")
        code, configured, _ = run_cli(capsys, *self.VERIFY, "--config", write_config(tmp_path, {"format": "json"}))
        assert code == 0
        assert configured == flagged
        json.loads(configured)

    def test_verify_text_is_the_default(self, capsys):
        assert run_cli(capsys, *self.VERIFY, "--format", "text")[:2] == run_cli(capsys, *self.VERIFY)[:2]

    @pytest.mark.parametrize(
        "argv, fmt",
        [
            (VERIFY, "csv"),
            (("fixed-points", "--theta", "0.4,0.6"), "text"),
            (("simulate", "--theta", "1,1", "--x0", "0.1,0.1"), "text"),
        ],
    )
    def test_config_format_outside_the_command_is_usage_error(self, capsys, tmp_path, argv, fmt):
        code, out, err = run_cli(capsys, *argv, "--config", write_config(tmp_path, {"format": fmt}))
        assert code == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("fixed-points", "--theta", "0.4,0.6"),
            ("classify", "--theta", "1,1", "--support", "1,0"),
            VERIFY,
        ],
    )
    def test_budget_rejected_where_unused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--budget", "10")
        assert code == 2
        assert out == "" and "--budget" in err

    @pytest.mark.parametrize(
        "argv, tol, field",
        [
            (("fixed-points", "--theta", "0.4,0.6"), "0.5", "tau_unit"),
            (("classify", "--theta", "1,1,1", "--support", "1,0,1"), "0.5", "tau_unit"),
            (("basin", "--theta", "0.4,0.6", "--x1-range", "0:1:2"), "0.001", "bisect_tol"),
        ],
    )
    def test_tol_flag_matches_config_field(self, capsys, tmp_path, argv, tol, field):
        code, flagged, _ = run_cli(capsys, *argv, "--tol", tol)
        assert code == 0
        configured = run_cli(capsys, *argv, "--config", write_config(tmp_path, {field: float(tol)}))[1]
        assert configured == flagged
        assert run_cli(capsys, *argv)[1] != flagged  # the tolerance reached the output

    @pytest.mark.parametrize(
        "argv, flag, setting, library_call",
        [
            (("fixed-points", "--theta", "0.4,0.6"), ("--tol", "nan"), {"tau_unit": float("nan")},
             lambda: classify([0.5, 2.0], tol=float("nan"))),
            (("fixed-points", "--theta", "0.4,0.6"), ("--tol", "inf"), {"tau_unit": float("inf")},
             lambda: classify([0.5, 2.0], tol=float("inf"))),
            (("basin", "--theta", "0.4,0.6", "--x1-range", "0:1:2"), ("--tol", "inf"), {"bisect_tol": float("inf")},
             lambda: basin_boundary(Rates([0.4, 0.6]), [1.0], tol=float("inf"))),
            (("simulate", "--theta", "1,1", "--x0", "0.1,0.1"), ("--budget", "0"), {"budget": 0},
             lambda: classify_fate(Rates([1, 1]), [0.1, 0.1], 0)),
            (VERIFY[:5], ("--seed", "-1"), {"seed": -1}, lambda: verification_sweep(2, 2, -1)),
            (("simulate", "--x0", "0.1,0.1"), ("--theta", "1,-1"), {"theta": [1, -1]}, lambda: Rates([1, -1])),
            # the command's formats are the CLI's own rule, with no library call
            (("simulate", "--theta", "1,1", "--x0", "0.1,0.1"), ("--format", "xml"), {"format": "xml"}, None),
        ],
        ids=["tau_unit", "tau_unit=inf", "bisect_tol=inf", "budget", "seed", "theta", "format"],
    )
    def test_flag_and_config_key_fail_alike(self, capsys, tmp_path, argv, flag, setting, library_call):
        # one check per setting, whichever way the value arrives, and the
        # library raises the CLI's message
        flagged = run_cli(capsys, *argv, *flag)
        configured = run_cli(capsys, *argv, "--config", write_config(tmp_path, setting))
        assert flagged == configured
        code, out, err = flagged
        assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1
        if library_call is not None:
            with pytest.raises(DomainError) as raised:
                library_call()
            assert f"error: {raised.value}\n" == err


class TestCountRules:
    """A budget and a trials count below 1 fail with one message, whether the
    library or the CLI is given them; numpy counts are accepted
    (test_budget_accepts_numpy_integers, test_numpy_integers_are_integers)."""

    def test_budget_below_one(self, capsys, tmp_path):
        with pytest.raises(DomainError, match=r"^budget must be >= 1, got 0$"):
            classify_fate(Rates([1, 1]), [0.1, 0.1], 0)
        argv = ("simulate", "--theta", "1,1", "--x0", "0.1,0.1")
        for extra in (("--budget", "0"), ("--config", write_config(tmp_path, {"budget": 0}))):
            assert run_cli(capsys, *argv, *extra) == (2, "", "error: budget must be >= 1, got 0\n")

    def test_trials_below_one(self, capsys):
        with pytest.raises(DomainError, match=r"^trials must be >= 1, got 0$"):
            verification_sweep(2, 0, 0)
        assert run_cli(capsys, "verify", "--n", "3", "--trials", "0") == (2, "", "error: trials must be >= 1, got 0\n")


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_top_level_help_is_for_users(self, capsys):
        # the module docstring's implementation notes stay out of --help
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        for note in ("Handlers print nothing", "json.dumps(payload", "subparser"):
            assert note not in out
        assert "fixed-points, classify, simulate, basin and verify" in " ".join(out.split())
        assert "Exit codes" in out and "QDYN_LOG" in out

    def test_bad_theta_literal(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "fixed-points", "--theta", "a,b")
        assert code == 2
        assert "comma-separated" in err
        # the flag is read before --config replaces it
        cfg = write_config(tmp_path, {"theta": [1.0, 1.0]})
        code, out, err = run_cli(capsys, "fixed-points", "--theta", "a,b", "--config", cfg)
        assert code == 2
        assert out == "" and "comma-separated" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--theta", "1,1e-309", "--x0", "0.1,0.1"),
            ("basin", "--theta", "1e308,1e-308", "--x1-range", "0:1:2"),
            ("basin", "--theta", "1e308,1e-308", "--x1-range", "0:1:2", "--format", "json"),
        ],
    )
    def test_rates_too_small_for_finite_fixed_points(self, capsys, argv):
        # 2/r_k is inf or near it: no fate or bracket may be reported
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == "" and err.startswith("error: rates too small") and err.count("\n") == 1

    def test_zero_tolerance_rejected(self, capsys):
        code, _, err = run_cli(capsys, "basin", "--theta", "1,1", "--x1-range", "0:1:2", "--tol", "0")
        assert code == 2
        assert "positive" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("basin", "--theta", "0.4,0.6", "--x1-range", "0.5:1.0:2", "--tol", "nan"),
            ("fixed-points", "--theta", "0.4,0.6", "--tol", "nan"),
            ("fixed-points", "--theta", "0.4,inf"),
        ],
    )
    def test_nonfinite_values_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == "" and "finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("fixed-points",),  # no --theta
            ("basin", "--theta", "1,1", "--x1-range", "a:b:c"),
            ("basin", "--theta", "1,1", "--x1-range", "0:1:0"),
            # the = form: argparse reads -1:1:3 on its own as an option
            ("basin", "--theta", "1,1", "--x1-range=-1:1:3"),
            ("verify", "--n", "2", "--trials", "1", "--seed", "-1"),
            ("verify", "--n", "2", "--trials", "0"),
        ],
    )
    def test_input_check_is_one_line_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_verify_rejects_csv(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--n", "2", "--trials", "1", "--format", "csv")
        assert code == 2
        assert out == "" and "csv" in err

    def test_log_handler_installed_once(self, capsys, monkeypatch):
        logger = logging.getLogger("qdyn")
        monkeypatch.setattr(logger, "handlers", [])
        monkeypatch.setenv("QDYN_LOG", "debug")
        # beyond 2/r1 = 2.5 the line escapes at x2 = 0, which is logged once
        errs = [run_cli(capsys, "basin", "--theta", "0.8,0.2", "--x1-range", "3:3:1")[2] for _ in range(2)]
        assert len(logger.handlers) == 1
        for err in errs:
            assert err.count("escapes already at x2=0") == 1

    def test_unset_log_env_silences_a_later_call(self, capsys, monkeypatch):
        logger = logging.getLogger("qdyn")
        monkeypatch.setattr(logger, "handlers", list(logger.handlers))
        argv = ("basin", "--theta", "0.8,0.2", "--x1-range", "3:3:1")
        monkeypatch.setenv("QDYN_LOG", "debug")
        assert "escapes already at x2=0" in run_cli(capsys, *argv)[2]
        monkeypatch.delenv("QDYN_LOG")
        assert run_cli(capsys, *argv)[2] == ""
        assert logger.level == logging.NOTSET

    @pytest.mark.parametrize("name", ["error", "loud", "basic_format"])
    def test_log_env_level_rules(self, capsys, monkeypatch, name):
        # ERROR shows neither the overflow warnings nor the debug line; a name
        # that is no level, or a logging attribute that is no level, means INFO
        logger = logging.getLogger("qdyn")
        monkeypatch.setattr(logger, "handlers", list(logger.handlers))
        monkeypatch.setenv("QDYN_LOG", name)
        err = run_cli(capsys, "simulate", "--theta", "1e-10,1e300", "--x0", "0,2e4")[2]
        err += run_cli(capsys, "basin", "--theta", "0.8,0.2", "--x1-range", "3:3:1")[2]
        warning = "qdyn.dynamics WARNING overflow step; orbit truncated at 1 states\n"
        assert err == ("" if name == "error" else warning * 2)
        assert logger.level == (logging.ERROR if name == "error" else logging.INFO)

    def test_zero_budget_rejected(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--theta", "1,1", "--x0", "0.1,0.1", "--budget", "0")
        assert code == 2

    def test_log_env_does_not_change_output(self, capsys, monkeypatch):
        _, plain, _ = run_cli(capsys, "fixed-points", "--theta", "0.4,0.6")
        monkeypatch.setenv("QDYN_LOG", "DEBUG")
        _, logged, _ = run_cli(capsys, "fixed-points", "--theta", "0.4,0.6")
        assert plain == logged

    def run_module(self, *argv, **env):
        env = {k: v for k, v in os.environ.items() if k != "QDYN_LOG"} | env
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        return subprocess.run([sys.executable, "-m", "qdyn.cli", *argv], capture_output=True, text=True, env=env)

    def run_overflowing_simulate(self, **env):
        # the first step from x0 overflows the float range
        return self.run_module("simulate", "--theta", "1e-300,1e300", "--x0", "1e5,1e5", "--steps", "3", **env)

    def test_overflowing_fixed_points_print_one_error_line(self):
        # residuals and Jacobian entries overflow; only the solver's refusal is reported
        proc = self.run_module("fixed-points", "--theta", "1e-300,1e300")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: eigenvalue iteration failed") and proc.stderr.count("\n") == 1

    def test_nonfinite_jacobian_prints_one_solver_error_line(self, capsys):
        # in-process: r1 * x2 overflows to inf in the Jacobian at the point (0, 2e300)
        code, out, err = run_cli(capsys, "fixed-points", "--theta", "1e300,1e-300", "--format", "csv")
        assert code == 2
        assert out == ""
        assert err.startswith("error: eigenvalue iteration failed") and err.count("\n") == 1

    def test_overflow_is_silent_without_qdyn_log(self):
        proc = self.run_overflowing_simulate()
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[1:] == [
            "0,100000.0,100000.0",
            "# fate=to_infinity steps_used=1 evidence=norm_threshold fixed_point_index=None final=100000.0,100000.0",
        ]

    def test_overflow_is_noted_with_qdyn_log(self):
        quiet = self.run_overflowing_simulate()
        logged = self.run_overflowing_simulate(QDYN_LOG="debug")
        assert logged.returncode == 0
        assert logged.stdout == quiet.stdout
        assert "overflow" in logged.stderr

    @pytest.mark.parametrize(
        "argv, head",
        [
            # 256 JSON records, far more than the pipe holds: qdyn is still
            # writing when the reader closes after one line
            (("fixed-points", "--theta", ",".join(["1"] * 8)), ["{\n"]),
            # 8,193 CSV lines, two stacks of rows, cut after the header
            (("fixed-points", "--theta", ",".join(["1"] * 13), "--format", "csv"), ["mask,support,feasible,"]),
            # a few lines that qdyn writes only after the reader has closed
            (("classify", "--theta", "1,1", "--support", "1,0"), []),
        ],
        ids=["mid-write", "mid-write-csv", "before-write"],
    )
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_reader_ends_the_run_quietly(self, argv, head, unbuffered):
        env = {k: v for k, v in os.environ.items() if k not in ("QDYN_LOG", "PYTHONUNBUFFERED")}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "qdyn.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
        )
        for start in head:
            assert proc.stdout.readline().startswith(start)
        proc.stdout.close()
        assert proc.wait() == 0
        assert proc.stderr.read() == ""
        proc.stderr.close()

    def test_module_invocation(self):
        # console entry point semantics via python -m style execution
        proc = subprocess.run(
            [sys.executable, "-c", "from qdyn.cli import main; raise SystemExit(main(['fixed-points', '--theta', '1,1']))"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert '"fixed_points"' in proc.stdout


def csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


class TestParserReuse:
    """`main` builds its parser once per process; every call must print and
    return what it would with a parser of its own."""

    def test_each_call_equals_one_with_a_fresh_parser(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")  # help text wraps at the terminal width
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "json", "budget": 5}))
        simulate = ["simulate", "--theta", "1,1", "--x0", "0.1,0.1", "--steps", "3"]
        argvs = [
            ["simulate", "--theta", "1,1"],  # --x0 missing
            simulate,
            ["basin", "--theta", "0.4,0.6", "--x1-range", "0:1:2", "--format", "text"],  # bad choice
            [*simulate, "--config", str(cfg)],
            simulate,
            ["-h"],
            ["simulate", "-h"],
            [],
            ["fixed-points", "--theta", "0.4,0.6", "--format", "csv"],
            ["classify", "--theta", "1,1,1", "--support", "1,0,1"],
            simulate,
            ["basin", "--theta", "0.4,0.6", "--x1-range", "0:6:4", "--tol", "1e-6"],
            ["verify", "--n", "2", "--trials", "1"],
            ["verify", "--n", "3", "--trials", "2", "--seed", "4", "--format", "json"],
            [*simulate, "extra"],  # left over by the command's parser
        ]
        build_parser()
        before = build_parser.cache_info().misses
        shared = [run_cli(capsys, *argv) for argv in argvs]
        assert build_parser.cache_info().misses == before
        fresh = []
        for argv in argvs:
            build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [2, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 2]
        assert json.loads(shared[3][1])["fate"]["outcome"] == "to_origin"  # the config's json
        assert shared[4] == shared[1] and shared[4][1].startswith("step,x1,x2\n")  # and csv again
        assert shared[-1][2].endswith("\nqdyn: error: unrecognized arguments: extra\n")


class TestParse:
    """`main` parses argv once, with the named command's parser alone; each
    argv must parse as one top-level `parse_args` parses it: to the same
    namespace, or to the same exit, help and error text."""

    SIMULATE = ["simulate", "--theta", "1,1", "--x0", "0.1,0.1"]

    @pytest.mark.parametrize("argv", [
        ["fixed-points", "--theta", "0.4,0.6", "--format", "csv"],
        ["classify", "--theta", "1,1,1", "--support", "1,0,1", "--tol", "1e-6"],
        [*SIMULATE, "--steps", "3", "--budget", "9"],
        ["simulate", "--theta=1,1", "--x0", "0.1,0.1"],
        ["simulate", "--thet", "1,1", "--x0", "0.1,0.1"],  # an abbreviated flag
        ["basin", "--theta", "0.4,0.6", "--x1-range", "0:1:2", "--config", "cfg.json"],
        ["verify", "--n", "3", "--trials", "2", "--seed", "4", "--format", "json"],
    ])
    def test_a_valid_argv_gives_the_same_namespace(self, argv):
        assert _parse(argv) == build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv", [
        [],
        ["-h"],
        ["simulate", "-h"],
        ["simul", "--theta", "1,1", "--x0", "0.1,0.1"],  # commands are not abbreviated
        ["simulate", "--theta", "1,1"],  # --x0 missing
        [*SIMULATE, "--steps", "x"],
        ["--theta", "1,1", "simulate"],  # a flag before the command
        [*SIMULATE, "extra"],
        ["simulate", "--", "--x0"],
    ])
    def test_a_refused_argv_exits_alike(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "100")  # help text wraps at the terminal width
        exits = []
        for parse in (_parse, build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            exits.append((exc.value.code, *capsys.readouterr()))
        assert exits[0] == exits[1]
        code, out, err = exits[0]
        assert (code, bool(out), bool(err)) == ((0, True, False) if "-h" in argv else (2, False, True))

    def test_a_command_argv_skips_the_top_level_pass(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the top-level parser parsed a command's argv")

        monkeypatch.setattr(build_parser(), "parse_known_args", refuse)
        assert _parse([*self.SIMULATE, "--steps", "3"]).steps == 3


class TestFormatsAgree:
    """Every format of one run carries the same values: CSV cells and text
    lines are compared with the JSON payload of the same argv."""

    def both(self, capsys, argv, other="csv"):
        code, text, _ = run_cli(capsys, *argv, "--format", other)
        json_code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == json_code
        return json.loads(out), text

    @pytest.mark.parametrize(
        "argv",
        [("fixed-points", "--theta", "0.4,0.6,0.9"), ("classify", "--theta", "1,1,1", "--support", "1,0,1"),
         ("classify", "--theta", ",".join(["1"] * 32), "--support", ",".join(["1"] + ["0"] * 31))],
    )
    def test_fixed_point_rows(self, capsys, argv):
        payload, text = self.both(capsys, argv)
        header, *rows = csv_rows(text)
        n = payload["n"]
        assert header[: 4 + n] == ["mask", "support", "feasible", "residual", *(f"x{k + 1}" for k in range(n))]
        assert header[4 + n:] == [f"eig{k + 1}_{part}" for k in range(n) for part in ("re", "im")] + ["class"]
        assert len(rows) == len(payload["fixed_points"])
        for row, rec in zip(rows, payload["fixed_points"]):
            assert int(row[0]) == rec["mask"] == rec["index"]
            assert row[1:3] == ["".join(map(str, rec["support"])), str(rec["feasible"]).lower()]
            assert float(row[3]) == rec["residual"]
            assert [float(v) for v in row[4:4 + n]] == rec["coords"]
            assert [float(v) for v in row[4 + n:-1]] == [part for eig in rec["eigenvalues"] for part in eig]
            assert row[-1] == rec["class"]

    @pytest.mark.parametrize(
        "x0", ["0.1,0.1", "0.6666666666666666,0.6666666666666666", "2,2"],
    )
    def test_simulate_rows_and_trailer(self, capsys, x0):
        payload, text = self.both(capsys, ("simulate", "--theta", "1,1", "--x0", x0, "--steps", "5"))
        *lines, trailer = text.splitlines()
        header, *rows = csv_rows("\n".join(lines))
        assert header == ["step", "x1", "x2"]
        assert [int(row[0]) for row in rows] == list(range(len(payload["trajectory"])))
        assert [[float(v) for v in row[1:]] for row in rows] == payload["trajectory"]
        assert trailer.startswith("# ")
        fields = dict(item.split("=") for item in trailer[2:].split())
        fate = payload["fate"]
        assert fields["fate"] == fate["outcome"] and fields["evidence"] == fate["evidence"]
        assert int(fields["steps_used"]) == fate["steps_used"]
        assert fields["fixed_point_index"] == str(fate["fixed_point_index"])
        assert [float(v) for v in fields["final"].split(",")] == fate["final_state"]

    @pytest.mark.parametrize("theta, x1_range", [("0.4,0.6", "0:1:3"), ("0.8,0.2", "2:3:2")])
    def test_basin_rows(self, capsys, theta, x1_range):
        payload, text = self.both(capsys, ("basin", "--theta", theta, "--x1-range", x1_range, "--tol", "1e-6"))
        header, *rows = csv_rows(text)
        assert header == ["x1", "x2_low", "x2_high", "width", "flagged"]
        assert len(rows) == len(payload["samples"])
        for row, sample in zip(rows, payload["samples"]):
            assert [float(v) for v in row[:4]] == [sample[key] for key in header[:4]]
            assert row[4] == str(sample["flagged"]).lower()
        assert any(s["flagged"] for s in payload["samples"]) == (theta == "0.8,0.2")

    def check_verify_lines(self, payload, text):
        *lines, verdict = text.splitlines()
        pattern = re.compile(r"(.+): max = (\S+) \(tol (\S+)\): (PASS|FAIL)")
        for check in payload["checks"]:
            name, worst, tol, status = pattern.fullmatch(lines.pop(0)).groups()
            assert name == check["name"] and status == ("PASS" if check["passed"] else "FAIL")
            assert float(worst) == pytest.approx(check["worst"], rel=1e-3)
            assert float(tol) == pytest.approx(check["tolerance"], rel=1e-1)
            for theta in check["failures"]:
                assert lines.pop(0) == f"  offending theta: {theta}"
        assert lines == []
        outcome = "all checks passed" if payload["passed"] else "FAILURES above"
        assert verdict == f"verified {payload['trials']} draws at n={payload['n']}, seed={payload['seed']}: {outcome}"

    def test_verify_lines(self, capsys):
        self.check_verify_lines(*self.both(capsys, ("verify", "--n", "3", "--trials", "3", "--seed", "5"), "text"))

    def test_failed_verify_lines(self, capsys, monkeypatch):
        from qdyn import cli as cli_module
        from qdyn.verify import CheckResult, VerificationSummary

        failing = VerificationSummary(
            n=2, trials=1, seed=0,
            checks=(
                CheckResult("eigenvalue-2 residual", 1.0, 1e-8, False, ("[0.1, 0.2]", "[0.3, 0.4]")),
                CheckResult("fixed-point residual", 1e-17, 1e-10, True, ()),
            ),
        )
        monkeypatch.setattr(cli_module, "verification_sweep", lambda *a, **k: failing)
        payload, text = self.both(capsys, ("verify", "--n", "2", "--trials", "1"), "text")
        assert not payload["passed"]
        self.check_verify_lines(payload, text)


RECORD_KEYS = ["mask", "support", "coords", "feasible", "residual", "eigenvalues", "class", "inside", "outside",
               "on_unit", "index"]
RATE_LISTS = st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=8)


class TestJsonText:
    """fixed-points and classify render their JSON from the table's columns;
    the text must be what json.dumps(indent=2) prints for its own payload."""

    def json_out(self, *argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([*argv, "--format", "json"]) == 0
        text = out.getvalue()
        payload = json.loads(text)
        assert text == json.dumps(payload, indent=2) + "\n"
        for rec in payload["fixed_points"]:
            assert list(rec) == RECORD_KEYS
        return text, payload

    @settings(max_examples=40, deadline=None)
    @given(RATE_LISTS, st.one_of(st.none(), st.floats(1e-14, 1.0)))
    def test_fixed_points_round_trip(self, theta, tol):
        flags = [] if tol is None else ["--tol", repr(tol)]
        _, payload = self.json_out("fixed-points", "--theta", ",".join(map(repr, theta)), *flags)
        assert [rec["mask"] for rec in payload["fixed_points"]] == list(range(2 ** len(theta)))
        # each record's class is the public classifier's, at the record's own point
        rates = Rates(theta)
        for rec in payload["fixed_points"]:
            cls = classify(spectrum_at(rates, rec["coords"]), TAU_UNIT if tol is None else tol)
            assert [rec["class"], rec["inside"], rec["outside"], rec["on_unit"]] == [
                cls.tag.value, cls.inside, cls.outside, cls.on_unit]

    @settings(max_examples=40, deadline=None)
    @given(RATE_LISTS.flatmap(lambda theta: st.tuples(st.just(theta), st.lists(
        st.sampled_from("01"), min_size=len(theta), max_size=len(theta)))))
    def test_classify_round_trip(self, draw):
        theta, bits = draw
        _, payload = self.json_out("classify", "--theta", ",".join(map(repr, theta)), "--support", ",".join(bits))
        (rec,) = payload["fixed_points"]
        assert rec["support"] == [int(b) for b in bits]

    def test_classify_counts_past_any_fixed_table(self):
        # at the point (2, 0, ..., 0) on equal rates every eigenvalue is 2, so
        # 32 is outside: a count no table sized for the enumerable n holds
        text, payload = self.json_out("classify", "--theta", ",".join(["1"] * 32), "--support",
                                      ",".join(["1"] + ["0"] * 31))
        (rec,) = payload["fixed_points"]
        assert [rec["class"], rec["inside"], rec["outside"], rec["on_unit"]] == ["repelling", 0, 32, 0]

    def test_nonfinite_spelling(self):
        # the 7 supports that join the 1e-100 rate to a 1e200 one have coordinates near
        # 1e100, and their residual, with a 1e200 rate times them squared, overflows
        text, _ = self.json_out("fixed-points", "--theta", "1e200,1e200,1e200,1e-100")
        assert text.count('"residual": Infinity,') == 7

    def test_nonfinite_spelling_in_csv(self, capsys):
        # CSV spells a nonfinite number as repr does: inf, not JSON's Infinity
        code, text, _ = run_cli(capsys, "fixed-points", "--theta", "1e200,1e200,1e200,1e-100", "--format", "csv")
        header, *rows = csv_rows(text)
        assert code == 0 and header[3] == "residual"
        assert [row[3] for row in rows].count("inf") == 7
        assert "Infinity" not in text


# floats that every JSON cell must spell as json.dumps does, nonfinite ones included
SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1, -2.5e300, 1.0]


def synthetic_table(rows: int, n: int, seed: int, floats=SPECIAL_FLOATS):
    """Fixed-point table columns no rate vector produces (nonreal eigenvalues,
    nonfinite coordinates, masks past 2^31, every tag in turn), every float
    drawn from `floats`, and the records json.dumps should print for them."""
    rng = np.random.default_rng(seed)
    pick = lambda *shape: rng.choice(floats, shape)
    masks = [2**31 + 7 * row if row % 2 else 2**69 + row for row in range(rows)]
    bits = rng.integers(0, 2, (rows, n)).astype(np.int8)
    coords, residual, feasible = pick(rows, n), pick(rows), rng.integers(0, 2, rows).astype(bool)
    spectra = np.empty((rows, n), dtype=complex)
    spectra.real, spectra.imag = pick(rows, n), pick(rows, n)
    tags = np.array([list(StabilityTag)[row % 4] for row in range(rows)], dtype=object)
    counts = [rng.integers(0, n + 1, rows) for _ in range(3)]
    records = [dict(zip(RECORD_KEYS, [
        masks[r], bits[r].tolist(), coords[r].tolist(), bool(feasible[r]), float(residual[r]),
        [[z.real, z.imag] for z in spectra[r].tolist()], tags[r].value, *(int(c[r]) for c in counts), masks[r]]))
        for r in range(rows)]
    return (masks, bits, coords, feasible, residual, spectra, tags, *counts), records


class TestJsonRecords:
    """The fixed-point renderer, called on columns real tables never hold,
    against json.dumps(indent=2) of the same records."""

    @pytest.mark.parametrize("rows, n", [(1, 1), (1, 3), (2, 2), (4, 5), (9, 3)])
    def test_slice_is_json_dumps(self, rows, n):
        columns, records = synthetic_table(rows, n, seed=rows * 10 + n)
        expected = json.dumps({"fixed_points": records}, indent=2)
        assert _json_records(*columns) == expected[len('{\n  "fixed_points": [\n') : -len("\n  ]\n}")]

    @pytest.mark.parametrize("stack_rows", [3, 1])
    def test_stacked_table_is_json_dumps(self, monkeypatch, stack_rows):
        # slices of 3 and of 1 record, each but the last closed by the "," _in_stacks adds
        monkeypatch.setattr(stability, "_STACK_ROWS", stack_rows)
        columns, records = synthetic_table(8, 4, seed=stack_rows)
        head, tail = '{\n  "fixed_points": [', "  ]\n}"
        text = "\n".join(_in_stacks(columns, _json_records, head, ",", tail))
        assert text == json.dumps({"fixed_points": records}, indent=2)

    def test_columns_hold_the_cases(self):
        columns, records = synthetic_table(9, 3, seed=93)
        pairs = [pair for rec in records for pair in rec["eigenvalues"]]
        assert any(im != 0.0 for _, im in pairs)
        values = [v for rec in records for v in [*rec["coords"], rec["residual"], *sum(rec["eigenvalues"], [])]]
        assert {"-0.0", "nan", "inf", "-inf"} <= {repr(v) for v in values}
        assert {rec["class"] for rec in records} == {tag.value for tag in StabilityTag}
        assert min(rec["mask"] for rec in records) >= 2**31


def csv_line(record: dict) -> str:
    """A fixed-point record's CSV row, built cell by cell: str of each int,
    the support bits with no separator, a lowercase bool, repr of each float
    and the class tag."""
    floats = [record["residual"], *record["coords"], *(part for eig in record["eigenvalues"] for part in eig)]
    return ",".join([str(record["mask"]), "".join(map(str, record["support"])), str(record["feasible"]).lower(),
                     *map(repr, floats), record["class"]])


class TestCsvRows:
    """The fixed-point CSV renderer, called on columns real tables never
    hold, against rows built record by record."""

    @pytest.mark.parametrize("rows, n", [(1, 1), (1, 3), (2, 2), (4, 5), (9, 3)])
    def test_slice_is_built_cell_by_cell(self, rows, n):
        columns, records = synthetic_table(rows, n, seed=rows * 10 + n)
        assert _csv_rows(*columns) == "\n".join(map(csv_line, records))

    def test_columns_hold_the_cases(self):
        columns, records = synthetic_table(9, 3, seed=93)
        cells = [cell for line in _csv_rows(*columns).split("\n") for cell in line.split(",")]
        assert {"-0.0", "0.0", "nan", "inf", "-inf", "5e-324", "-2.5e+300"} <= set(cells)
        assert max(rec["mask"] for rec in records) >= 2**63


# the floats of a table that has only exact zeros, and of one that has none
ZERO_FLOATS, NONZERO_FLOATS = [0.0], [v for v in SPECIAL_FLOATS if v != 0.0]


class TestZeroCells:
    """Both fixed-point renderers on tables whose floats are all +0.0, and on
    tables with no zero float, against json.dumps and rows built cell by cell."""

    @pytest.mark.parametrize("floats", [ZERO_FLOATS, NONZERO_FLOATS], ids=["all_zero", "no_zero"])
    @pytest.mark.parametrize("rows, n", [(1, 1), (3, 4)])
    def test_renderers(self, floats, rows, n):
        columns, records = synthetic_table(rows, n, seed=rows + n, floats=floats)
        expected = json.dumps({"fixed_points": records}, indent=2)
        assert _json_records(*columns) == expected[len('{\n  "fixed_points": [\n') : -len("\n  ]\n}")]
        assert _csv_rows(*columns) == "\n".join(map(csv_line, records))

    def test_zero_floats_skip_the_encoder(self, monkeypatch):
        # an exact +0.0 never reaches json's encoder; -0.0 and every other float do
        encoded, dumps = [], json.dumps
        monkeypatch.setattr(json, "dumps", lambda items, **kw: encoded.append(items) or dumps(items, **kw))
        columns, _ = synthetic_table(6, 3, seed=7)
        columns[2][0, :2] = 0.0, -0.0  # coordinates with both zeros
        _json_records(*columns), _csv_rows(*columns)
        zeros = [repr(v) for items in encoded for v in items if isinstance(v, float) and v == 0.0]
        assert zeros and set(zeros) == {"-0.0"}


GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_cli.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: case["argv"][0])
def test_golden_stdout(capsys, case):
    # Captured before fate targets came from the closed-form feasible
    # supports: simulate at n = 2, 5, 10 (CSV and JSON, fixed-point hits
    # included) and basin with one rate pair per regime.  Captured before
    # the fixed-point table was built in one pass per rate vector:
    # fixed-points at n = 2 (ratio two included) and n = 4, classify on the
    # full support at n = 10, and verify at n = 3 and 6.  Captured before
    # basin lines were bisected in lockstep: multi-line JSON at tol 1e-12 in
    # each regime, one call mixing ordinary lines and a line with no flip,
    # budget 3 over six lines, and tol 1e-300 over two lines.  The basin
    # cases were re-recorded when lines began from the closed-form MBAR1 and
    # MBAR2 bracket, and again when each round began to cut a bracket into up
    # to 16 equal parts instead of bisecting it: bracket ends moved, flags
    # and notes did not.  The basin case at (0.4, 0.6) over 0:6:7 with tol
    # 1e-6 was captured from the retired planar-portrait data script
    # (`--grid 2 --boundary-points 7`): its boundary CSV was byte for byte
    # this stdout, which now stands in for that file.  The two verify cases
    # after it, n = 8 over 17 draws (JSON) and n = 3 over 600, were captured
    # before draws were checked in chunks of one Jacobian stack; both cross
    # a chunk edge (16 draws at n = 8, 512 at n = 3).  The last four simulate
    # cases were captured before simulate read its fate off its trajectory:
    # at (0.4, 0.6) from (1, 1.653425181), a fate at state 16 past a
    # trajectory of 2 steps, and a budget of 3 that ends it inside one of 30.
    # The last two, fixed-points and classify as JSON at n = 6 on rates that
    # give every class tag, were captured before fixed-point records were
    # rendered from flat per-column cells in one join.
    code, out, _ = run_cli(capsys, *case["argv"])
    assert code == 0
    assert out == case["stdout"]
