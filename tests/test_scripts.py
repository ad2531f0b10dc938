"""Smoke runs of the data scripts at toy sizes."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv, cwd=None):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv], capture_output=True, text=True, env=env, cwd=cwd
    )


def test_phase_portrait_data(tmp_path):
    argv = ("--grid", "5", "--boundary-points", "3", "--out", str(tmp_path / "p"))
    proc = run_script("phase_portrait_data.py", *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    fates = (tmp_path / "p_fates.csv").read_text().splitlines()
    boundary = (tmp_path / "p_boundary.csv").read_text().splitlines()
    assert fates[0] == "x1,x2,fate,steps_used" and len(fates) == 1 + 5 * 5
    assert boundary[0] == "x1,x2_low,x2_high,width,flagged" and len(boundary) == 1 + 3


def test_boundary_vs_quintic():
    proc = run_script("boundary_vs_quintic.py", "--points", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["x1", "boundary", "quintic", "|dev|", "flag"]
    assert len(lines) == 1 + 3 + 1 and lines[-1].startswith("max deviation: ")
