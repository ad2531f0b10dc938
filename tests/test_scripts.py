"""Smoke runs of the data scripts at toy sizes."""

import os
import runpy
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


def test_code_lines_counts_neither_docstrings_nor_comments():
    code_lines = runpy.run_path(str(ROOT / "scripts" / "code_lines.py"))["code_lines"]
    source = (
        '"""Module\ndocstring."""\n\n# comment\nx = 1  # trailing comment\n\n\n'
        'def f():\n    """Function docstring."""\n    return (\n        x)\n'
    )
    assert code_lines(source) == 4


def test_code_lines_totals_the_package():
    proc = run_script("code_lines.py")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert [name for name, _ in rows] == sorted(p.name for p in (ROOT / "src" / "qdyn").glob("*.py")) + ["total"]
    assert int(rows[-1][1]) == sum(int(count) for _, count in rows[:-1])
