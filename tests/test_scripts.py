"""Runs of scripts/code_lines.py and of the README's Python examples."""

import re
import runpy
import subprocess
import sys
from pathlib import Path

import qdyn

ROOT = Path(__file__).resolve().parents[1]


def test_code_lines_counts_neither_docstrings_nor_comments():
    code_lines = runpy.run_path(str(ROOT / "scripts" / "code_lines.py"))["code_lines"]
    source = (
        '"""Module\ndocstring."""\n\n# comment\nx = 1  # trailing comment\n\n\n'
        'def f():\n    """Function docstring."""\n    return (\n        x)\n'
    )
    assert code_lines(source) == 4


def test_code_lines_totals_the_package():
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "code_lines.py")], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert [name for name, _ in rows] == sorted(p.name for p in (ROOT / "src" / "qdyn").glob("*.py")) + ["total", "__all__"]
    assert int(rows[-2][1]) == sum(int(count) for _, count in rows[:-2])
    assert int(rows[-1][1]) == len(qdyn.__all__)


def test_readme_python_examples_run(capsys):
    examples = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(examples) == 2  # the quick start and the planar fate grid
    for source in examples:
        exec(compile(source, "README.md", "exec"), {})
    # the quick start's four fixed points, then the fate its comment states
    assert capsys.readouterr().out.splitlines()[-1] == "FateOutcome.TO_ORIGIN"
