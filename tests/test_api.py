"""The public surface of qdyn: every exported name has a caller."""

import io
import tokenize
from pathlib import Path

import qdyn

ROOT = Path(__file__).resolve().parents[1]

# nonhyperbolic_condition is the paper's fixed-point type certificate, kept
# public for library users with no caller inside the package; the CI
# console-script step asserts it directly
EXEMPT = {"nonhyperbolic_condition"}


def called_names(path: Path) -> set[str]:
    """The NAME tokens of a file, less the name each def or class line
    defines; comments and docstrings hold no NAME tokens."""
    names, previous = set(), None
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if tok.type == tokenize.NAME and previous not in ("def", "class"):
            names.add(tok.string)
        previous = tok.string
    return names


def test_every_public_name_has_a_caller():
    callers = [p for p in (ROOT / "src" / "qdyn").glob("*.py") if p.name != "__init__.py"]
    used = set().union(*map(called_names, callers + [ROOT / "tests" / "test_acceptance.py"]))
    assert sorted(set(qdyn.__all__) - used - EXEMPT) == []
