"""The public surface of qdyn: every exported name has a caller."""

import io
import tokenize
from pathlib import Path

import numpy as np

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


def returned_or_qdyn_error(fn, *args):
    # fn's result, or None where it raised a QdynError; any other exception escapes
    try:
        return fn(*args)
    except qdyn.QdynError:
        return None


def test_only_qdyn_errors_leave_the_api_at_extreme_rates():
    # rates log-uniform over [1e-300, 1e300], each call at one random
    # non-origin fixed point: products of rates and coordinates under- and
    # overflow.  A numpy warning fails the test too (pyproject's filterwarnings).
    rng = np.random.default_rng(7)
    for k in range(400):
        n = 2 + k % 4
        rates = qdyn.Rates(10.0 ** rng.uniform(-300.0, 300.0, n))
        points = qdyn.enumerate_fixed_points(rates)
        point = points[rng.integers(1, len(points))]
        spectrum = returned_or_qdyn_error(qdyn.spectrum_at, rates, point)
        if spectrum is not None:
            returned_or_qdyn_error(qdyn.classify, spectrum)
        residual = returned_or_qdyn_error(qdyn.eigenvalue_two_residual, rates, point)
        assert residual is None or residual >= 0.0  # a NaN residual is no measurement
        returned_or_qdyn_error(qdyn.classify_fate, rates, point.coords, 50)
        returned_or_qdyn_error(qdyn.iterate, rates, point.coords, 3)
        returned_or_qdyn_error(qdyn.apply, rates, point.coords)
        for region in qdyn.RegionKind:
            returned_or_qdyn_error(qdyn.region_membership, rates, point.coords, region)
        returned_or_qdyn_error(qdyn.nonhyperbolic_condition, rates, point.support)
        if n == 2:
            returned_or_qdyn_error(qdyn.basin_boundary, rates, [0.0, point.coords[0]], 1e-8, 50)
