"""The public surface of qdyn: every exported name, and every public method
and property of an exported class, has a caller."""

import inspect
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


def names(path: Path, follows) -> set[str]:
    """The NAME tokens of a file whose previous token passes `follows`;
    comments and docstrings hold no NAME tokens."""
    found, previous = set(), None
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if tok.type == tokenize.NAME and follows(previous):
            found.add(tok.string)
        previous = tok.string
    return found


CALLERS = [p for p in (ROOT / "src" / "qdyn").glob("*.py") if p.name != "__init__.py"]
CALLERS.append(ROOT / "tests" / "test_acceptance.py")


def test_every_public_name_has_a_caller():
    # every NAME token but the name each def or class line defines
    used = set().union(*(names(p, lambda previous: previous not in ("def", "class")) for p in CALLERS))
    assert sorted(set(qdyn.__all__) - used - EXEMPT) == []


def public_members(cls: type) -> set[str]:
    # the public methods and properties a class defines itself
    kinds = (property, classmethod, staticmethod)
    return {k for k, v in vars(cls).items() if not k.startswith("_") and (inspect.isfunction(v) or isinstance(v, kinds))}


def test_every_public_member_of_an_exported_class_has_a_caller():
    # matched as an attribute, a NAME token right after ".", so that a local
    # variable of the same name is no caller
    used = set().union(*(names(p, lambda previous: previous == ".") for p in CALLERS))
    classes = [getattr(qdyn, name) for name in qdyn.__all__ if inspect.isclass(getattr(qdyn, name))]
    assert sorted(f"{cls.__name__}.{m}" for cls in classes for m in public_members(cls) - used) == []


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
        # a finite state whose step overflows at all but the smallest rates
        returned_or_qdyn_error(qdyn.apply, rates, np.full(n, 1e200))
        for region in qdyn.RegionKind:
            returned_or_qdyn_error(qdyn.region_membership, rates, point.coords, region)
        returned_or_qdyn_error(qdyn.nonhyperbolic_condition, rates, point.support)
        if n == 2:
            returned_or_qdyn_error(qdyn.basin_boundary, rates, [0.0, point.coords[0]], 1e-8, 50)
    # at unit rates the step of (1e200, 1e200) is past the float range: no state is returned
    assert returned_or_qdyn_error(qdyn.apply, qdyn.Rates([1, 1]), [1e200, 1e200]) is None
