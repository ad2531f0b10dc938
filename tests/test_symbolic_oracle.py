"""Exact oracle for the two structural results, independent of the float code.

With symbolic positive rates r_1..r_n (n = 2..4), the closed-form point on
every nonzero support solves H(x) = x, and J(x) - 2I is singular there, so
2 is an eigenvalue.  The map and its Jacobian are built by sympy from the
defining polynomial; only the closed form is taken from the package's
documentation, and a rational draw ties it back to the float enumeration.
"""

import itertools

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")

from qdyn import Rates, enumerate_fixed_points  # noqa: E402


def closed_form(rates, support):
    # 4*sum_S(1/r) - (4m - 2)/r_k over 2m - 1 on the support S of m
    # coordinates (2/r_k for a singleton), zero elsewhere
    m = len(support)
    total = sum(1 / rates[j] for j in support)
    return [(4 * total - (4 * m - 2) / r) / (2 * m - 1) if k in support else sympy.Integer(0)
            for k, r in enumerate(rates)]


def nonzero_supports(n):
    return [s for m in range(1, n + 1) for s in itertools.combinations(range(n), m)]


def exact_map(n):
    r = sympy.symbols(f"r1:{n + 1}", positive=True)
    x = sympy.symbols(f"x1:{n + 1}")
    total = sum(x)
    h = sympy.Matrix([r[k] * x[k] / 2 * (2 * total - x[k]) for k in range(n)])
    return r, x, h, h.jacobian(x)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_closed_form_is_fixed_with_eigenvalue_two(n):
    r, x, h, jac = exact_map(n)
    for support in nonzero_supports(n):
        point = dict(zip(x, closed_form(r, support)))
        assert all(sympy.cancel(sympy.together(v)) == 0 for v in h.subs(point) - sympy.Matrix(list(point.values())))
        shifted = jac.subs(point) - 2 * sympy.eye(n)
        assert sympy.cancel(sympy.together(shifted.det(method="berkowitz"))) == 0, support


def test_closed_form_matches_the_enumeration():
    theta = [sympy.Rational(3, 7), sympy.Rational(5, 4), sympy.Integer(2), sympy.Rational(11, 10)]
    points = enumerate_fixed_points(Rates([float(t) for t in theta]))
    for support in nonzero_supports(len(theta)):
        mask = sum(1 << k for k in support)
        exact = np.array([float(v) for v in closed_form(theta, support)])
        np.testing.assert_allclose(points[mask].coords, exact, rtol=1e-14, atol=0.0)
