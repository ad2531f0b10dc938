"""Exact oracle for the structural results, independent of the float code.

With symbolic positive rates r_1..r_n (n = 2..4), the closed-form point on
every nonzero support solves H(x) = x, and J(x) - 2I is singular there, so
2 is an eigenvalue.  The map and its Jacobian are built by sympy from the
defining polynomial; only the closed form is taken from the package's
documentation, and a rational draw ties it back to the float enumeration.
The steps of the proof that the n = 3 interior discriminant is never
negative are checked here as well.
"""

import itertools

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")

from qdyn import Rates, enumerate_fixed_points, interior_discriminant_n3  # noqa: E402


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


def test_n3_discriminant_proof_steps():
    # In the elementary symmetric functions of the rates: R = e2/e3, T = e1,
    # P = e2.  25 e3^2 D is a quadratic in e3 with a positive leading
    # coefficient whose slope is still negative at the AM-GM bound
    # e3 = e1 e2 / 9; so at fixed e1, e2 it is least at the largest e3,
    # where two rates are equal, and there it is a square.
    e1, e2, e3, c = sympy.symbols("e1 e2 e3 c", positive=True)
    recip, total, pair = e2 / e3, e1, e2
    disc = (sympy.Rational(4, 25) * recip**2 * total**2 - sympy.Rational(56, 5) * recip * total
            + sympy.Rational(48, 25) * recip**2 * pair + 36)
    scaled = sympy.expand(25 * e3**2 * disc)
    assert sympy.Poly(scaled, e3).LC() == 900
    assert sympy.expand(sympy.diff(scaled, e3).subs(e3, e1 * e2 / 9)) == -80 * e1 * e2
    two_equal = scaled.subs({e1: 2 + c, e2: 1 + 2 * c, e3: c})
    assert sympy.expand(two_equal - 16 * (c - 1) ** 2 * (c - 2) ** 2) == 0
    # the transcription matches the package's float formula
    theta = [sympy.Rational(3, 7), sympy.Rational(5, 4), sympy.Integer(2)]
    a, b, t = theta
    exact = disc.subs({e1: a + b + t, e2: a * b + a * t + b * t, e3: a * b * t})
    assert interior_discriminant_n3(Rates([float(v) for v in theta])) == pytest.approx(float(exact), rel=1e-13)
