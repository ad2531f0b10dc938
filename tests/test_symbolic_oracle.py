"""Exact oracle for the structural results, independent of the float code.

With symbolic positive rates r_1..r_n (n = 2..4), the closed-form point on
every nonzero support solves H(x) = x, and J(x) - 2I is singular there, so
2 is an eigenvalue.  The map and its Jacobian are built by sympy from the
defining polynomial; only the closed form is taken from the package's
documentation, and a rational draw ties it back to the float enumeration.

For every support size m, a proof with symbolic m shows that 2 is an
eigenvalue at every nonzero fixed point, and that at a feasible one it is
the only eigenvalue of the support block above 1.  The steps of the proof that the n = 3
interior discriminant is never negative are checked here as well.

The paper's planar regions M1..M6 are MBAR1/MBAR2: with lhs_k =
x_k + 2*sum_{i != k} x_i, the identity 2 lhs_j - lhs_k = 3 x_k +
2*sum_{i != j, k} x_i gives lhs_k <= 2 lhs_j on the orthant, so where
r_j > 2 r_k one constraint of each MBAR region implies another (the
property test in test_theorems.py checks the implications exactly).

Two identities of the direction map x = t u, sum u = 1, a replicator map
of the payoff matrix A = 2 r 1^T - diag(r): A is negative definite on the
simplex's tangent space, so the game is strictly stable; and on a support
of m coordinates with R = sum_S 1/r_j, x_k has the sign of 2 R r_k - (2m - 1).
"""

import itertools

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")

from qdyn import Rates, enumerate_fixed_points  # noqa: E402
from helpers import interior_discriminant_n3  # noqa: E402


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


def test_eigenvalue_two_for_every_support_size():
    # On a support S of m coordinates, with s = sum(x) and R = sum_S 1/r_k,
    # the fixed-point equation gives x_k = 2s - 2/r_k, and J_SS is
    # diag(d) + u 1^T with d_k = r_k (s - x_k) and u_k = r_k x_k.  By the
    # matrix determinant lemma, det(J_SS - lam I) is prod_S(d_k - lam) f(lam)
    # with f(lam) = 1 + sum_S u_k / (d_k - lam).  The steps below hold for
    # one generic k, and each term summed over S is a + b/r_k with a and b
    # free of r_k, so its sum is m a + R b.
    r, s, m, R = sympy.symbols("r s m R", positive=True)

    def sum_over_support(term):
        w = sympy.Dummy("w", positive=True)
        poly = sympy.Poly(sympy.cancel(term.subs(r, 1 / w)), w)
        assert poly.degree() <= 1
        return m * poly.coeff_monomial(1) + R * poly.coeff_monomial(w)

    x = 2 * s - 2 / r
    u, d = r * x, r * (s - x)
    assert sympy.simplify(u - 2 * (r * s - 1)) == 0
    assert sympy.simplify(d - (2 - r * s)) == 0
    assert sympy.simplify(u / (d - 1) + 2) == 0
    assert sympy.simplify(u / (d - 2) - (-2 + 2 / (r * s))) == 0
    # sum_S x_k = s fixes s, which is positive, so d_k - 2 = -r_k s is never 0
    (s_fixed,) = sympy.solve(sum_over_support(x) - s, s)
    assert sympy.simplify(s_fixed - 2 * R / (2 * m - 1)) == 0
    f_two = 1 + sum_over_support(u / (d - 2))
    assert sympy.simplify(f_two - (1 - 2 * m + 2 * R / s)) == 0
    assert sympy.simplify(f_two.subs(s, s_fixed)) == 0
    # f(1) < 0 for every m >= 1 (where no d_k is 1, that is no x_k is 0).
    # At a feasible point every u_k > 0 and every d_k < 1 (the type theorem
    # in test_theorems.py), so f rises from -inf to 1 above the largest d_k
    # and 2 is the one eigenvalue of J_SS above 1
    f_one = 1 + sum_over_support(u / (d - 1))
    assert sympy.simplify(f_one - (1 - 2 * m)) == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_region_constraints_are_redundant_past_a_rate_ratio_of_two(n):
    x = sympy.symbols(f"x1:{n + 1}", nonnegative=True)
    lhs = [2 * sum(x) - x[k] for k in range(n)]
    for j, k in itertools.permutations(range(n), 2):
        rest = sum(x[i] for i in range(n) if i not in (j, k))
        assert sympy.expand(2 * lhs[j] - lhs[k] - (3 * x[k] + 2 * rest)) == 0
    # with r_j = 2 r_k + d, d > 0: lhs_j <= 2/r_j gives lhs_k <= 4/r_j < 2/r_k
    # (MBAR1), and lhs_k >= 2/r_k gives lhs_j >= 1/r_k > 2/r_j (MBAR2)
    r, d = sympy.symbols("r d", positive=True)
    assert sympy.factor(2 / r - 4 / (2 * r + d)).is_positive
    assert sympy.factor(1 / r - 2 / (2 * r + d)).is_positive


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_direction_game_is_strictly_stable(n):
    # the payoff matrix A = 2 r 1^T - diag(r) of the direction map: on the
    # tangent space sum z = 0 of the simplex, z^T A z = -sum r_k z_k^2 < 0
    r = sympy.symbols(f"r1:{n + 1}", positive=True)
    z = list(sympy.symbols(f"z1:{n}"))
    z.append(-sum(z))
    a = sympy.Matrix(n, n, lambda k, j: 2 * r[k] - (r[k] if k == j else 0))
    zv = sympy.Matrix(z)
    assert sympy.expand((zv.T * a * zv)[0] + sum(r[k] * z[k] ** 2 for k in range(n))) == 0


def test_feasibility_is_a_sign_on_each_support_coordinate():
    # on a support of m coordinates with R = sum_S 1/r_j, the coordinate of
    # fixed_points._points times the positive (2m - 1) r_k / 2 is 2 R r_k - (2m - 1)
    r, R, m = sympy.symbols("r R m", positive=True)
    x = (4 * R - (4 * m - 2) / r) / (2 * m - 1)
    assert sympy.simplify((2 * m - 1) * r * x / 2 - (2 * R * r - (2 * m - 1))) == 0
    theta = [sympy.Rational(3, 7), sympy.Rational(5, 4), sympy.Integer(2), sympy.Rational(11, 10)]
    points = enumerate_fixed_points(Rates([float(t) for t in theta]))
    for support in nonzero_supports(len(theta)):
        total = sum(1 / theta[j] for j in support)
        signs = [2 * total * theta[k] - (2 * len(support) - 1) >= 0 for k in support]
        assert points[sum(1 << k for k in support)].feasible == all(signs), support


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
