"""Tests for the bump geometry and the induced radial operator coefficients.

The exact operator, to all orders in the bump height, is derived here with
sympy from the surface's fundamental forms; it is checked against the
textbook forms of its coefficients evaluated by mpmath differentiation at
30 significant digits, and the module's first-order operator is checked
against its series.  The module's hand-coded derivative algebra is never
compared against itself.
"""

import math
import warnings

import numpy as np
import pytest
import sympy as sp
from mpmath import mp

from bumpscatter.surface import BumpProfile, operator_coeffs_first_order

# Run every test at 30 digits without mutating the shared mpmath context
# (other test modules pick their own working precision).
@pytest.fixture(autouse=True)
def _thirty_digits():
    with mp.workdps(30):
        yield


def _mp_exact_operator(delta: float, r: float, lambdas):
    """a/r^2, b/r^2 and c of the exact operator at r, from the textbook
    forms a = G^2, b = G^2 + r G G' (G = f'/sqrt(1 + f'^2)) and
    c = 2 l1 K + 2 l2 M^2, with f' and f'' by mpmath differentiation."""
    d = mp.mpf(delta)

    def f(x):
        return d * mp.exp(-x * x / 2)

    rr = mp.mpf(r)
    f1 = mp.diff(f, rr, 1)
    f2 = mp.diff(f, rr, 2)
    w = 1 + f1 * f1
    a_over_r2 = f1 * f1 / (w * rr * rr)
    K = f1 * f2 / (rr * w * w)
    M = (f2 / w ** mp.mpf("1.5") + f1 / (rr * mp.sqrt(w))) / 2
    c = 2 * mp.mpf(lambdas[0]) * K + 2 * mp.mpf(lambdas[1]) * M * M
    return float(a_over_r2), float(a_over_r2 + f1 * f2 / (rr * w * w)), float(c)


def test_profile_derivative_spot_values():
    p = BumpProfile(delta=0.4)
    np.testing.assert_allclose(p.value(0.0), 0.4, rtol=1e-15)
    np.testing.assert_allclose(p.slopes(1.0)[0], -0.4 * math.exp(-0.5), rtol=1e-14)
    _, gr0, g20 = p.slopes(0.0)
    np.testing.assert_allclose(g20, -0.4, rtol=1e-14)
    np.testing.assert_allclose(gr0, -0.4, rtol=1e-14)
    # f'' changes sign at r = sigma = 1.
    assert p.slopes(1.0)[2] == 0.0
    # f'/r agrees with f' divided by r away from the axis.
    r = np.array([0.2, 0.9, 2.4])
    g, gr, _ = p.slopes(r)
    np.testing.assert_allclose(gr, g / r, rtol=1e-14)


def test_profile_derivatives_against_mpmath():
    p = BumpProfile(delta=0.25)

    def f(x):
        return mp.mpf("0.25") * mp.exp(-x * x / 2)

    for r in (0.1, 0.7, 1.9, 3.5):
        g, _, g2 = p.slopes(r)
        np.testing.assert_allclose(g, float(mp.diff(f, r, 1)), rtol=1e-12)
        np.testing.assert_allclose(g2, float(mp.diff(f, r, 2)), rtol=1e-12)


def test_operator_coefficients_regular_at_origin():
    p = BumpProfile(delta=0.1)
    coeffs = operator_coeffs_first_order(np.array([0.0, 1e-10]), p)
    for field in (coeffs.a_over_r2, coeffs.b_over_r2, coeffs.c1, coeffs.c2):
        assert np.all(np.isfinite(field))
        # Value just off the axis matches the axis value.
        scale = max(abs(field[0]), 1e-3)
        assert abs(field[1] - field[0]) <= 1e-6 * scale
    # The origin-regular ratios take their analytic limits.
    c1 = operator_coeffs_first_order(0.0, p)
    # At the axis f'(r)/r and f''(r) both tend to -delta.
    np.testing.assert_allclose(c1.a_over_r2, 0.1**2, rtol=1e-13)
    np.testing.assert_allclose(c1.b_over_r2, 2.0 * 0.1**2, rtol=1e-13)


def test_ratio_fields_match_direct_division():
    p = BumpProfile(delta=0.2)
    r = np.linspace(0.05, 5.0, 40)
    g, _, g2 = p.slopes(r)
    # the polar a and b at first order: f'^2 and f'^2 + r f' f''
    coeffs = operator_coeffs_first_order(r, p)
    np.testing.assert_allclose(coeffs.a_over_r2, g * g / r**2, rtol=1e-12)
    np.testing.assert_allclose(coeffs.b_over_r2, (g * g + r * g * g2) / r**2, rtol=1e-12)


def test_first_order_operator_takes_one_gaussian(monkeypatch):
    p = BumpProfile(delta=0.3)
    r = np.linspace(0.0, 6.0, 101)
    calls = []
    gauss = BumpProfile._gauss

    def counted(self, radius):
        calls.append(radius)
        return gauss(self, radius)

    monkeypatch.setattr(BumpProfile, "_gauss", counted)
    oc = operator_coeffs_first_order(r, p)
    assert len(calls) == 1
    monkeypatch.undo()
    # every field equals its formula over the three slopes
    _, gr, g2 = p.slopes(r)
    assert np.array_equal(oc.a_over_r2, gr * gr)
    assert np.array_equal(oc.b_over_r2, gr * gr + gr * g2)
    assert np.array_equal(oc.c1, 2.0 * gr * g2)
    assert np.array_equal(oc.c2, 0.5 * (gr + g2) ** 2)


def test_eta_soft_limit_warns():
    with pytest.warns(UserWarning, match="eta"):
        BumpProfile(delta=0.6)  # eta = 0.36
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        BumpProfile(delta=0.5)  # eta = 0.25, no warning


def test_invalid_parameters_raise():
    with pytest.raises(ValueError):
        BumpProfile(delta=float("nan"))


def test_vectorization_shapes():
    p = BumpProfile(delta=0.3)
    r = np.linspace(0.0, 3.0, 17).reshape(17, 1) * np.ones((1, 3))
    coeffs = operator_coeffs_first_order(r, p)
    for field in (coeffs.a_over_r2, coeffs.b_over_r2, coeffs.c1, coeffs.c2):
        assert field.shape == r.shape


# ---------------------------------------------------------------------------
# The operator derived from the embedding (ROADMAP item 12(a))


_R, _THETA, _DELTA, _L1, _L2 = sp.symbols("r theta delta lambda1 lambda2", positive=True)
_F = sp.Function("f")(_R)
_RADII = (0.3, 1.0, 2.5, 4.0)


@pytest.fixture(scope="module")
def derived_operator():
    """-(Delta_g - Delta) + 2 l1 K + 2 l2 M^2 on h(r, theta), derived by
    sympy for the embedding (r cos theta, r sin theta, f(r)) of a generic
    f: Delta_g from the first fundamental form, K and M from the first and
    second.  Returns the coefficients of h_rr, h_r and h (a, b/r and c) and
    those of h_theta, h_r_theta, h_theta_theta (the angular remainder)."""
    r, theta = _R, _THETA
    x = sp.Matrix([r * sp.cos(theta), r * sp.sin(theta), _F])
    coords = (r, theta)
    tangent = [x.diff(q) for q in coords]
    first = sp.Matrix(2, 2, lambda i, j: sp.simplify(tangent[i].dot(tangent[j])))
    det = sp.factor(first.det())
    inverse = sp.simplify(first.inv())
    h = sp.Function("h")(r, theta)
    laplace_g = sum(sp.diff(sp.sqrt(det) * inverse[i, j] * h.diff(coords[j]), coords[i])
                    for i in range(2) for j in range(2)) / sp.sqrt(det)
    laplace = h.diff(r, 2) + h.diff(r) / r + h.diff(theta, 2) / r**2
    normal = tangent[0].cross(tangent[1])
    normal /= sp.sqrt(sp.simplify(normal.dot(normal)))
    second = sp.Matrix(2, 2, lambda i, j: sp.simplify(x.diff(coords[i], coords[j]).dot(normal)))
    gauss_k = second.det() / det
    mean_m = (first[0, 0] * second[1, 1] - 2 * first[0, 1] * second[0, 1]
              + first[1, 1] * second[0, 0]) / (2 * det)
    op = -(laplace_g - laplace) + (2 * _L1 * gauss_k + 2 * _L2 * mean_m**2) * h
    # h and its derivatives as symbols: op is linear in them
    hs = sp.symbols("h h_r h_rr h_theta h_rtheta h_thetatheta")
    op = sp.expand(op.xreplace({h.diff(r, 2): hs[2], h.diff(r, theta): hs[4],
                                h.diff(theta, 2): hs[5]})
                   .xreplace({h.diff(r): hs[1], h.diff(theta): hs[3]}).xreplace({h: hs[0]}))
    coeffs = [sp.simplify(op.diff(s)) for s in hs]
    assert sp.simplify(op - sum(c * s for c, s in zip(coeffs, hs))) == 0
    c, b_over_r, a = coeffs[:3]
    return (a, b_over_r, c), coeffs[3:]


def _at_radii(expr, lambdas, delta=0.3):
    """expr of f = delta e^{-r^2/2} at _RADII, evaluated to 30 digits and
    rounded to floats."""
    expr = expr.subs(_F, _DELTA * sp.exp(-_R**2 / 2)).doit()
    values = {_DELTA: sp.nsimplify(delta), _L1: sp.nsimplify(lambdas[0]),
              _L2: sp.nsimplify(lambdas[1])}
    return np.array([float(sp.N(expr.subs(values).subs(_R, sp.nsimplify(r)), 30))
                     for r in _RADII])


def _lambdified(expr):
    """expr of f = delta e^{-r^2/2} as a numpy function of (r, delta,
    lambda1, lambda2), its fractions cancelled so that r = 0 is regular."""
    expr = sp.cancel(expr.subs(_F, _DELTA * sp.exp(-_R**2 / 2)).doit())
    return sp.lambdify((_R, _DELTA, _L1, _L2), expr, "numpy")


@pytest.mark.parametrize("lambdas", [(0.5, -0.5), (0.7, -0.3)])
def test_exact_operator_is_derived_from_the_embedding(derived_operator, lambdas):
    # The operator derived from the surface's fundamental forms has no
    # angular part, and its a, b and c are the textbook a = G^2,
    # b = G^2 + r G G' and c = 2 l1 K + 2 l2 M^2 of the graph of
    # revolution, evaluated independently by mpmath differentiation at
    # delta = 0.3 (measured worst: 2.4e-16 relative, both sides rounded
    # from 30 digits).
    (a, b_over_r, c), angular = derived_operator
    assert angular == [0, 0, 0]
    ref = np.array([_mp_exact_operator(0.3, r, lambdas) for r in _RADII]).T
    for field, expr in zip(ref, (a / _R**2, b_over_r / _R, c)):
        np.testing.assert_allclose(field, _at_radii(expr, lambdas), rtol=2e-15, atol=0)


@pytest.mark.parametrize("eta", [1e-3, 1e-5])
def test_first_order_truncation_is_order_eta(derived_operator, eta):
    delta = math.sqrt(eta)
    r = np.linspace(0.0, 6.0, 301)
    (a, b_over_r, c), _ = derived_operator
    exact = [_lambdified(expr)(r, delta, 0.5, -0.5) for expr in (a / _R**2, b_over_r / _R, c)]
    first = operator_coeffs_first_order(r, BumpProfile(delta=delta))
    for e, f in zip(exact, (first.a_over_r2, first.b_over_r2, 0.5 * first.c1 - 0.5 * first.c2)):
        # The truncated coefficients are themselves O(eta), so the O(eta^2)
        # absolute truncation error is O(eta) relative, with an eta^2
        # absolute floor where the truncated coefficient crosses zero.
        assert np.all(np.abs(e - f) <= 5.0 * eta * np.abs(f) + 5.0 * eta * eta)


def test_first_order_c_decouples_lambda_terms(derived_operator):
    # c1 and c2 are the first-order parts of the exact c at the unit
    # weights (1, 0) and (0, 1), 2K and 2M^2, each to the truncation
    # bound above.
    eta = 1e-3
    r = np.linspace(0.0, 4.0, 50)
    (_, _, c), _ = derived_operator
    exact = _lambdified(c)
    first = operator_coeffs_first_order(r, BumpProfile(delta=math.sqrt(eta)))
    for e, f in ((exact(r, math.sqrt(eta), 1.0, 0.0), first.c1),
                 (exact(r, math.sqrt(eta), 0.0, 1.0), first.c2)):
        assert np.all(np.abs(e - f) <= 5.0 * eta * np.abs(f) + 5.0 * eta * eta)


def test_first_order_operator_is_the_series_truncation(derived_operator):
    # The series of the derived coefficients in delta (f = delta phi) starts
    # at delta^2 and has no delta^3 term, so truncating it at delta^2 leaves
    # O(eta^2); that delta^2 term is operator_coeffs_first_order, with the
    # curvature parts c1 and c2 the terms of dc/dlambda1 and dc/dlambda2, to
    # rounding (measured worst: 2.2e-16 relative).
    phi = sp.exp(-_R**2 / 2)
    got = operator_coeffs_first_order(np.array(_RADII), BumpProfile(0.3))
    (a, b_over_r, c), _ = derived_operator
    for field, expr in ((got.a_over_r2, a / _R**2), (got.b_over_r2, b_over_r / _R),
                        (got.c1, c.diff(_L1)), (got.c2, c.diff(_L2))):
        series = sp.series(expr.subs(_F, _DELTA * phi).doit(), _DELTA, 0, 4).removeO()
        terms = sp.Poly(series, _DELTA).all_coeffs()[::-1]
        assert [sp.simplify(t) for t in terms[:2] + terms[3:]] == [0] * (len(terms) - 1)
        truncated = (terms[2] * _DELTA**2).subs(_DELTA * phi, _F)
        np.testing.assert_allclose(field, _at_radii(truncated, (0.0, 0.0)), rtol=2e-15, atol=0)
