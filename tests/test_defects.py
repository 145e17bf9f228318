"""Tests for the exact multi-delta-line scattering state.

The physics checks are equation-level: the profile must satisfy the 1D
Helmholtz equation away from the lines, the derivative jump condition at
each line, an outgoing far field, and flux conservation of the far-field
coefficients.  Those conditions pin the solution uniquely, so they are a
full functional test of the linear-system route without re-deriving it.
The state is also the bra of first-order perturbation theory: an ODE
integration of a weakly perturbed 1D problem checks that without the
linear system.
"""

import cmath
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bumpscatter.defects import (
    COND_LIMIT,
    DefectSet,
    InputError,
    Kinematics,
    SingularMatrixError,
    build_defect_matrix,
    chi_dual_profile,
    chi_profile,
    f0_distributional,
    psi0,
    psi0_dual,
    t_coefficients,
)

# ---------------------------------------------------------------------------
# DefectSet construction


def test_defect_set_sorts_positions_with_couplings():
    ds = DefectSet([3.0, -3.0, 0.5], [1.0, 2.0, 3.0])
    assert ds.positions == (-3.0, 0.5, 3.0)
    assert ds.couplings == (2.0 + 0.0j, 3.0 + 0.0j, 1.0 + 0.0j)
    assert ds.n == 3
    assert ds.all_real_couplings()


def test_defect_set_drops_zero_couplings_with_warning():
    with pytest.warns(UserWarning, match="zero-coupling"):
        ds = DefectSet([-1.0, 0.0, 1.0], [1.0, 0.0, 2.0])
    assert ds.positions == (-1.0, 1.0)
    assert ds.n == 2


def test_defect_set_validation_errors():
    with pytest.raises(ValueError):
        DefectSet([0.0, 0.0], [1.0, 1.0])  # coincident lines
    with pytest.raises(ValueError):
        DefectSet([0.0, 5e-10], [1.0, 1.0])  # below minimum separation
    with pytest.raises(ValueError):
        DefectSet([0.0], [1.0, 2.0])  # length mismatch
    with pytest.raises(ValueError):
        DefectSet([float("nan")], [1.0])
    with pytest.raises(ValueError):
        DefectSet([0.0], [complex("inf")])


def test_empty_defect_set_is_valid():
    ds = DefectSet()
    assert ds.n == 0
    assert build_defect_matrix(1.0, ds).matrix.shape == (0, 0)
    tc = t_coefficients(1.0, ds)
    assert tc.t_plus == 0.0 and tc.t_minus == 0.0
    x = np.linspace(-2, 2, 9)
    np.testing.assert_array_equal(chi_profile(x, 1.0, ds), np.exp(1j * x))
    np.testing.assert_array_equal(chi_dual_profile(x, 1.0, ds), np.exp(1j * x))


# ---------------------------------------------------------------------------
# Kinematics


def test_kinematics_derived_quantities():
    kin = Kinematics(bigK=2.0, theta0=0.0, theta=math.pi)
    np.testing.assert_allclose(kin.s, 1.0, rtol=1e-15)
    np.testing.assert_allclose(kin.beta, 2.0, rtol=1e-15)
    np.testing.assert_allclose(kin.gamma, 0.0, atol=1e-15)
    np.testing.assert_allclose(kin.kx, 2.0, rtol=1e-15)
    np.testing.assert_allclose(kin.kx_out, -2.0, rtol=1e-15)
    kin2 = Kinematics(bigK=1.0, theta0=0.2, theta=0.2)
    assert kin2.Theta == pytest.approx(0.0, abs=1e-15)
    assert kin2.s == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(kin2.gamma, 1.0, rtol=1e-15)


def test_kinematics_theta_normalization():
    assert Kinematics(1.0, 0.0, 2.0 * math.pi).theta == pytest.approx(0.0, abs=1e-15)
    assert Kinematics(1.0, 0.0, -math.pi).theta == pytest.approx(math.pi)
    assert Kinematics(1.0, 0.0, 1.5 * math.pi).theta == pytest.approx(-0.5 * math.pi)
    th = Kinematics(1.0, 0.0, 0.7).theta
    assert th == pytest.approx(0.7, abs=1e-15)


def test_kinematics_validation():
    with pytest.raises(ValueError):
        Kinematics(bigK=0.0, theta0=0.0, theta=1.0)
    with pytest.raises(ValueError):
        Kinematics(bigK=-1.0, theta0=0.0, theta=1.0)
    with pytest.raises(ValueError):
        Kinematics(bigK=1.0, theta0=math.pi / 2, theta=1.0)
    with pytest.raises(ValueError):
        Kinematics(bigK=1.0, theta0=-math.pi / 2 + 1e-9, theta=1.0)
    with pytest.raises(ValueError):
        Kinematics(bigK=1.0, theta0=0.0, theta=float("nan"))


def test_array_kinematics_equals_its_points_bit_for_bit():
    # One array instance holds the same numbers as one instance per point,
    # angles outside [-pi/2, 3pi/2) and on its ends included.
    rng = np.random.default_rng(7)
    theta = np.concatenate([rng.uniform(-9.0, 9.0, 40),
                            [-0.5 * math.pi, 1.5 * math.pi, -1.5 * math.pi, 0.0, -0.0]])
    bigK = rng.uniform(0.01, 5.0, theta.size)
    kin = Kinematics(bigK, 0.3, theta)
    points = [Kinematics(k, 0.3, th) for k, th in zip(bigK.tolist(), theta.tolist())]
    for name in ("theta", "Theta", "s", "beta", "gamma", "kx", "ky", "kx_out", "ky_out"):
        values = getattr(kin, name)
        assert isinstance(values, np.ndarray) and values.shape == theta.shape
        assert [x.hex() for x in values.tolist()] == [getattr(p, name).hex() for p in points]


def test_array_kinematics_raises_the_first_bad_points_error():
    theta = np.array([0.1, 0.2, float("nan"), 0.4])
    bigK = np.array([1.0, 1.0, 1.0, -2.0])
    for bad_k, bad_theta, i in ((bigK, theta, 2), (bigK[[0, 1, 3, 2]], theta, 2),
                                (np.ones(4), theta, 2), (bigK, np.zeros(4), 3)):
        with pytest.raises(InputError) as info:
            Kinematics(bad_k, 0.0, bad_theta)
        with pytest.raises(InputError) as point:
            Kinematics(float(bad_k[i]), 0.0, float(bad_theta[i]))
        assert str(info.value) == str(point.value)
    with pytest.raises(InputError, match="theta0"):
        Kinematics(np.ones(2), math.pi / 2, np.zeros(2))
    with pytest.raises(InputError, match="1-D"):
        Kinematics(np.ones(2), 0.0, np.zeros(3))
    # no point, no point to refuse
    assert Kinematics(np.ones(0), math.pi / 2, np.zeros(0)).s.size == 0


def test_input_checks_raise_the_typed_input_error():
    import bumpscatter

    assert bumpscatter.InputError is InputError
    assert issubclass(InputError, ValueError)
    for make in (lambda: DefectSet([0.0, 0.0], [1.0, 1.0]),
                 lambda: DefectSet([0.0], [1.0, 2.0]),
                 lambda: DefectSet([math.inf], [1.0]),
                 lambda: DefectSet([0.0], [complex("nan")]),
                 lambda: Kinematics(bigK=math.inf, theta0=0.0, theta=1.0),
                 lambda: Kinematics(bigK=1.0, theta0=math.pi / 2, theta=1.0),
                 lambda: Kinematics(bigK=1.0, theta0=0.0, theta=math.inf)):
        with pytest.raises(InputError):
            make()


# ---------------------------------------------------------------------------
# Defect matrix and far-field coefficients


def test_single_defect_frozen_values():
    ds = DefectSet([0.0], [1.0])
    dm = build_defect_matrix(1.0, ds)
    np.testing.assert_allclose(dm.matrix, [[2.0 + 1.0j]], rtol=1e-15)
    np.testing.assert_allclose(dm.inverse, [[(2.0 - 1.0j) / 5.0]], rtol=1e-15)
    tc = t_coefficients(1.0, ds)
    np.testing.assert_allclose(tc.t_plus, -0.2 - 0.4j, rtol=1e-14)
    np.testing.assert_allclose(tc.t_minus, -0.2 - 0.4j, rtol=1e-14)
    np.testing.assert_allclose(tc.unitarity, 1.0, rtol=1e-14)


def test_matrix_is_symmetric_and_inverse_is_accurate():
    rng = np.random.default_rng(42)
    for n in (1, 2, 3, 5, 8, 16):
        alphas = np.cumsum(rng.uniform(0.3, 1.5, size=n)) - n / 2
        z = rng.uniform(0.2, 5.0, size=n)
        ds = DefectSet(alphas, z)
        dm = build_defect_matrix(1.7, ds)
        np.testing.assert_array_equal(dm.matrix, dm.matrix.T)
        np.testing.assert_allclose(dm.cond, np.linalg.cond(dm.matrix, 1), rtol=1e-12)
        resid = dm.matrix @ dm.inverse - np.eye(n)
        assert np.max(np.abs(resid)) <= 1e-12 * max(dm.cond, 1.0)
        assert np.max(np.abs(resid)) <= 1e-10


def test_singular_matrix_raises_with_condition_estimate():
    # z = 2 i kx makes the single-defect matrix exactly zero.
    ds = DefectSet([0.0], [2.0j])
    with pytest.raises(SingularMatrixError) as exc_info:
        build_defect_matrix(1.0, ds)
    assert exc_info.value.cond > COND_LIMIT


def test_stacked_build_equals_scalar_builds():
    # A 1-D kx stacks one matrix, inverse and condition number per point.
    ds = DefectSet([-1.0, 0.5, 2.0], [1.0, 0.7 - 0.2j, 2.0])
    kx = np.array([0.7, -0.3, 0.7, 1.9])
    dm = build_defect_matrix(kx, ds)
    assert dm.inverse.shape == (4, 3, 3) and dm.cond.shape == (4,)
    b = np.exp(1j * kx[:, None] * ds.alphas)
    w = dm.weights(b)
    for i, k in enumerate(kx.tolist()):
        one = build_defect_matrix(k, ds)
        assert np.array_equal(dm.matrix[i], one.matrix)
        assert np.array_equal(dm.inverse[i], one.inverse)
        assert dm.cond[i] == one.cond
        np.testing.assert_allclose(w[i], one.weights(b[i]), rtol=1e-15)
    assert build_defect_matrix(kx, DefectSet()).cond.tolist() == [1.0] * 4


def test_stacked_build_marks_singular_points_instead_of_raising():
    # z = 2 i kx makes the single-defect matrix exactly zero at kx = 1 only.
    ds = DefectSet([0.0], [2.0j])
    dm = build_defect_matrix(np.array([0.5, 1.0, 0.5]), ds)
    assert dm.cond[1] == np.inf and np.isnan(dm.inverse[1]).all()
    assert np.isfinite(dm.cond[[0, 2]]).all()
    with pytest.raises(SingularMatrixError) as exc_info:
        dm.require_regular()
    assert exc_info.value.cond > COND_LIMIT
    regular = build_defect_matrix(np.array([0.5, 0.5]), ds)
    assert regular.require_regular().cond.tolist() == [dm.cond[0]] * 2


@settings(max_examples=200, deadline=None)
@given(
    st.data(),
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.2, max_value=5.0),
)
def test_unitarity_for_real_couplings(data, n, kx):
    gaps = data.draw(
        st.lists(
            st.floats(min_value=0.05, max_value=1.2),
            min_size=n,
            max_size=n,
        )
    )
    z = data.draw(
        st.lists(
            st.floats(min_value=0.1, max_value=10.0),
            min_size=n,
            max_size=n,
        )
    )
    alphas = np.cumsum(gaps) - 0.5 * sum(gaps)
    ds = DefectSet(alphas, z)
    tc = t_coefficients(kx, ds)
    assert abs(tc.unitarity - 1.0) <= 1e-10


def test_t_coefficients_match_explicit_double_sums():
    # t+ = -i ebar.w and t- = -i e.w against the double sums over Ainv,
    # with complex couplings so no reality helps either side.
    kx = 1.3
    ds = DefectSet([-1.2, 0.4, 2.1], [0.8 + 0.3j, 1.7, 2.2 - 0.5j])
    ainv = build_defect_matrix(kx, ds).inverse
    a = ds.alphas
    tc = t_coefficients(kx, ds)
    t_plus = -1j * np.sum(ainv * np.cos(kx * (a[:, None] - a[None, :])))
    t_minus = -1j * np.sum(ainv * np.exp(1j * kx * (a[:, None] + a[None, :])))
    np.testing.assert_allclose(tc.t_plus, t_plus, rtol=1e-13)
    np.testing.assert_allclose(tc.t_minus, t_minus, rtol=1e-13)


def test_unitarity_fails_for_absorbing_coupling():
    # A complex coupling models absorption; flux conservation must break.
    ds = DefectSet([0.0], [1.0 + 1.0j])
    tc = t_coefficients(1.0, ds)
    assert abs(tc.unitarity - 1.0) > 1e-3


# ---------------------------------------------------------------------------
# The scattering state itself: Helmholtz equation, jumps, limits


def _laplacian_residual(kin, ds, x, y, h):
    """|(lap + K^2) psi0| / (K^2 |psi0|) via the 5-point stencil."""
    c = psi0(x, y, kin, ds)
    lap = (
        psi0(x + h, y, kin, ds)
        + psi0(x - h, y, kin, ds)
        + psi0(x, y + h, kin, ds)
        + psi0(x, y - h, kin, ds)
        - 4.0 * c
    ) / (h * h)
    return abs(complex(lap + kin.bigK**2 * c)) / (kin.bigK**2 * abs(complex(c)))


def test_psi0_satisfies_helmholtz_off_the_lines():
    kin = Kinematics(bigK=1.3, theta0=0.3, theta=0.9)
    ds = DefectSet([-1.5, 0.4, 2.2], [0.7, 1.8, 3.0])
    for x, y in ((-0.6, 0.8), (1.1, -2.0), (3.4, 0.1), (-4.0, 5.0)):
        r1 = _laplacian_residual(kin, ds, x, y, h=2e-3)
        r2 = _laplacian_residual(kin, ds, x, y, h=1e-3)
        assert r2 <= 1e-6
        # Second-order stencil: quartering h should cut the residual ~4x.
        assert r1 / r2 == pytest.approx(4.0, rel=0.3)


def test_psi0_dual_satisfies_helmholtz_off_the_lines():
    kin = Kinematics(bigK=1.3, theta0=0.3, theta=0.9)
    ds = DefectSet([-1.5, 0.4, 2.2], [0.7, 1.8, 3.0])
    for x, y in ((-0.6, 0.8), (1.1, -2.0)):
        c = psi0_dual(x, y, kin, ds)
        h = 1e-3
        lap = (
            psi0_dual(x + h, y, kin, ds)
            + psi0_dual(x - h, y, kin, ds)
            + psi0_dual(x, y + h, kin, ds)
            + psi0_dual(x, y - h, kin, ds)
            - 4.0 * c
        ) / (h * h)
        resid = abs(complex(lap + kin.bigK**2 * c)) / (kin.bigK**2 * abs(complex(c)))
        assert resid <= 1e-6


def _one_sided_derivative(f, a, side, h=1e-5):
    s = 1.0 if side > 0 else -1.0
    return s * (-3.0 * f(a) + 4.0 * f(a + s * h) - f(a + 2.0 * s * h)) / (2.0 * h)


@pytest.mark.parametrize("profile", [chi_profile, chi_dual_profile])
def test_derivative_jump_at_each_line(profile):
    kx = 1.37
    ds = DefectSet([-1.2, 0.7, 2.0], [0.8, 2.5, 1.1])

    def f(x):
        return complex(profile(x, kx, ds))

    for a, z in zip(ds.positions, ds.couplings):
        jump = _one_sided_derivative(f, a, +1) - _one_sided_derivative(f, a, -1)
        np.testing.assert_allclose(jump, z * f(a), rtol=0, atol=1e-8)


def test_chi_far_field_limits_match_t_coefficients():
    # Far behind the array chi -> (1 + t_plus) e^{ikx x}; far in front the
    # scattered part is t_minus e^{-ikx x}.
    kx = 0.9
    ds = DefectSet([-0.8, 0.5], [1.3, 2.1])
    tc = t_coefficients(kx, ds)
    x_right = 300.0
    expect_right = (1.0 + tc.t_plus) * cmath.exp(1j * kx * x_right)
    np.testing.assert_allclose(
        complex(chi_profile(x_right, kx, ds)), expect_right, rtol=1e-12
    )
    x_left = -300.0
    expect_left = cmath.exp(1j * kx * x_left) + tc.t_minus * cmath.exp(-1j * kx * x_left)
    np.testing.assert_allclose(
        complex(chi_profile(x_left, kx, ds)), expect_left, rtol=1e-12
    )


@pytest.mark.parametrize("q", [0.9, -0.9])
def test_chi_is_outgoing_for_either_sign_of_kx(q):
    # Beyond the lines the scattered part is C e^{i |q| |x|} alone: sampled a
    # quarter wave apart its envelope is the same, where an incoming
    # e^{-i |q| |x|} would flip its sign.
    ds = DefectSet([-1.0, 2.5], [1.3 + 0.4j, 0.7 - 0.2j])
    k = abs(q)
    for side in (1.0, -1.0):
        x = side * np.array([300.0, 300.0 + 0.5 * math.pi / k])
        envelope = (chi_profile(x, q, ds) - np.exp(1j * q * x)) * np.exp(-1j * k * np.abs(x))
        np.testing.assert_allclose(envelope[1], envelope[0], rtol=1e-12)
    # Transmission is reciprocal, also for complex couplings: downstream,
    # either way, chi is (1 + t_plus) e^{i q x}.
    x_far = math.copysign(300.0, q)
    np.testing.assert_allclose(
        complex(chi_profile(x_far, q, ds)),
        (1.0 + t_coefficients(k, ds).t_plus) * cmath.exp(1j * q * x_far), rtol=1e-12)


# The 1D problem -chi'' + sum_n z_n delta(x - a_n) chi + eps V chi = k^2 chi:
# the eps-derivatives of its exact transmitted and reflected amplitudes are
#     dt+/deps = -(i/2k) int chi+(x; -k) V chi+(x; k) dx,
#     dt-/deps = -(i/2k) int chi+(x; +k) V chi+(x; k) dx,
# with the outgoing state chi+ = chi_profile, unconjugated, as the bra.
_K_1D = 0.9
_DEFECTS_1D = DefectSet([-1.0, 2.5], [1.3 + 0.4j, 0.7 - 0.2j])
_BOX_1D = (-8.0, 9.0)  # V < 1e-30 outside
_EPS_1D = 2e-5


def _v_1d(x):
    return np.exp(-((x - 0.4) ** 2)) * (1.0 + 0.3 * x)


def _ode_amplitudes(eps, step=0.005):
    """(t+, t-) of the 1D problem for each eps in the array eps.

    Fixed-step RK4 from the purely transmitted wave e^{ikx} at the right
    edge of the box to its left edge, with the jump chi'(a-) = chi'(a+) -
    z chi(a) at each line; there chi = A e^{ikx} + B e^{-ikx}, and the
    incident wave normalized to 1 gives 1 + t+ = 1/A and t- = B/A.
    """
    k, (lo, hi) = _K_1D, _BOX_1D

    def rhs(x, c, d):
        return d, (eps * _v_1d(x) - k * k) * c

    c = np.full(eps.shape, cmath.exp(1j * k * hi))
    d = 1j * k * c
    x = hi
    for a, z in [*zip(_DEFECTS_1D.alphas[::-1], _DEFECTS_1D.z[::-1]), (lo, 0.0)]:
        n = round((x - a) / step)
        h = (a - x) / n
        for i in range(n):
            xi = x + i * h
            k1 = rhs(xi, c, d)
            k2 = rhs(xi + 0.5 * h, c + 0.5 * h * k1[0], d + 0.5 * h * k1[1])
            k3 = rhs(xi + 0.5 * h, c + 0.5 * h * k2[0], d + 0.5 * h * k2[1])
            k4 = rhs(xi + h, c + h * k3[0], d + h * k3[1])
            c = c + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            d = d + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        x = a
        d = d - z * c
    A = 0.5 * (c + d / (1j * k)) * cmath.exp(-1j * k * lo)
    B = 0.5 * (c - d / (1j * k)) * cmath.exp(1j * k * lo)
    return 1.0 / A - 1.0, B / A


@functools.cache
def _amplitude_derivatives():
    """Central differences (dt+/deps, dt-/deps) at eps = +-_EPS_1D."""
    tp, tm = _ode_amplitudes(np.array([_EPS_1D, -_EPS_1D]))
    return (tp[0] - tp[1]) / (2.0 * _EPS_1D), (tm[0] - tm[1]) / (2.0 * _EPS_1D)


def _born_1d(bra):
    """-(i/2k) int bra(x) V chi+(x; k) dx by order-20 Gauss-Legendre on
    panels of width 1/2 with edges at the lines."""
    nodes, weights = np.polynomial.legendre.leggauss(20)
    edges = np.union1d(np.arange(_BOX_1D[0], _BOX_1D[1] + 0.25, 0.5), _DEFECTS_1D.alphas)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    x = (mid[:, None] + half[:, None] * nodes).ravel()
    w = (half[:, None] * weights).ravel()
    integrand = bra(x) * _v_1d(x) * chi_profile(x, _K_1D, _DEFECTS_1D)
    return -0.5j / _K_1D * np.sum(w * integrand)


def test_ode_reproduces_the_unperturbed_amplitudes():
    tp, tm = _ode_amplitudes(np.zeros(1))
    tc = t_coefficients(_K_1D, _DEFECTS_1D)
    np.testing.assert_allclose(tp[0], tc.t_plus, rtol=1e-8)
    np.testing.assert_allclose(tm[0], tc.t_minus, rtol=1e-8)


def test_outgoing_state_is_the_first_order_bra():
    dtp, dtm = _amplitude_derivatives()
    k, ds = _K_1D, _DEFECTS_1D
    np.testing.assert_allclose(_born_1d(lambda x: chi_profile(x, -k, ds)), dtp, rtol=1e-6)
    np.testing.assert_allclose(_born_1d(lambda x: chi_profile(x, k, ds)), dtm, rtol=1e-6)
    # at kx_out > 0 the dual state's conjugate is the same bra
    np.testing.assert_allclose(
        _born_1d(lambda x: np.conj(chi_dual_profile(x, k, ds))), dtp, rtol=1e-6)


@pytest.mark.xfail(strict=True, reason="conj(chi_dual_profile) at kx_out < 0 is not the "
                   "t- bra (0.37 off); it becomes so only if the amplitude moves to the "
                   "lab-frame model")
def test_dual_state_is_the_reflected_bra():
    _, dtm = _amplitude_derivatives()
    k, ds = _K_1D, _DEFECTS_1D
    np.testing.assert_allclose(
        _born_1d(lambda x: np.conj(chi_dual_profile(x, -k, ds))), dtm, rtol=1e-6)


def test_hard_wall_suppresses_wavefunction_on_the_line():
    ds = DefectSet([0.0], [1e8])
    kin = Kinematics(bigK=1.0, theta0=0.0, theta=0.5)
    for y in (-3.0, 0.0, 7.5):
        assert abs(complex(psi0(0.0, y, kin, ds))) <= 1e-6


def test_f0_is_distributional_with_two_supports():
    kin = Kinematics(bigK=1.0, theta0=0.25, theta=1.0)
    ds = DefectSet([0.0], [1.0])
    f0 = f0_distributional(kin, ds)
    assert f0.theta_forward == pytest.approx(0.25)
    assert f0.theta_mirror == pytest.approx(math.pi - 0.25)
    np.testing.assert_allclose(
        f0.prefactor, math.sqrt(2.0 * math.pi) * cmath.exp(-1j * math.pi / 4), rtol=1e-14
    )
    np.testing.assert_allclose(f0.unitarity, 1.0, rtol=1e-12)
    assert f0.forward_weight == f0.prefactor * f0.t_plus
    # There is deliberately no pointwise f0(theta) evaluator.
    assert not hasattr(f0, "__call__")


def test_psi0_separable_in_y():
    kin = Kinematics(bigK=1.5, theta0=0.4, theta=0.9)
    ds = DefectSet([-0.5, 1.0], [1.0, 2.0])
    x = 0.3
    v1 = complex(psi0(x, 2.0, kin, ds))
    v0 = complex(psi0(x, 0.0, kin, ds))
    np.testing.assert_allclose(v1, v0 * cmath.exp(1j * kin.ky * 2.0), rtol=1e-13)


def test_dual_profile_reduces_to_conjugate_reversal_for_single_defect():
    # For one defect the dual is the conjugate of the profile computed for
    # the reversed incident wave; verify numerically on a grid.
    kx = 1.1
    ds = DefectSet([0.6], [1.9])
    x = np.linspace(-3.0, 3.0, 41)
    dual = chi_dual_profile(x, kx, ds)
    # Reversal: chi computed with incident e^{-ikx x} equals conj structure.
    rev = np.conj(np.exp(-1j * kx * x)) + 1j * np.conj(
        build_defect_matrix(kx, ds).inverse[0, 0]
    ) * np.exp(1j * kx * ds.positions[0]) * np.exp(-1j * kx * np.abs(x - ds.positions[0]))
    np.testing.assert_allclose(dual, rev, rtol=1e-13)
    # N = 3: the weights conj(Ainv ebar) equal the explicit e @ conj(Ainv).
    ds = DefectSet([-1.5, 0.2, 1.8], [1.9, 0.7, 2.4])
    u = np.exp(1j * kx * ds.alphas) @ np.conj(build_defect_matrix(kx, ds).inverse)
    ref = np.exp(1j * kx * x) + 1j * sum(
        un * np.exp(-1j * kx * np.abs(x - an)) for un, an in zip(u, ds.alphas)
    )
    np.testing.assert_allclose(chi_dual_profile(x, kx, ds), ref, rtol=1e-13)


def test_zero_coupling_suppression_matches_free_plane():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ds = DefectSet([1.0], [0.0])
    assert ds.n == 0
    x = np.linspace(-2, 2, 7)
    np.testing.assert_array_equal(chi_profile(x, 1.2, ds), np.exp(1.2j * x))
