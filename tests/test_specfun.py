"""Accuracy and safety tests for the complex error-function wrappers.

The reference values come from mpmath at 50 significant digits.
"""

import cmath
import math

import numpy as np
import pytest
from mpmath import mp

from bumpscatter import specfun
from bumpscatter.specfun import (
    SAFE_REAL_WINDOW,
    eexp,
    erfcx_c,
    exp_erf,
    exp_erfc,
)

# Run every test at 50 digits without mutating the shared mpmath context
# (other test modules pick their own working precision).
@pytest.fixture(autouse=True)
def _fifty_digits():
    with mp.workdps(50):
        yield


def _mpc(z: complex) -> "mp.mpc":
    return mp.mpc(z.real, z.imag)


def _mp_erfcx(z: complex) -> "mp.mpc":
    w = _mpc(z)
    return mp.exp(w * w) * mp.erfc(w)


def _relerr(got: complex, ref) -> float:
    ref = complex(ref)
    return abs(got - ref) / max(abs(ref), 1e-300)


def _disk_points(rng, radius: float, count: int):
    r = radius * np.sqrt(rng.uniform(size=count))
    ph = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return [complex(a * math.cos(p), a * math.sin(p)) for a, p in zip(r, ph)]


def test_frozen_values():
    np.testing.assert_allclose(erfcx_c(3.0).real, 0.17900115118138998, rtol=1e-14)
    np.testing.assert_allclose(erfcx_c(10.0).real, 0.05614099274382259, rtol=1e-14)
    assert erfcx_c(0.0) == 1.0 + 0.0j


def test_accuracy_disk_radius_10():
    rng = np.random.default_rng(101)
    for z in _disk_points(rng, 10.0, 250):
        ref = _mp_erfcx(z)
        if abs(complex(ref)) < 1e280:
            assert _relerr(erfcx_c(z), ref) <= 1e-13


def test_accuracy_disk_radius_50():
    # Looser tolerance on the big disk; points whose reference value is not
    # representable in double precision are skipped, and left-half-plane
    # points may legitimately raise OverflowError.
    rng = np.random.default_rng(202)
    checked = 0
    for z in _disk_points(rng, 50.0, 250):
        ref_erfcx = _mp_erfcx(z)
        try:
            got = erfcx_c(z)
        except OverflowError:
            assert z.real < 0.0 and (z * z).real > 709.0
            continue
        if abs(complex(ref_erfcx)) < 1e280:
            assert _relerr(got, ref_erfcx) <= 1e-11
            checked += 1
    assert checked > 100


def test_symmetries_bit_exact():
    rng = np.random.default_rng(303)
    for z in _disk_points(rng, 8.0, 200):
        assert erfcx_c(z.conjugate()) == erfcx_c(z).conjugate()


def test_erfc_equals_scaled_form():
    rng = np.random.default_rng(505)
    for z in _disk_points(rng, 5.0, 100):
        lhs = complex(mp.erfc(_mpc(z)))
        rhs = cmath.exp(-z * z) * erfcx_c(z)
        np.testing.assert_allclose(rhs, lhs, rtol=1e-12, atol=1e-300)


def test_fused_products_against_mpmath():
    rng = np.random.default_rng(606)
    checked = 0
    for _ in range(300):
        x = complex(rng.uniform(-650, 650), rng.uniform(-5, 5))
        w = complex(rng.uniform(-24, 24), rng.uniform(-20, 20))
        ref_c = mp.exp(_mpc(x)) * mp.erfc(_mpc(w))
        if 1e-280 < abs(complex(ref_c)) < 1e280:
            assert _relerr(exp_erfc(x, w), ref_c) <= 1e-11
            checked += 1
        ref_f = mp.exp(_mpc(x)) * mp.erf(_mpc(w))
        if 1e-280 < abs(complex(ref_f)) < 1e280:
            assert _relerr(exp_erf(x, w), ref_f) <= 1e-11
    assert checked > 150


def test_fused_products_where_naive_overflows():
    # exp(600) overflows times erfc(25) underflows; the product is tame.
    ref = mp.exp(600) * mp.erfc(25)
    assert _relerr(exp_erfc(600.0, 25.0), ref) <= 1e-12
    ref2 = mp.exp(-600) * mp.erfc(-25)
    assert _relerr(exp_erfc(-600.0, -25.0), ref2) <= 1e-12
    assert exp_erf(123.0, 0.0) == 0.0 + 0.0j
    # Oddness of the fused erf product is exact.
    val = exp_erf(2.0 + 1.0j, 1.5 - 0.5j)
    assert exp_erf(2.0 + 1.0j, -1.5 + 0.5j) == -val


def test_eexp_guards():
    assert eexp(0.0) == 1.0 + 0.0j
    np.testing.assert_allclose(eexp(1j * np.pi).real, -1.0, rtol=1e-15)
    assert eexp(-800.0) == 0.0 + 0.0j
    with pytest.raises(OverflowError):
        eexp(710.0)
    with pytest.raises(OverflowError):
        eexp(800.0 + 5.0j)


def test_erfcx_left_plane_overflow_raises():
    bad = -(SAFE_REAL_WINDOW + 1.0)
    assert bad * bad > 709.0
    with pytest.raises(OverflowError):
        erfcx_c(bad)
    # Inside the documented window the reflection stays finite.
    val = erfcx_c(-SAFE_REAL_WINDOW)
    assert math.isfinite(val.real)


def test_non_finite_inputs_raise():
    for fn in (erfcx_c, eexp):
        with pytest.raises(ValueError):
            fn(float("nan"))
        with pytest.raises(ValueError):
            fn(complex(1.0, float("inf")))
    with pytest.raises(ValueError):
        exp_erfc(float("inf"), 1.0)
    with pytest.raises(ValueError):
        exp_erf(1.0, float("nan"))


# ---------------------------------------------------------------------------
# Arrays: elementwise, bit for bit


def _array_points(rng, count):
    """Complex points in every quadrant, some deep in the left half plane
    (the erfcx reflection) and some exponents below the underflow flush."""
    z = np.array(_disk_points(rng, 8.0, count))
    x = rng.uniform(-20.0, 5.0, count) + 1j * rng.uniform(-10.0, 10.0, count)
    x[::7] -= 800.0
    return z, x


def test_array_results_equal_scalar_results_bit_for_bit():
    z, x = _array_points(np.random.default_rng(707), 300)
    cases = [(erfcx_c, (z,)), (eexp, (x,)), (exp_erfc, (x, z)), (exp_erf, (x, z)),
             (exp_erfc, (-1.5, z))]
    for fn, args in cases:
        got = fn(*args)
        assert isinstance(got, np.ndarray) and got.shape == z.shape
        for i in range(z.size):
            one = fn(*(a if np.ndim(a) == 0 else complex(a[i]) for a in args))
            assert type(one) is complex
            assert got[i] == one, (fn.__name__, i)
    assert eexp(x)[::7].tolist() == [0j] * len(x[::7])


def test_array_symmetries_bit_exact():
    z, x = _array_points(np.random.default_rng(808), 300)
    assert np.array_equal(erfcx_c(z.conj()), erfcx_c(z).conj())
    assert np.array_equal(exp_erf(x, -z), -exp_erf(x, z))


def test_array_guards_act_on_single_elements():
    ok = np.array([0.5 + 0.5j, 1.0, -2.0 + 1.0j])
    bad = -(SAFE_REAL_WINDOW + 1.0)
    with pytest.raises(OverflowError):
        erfcx_c(np.append(ok, bad))
    with pytest.raises(OverflowError):
        eexp(np.append(ok, 710.0))
    with pytest.raises(OverflowError):
        exp_erfc(np.append(ok, 800.0), np.append(ok, 1.0))
    for fn, args in ((erfcx_c, (np.append(ok, np.nan),)),
                     (eexp, (np.append(ok, complex(1.0, np.inf)),)),
                     (exp_erfc, (ok, np.append(ok[1:], np.inf))),
                     (exp_erf, (np.append(ok[1:], np.nan), ok))):
        with pytest.raises(ValueError):
            fn(*args)


# ---------------------------------------------------------------------------
# The first-quadrant kernel: Weideman's N = 40 rational series


def _mp_erfcx_40(w: complex) -> "mp.mpc":
    """erfcx(w) at 40 digits; past |w| = 1e4 from its asymptotic series,
    whose terms fall by |2 w^2| >= 2e8 each."""
    with mp.workdps(40):
        z = _mpc(w)
        if abs(z) <= 1e4:
            return mp.exp(z * z) * mp.erfc(z)
        term = total = mp.mpf(1)
        for k in range(1, 8):
            term *= -(2 * k - 1) / (2 * z * z)
            total += term
        return total / (mp.sqrt(mp.pi) * z)


def _first_quadrant_points():
    rng = np.random.default_rng(909)
    r = 50.0 * np.sqrt(rng.uniform(size=300))
    disk = r * np.exp(0.5j * np.pi * rng.uniform(size=300))
    axes = np.concatenate([np.linspace(0.0, 50.0, 41), 1j * np.linspace(0.0, 50.0, 41)])
    mags = 10.0 ** np.linspace(-300.0, 307.0, 61)
    phases = np.exp(0.5j * np.pi * np.array([0.0, 0.3, 0.5, 0.8, 1.0]))
    extremes = (mags[:, None] * phases).ravel()
    return np.concatenate([disk, axes, extremes, [1e200 * (1 + 1j)]])


def test_first_quadrant_kernel_against_mpmath_40_digits():
    # The closed first quadrant (both axes included) out to |w| = 50, and
    # every phase from 1e-300 to 1e307: finite, and within 2e-15 relative.
    # The quadrant reductions and the reflection are checked above.
    w = _first_quadrant_points()
    got = erfcx_c(w)
    assert np.isfinite(got).all()
    worst = max(_relerr(g, _mp_erfcx_40(z)) for g, z in zip(got.tolist(), w.tolist()))
    assert worst <= 2e-15


def test_erfcx_at_zero_is_one_by_rule():
    # The series gives erfcx(0) = 1 only to rounding; a masked rule makes
    # it exact, for every signed zero and inside an array.
    for z in (0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)):
        got = erfcx_c(z)
        assert got == 1.0 and got.imag == 0.0
    assert erfcx_c(np.array([0.5, 0.0, 2.0j])).tolist()[1] == 1.0 + 0.0j


def test_weideman_coefficients_match_their_definition():
    # a_n = (1 / 4N) sum_{|k| < 2N} f(theta_k) cos(n theta_k), theta_k =
    # k pi / 2N, f(theta) = exp(-t^2) (L^2 + t^2), t = L tan(theta / 2),
    # L = sqrt(N / sqrt(2)); the literals are a_N, ..., a_1 rounded once.
    n_terms = specfun._WEIDEMAN_N
    m = 2 * n_terms
    with mp.workdps(40):
        scale = mp.sqrt(n_terms / mp.sqrt(2))
        assert specfun._WEIDEMAN_L == float(scale)
        thetas = [k * mp.pi / m for k in range(-m + 1, m)]
        fs = [mp.exp(-t * t) * (scale * scale + t * t)
              for t in (scale * mp.tan(th / 2) for th in thetas)]
        coeffs = [mp.fsum(f * mp.cos(n * th) for f, th in zip(fs, thetas)) / (2 * m)
                  for n in range(n_terms, 0, -1)]
        assert list(specfun._WEIDEMAN_COEFFS) == [float(c) for c in coeffs]
