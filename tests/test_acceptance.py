"""Acceptance gate: nine end-to-end release criteria for the engine.

Each test evaluates one criterion, registers a one-line PASS/FAIL verdict
(printed in the terminal summary by conftest), and then asserts.  The
tolerances here are release gates; they must not be loosened to make a
failing build green.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from conftest import full_grid_report, record_criterion

from bumpscatter.cli import main
from bumpscatter.defects import (
    DefectSet,
    Kinematics,
    build_defect_matrix,
    chi_dual_profile,
    chi_profile,
    t_coefficients,
)
from bumpscatter.feasibility import assess, parse_energy, parse_length
from bumpscatter.geoamp import (
    GeoCoefficientInputs,
    I0_closed,
    cross_section,
    f1_geometric,
)
from bumpscatter.oracle import QuadratureSpec, integral_table

pytestmark = pytest.mark.acceptance

THETA_30 = math.radians(30.0)

# K grid used by the figure presets: 200 points spanning (0, 5].  The
# no-defect curve grows like 1/K toward K = 0, so "peak over (0, 5]" is
# read on this grid, matching how the figures sample the axis.
K_GRID = np.linspace(0.025, 5.0, 200)

_PEAK_CACHE = {}


def _peak_cross_section(positions):
    """Largest |f1|^2 over the preset K grid at theta = 30 deg, theta0 = 0."""
    if positions not in _PEAK_CACHE:
        defects = DefectSet(positions, tuple(1.0 for _ in positions))
        # one cross_section call evaluates the whole K scan
        kin = Kinematics(bigK=K_GRID, theta0=0.0, theta=np.full(K_GRID.size, THETA_30))
        _PEAK_CACHE[positions] = max(
            cross_section(kin, defects, eta=0.1, lambda1=0.5, lambda2=-0.5))
    return _PEAK_CACHE[positions]


def test_criterion_1_closed_forms_match_quadrature():
    try:
        report, elapsed = full_grid_report()
        worst = max(report.worst().values())
        ok = report.all_passed and elapsed <= 3600.0
        detail = (
            f"all coefficient families vs quadrature on the full grid: "
            f"{len(report.records)} records, worst rel err {worst:.2e}, "
            f"{elapsed:.1f}s"
        )
    except BaseException as exc:
        record_criterion(1, False, f"raised {exc!r}")
        raise
    record_criterion(1, ok, detail)
    failed = [r.line() for r in report.records if not r.passed]
    assert ok, "failed records:\n" + "\n".join(failed[:10])


def test_criterion_2_smooth_coefficient_reference_values():
    try:
        eta = 0.1
        worst_direct = 0.0
        worst_quad = 0.0
        spec = QuadratureSpec()
        # Forward direction with curvature weights off: pure kinetic term.
        for big_k in (0.5, 1.0, 2.0):
            g = GeoCoefficientInputs(s=0.0, bigK=big_k, alphas=(), eta=eta,
                                     lambda1=0.0, lambda2=0.0)
            expected = -math.pi * eta * big_k**2 / 2.0
            val = I0_closed(g)
            worst_direct = max(worst_direct, abs(val - expected) / abs(expected))
            quad = integral_table(g, spec)[0][0].value
            worst_quad = max(worst_quad, abs(quad - expected) / abs(expected))
        # Backscattering at K = 1 with the thin-layer weights.
        g = GeoCoefficientInputs(s=1.0, bigK=1.0, alphas=(), eta=eta,
                                 lambda1=0.5, lambda2=-0.5)
        expected = -math.pi * eta * math.exp(-1.0) / 4.0
        val = I0_closed(g)
        worst_direct = max(worst_direct, abs(val - expected) / abs(expected))
        quad = integral_table(g, spec)[0][0].value
        worst_quad = max(worst_quad, abs(quad - expected) / abs(expected))
        ok = worst_direct <= 1e-12 and worst_quad <= 1e-6
        detail = (
            f"smooth-term reference values: closed form to {worst_direct:.2e}, "
            f"quadrature to {worst_quad:.2e}"
        )
    except BaseException as exc:
        record_criterion(2, False, f"raised {exc!r}")
        raise
    record_criterion(2, ok, detail)
    assert ok, detail


def test_criterion_3_unitarity_randomized():
    try:
        rng = np.random.default_rng(20260816)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(1, 9))
            start = rng.uniform(-5.0, -4.0)
            gaps = rng.uniform(0.05, 1.2, size=n - 1)
            positions = tuple(start + np.concatenate(([0.0], np.cumsum(gaps))))
            couplings = tuple(rng.uniform(0.1, 10.0, size=n))
            kx = float(rng.uniform(0.2, 5.0))
            t = t_coefficients(kx, DefectSet(positions, couplings))
            worst = max(worst, abs(t.unitarity - 1.0))
        ok = worst <= 1e-10
        detail = (
            f"probability balance |1+t+|^2 + |t-|^2 = 1 over 200 random "
            f"configs (N <= 8): worst deviation {worst:.2e}"
        )
    except BaseException as exc:
        record_criterion(3, False, f"raised {exc!r}")
        raise
    record_criterion(3, ok, detail)
    assert ok, detail


def _mp_transverse_profiles(kx, defects):
    """High-precision reconstructions of chi and chi_dual.

    Built from the package's own double-precision solve coefficients, with
    the exponentials evaluated in mpmath so a finite-difference stencil
    measures pure truncation error rather than float cancellation.
    """
    ainv = build_defect_matrix(kx, defects).inverse
    phases = np.exp(1j * kx * np.asarray(defects.alphas))
    u = phases @ ainv
    v = phases @ np.conj(ainv)
    kx_mp = mp.mpf(kx)
    iu = mp.mpc(0, 1)
    u_mp = [mp.mpc(c.real, c.imag) for c in u]
    v_mp = [mp.mpc(c.real, c.imag) for c in v]
    a_mp = [mp.mpf(a) for a in defects.alphas]

    def chi(x):
        out = mp.exp(iu * kx_mp * x)
        for un, an in zip(u_mp, a_mp):
            out -= iu * un * mp.exp(iu * kx_mp * abs(x - an))
        return out

    def chi_dual(x):
        out = mp.exp(iu * kx_mp * x)
        for vn, an in zip(v_mp, a_mp):
            out += iu * vn * mp.exp(-iu * kx_mp * abs(x - an))
        return out

    return chi, chi_dual


def _helmholtz_residual(profile, x0, y0, h, ky_mp, k2_mp):
    """|five-point Laplacian + k^2| of profile(x) e^{i ky y} / 2 pi."""
    iu = mp.mpc(0, 1)

    def psi(x, y):
        return profile(x) * mp.exp(iu * ky_mp * y) / (2 * mp.pi)

    lap = (
        psi(x0 + h, y0) + psi(x0 - h, y0) + psi(x0, y0 + h) + psi(x0, y0 - h)
        - 4 * psi(x0, y0)
    ) / h**2
    return float(abs(lap + k2_mp * psi(x0, y0)))


def _one_sided_derivative(f, a, h, sign):
    """Second-order one-sided first derivative at a, from the sign side."""
    return sign * (-3 * f(a) + 4 * f(a + sign * h) - f(a + sign * 2 * h)) / (2 * h)


def test_criterion_4_exact_state_structure():
    try:
        defects = DefectSet((-1.2, 0.8), (1.7, 0.6))
        kin = Kinematics(bigK=1.3, theta0=0.35, theta=2.0)
        with mp.workdps(40):
            chi_mp, chi_dual_mp = _mp_transverse_profiles(kin.kx, defects)
            # Guard: the reconstructions agree with the package profiles.
            for mp_f, np_f in ((chi_mp, chi_profile), (chi_dual_mp, chi_dual_profile)):
                delta = abs(
                    complex(mp_f(mp.mpf("0.25")))
                    - complex(np_f(0.25, kin.kx, defects))
                )
                assert delta <= 1e-12, f"profile reconstruction drift {delta:.2e}"

            x0, y0 = mp.mpf("0.25"), mp.mpf("-0.4")
            ky_mp = mp.mpf(kin.ky)
            k2_mp = mp.mpf(kin.bigK) ** 2
            resid = {}
            for name, prof in (("state", chi_mp), ("dual", chi_dual_mp)):
                for h in (mp.mpf("1e-3"), mp.mpf("1e-4")):
                    resid[name, float(h)] = _helmholtz_residual(
                        prof, x0, y0, h, ky_mp, k2_mp
                    )
            ratios = {
                name: resid[name, 1e-3] / resid[name, 1e-4]
                for name in ("state", "dual")
            }

            hj = mp.mpf("1e-7")
            worst_jump = 0.0
            for prof in (chi_mp, chi_dual_mp):
                for a, z in zip(defects.alphas, defects.z):
                    am = mp.mpf(a)
                    jump = _one_sided_derivative(prof, am, hj, 1) - \
                        _one_sided_derivative(prof, am, hj, -1)
                    worst_jump = max(worst_jump, float(abs(jump - z * prof(am))))

        worst_resid = max(resid.values())
        ok = (
            worst_resid <= 1e-6
            and all(80.0 <= r <= 125.0 for r in ratios.values())
            and worst_jump <= 1e-8
        )
        detail = (
            f"field equation residual <= {worst_resid:.2e} with h^2 scaling "
            f"(ratios {ratios['state']:.1f}, {ratios['dual']:.1f} for "
            f"h=1e-3 vs 1e-4), derivative jump matches coupling to "
            f"{worst_jump:.2e}"
        )
    except BaseException as exc:
        record_criterion(4, False, f"raised {exc!r}")
        raise
    record_criterion(4, ok, detail)
    assert ok, f"{detail}; residuals {resid}"


def test_criterion_5_two_defect_amplification():
    try:
        p_sym = _peak_cross_section((-3.0, 3.0))
        p_none = _peak_cross_section(())
        p_left = _peak_cross_section((-3.0, 0.0))
        p_right = _peak_cross_section((0.0, 3.0))
        ratio = p_sym / p_none
        ok = 10.0 <= ratio <= 1000.0 and p_sym > p_left and p_sym > p_right
        detail = (
            f"symmetric defects at +-3 amplify the peak by {ratio:.1f}x over "
            f"no defects; symmetric peak {p_sym:.3g} beats asymmetric "
            f"{p_left:.3g} and {p_right:.3g}"
        )
    except BaseException as exc:
        record_criterion(5, False, f"raised {exc!r}")
        raise
    record_criterion(5, ok, detail)
    assert ok, detail


def test_criterion_6_offset_beats_centered_single_defect():
    try:
        p_plus = _peak_cross_section((3.0,))
        p_minus = _peak_cross_section((-3.0,))
        p_center = _peak_cross_section((0.0,))
        ok = p_plus > p_center and p_minus > p_center
        detail = (
            f"offset single defect peaks {p_plus:.3g} (at +3) and "
            f"{p_minus:.3g} (at -3) both exceed centered {p_center:.3g}"
        )
    except BaseException as exc:
        record_criterion(6, False, f"raised {exc!r}")
        raise
    record_criterion(6, ok, detail)
    assert ok, detail


def test_criterion_7_feasibility_reference_point():
    try:
        report = assess(
            parse_energy("1eV"),
            parse_length("1nm"),
            parse_energy("1e-3eV"),
            mass_ratio=0.01,
            sigma_m=parse_length("50nm"),
        )
        ok = 0.015 <= report.k_rho <= 0.025
        detail = (
            f"1 eV / 1 nm defect probed at 1 meV with m = 0.01 m_e gives "
            f"k*rho = {report.k_rho:.4g} (window [0.015, 0.025])"
        )
    except BaseException as exc:
        record_criterion(7, False, f"raised {exc!r}")
        raise
    record_criterion(7, ok, detail)
    assert ok, detail


def test_criterion_8_bump_strength_linearity_and_limits():
    try:
        kin = Kinematics(bigK=1.1, theta0=0.0, theta=math.radians(40.0))
        defects = DefectSet((-3.0, 3.0), (1.0, 1.0))
        f_eta = f1_geometric(kin, defects, eta=0.1, lambda1=0.5, lambda2=-0.5)
        f_2eta = f1_geometric(kin, defects, eta=0.2, lambda1=0.5, lambda2=-0.5)
        exact_double = f_2eta == 2.0 * f_eta

        weak = DefectSet((-3.0, 3.0), (1e-8, 1e-8))
        none = DefectSet((), ())
        f_weak = f1_geometric(kin, weak, eta=0.1, lambda1=0.5, lambda2=-0.5)
        f_none = f1_geometric(kin, none, eta=0.1, lambda1=0.5, lambda2=-0.5)
        weak_rel = abs(f_weak - f_none) / abs(f_none)

        f_zero = f1_geometric(kin, defects, eta=0.0, lambda1=0.5, lambda2=-0.5)
        x_zero = cross_section(kin, defects, eta=0.0, lambda1=0.5, lambda2=-0.5)

        ok = exact_double and weak_rel <= 1e-6 and f_zero == 0.0 and x_zero == 0.0
        detail = (
            f"doubling eta doubles f1 exactly ({exact_double}); z -> 0 "
            f"recovers the defect-free amplitude to {weak_rel:.2e}; eta = 0 "
            f"gives exactly zero"
        )
    except BaseException as exc:
        record_criterion(8, False, f"raised {exc!r}")
        raise
    record_criterion(8, ok, detail)
    assert ok, detail


def test_criterion_9_preset_determinism(tmp_path):
    try:
        compared = 0
        identical = True
        for preset in ("fig2-right", "fig5-right"):
            d1 = tmp_path / f"{preset}-run1"
            d2 = tmp_path / f"{preset}-run2"
            for d in (d1, d2):
                code = main(["preset", preset, "--out", str(d)])
                assert code == 0, f"preset {preset} exited {code}"
            names = sorted(p.name for p in d1.glob("*.csv"))
            assert names, f"preset {preset} wrote no CSVs"
            assert names == sorted(p.name for p in d2.glob("*.csv"))
            for name in names:
                compared += 1
                if (d1 / name).read_bytes() != (d2 / name).read_bytes():
                    identical = False
            for name in sorted(p.name for p in d1.glob("*.svg")):
                if (d1 / name).read_bytes() != (d2 / name).read_bytes():
                    identical = False
        ok = identical and compared >= 5
        detail = (
            f"repeated preset runs byte-identical across {compared} CSV "
            f"files (plus SVGs) for fig2-right and fig5-right"
        )
    except BaseException as exc:
        record_criterion(9, False, f"raised {exc!r}")
        raise
    record_criterion(9, ok, detail)
    assert ok, detail
