"""Tests for the closed-form geometric scattering coefficients and assembly.

The frozen complex literals below were produced by an independent 40-digit
semi-analytic reduction of the defining integrals (mpmath, one analytic
Gaussian integration followed by adaptive 1D quadrature), not by the package
itself.  They pin every family and every piecewise branch of the four-index
coefficient, each as its phase times one entry of the coefficient table.
Structural identities (forward collapse, eta scaling, weak coupling limits)
then tie the full assembly to those pinned values.
"""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from references import (
    coefficient_table_py,
    contraction_py,
    half_line_table_per_qb,
    immnn_x2,
    kink_coefficient_mp,
    ray_offset_per_point,
    running_cumsum,
)

from bumpscatter import geoamp
from bumpscatter.cli import _LAMBDA_COMBOS
from bumpscatter.defects import (
    DefectSet,
    InputError,
    Kinematics,
    SingularMatrixError,
    build_defect_matrix,
)
from bumpscatter.geoamp import (
    ANGLE_REG_EPS,
    GeoCoefficientInputs,
    REG_COND_LIMIT,
    I0_closed,
    SingularAngleError,
    coefficient_table,
    cross_section,
    delta_ray_offset,
    f1_geometric,
    f1_scan,
    modulus_squared,
)

RTOL = 1e-12


def _g(s, bigK, alphas, eta=0.1, lambda1=0.5, lambda2=-0.5):
    return GeoCoefficientInputs(
        s=s, bigK=bigK, alphas=tuple(alphas), eta=eta,
        lambda1=lambda1, lambda2=lambda2,
    )


def _phased(g, entry, *phase_indices):
    """Table entry (bra piece, ket piece) times e^{i beta (sum of the phase
    positions)}: Imn[m, n] is _phased(g, (n + 1, 0), m), Jmn[m, n] is
    _phased(g, (0, n + 1), m) and Immnn[m, m', n, n'] is
    _phased(g, (m + 1, n + 1), m', n')."""
    a, b = entry
    phase = cmath.exp(1j * g.beta * sum(g.alphas[i] for i in phase_indices))
    return phase * coefficient_table(g)[a][b]


# ---------------------------------------------------------------------------
# Frozen values from the independent high-precision reduction


def test_no_defect_coefficient_frozen():
    gA = _g(0.5, 1.3, ())
    np.testing.assert_allclose(
        I0_closed(gA), -0.19913324257297171 + 0j, rtol=RTOL
    )
    gB = _g(1.0, 0.8, (), eta=0.05, lambda1=0.0, lambda2=-0.5)
    np.testing.assert_allclose(
        I0_closed(gB), -0.076399532821371047 + 0j, rtol=RTOL
    )


def test_two_index_coefficients_frozen():
    gA = _g(0.5, 1.3, (-1.1, 2.3))
    np.testing.assert_allclose(
        _phased(gA, (2, 0), 0),
        0.11789777508713939 + 0.15984319862128379j, rtol=RTOL,
    )
    np.testing.assert_allclose(
        _phased(gA, (1, 0), 1),
        -0.30026255275470098 - 0.26206901713963909j, rtol=RTOL,
    )
    np.testing.assert_allclose(
        _phased(gA, (0, 2), 0),
        -0.30186119067103878 - 0.29480034340769246j, rtol=RTOL,
    )
    gB = _g(1.0, 0.8, (0.0, 3.0), eta=0.05, lambda1=0.0, lambda2=-0.5)
    np.testing.assert_allclose(
        _phased(gB, (2, 0), 0),
        0.056340089987212648 + 0.051589656711318474j, rtol=RTOL,
    )
    np.testing.assert_allclose(
        _phased(gB, (0, 1), 1),
        0.074270228334897465 - 0.070819576196999051j, rtol=RTOL,
    )


def test_four_index_coefficient_frozen_all_branches():
    # Bra kink below ket kink.
    g1 = _g(0.5, 1.3, (-1.1, -0.4, 1.7, 2.3))
    np.testing.assert_allclose(
        _phased(g1, (1, 4), 1, 2),
        0.035852601215118227 - 0.22458866569958005j, rtol=RTOL,
    )
    # Coincident bra and ket kinks (the branch with the delta-line term).
    g2 = _g(0.5, 1.3, (-2.0, -1.1, 0.6))
    np.testing.assert_allclose(
        _phased(g2, (2, 2), 2, 0),
        -0.21295348294919494 + 0.36965615517354294j, rtol=RTOL,
    )
    # Bra kink above ket kink.
    g3 = _g(0.5, 1.3, (-2.0, -1.1, 0.6, 2.3))
    np.testing.assert_allclose(
        _phased(g3, (4, 2), 2, 0),
        0.048392675433779099 + 0.16395162712811578j, rtol=RTOL,
    )
    g4 = _g(1.0, 0.8, (0.0, 3.0), eta=0.05, lambda1=0.0, lambda2=-0.5)
    np.testing.assert_allclose(
        _phased(g4, (2, 2), 1, 1),
        -0.011187530996687386 + 0.12831855305234879j, rtol=RTOL,
    )


@pytest.mark.parametrize(
    "family, s, bigK, lambdas, alphas, indices",
    [
        # bra kink only, and ket kink only
        ("Imn", 0.5, 1.3, (0.5, -0.5), (-1.1, 2.3), (0, 1)),
        ("Jmn", -0.8, 2.5, (0.0, -0.5), (-4.0, 0.7), (1, 0)),
        # the ket kink far left at large K, where erf(a) + 1 cancels
        ("Jmn", 1.0, 5.0, (0.3, -0.1), (-5.5,), (0, 0)),
        ("Imn", 0.9, 5.0, (0.5, 0.5), (-6.0, 6.0), (0, 1)),
        # kink pairs: am < an, am == an, am > an
        ("Immnn", 0.7, 2.0, (0.5, -0.5), (-3.0, 3.0), (0, 1, 1, 0)),
        ("Immnn", 0.6, 4.0, (0.5, 0.0), (-2.0, 1.5), (1, 0, 1, 1)),
        ("Immnn", 0.95, 5.0, (0.3, -0.1), (-6.0, 5.5), (1, 1, 0, 0)),
        ("Immnn", -0.4, 1.0, (0.0, -0.5), (-5.0, 6.0), (0, 1, 1, 0)),
    ],
)
def test_kink_families_match_fifty_digit_quadrature(family, s, bigK, lambdas, alphas, indices):
    # The record's phase is exact and common to both sides, so the table
    # entry is compared unphased; the phase indices only name the record.
    g = _g(s, bigK, alphas, lambda1=lambdas[0], lambda2=lambdas[1])
    a = g.alphas
    table = coefficient_table(g)
    if family == "Immnn":
        m, _, n, _ = indices
        closed, ref = table[m + 1][n + 1], kink_coefficient_mp(g, a[m], a[n])
    elif family == "Imn":
        n = indices[1]
        closed, ref = table[n + 1][0], kink_coefficient_mp(g, bra=a[n])
    else:
        n = indices[1]
        closed, ref = table[0][n + 1], kink_coefficient_mp(g, ket=a[n])
    np.testing.assert_allclose(closed, ref, rtol=1e-12)


# ---------------------------------------------------------------------------
# Structural identities


def test_zero_momentum_transfer_collapses_all_families():
    # At s = 0 the kink phases disappear and every coefficient reduces to
    # the same Gaussian moment, i.e. the no-defect value.  The kernel's
    # beta = 0 rule makes this exact.
    g = _g(0.0, 2.0, (-2.0, -0.5), lambda1=0.5, lambda2=0.5)
    ref = I0_closed(g)
    np.testing.assert_allclose(ref, -0.47123889803846902 + 0j, rtol=RTOL)
    # every phase is e^0 = 1 exactly, so each family equals its table entry
    assert all(t == ref for row in coefficient_table(g) for t in row)


def test_no_defect_coefficient_substitutions():
    # s = 0 with both curvature weights off: -pi eta K^2 / 2.
    for bigK in (0.5, 1.0, 3.0):
        g = _g(0.0, bigK, (), eta=0.07, lambda1=0.0, lambda2=0.0)
        np.testing.assert_allclose(
            I0_closed(g), -math.pi * 0.07 * bigK**2 / 2.0, rtol=1e-12
        )
    # Backscattering at K = 1 with the physical weights: -pi eta e^{-1} / 4.
    g = _g(1.0, 1.0, (), eta=0.07, lambda1=0.5, lambda2=-0.5)
    np.testing.assert_allclose(
        I0_closed(g), -math.pi * 0.07 * math.exp(-1.0) / 4.0, rtol=1e-12
    )


def test_no_defect_coefficient_is_real():
    for s in (0.0, 0.3, 0.8, 1.0):
        val = I0_closed(_g(s, 1.7, ()))
        assert val.imag == 0.0


# ---------------------------------------------------------------------------
# Full assembly


def test_flat_plane_backscattering_example():
    kin = Kinematics(bigK=1.0, theta0=0.0, theta=math.pi)
    f1 = f1_geometric(kin, DefectSet(), 0.1, 0.5, -0.5)
    np.testing.assert_allclose(
        f1, 0.004075308326083077 + 0.004075308326083076j, rtol=1e-13
    )
    np.testing.assert_allclose(abs(f1), 0.0057633563055986825, rtol=1e-13)


def test_assembly_regression_pins():
    # Pinned outputs of the validated implementation (guards transcription).
    kin = Kinematics(bigK=1.0, theta0=0.0, theta=math.radians(50.0))
    ds = DefectSet([-3.0, 3.0], [1.0, 1.0])
    np.testing.assert_allclose(
        f1_geometric(kin, ds, 0.1, 0.5, -0.5),
        0.03493488979951764 + 0.029627013363504668j, rtol=1e-12,
    )
    np.testing.assert_allclose(
        cross_section(kin, ds, 0.1, 0.5, -0.5),
        0.002098206446145726, rtol=1e-12,
    )
    kin3 = Kinematics(bigK=1.7, theta0=0.3, theta=2.0)
    np.testing.assert_allclose(
        f1_geometric(kin3, DefectSet([1.5], [2.0]), 0.1, 0.5, -0.5),
        -0.02298193494757228 - 0.0009570921204641713j, rtol=1e-12,
    )


def _kahan(terms):
    total = comp = 0j
    for t in terms:
        y = t - comp
        new = total + y
        comp = (new - total) - y
        total = new
    return total


def _f1_quadruple_sum(kin, ds, eta, lambda1, lambda2, immnn=None):
    """Reference f1: the phased table entries summed over every index tuple.

    Sums 2N^2 two-index and N^4 four-index terms, Imn[m, k] = e_m T[k+1][0],
    Jmn[m, k] = e_m T[0][k+1] and Immnn[m, m', k, k'] = e_m' e_k' T[m+1][k+1]
    with e_n = e^{i beta a_n}; the engine's bilinear form over the table
    must reproduce it.  immnn(g, m, m', k, k') is the four-index coefficient
    to sum, by default the table's.
    """
    g = _g(kin.s, kin.bigK, ds.positions, eta, lambda1, lambda2)
    n = ds.n
    table = coefficient_table(g)
    e = [cmath.exp(1j * g.beta * a) for a in g.alphas]
    if immnn is None:
        def immnn(g, m, mp, k, kp):
            return cmath.exp(1j * g.beta * (g.alphas[mp] + g.alphas[kp])) * table[m + 1][k + 1]
    ainv_in = build_defect_matrix(kin.kx, ds).inverse
    ainv_out = build_defect_matrix(kin.kx_out, ds).inverse
    singles = _kahan(
        e[m] * (ainv_out[m, k] * table[k + 1][0] + ainv_in[m, k] * table[0][k + 1])
        for m in range(n)
        for k in range(n)
    )
    quads = _kahan(
        ainv_out[m, mp] * ainv_in[k, kp] * immnn(g, m, mp, k, kp)
        for m in range(n)
        for mp in range(n)
        for k in range(n)
        for kp in range(n)
    )
    bracket = table[0][0] - 1j * singles - quads
    return -0.5 * cmath.exp(1j * math.pi / 4.0) / math.sqrt(2.0 * math.pi * kin.bigK) * bracket


@pytest.mark.parametrize(
    "kin, positions, couplings",
    [
        (Kinematics(1.0, 0.0, 2.4), [0.5], [1.0]),
        (Kinematics(0.8, 0.3, 1.1), [-1.2], [0.7 - 0.4j]),
        (Kinematics(1.0, 0.0, math.radians(50.0)), [-3.0, 3.0], [1.0, 1.0]),
        (Kinematics(1.3, -0.2, 2.7), [-0.4, 2.5], [2.0 + 0.5j, 0.6]),
        (Kinematics(2.1, 0.4, 0.9), [-2.6, -0.3, 1.9], [1.0, 0.5 - 0.3j, 3.0]),
        (Kinematics(0.9, 0.0, 2.0), [-3.1, -1.0, 0.2, 2.8], [1.0, 2.0, 0.3 + 0.2j, 1.5]),
        (Kinematics(1.6, 0.25, 0.6), [-2.0, -1.5, 0.7, 3.3], [0.8j + 0.4, 1.0, 1.0, 2.5]),
    ],
)
def test_bilinear_assembly_matches_quadruple_sum(kin, positions, couplings):
    ds = DefectSet(positions, couplings)
    np.testing.assert_allclose(
        f1_geometric(kin, ds, 0.1, 0.5, -0.5),
        _f1_quadruple_sum(kin, ds, 0.1, 0.5, -0.5),
        rtol=1e-12,
    )


def _counted(calls, key, fn, sizes=None):
    """fn, counting its calls in calls[key] and the size of each call's
    first argument in sizes."""
    def wrapper(*args):
        calls[key] += 1
        if sizes is not None:
            sizes.append(np.size(args[0]))
        return fn(*args)
    return wrapper


def test_assembly_costs_one_region_evaluation(monkeypatch, cold_scans):
    # One f1 at N = 4 makes one region-kernel call, which reads one
    # half-line table; no per-entry kernel call and no I0 away from
    # beta = 0; one defect build, of the outgoing and the incoming matrix.
    # At beta = 0 (theta = theta0) the same call takes I0 once.
    calls = dict.fromkeys(("kernel", "half-lines", "I0", "build"), 0)
    for key, name in (("kernel", "_bracket_terms"), ("half-lines", "_half_line_table"),
                      ("I0", "_plane_coefficient"), ("build", "build_defect_matrix")):
        monkeypatch.setattr(geoamp, name, _counted(calls, key, getattr(geoamp, name)))
    ds = DefectSet([-2.0, -0.5, 1.0, 2.5], [1.0, 1.0, 1.0, 1.0])
    for theta, i0 in ((2.2, 0), (0.0, 1)):
        calls.update(dict.fromkeys(calls, 0))
        f1_geometric(Kinematics(bigK=1.1, theta0=0.0, theta=theta), ds, 0.1, 0.5, -0.5)
        assert calls == {"kernel": 1, "half-lines": 1, "I0": i0, "build": 1}


@pytest.mark.parametrize("thetas_deg, expected", [
    # away from 90 deg: one region-kernel call (one erfcx_c call for all its
    # half-line integrals) and one defect build, of the outgoing matrices
    # and the incoming one at the scan's one kx, whatever the scan's length
    ((20.0, 45.0, 70.0, 110.0, 135.0, 160.0),
     {"I0": 0, "kernel": 1, "build": 1, "erfcx": 1}),
    # a theta = 90 deg point is replaced by its two averaged flanks in the
    # same kernel call; one more outgoing build is made, for the flanks
    ((20.0, 45.0, 70.0, 90.0, 110.0, 135.0, 160.0),
     {"I0": 0, "kernel": 1, "build": 2, "erfcx": 1}),
])
def test_scan_costs_one_table_and_two_builds(monkeypatch, cold_scans, thetas_deg,
                                            expected):
    calls = {}
    sizes, kx_sizes = [], []
    monkeypatch.setattr(geoamp, "_plane_coefficient",
                        _counted(calls, "I0", geoamp._plane_coefficient))
    monkeypatch.setattr(geoamp, "_bracket_terms",
                        _counted(calls, "kernel", geoamp._bracket_terms))
    monkeypatch.setattr(geoamp, "build_defect_matrix",
                        _counted(calls, "build", build_defect_matrix, kx_sizes))
    monkeypatch.setattr(geoamp, "erfcx_c", _counted(calls, "erfcx", geoamp.erfcx_c, sizes))
    # n(P + 1) erfcx arguments for n distinct |alpha| and P evaluated points
    # (a 90 deg point is two): q = 2 beta at each point and q = 0 once;
    # both sides of a defect, and defects at -a and a, share theirs
    points = len(thetas_deg) + thetas_deg.count(90.0)
    for positions, distinct_abs in (((-3.0, 3.0), 1), ((-3.0, 0.0), 2)):
        calls.update(dict.fromkeys(expected, 0))
        sizes.clear()
        kx_sizes.clear()
        ds = DefectSet(positions, [1.0, 1.0])
        f1 = f1_scan(1.0, 0.0, np.radians(thetas_deg), ds, 0.1, 0.5, -0.5)
        assert len(f1) == len(thetas_deg)
        assert calls == expected
        assert sizes == [distinct_abs * (points + 1)]
        # outgoing at every point with incoming at the scan's one kx, then
        # outgoing at the flanks
        assert kx_sizes == [len(thetas_deg) + 1] + [2] * thetas_deg.count(90.0)
        # a preset's other three curvature settings contract the same state:
        # one region-kernel call each, no defect build and no erfcx call
        for lambda1, lambda2 in _LAMBDA_COMBOS[1:]:
            calls.update(dict.fromkeys(expected, 0))
            f1_scan(1.0, 0.0, np.radians(thetas_deg), ds, 0.1, lambda1, lambda2)
            assert calls == dict(expected, build=0, erfcx=0)
        # a beta = 0 point (theta = theta0) in the scan takes I0, once
        calls.update(dict.fromkeys(expected, 0))
        f1_scan(1.0, 0.0, np.radians((0.0, *thetas_deg)), ds, 0.1, 0.5, -0.5)
        assert calls["I0"] == 1


@pytest.mark.parametrize("positions", [(), (0.7,), (-3.0, 3.0), (-3.1, -1.0, 0.2, 2.8),
                                       tuple(np.linspace(-7.0, 7.0, 8)), (0.0,),
                                       (-3.0, 0.0), (-1.0, 2.5)])
def test_scan_equals_one_point_calls_bit_for_bit(positions):
    # f1_geometric is the one-point case of f1_scan: a K scan at three
    # angles (90 deg among them), and an angle scan holding 90 deg, the
    # nudged forward and mirror angles of the CLI, and near-90 deg angles,
    # give the same numbers as one call per point.  The K scan repeats each
    # K at three angles and the angle scan has one K, so their incoming
    # matrices are shared between points; a defect at 0 (the fig1-mid and
    # fig2-left layouts) has both half-line sides in the right half plane;
    # the last layout has complex couplings.
    couplings = {(-1.0, 2.5): (0.8 - 0.3j, 1.2 + 0.5j)}.get(positions, [1.0] * len(positions))
    ds = DefectSet(positions, couplings)
    ks = np.linspace(0.025, 5.0, 25)
    k_scan = (np.tile(ks, 3), np.repeat(np.radians([30.0, 90.0, 175.0]), ks.size))
    angles = np.radians([1e-5, 30.0, 89.9, 90.0, 90.1, 150.0, 180.0 + 1e-5])
    # a K scan whose every point sits at 90 deg (averaged at N >= 2)
    right_angle = (ks, np.full(ks.size, math.pi / 2))
    for bigK, theta in (k_scan, (np.ones(angles.size), angles), right_angle):
        f1 = f1_scan(bigK, 0.0, theta, ds, 0.1, 0.5, -0.5)
        ref = [f1_geometric(Kinematics(k, 0.0, th), ds, 0.1, 0.5, -0.5)
               for k, th in zip(bigK.tolist(), theta.tolist())]
        assert all(type(f) is complex for f in f1)
        assert f1 == ref


def _bits(f1):
    re, im = f1
    return re.tobytes(), im.tobytes()


@pytest.mark.parametrize("positions, couplings", [
    ((), ()), ((0.0,), (1.0,)), ((-3.0, 3.0), (1.0, 1.0)),
    ((-1.0, 2.5), (0.8 - 0.3j, 1.2 + 0.5j)),
])
def test_warm_scan_equals_a_cold_one_bit_for_bit(cold_scans, positions, couplings):
    # A preset's angle scan at its four curvature settings and at another
    # eta contracts the state its first scan built, and gives the numbers
    # of a scan that builds its own: no defects, a defect at 0, and two
    # defects (the theta = 90 deg row averaged), with complex couplings in
    # the last layout.
    ds = DefectSet(positions, couplings)
    thetas = np.radians(np.linspace(1.0, 179.0, 179))
    settings = [(0.1, l1, l2) for l1, l2 in _LAMBDA_COMBOS] + [(0.3, 0.5, -0.5)]
    warm = [geoamp.f1_arrays(1.0, 0.0, thetas, ds, *setting) for setting in settings]
    state = geoamp._last_scan[1]
    assert state.averaged.sum() == (len(positions) >= 2)
    cold = []
    for setting in settings:
        cold_scans()
        cold.append(geoamp.f1_arrays(1.0, 0.0, thetas, ds, *setting))
        assert geoamp._last_scan[1] is not state
    assert list(map(_bits, warm)) == list(map(_bits, cold))


def test_scan_state_is_rebuilt_when_its_points_or_defects_change(cold_scans):
    # The state is kept while K, theta, theta0 and the defects keep their
    # bits, and rebuilt when any one of them changes by one bit: -0.0 is
    # not 0.0.  Each rebuilt scan gives the numbers of a cold one.
    thetas = np.radians([20.0, 60.0, 120.0])
    base = (np.ones(3), 0.2, thetas, DefectSet([0.0, 2.0], [1.0, 0.5j]))
    changed = [
        (np.ones(3), -0.2, thetas, base[3]),
        (np.array([1.0, np.nextafter(1.0, 2.0), 1.0]), 0.2, thetas, base[3]),
        (np.ones(3), 0.2, np.array([thetas[0], np.nextafter(thetas[1], 0.0), thetas[2]]),
         base[3]),
        (np.ones(3), 0.2, thetas, DefectSet([-0.0, 2.0], [1.0, 0.5j])),
        (np.ones(3), 0.2, thetas, DefectSet([0.0, 2.0], [1.0, 0.5j + 1e-16])),
    ]
    for bigK, theta0, theta, ds in changed:
        geoamp.f1_arrays(*base, 0.1, 0.5, -0.5)
        kept = geoamp._last_scan[1]
        geoamp.f1_arrays(*base, 0.1, 0.0, -0.5)
        assert geoamp._last_scan[1] is kept
        warm = geoamp.f1_arrays(bigK, theta0, theta, ds, 0.1, 0.5, -0.5)
        assert geoamp._last_scan[1] is not kept
        cold_scans()
        assert _bits(warm) == _bits(geoamp.f1_arrays(bigK, theta0, theta, ds, 0.1, 0.5, -0.5))


@pytest.mark.parametrize("positions", [(), (-3.0, 3.0)])
def test_scan_state_arrays_are_read_only(cold_scans, positions):
    ds = DefectSet(positions, [1.0] * len(positions))
    geoamp.f1_arrays(1.0, 0.0, np.radians([30.0, 90.0, 150.0]), ds, 0.1, 0.5, -0.5)
    state = geoamp._last_scan[1]
    assert state.alphas == ds.positions
    arrays = [a for a in state if isinstance(a, np.ndarray)]
    assert len(arrays) == (7 if positions else 5)
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0


def _random_complex(rng, shape, lo, hi):
    """Complex array whose parts have random signs and log-uniform
    magnitudes in [lo, hi], one part in eight a signed zero."""
    z = np.empty(shape, dtype=complex)
    for part in (z.real, z.imag):  # written in place: z = re + 1j * im would drop -0.0
        x = rng.choice([-1.0, 1.0], shape) * np.exp(rng.uniform(np.log(lo), np.log(hi), shape))
        part[...] = np.where(rng.random(shape) < 0.125, np.copysign(0.0, x), x)
    return z


@pytest.mark.parametrize("reverse", [False, True])
def test_running_sums_are_the_cumsum_bit_for_bit(reverse):
    # np.cumsum adds in sequence: every prefix (or suffix) sum of the loop
    # of np.add has the bits of one np.cumsum, for N up to 64, terms over
    # 60 decades and both a broadcast start and a zero one.
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 8, 64):
        parts = rng.standard_normal((2, 3, n, 5)) * 10.0 ** rng.uniform(-30, 30, (2, 3, n, 5))
        for start in (0.0, rng.standard_normal((2, 1, 5)) * 1e20):
            got = geoamp._running(start, parts, reverse)
            want = running_cumsum(start, parts, reverse)
            assert got.shape == want.shape
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("n", [0, 1, 2, 4, 8])
def test_contraction_is_the_python_float_reference_bit_for_bit(n):
    # The bracket's region and line terms in numpy float arithmetic, summed
    # by math.fsum, equal the same operations written out on Python floats,
    # on every platform: the weights of u and v from 1e-75 to 1e75 (no
    # product overflows), signed zeros, defects on both sides of 0 and at
    # 0, and beta = 0 points (s = +-0), which take the I0 rule.
    rng = np.random.default_rng(1000 + n)
    points = 50
    u = _random_complex(rng, (points, n + 1), 1e-75, 1e75)
    v = _random_complex(rng, (points, n + 1), 1e-75, 1e75)
    s = np.concatenate([rng.uniform(-1.0, 1.0, points - 2), [0.0, -0.0]])
    bigK = np.exp(rng.uniform(np.log(1e-2), np.log(1e1), points))
    positions = np.sort(np.append(rng.uniform(-6.0, 6.0, n - 1), 0.0)) if n else ()
    g = _g(s, bigK, positions)
    re, im = geoamp._bracket_terms(geoamp._state(
        g.s, g.bigK, g.alphas, geoamp._kink_phases(g.beta, g.alphas), u.T, v.T),
        g.eta, g.lambda1, g.lambda2)
    got = [complex(math.fsum(r), math.fsum(i)) for r, i in zip(re.T.tolist(), im.T.tolist())]
    ref = contraction_py(g, u.tolist(), v.tolist())
    assert [(f.real.hex(), f.imag.hex()) for f in got] == [
        (f.real.hex(), f.imag.hex()) for f in ref]


def _bracket_error(monkeypatch, bigK, theta0, thetas, ds):
    """f1 over an angle scan, whether each point is averaged across
    theta = +-90 deg, and each point's bracket error against the reference
    table coefficient_table_py contracted with the engine's amplitudes by
    math.fsum, in units of eps sum_ab |u_a T[a][b] v_b|; an averaged point
    takes the mean of its flanks' errors."""
    seen, amplitudes = [], []

    def recorded(scan_state, *settings):
        seen.append((settings, kernel(scan_state, *settings)))
        return seen[-1][-1]

    def recorded_state(s, bigK, alphas, phases, u, v, averaged):
        amplitudes.append((s, bigK, alphas, u, v))
        return state(s, bigK, alphas, phases, u, v, averaged)

    kernel, state = geoamp._bracket_terms, geoamp._state
    monkeypatch.setattr(geoamp, "_bracket_terms", recorded)
    monkeypatch.setattr(geoamp, "_state", recorded_state)
    monkeypatch.setattr(geoamp, "_last_scan", (None, None))
    fr, fi = geoamp.f1_arrays(bigK, theta0, thetas, ds, 0.1, 0.5, -0.5)
    monkeypatch.undo()
    # the evaluation's points (s, K), each averaged point's flanks in its place
    [(settings, (re, im))], [(s, k, alphas, u, v)] = seen, amplitudes
    g = _g(s, k, alphas, *settings)
    terms = u[:, None] * coefficient_table_py(g) * v[None]
    ref = [complex(math.fsum(t.real for t in row), math.fsum(t.imag for t in row))
           for row in terms.reshape(-1, terms.shape[-1]).T.tolist()]
    got = [complex(math.fsum(r), math.fsum(i)) for r, i in zip(re.T.tolist(), im.T.tolist())]
    err = np.abs(np.subtract(got, ref)) / (np.finfo(float).eps * np.abs(terms).sum(axis=(0, 1)))
    # the evaluation's points back to the scan's, as _f1_points splices them
    averaged = np.zeros(thetas.size, dtype=bool)
    if ds.n >= 2:
        kx_out = Kinematics(np.full(thetas.size, bigK), theta0, thetas).kx_out
        averaged = ~(build_defect_matrix(kx_out, ds).cond <= REG_COND_LIMIT)
    first = np.cumsum(1 + averaged) - 1 - averaged
    err_scan = err[first]
    err_scan[averaged] = 0.5 * (err[first[averaged]] + err[first[averaged] + 1])
    return fr + 1j * fi, averaged, err_scan


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 16])
def test_region_sum_matches_the_reference_table(monkeypatch, n):
    # The O(N) region sum against the O(N^2) per-entry table contracted
    # with the same amplitudes: random defects and complex couplings, 179
    # angles with theta = 90 deg among them and theta = -90 deg, and three
    # K.  The bracket error of an ordinary point is within
    # 8 eps sum_ab |u_a T[a][b] v_b| (measured: at most 2.3).  A point
    # averaged across theta = +-90 deg takes the mean of its two flanks'
    # errors in those units, bounded by 2 (measured: at most 0.83); its
    # terms cancel by up to 1.6e8 at +90 deg, so relative to the averaged
    # bracket that is up to 3.6e-9.
    rng = np.random.default_rng(70 + n)
    positions = np.sort(rng.uniform(-6.0, 6.0, n))
    couplings = rng.uniform(0.2, 3.0, n) * np.exp(1j * rng.uniform(-1.0, 1.0, n))
    ds = DefectSet(positions.tolist(), couplings.tolist())
    thetas = np.radians(np.append(np.linspace(1.0, 179.0, 179), -90.0))
    for bigK in (0.1, 1.0, 3.0):
        f1, averaged, err = _bracket_error(monkeypatch, bigK, rng.uniform(-0.5, 0.5),
                                           thetas, ds)
        assert np.isfinite(f1).all()
        assert (err[~averaged] <= 8.0).all(), err.max()
        assert (err[averaged] <= 2.0).all(), err[averaged].max()
        assert averaged.sum() == (2 if n >= 2 else 0)


@pytest.mark.parametrize("positions", [(0.0,), (-3.0, 3.0), (-2.6, -0.4, 0.0, 1.3, 5.5),
                                       (-3.0, 0.0), (-1.5, -0.0, 1.5)])
def test_half_line_table_equals_the_per_qb_evaluation_bit_for_bit(positions):
    # The q = -2 beta moments are the conjugates of the q = 2 beta ones, the
    # q = 0 moments are computed once, the two sides of a defect share one
    # erfcx and so do defects at -a and a: each of the four (qb, sg) pairs
    # the array holds, at every defect and side, is the value the three q
    # values give one by one, signed zeros included, at beta of either sign
    # and at beta = 0, for a scan and for one point.
    rng = np.random.default_rng(len(positions))
    s = np.concatenate([rng.uniform(-1.0, 1.0, 30), [0.0, -0.0, 1.0, -1.0]])
    bigK = rng.uniform(0.01, 5.0, s.size)
    for g in (_g(s, bigK, positions), _g(float(s[0]), float(bigK[0]), positions),
              _g(0.0, 1.0, positions)):
        got = geoamp._half_line_table(g.beta, g.bigK,
                                      geoamp._half_line_moments(g.beta, g.alphas),
                                      g.lambda1, g.lambda2)
        ref = half_line_table_per_qb(g)
        assert got.shape == (len(positions), 2, len(geoamp._PAIRS)) + np.shape(g.beta)
        for i, a in enumerate(g.alphas):
            for j, side in enumerate((-1.0, 1.0)):
                for (qb, sg), k in geoamp._PAIRS.items():
                    value = ref[a, side, qb, sg]
                    bits = [np.ascontiguousarray(np.atleast_1d(x), dtype=complex)
                            .view(np.int64).tolist() for x in (got[i, j, k], value)]
                    assert bits[0] == bits[1], (a, side, qb, sg)


@pytest.mark.parametrize("positions", [(), (0.7,), (-3.0, 3.0)])
def test_empty_scan_returns_no_points(positions):
    ds = DefectSet(positions, [1.0] * len(positions))
    assert f1_scan([], 0.0, [], ds, 0.1, 0.5, -0.5) == []


@pytest.mark.parametrize("positions", [(), (0.7,)])
@pytest.mark.parametrize("theta0, eta, lambda1, lambda2", [
    (2.0, 0.1, 0.5, -0.5),                        # theta0 past grazing incidence
    (0.0, -1.0, 0.5, -0.5),                       # eta < 0
    (0.0, 0.1, math.nan, -0.5),                   # a non-finite lambda1
    (0.0, 0.1, 0.5, math.inf),                    # a non-finite lambda2
])
def test_empty_scan_checks_its_inputs_like_a_one_point_scan(positions, theta0, eta,
                                                             lambda1, lambda2):
    # Every input is checked before any point is evaluated, so a scan of
    # no points raises the InputError of the same scan with one point.
    ds = DefectSet(positions, [1.0] * len(positions))
    with pytest.raises(InputError) as one:
        geoamp.f1_arrays([1.0], theta0, [0.3], ds, eta, lambda1, lambda2)
    with pytest.raises(InputError) as empty:
        geoamp.f1_arrays([], theta0, [], ds, eta, lambda1, lambda2)
    assert str(empty.value) == str(one.value)


def test_scan_validates_like_its_points():
    ds = DefectSet([0.5], [1.0])
    with pytest.raises(ValueError):
        f1_scan([1.0, -1.0], 0.0, [0.5, 0.6], ds, 0.1, 0.5, -0.5)
    with pytest.raises(ValueError):
        f1_scan(1.0, math.pi / 2, [0.5, 0.6], ds, 0.1, 0.5, -0.5)
    with pytest.raises(ValueError):
        f1_scan(1.0, 0.0, [0.5, float("nan")], ds, 0.1, 0.5, -0.5)
    with pytest.raises(ValueError):
        f1_scan([1.0, 2.0, 3.0], 0.0, [0.5, 0.6], ds, 0.1, 0.5, -0.5)
    with pytest.raises(ValueError):
        f1_scan(1.0, 0.0, [0.5, 0.6], ds, -0.1, 0.5, -0.5)
    with pytest.raises(OverflowError):
        f1_scan(1.0, 0.0, [0.5, 0.6], DefectSet([30.0], [1.0]), 0.1, 0.5, -0.5)
    assert f1_scan([], 0.0, [], ds, 0.1, 0.5, -0.5) == []


@pytest.mark.parametrize("bigK, theta0, theta, eta", [
    ([1.0, -1.0], 0.0, [0.5, 0.6], 0.1),          # a point with K <= 0
    (1.0, math.pi / 2, [0.5, 0.6], 0.1),          # theta0 at grazing incidence
    (1.0, 0.0, [0.5, float("nan")], 0.1),         # a non-finite angle
    ([1.0, 2.0, 3.0], 0.0, [0.5, 0.6], 0.1),      # shapes that do not broadcast
    ([[1.0, 2.0]], 0.0, [0.5, 0.6], 0.1),         # not 1-D
    (1.0, 0.0, 0.5, 0.1),                         # not 1-D
    (1.0, 0.0, [0.5, 0.6], -0.1),                 # eta < 0
])
def test_scan_input_errors_are_input_errors(bigK, theta0, theta, eta):
    # Every input check of a scan raises the one typed InputError.
    ds = DefectSet([0.5], [1.0])
    with pytest.raises(InputError):
        f1_scan(bigK, theta0, theta, ds, eta, 0.5, -0.5)


def test_scan_defect_past_the_window_is_no_input_error():
    # |alpha| > 26 is a numerical limit of the kernels, not a bad input.
    with pytest.raises(OverflowError) as info:
        f1_scan(1.0, 0.0, [0.5, 0.6], DefectSet([30.0], [1.0]), 0.1, 0.5, -0.5)
    assert not isinstance(info.value, InputError)
    assert not issubclass(SingularAngleError, InputError)


# Finite settings whose size takes f1 past the float range, at N = 0, 1
# and 2: (bigK, defects, eta, lambda1, lambda2, an angle in degrees where
# f1 itself overflows).  Without the overflow rule the first four returned
# NaN or ended in fsum's ValueError (-inf + inf); the last has finite
# bracket terms and an infinite f1 at 30 deg.  The N = 2 scan overflows
# at its averaged 90 deg point only.
_OVERFLOWING = [
    (1.0, (), 0.1, 1e308, -0.5, 10.0),
    (1.0, (), 1e308, 0.5, -0.5, 10.0),
    (1.0, (0.0,), 0.1, 1e308, -0.5, 10.0),
    (1.0, (-3.0, 3.0), 0.1, 0.5, 1e306, 90.0),
    (0.01, (), 1e307, 4e5, 0.0, 30.0),
]


@pytest.mark.parametrize("bigK, alphas, eta, lambda1, lambda2, deg", _OVERFLOWING)
def test_f1_past_the_float_range_raises_overflow_error(bigK, alphas, eta, lambda1, lambda2, deg):
    # A non-finite term, bracket or f1 raises OverflowError: no NaN or inf
    # is returned by a scan, by a cross section or by one point, and no
    # numpy warning is given.
    ds = DefectSet(list(alphas), [1.0] * len(alphas))
    theta = np.radians([10.0, 90.0, 170.0])
    with pytest.raises(OverflowError, match="f1 overflows"):
        geoamp.f1_arrays(bigK, 0.0, theta, ds, eta, lambda1, lambda2)
    with pytest.raises(OverflowError, match="f1 overflows"):
        cross_section(Kinematics(np.full(3, bigK), 0.0, theta), ds, eta, lambda1, lambda2)
    kin = Kinematics(bigK, 0.0, math.radians(deg))
    with pytest.raises(OverflowError, match="f1 overflows"):
        cross_section(kin, ds, eta, lambda1, lambda2)
    with pytest.raises(OverflowError, match="f1 overflows"):
        f1_geometric(kin, ds, eta, lambda1, lambda2)


@pytest.mark.parametrize("eta, lambda1", [(1e290, 0.5), (0.1, 1e300)])
def test_cross_section_past_the_float_range_names_f1_squared(eta, lambda1):
    # f1 is finite and its square is not: the cross section raises an
    # OverflowError that names |f1|^2 and the largest |f1|, for a scan and
    # for one point, not math.pow's bare "math range error".
    ds = DefectSet([], [])
    theta = np.radians([10.0, 90.0, 170.0])
    largest = max(np.hypot(*geoamp.f1_arrays(1.0, 0.0, theta, ds, eta, lambda1, -0.5)))
    assert math.isfinite(largest)
    for kin in (Kinematics(np.ones(3), 0.0, theta), Kinematics(1.0, 0.0, theta[1])):
        with pytest.raises(OverflowError, match=r"\|f1\|\^2 .* largest \|f1\| is ") as info:
            cross_section(kin, ds, eta, lambda1, -0.5)
    assert float(str(info.value).rsplit(" ", 1)[1]) <= largest


def test_modulus_squared_past_the_float_range_names_f1_squared():
    # Where Python's abs(f) ** 2 overflows in pow (|f| > 1.4e154), the
    # OverflowError names |f1|^2 and the largest |f1|.
    re, im = np.array([1.0, 3e200, -2e200]), np.array([0.0, 4e200, 0.0])
    with pytest.raises(OverflowError):
        abs(complex(3e200, 4e200)) ** 2
    with pytest.raises(OverflowError, match=r"\|f1\|\^2 .* largest \|f1\| is 4.9999999999999995e\+200$"):
        modulus_squared(re, im)


@pytest.mark.parametrize("alphas", [(), (-3.0, 3.0)], ids=["N0", "N2"])
def test_closed_table_past_the_float_range_raises_overflow_error(alphas):
    # The closed table and I0 keep f1's overflow rule: a sum or a value
    # that is not finite raises OverflowError, for a float g and for an
    # array g with one such point, and no numpy warning is given.  Without
    # the rule the table held inf + nan j at N = 0 and NaN at N = 2.
    g = _g(0.3, 1.0, alphas, lambda1=1e308)
    both = GeoCoefficientInputs(s=np.array([0.3, 0.3]), bigK=np.ones(2), alphas=alphas,
                                eta=0.1, lambda1=np.array([0.5, 1e308]), lambda2=-0.5)
    for inputs in (g, both):
        with pytest.raises(OverflowError, match="coefficient table overflows"):
            coefficient_table(inputs)
        with pytest.raises(OverflowError, match="I0 overflows"):
            I0_closed(inputs)
    assert np.isfinite(coefficient_table(_g(0.3, 1.0, alphas, lambda1=1e300))).all()


def test_delta_ray_offset_refuses_non_finite_angles():
    for theta0, theta in ((math.inf, 0.5), (0.0, -math.inf), (math.nan, 0.5)):
        with pytest.raises(InputError):
            delta_ray_offset(theta0, theta)


def test_amplitude_is_linear_in_eta():
    kin = Kinematics(bigK=1.2, theta0=0.1, theta=2.2)
    ds = DefectSet([-1.0, 2.0], [1.5, 0.7])
    f_eta = f1_geometric(kin, ds, 0.1, 0.5, -0.5)
    f_2eta = f1_geometric(kin, ds, 0.2, 0.5, -0.5)
    # eta multiplies every term linearly and scaling by 2 is exact in
    # floating point, so this holds to the last bit.
    assert f_2eta == 2.0 * f_eta
    assert f1_geometric(kin, ds, 0.0, 0.5, -0.5) == 0.0


# Reciprocity composed with the mirror x -> -x: with the defect lines fixed
# at x = alpha_n, f(K; theta0 -> theta; alpha, z) = f(K; -theta -> -theta0;
# -alpha, z).  Both sides keep |theta0| < 90 deg and cos(theta) > 0.
_RECIPROCITY_ANGLES_DEG = ((0.0, 30.0), (20.0, -30.0), (-10.0, 60.0), (45.0, 10.0))


def _reciprocity_defect(positions, couplings, theta0_deg, theta_deg):
    """|f - f'| / max(|f|, |f'|) of the two sides at K = 1, eta = 0.1,
    lambda = (0.5, -0.5)."""
    th0, th = math.radians(theta0_deg), math.radians(theta_deg)
    f = f1_geometric(Kinematics(1.0, th0, th), DefectSet(positions, couplings),
                     0.1, 0.5, -0.5)
    f_rev = f1_geometric(Kinematics(1.0, -th, -th0),
                         DefectSet([-a for a in positions], couplings), 0.1, 0.5, -0.5)
    return abs(f - f_rev) / max(abs(f), abs(f_rev))


def test_reciprocity_holds_without_defects():
    # the control: not exactly 0, about 4e-16 at (20, -30)
    for th0, th in _RECIPROCITY_ANGLES_DEG:
        assert _reciprocity_defect((), (), th0, th) <= 1e-14


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("positions, couplings", [
    ((3.0,), (1.0,)),
    ((-1.0, 3.0), (1.0, 0.7)),
], ids=["N1", "N2"])
def test_reciprocity_holds_with_defects(positions, couplings):
    for th0, th in _RECIPROCITY_ANGLES_DEG:
        assert _reciprocity_defect(positions, couplings, th0, th) <= 1e-12


# The y-mirror: the model is symmetric under y -> -y (the bump is round and
# each line x = alpha_n maps to itself), so f(K; theta0 -> theta; alpha, z)
# = f(K; -theta0 -> -theta; alpha, z) with the same defects.
def _y_mirror_defect(positions, couplings, theta0_deg, theta_deg):
    """|f - f'| / max(|f|, |f'|) of the two sides at K = 1, eta = 0.1,
    lambda = (0.5, -0.5)."""
    th0, th = math.radians(theta0_deg), math.radians(theta_deg)
    ds = DefectSet(positions, couplings)
    f = f1_geometric(Kinematics(1.0, th0, th), ds, 0.1, 0.5, -0.5)
    f_mirror = f1_geometric(Kinematics(1.0, -th0, -th), ds, 0.1, 0.5, -0.5)
    return abs(f - f_mirror) / max(abs(f), abs(f_mirror))


def test_y_mirror_holds_without_defects():
    # the control: 0 but for about 4e-16 at (-10, 60)
    for th0, th in _RECIPROCITY_ANGLES_DEG:
        assert _y_mirror_defect((), (), th0, th) <= 1e-15


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("positions, couplings", [
    ((3.0,), (1.0,)),
    ((-1.0, 3.0), (1.0, 0.7)),
], ids=["N1", "N2"])
def test_y_mirror_holds_with_defects(positions, couplings):
    for th0, th in _RECIPROCITY_ANGLES_DEG:
        assert _y_mirror_defect(positions, couplings, th0, th) <= 1e-12


def test_weak_coupling_limit_matches_flat_plane():
    kin = Kinematics(bigK=1.0, theta0=0.0, theta=2.5)
    free = f1_geometric(kin, DefectSet(), 0.1, 0.5, -0.5)
    weak = f1_geometric(kin, DefectSet([0.7], [1e-8]), 0.1, 0.5, -0.5)
    np.testing.assert_allclose(weak, free, rtol=1e-6)


def test_negligible_second_defect_matches_single():
    kin = Kinematics(bigK=1.3, theta0=0.0, theta=1.9)
    one = f1_geometric(kin, DefectSet([0.0], [1.0]), 0.1, 0.5, -0.5)
    two = f1_geometric(kin, DefectSet([0.0, 5.0], [1.0, 1e-12]), 0.1, 0.5, -0.5)
    np.testing.assert_allclose(two, one, rtol=1e-8)


def test_right_angle_is_averaged_for_degenerate_outgoing_matrix():
    kin = Kinematics(bigK=1.0, theta0=0.0, theta=math.pi / 2)
    ds = DefectSet([-3.0, 3.0], [1.0, 1.0])
    # The outgoing defect matrix is singular or past the averaging limit.
    try:
        assert build_defect_matrix(kin.kx_out, ds).cond > REG_COND_LIMIT
    except SingularMatrixError:
        pass
    f_reg = f1_geometric(kin, ds, 0.1, 0.5, -0.5)
    assert cmath.isfinite(f_reg)
    # The averaged value sits between the two flanking angles.
    eps = 2e-6
    f_lo = f1_geometric(
        Kinematics(1.0, 0.0, math.pi / 2 - eps), ds, 0.1, 0.5, -0.5
    )
    f_hi = f1_geometric(
        Kinematics(1.0, 0.0, math.pi / 2 + eps), ds, 0.1, 0.5, -0.5
    )
    mid = 0.5 * (f_lo + f_hi)
    np.testing.assert_allclose(f_reg, mid, rtol=1e-3)


class _OnItsBranch(Kinematics):
    """A Kinematics that keeps theta as given, not normalised into
    [-pi/2, 3 pi/2): its s and kx_out are those of that angle."""

    def __post_init__(self):
        pass


@pytest.mark.parametrize("bigK, theta0", [(1.0, 0.0), (0.3, 0.2), (2.7, -0.4)])
def test_averaged_point_is_pythons_mean_of_its_flanks_bit_for_bit(bigK, theta0):
    # An averaged point's value is 0.5 * (f_up + f_down) on Python complex
    # numbers, from its flanks' own values: complex couplings, theta at
    # +-90 deg, alone and in a scan with ordinary points.
    # Each flank is on its point's branch: at -90 deg the lower flank lies
    # below -90 deg, which Kinematics would renormalise to 270 deg - eps.
    ds = DefectSet([-1.0, 2.5], [0.8 - 0.3j, 1.2 + 0.5j])
    for theta, flank in ((math.pi / 2, Kinematics), (-math.pi / 2, _OnItsBranch)):
        kin = Kinematics(bigK, theta0, theta)
        up, down = (f1_geometric(flank(bigK, theta0, kin.theta + d), ds, 0.1, 0.5, -0.5)
                    for d in (ANGLE_REG_EPS, -ANGLE_REG_EPS))
        want = 0.5 * (up + down)
        got = [f1_geometric(kin, ds, 0.1, 0.5, -0.5),
               f1_scan([bigK] * 3, theta0, [0.3, theta, 2.0], ds, 0.1, 0.5, -0.5)[1]]
        assert [(f.real.hex(), f.imag.hex()) for f in got] == [(want.real.hex(),
                                                               want.imag.hex())] * 2


@pytest.mark.parametrize("positions", [(-3.0, 0.0), (0.0, 3.0), (-3.0, 3.0)])
def test_minus_ninety_degrees_averages_flanks_on_its_branch(positions):
    # -90 deg is the lower edge of Kinematics' angles.  Its averaged f1 is
    # as small as at +90 deg only if both flanks keep the sign of
    # s = sin((theta - theta0)/2), so that their poles cancel (a lower
    # flank at 270 deg - eps gave |f1| of 2e3 to 1e4).  270 deg is
    # normalised to -90 deg and gives the same bits.
    ds = DefectSet(positions, [1.0, 1.0])
    f, g = (f1_geometric(Kinematics(1.0, 0.0, theta), ds, 0.1, 0.5, -0.5)
            for theta in (-math.pi / 2, math.radians(270.0)))
    assert abs(f) < 1.0
    assert (f.real.hex(), f.imag.hex()) == (g.real.hex(), g.imag.hex())


def test_modulus_squared_is_abs_squared_bit_for_bit():
    # |f|^2 from the real and imaginary arrays equals Python's abs(f) ** 2,
    # for moduli from 1e-150 to 1e150 and signed zeros.
    rng = np.random.default_rng(23)
    z = _random_complex(rng, 20000, 1e-150, 1e150)
    assert [x.hex() for x in modulus_squared(z.real, z.imag)] == [
        (abs(f) ** 2).hex() for f in z.tolist()]


def test_right_angle_single_defect_needs_no_averaging(monkeypatch, cold_scans):
    # N = 1 keeps the outgoing matrix well conditioned at 90 degrees: the
    # point is evaluated at 90 degrees itself, with one build of its
    # outgoing and incoming matrices and no flanking angle.
    built = []

    def recorded(kx, defects):
        built.append(np.asarray(kx).tolist())
        return build_defect_matrix(kx, defects)

    monkeypatch.setattr(geoamp, "build_defect_matrix", recorded)
    kin = Kinematics(bigK=1.0, theta0=0.0, theta=math.pi / 2)
    f1 = f1_geometric(kin, DefectSet([0.5], [1.0]), 0.1, 0.5, -0.5)
    assert math.isfinite(abs(f1))
    assert built == [[kin.kx_out, kin.kx]]


def _f1_reference_mp(kin, ds, eta, lambda1, lambda2):
    """f1 and sum_ab |u_a T[a][b] v_b| at 50 digits from the engine's double
    inputs: kink_coefficient_mp entries and an mpmath solve A w = e for the
    weights, with A built from the same double kx, kx_out and couplings."""
    g = _g(kin.s, kin.bigK, ds.positions, eta, lambda1, lambda2)
    pieces = (None, *g.alphas)
    with mp.workdps(50):
        beta = mp.mpf(g.beta)
        e = mp.matrix([mp.expj(beta * mp.mpf(a)) for a in g.alphas])

        def amplitudes(kx):
            kx = mp.mpf(kx)
            a_mat = mp.matrix(ds.n, ds.n)
            for m, am in enumerate(g.alphas):
                for n, an in enumerate(g.alphas):
                    a_mat[m, n] = 1j * mp.expj(kx * abs(mp.mpf(am) - mp.mpf(an)))
                z = complex(ds.z[m])
                a_mat[m, m] += 2 * kx / mp.mpc(z.real, z.imag)
            w = mp.lu_solve(a_mat, e)
            return [mp.mpf(1)] + [-1j * w[n] for n in range(ds.n)]

        u, v = amplitudes(kin.kx_out), amplitudes(kin.kx)
        terms = [u[a] * mp.mpc(kink_coefficient_mp(g, bra, ket)) * v[b]
                 for a, bra in enumerate(pieces) for b, ket in enumerate(pieces)]
        pref = -mp.expj(mp.pi / 4) / (2 * mp.sqrt(2 * mp.pi * mp.mpf(kin.bigK)))
        bracket = mp.fsum(terms)
        return (complex(pref * bracket), float(abs(pref)),
                float(mp.fsum(abs(t) for t in terms)), float(abs(bracket)))


@pytest.mark.parametrize("bigK, alpha", [(0.05, 3.0), (1.0, -3.0)])
def test_bracket_forward_error_is_bounded_where_it_cancels(bigK, alpha):
    # N = 1 at theta = 90 deg: the outgoing weight nearly cancels the plane
    # wave, so the (N+1)^2 terms u_a T[a][b] v_b can be far larger than
    # their sum.  The error of f1 is bounded by the terms' size, not by |f1|:
    # |f1 - f1_ref| <= 8 eps |pref| sum_ab |u_a T[a][b] v_b|.  K = 0.05 with
    # a defect at +3 cancels by 5e6; K = 1 at -3 barely cancels.
    kin = Kinematics(bigK=bigK, theta0=0.0, theta=math.radians(90.0))
    ds = DefectSet([alpha], [1.0])
    ref, pref, sum_abs, bracket = _f1_reference_mp(kin, ds, 0.1, 0.5, -0.5)
    f1 = f1_geometric(kin, ds, 0.1, 0.5, -0.5)
    eps = np.finfo(float).eps
    assert abs(f1 - ref) <= 8.0 * eps * pref * sum_abs
    if (bigK, alpha) == (0.05, 3.0):
        # the case is one that really cancels
        assert sum_abs / bracket > 1e6


def test_step_term_variants_differ():
    # The engine's kappa2 step term and the test-side x2 reference must not
    # agree once the bra kink sits strictly below the ket kink.
    g = _g(0.6, 1.1, (-1.5, 0.0, 2.0))
    a = _phased(g, (1, 3), 1, 1)
    b = immnn_x2(g, 0, 1, 2, 1)
    assert abs(a - b) > 1e-6 * max(abs(a), abs(b))
    # The full amplitude inherits the difference: swap x2 into the
    # quadruple-sum reference.
    kin = Kinematics(bigK=1.1, theta0=0.0, theta=1.2)
    ds = DefectSet([-1.5, 2.0], [1.0, 1.0])
    fa = f1_geometric(kin, ds, 0.1, 0.5, -0.5)
    fb = _f1_quadruple_sum(kin, ds, 0.1, 0.5, -0.5, immnn=immnn_x2)
    assert abs(fa - fb) > 1e-8


# ---------------------------------------------------------------------------
# Guard rails


def test_defect_offset_window_is_enforced():
    with pytest.raises(OverflowError):
        _g(0.5, 1.0, (27.0,))
    kin = Kinematics(bigK=1.0, theta0=0.0, theta=2.0)
    with pytest.raises(OverflowError):
        f1_geometric(kin, DefectSet([-30.0], [1.0]), 0.1, 0.5, -0.5)
    # The documented window itself is usable.
    f = f1_geometric(kin, DefectSet([25.0], [1.0]), 0.1, 0.5, -0.5)
    assert cmath.isfinite(f)


@pytest.mark.parametrize("positions, eta, lambda1, error", [
    ((1e200,), 0.1, 0.5, OverflowError),     # past the window, far enough to overflow
    ((-1e200, 0.5), 0.1, 0.5, OverflowError),
    ((0.5,), -0.1, 0.5, InputError),          # eta < 0
    ((0.5,), math.nan, 0.5, InputError),
    ((0.5,), 0.1, math.inf, InputError),      # a non-finite curvature weight
])
def test_bad_settings_raise_before_the_state_is_built(monkeypatch, cold_scans, positions,
                                                      eta, lambda1, error):
    # eta, the curvature weights and the defect window are checked before
    # the scan's state is built: no defect build, no erfcx call, and the
    # kept state is left as it was.
    kin = Kinematics(bigK=1.0, theta0=0.0, theta=2.0)
    f1_geometric(kin, DefectSet([0.5], [1.0]), 0.1, 0.5, -0.5)
    kept = geoamp._last_scan
    calls = dict.fromkeys(("build", "erfcx"), 0)
    monkeypatch.setattr(geoamp, "build_defect_matrix",
                        _counted(calls, "build", build_defect_matrix))
    monkeypatch.setattr(geoamp, "erfcx_c", _counted(calls, "erfcx", geoamp.erfcx_c))
    ds = DefectSet(positions, [1.0] * len(positions))
    with pytest.raises(error):
        f1_geometric(kin, ds, eta, lambda1, -0.5)
    with pytest.raises(error):
        f1_scan(1.0, 0.0, [0.5, 0.6], ds, eta, lambda1, -0.5)
    assert calls == {"build": 0, "erfcx": 0}
    assert geoamp._last_scan is kept


@pytest.mark.parametrize("weights", [179, 180])
def test_f1_settings_are_floats(monkeypatch, cold_scans, weights):
    # A 179-point N = 2 angle scan through 90 deg is evaluated at 180 points
    # (the 90 deg point by its two flanks).  A curvature weight array of
    # either length, or an eta array, is refused with an InputError before
    # a defect build, cold and warm, by every f1 entry point, and the kept
    # state is left as it was.
    thetas = np.radians(np.linspace(1.0, 179.0, 179))
    ds = DefectSet([-3.0, 3.0], [1.0, 1.0])
    calls = dict.fromkeys(("build", "erfcx"), 0)
    monkeypatch.setattr(geoamp, "build_defect_matrix",
                        _counted(calls, "build", build_defect_matrix))
    monkeypatch.setattr(geoamp, "erfcx_c", _counted(calls, "erfcx", geoamp.erfcx_c))
    lam = np.full(weights, 0.5)
    kin = Kinematics(np.ones(thetas.size), 0.0, thetas)
    for warm in (False, True):
        if warm:
            geoamp.f1_arrays(1.0, 0.0, thetas, ds, 0.1, 0.5, -0.5)
        kept = geoamp._last_scan
        calls.update(dict.fromkeys(calls, 0))
        for call in (lambda: geoamp.f1_arrays(1.0, 0.0, thetas, ds, 0.1, lam, -0.5),
                     lambda: f1_scan(1.0, 0.0, thetas, ds, 0.1, 0.5, lam),
                     lambda: cross_section(kin, ds, 0.1, lam, lam),
                     lambda: f1_geometric(Kinematics(1.0, 0.0, 2.0), ds, 0.1, lam, -0.5),
                     lambda: geoamp.f1_arrays(1.0, 0.0, thetas, ds, 0.2 * lam, 0.5, -0.5)):
            with pytest.raises(InputError, match="must be floats"):
                call()
        assert calls == {"build": 0, "erfcx": 0}
        assert geoamp._last_scan is kept


def test_f1_builds_no_coefficient_inputs(monkeypatch, cold_scans):
    # A scan reads its points and defects from its state alone: no
    # GeoCoefficientInputs is made, whether the state is built or kept.
    made = []
    init = GeoCoefficientInputs.__post_init__
    monkeypatch.setattr(GeoCoefficientInputs, "__post_init__",
                        lambda self: made.append(self) or init(self))
    thetas = np.radians(np.linspace(1.0, 179.0, 179))
    for positions in ((), (-3.0, 3.0)):
        ds = DefectSet(positions, [1.0] * len(positions))
        for f1 in (lambda l1: geoamp.f1_arrays(1.0, 0.0, thetas, ds, 0.1, l1, -0.5),
                   lambda l1: f1_geometric(Kinematics(1.0, 0.0, 2.0), ds, 0.1, l1, -0.5)):
            cold_scans()
            f1(0.5)
            state = geoamp._last_scan[1]
            f1(0.0)
            assert geoamp._last_scan[1] is state
    assert made == []
    _g(0.5, 1.0, ())
    assert len(made) == 1


def test_cross_section_refuses_delta_supported_rays():
    ds = DefectSet([0.0], [1.0])
    with pytest.raises(SingularAngleError):
        cross_section(Kinematics(1.0, 0.2, 0.2), ds, 0.1, 0.5, -0.5)
    with pytest.raises(SingularAngleError):
        cross_section(
            Kinematics(1.0, 0.2, math.pi - 0.2), ds, 0.1, 0.5, -0.5
        )
    # Just off the rays it is an ordinary number.
    val = cross_section(Kinematics(1.0, 0.2, 0.21), ds, 0.1, 0.5, -0.5)
    assert val >= 0.0


def test_cross_section_takes_a_scan():
    # An array Kinematics gives |f1|^2 per point from one f1_scan call, and
    # SingularAngleError if any of its points lies on a delta ray.
    ds = DefectSet([-3.0, 3.0], [1.0, 1.0])
    bigK = np.linspace(0.5, 2.0, 5)
    theta = np.radians([10.0, 60.0, 90.0, 120.0, 170.0])
    xsec = cross_section(Kinematics(bigK, 0.2, theta), ds, 0.1, 0.5, -0.5)
    assert xsec == [abs(f) ** 2 for f in f1_scan(bigK, 0.2, theta, ds, 0.1, 0.5, -0.5)]
    assert xsec == [cross_section(Kinematics(k, 0.2, th), ds, 0.1, 0.5, -0.5)
                    for k, th in zip(bigK.tolist(), theta.tolist())]
    for ray in (0.2, math.pi - 0.2):
        with pytest.raises(SingularAngleError):
            cross_section(Kinematics(bigK, 0.2, np.append(theta[:-1], ray)),
                          ds, 0.1, 0.5, -0.5)
    # f1_geometric is one point: a scan there is refused, not cut short
    with pytest.raises(InputError):
        f1_geometric(Kinematics(bigK, 0.2, theta), ds, 0.1, 0.5, -0.5)


@pytest.mark.parametrize("theta0", [0.0, 0.2, -0.4])
def test_delta_ray_offset_measures_the_nearer_ray(theta0):
    # zero on the forward ray, on the mirror ray and a turn further round
    for ray in (theta0, math.pi - theta0, theta0 + 2.0 * math.pi):
        assert abs(delta_ray_offset(theta0, ray)) <= 1e-15
    # signed: positive past the ray, negative before it
    for ray in (theta0, math.pi - theta0):
        assert delta_ray_offset(theta0, ray + 1e-3) == pytest.approx(1e-3, rel=1e-9)
        assert delta_ray_offset(theta0, ray - 1e-3) == pytest.approx(-1e-3, rel=1e-9)
    # an ordinary angle is measured to the nearer ray
    assert delta_ray_offset(theta0, theta0 + 0.5) == pytest.approx(0.5, rel=1e-12)
    assert delta_ray_offset(theta0, math.pi - theta0 - 0.5) == pytest.approx(-0.5, rel=1e-12)


@pytest.mark.parametrize("theta0", [0.0, 0.2, -0.4, math.pi / 2 - 2e-6])
def test_delta_ray_offset_on_arrays_is_the_per_point_rule_bit_for_bit(theta0):
    # The array rule equals min(math.remainder(theta - ray, 2 pi), key=abs)
    # point by point: angles many turns out, on and next to both rays and
    # their +-pi ties, signed zeros and tiny angles.
    rng = np.random.default_rng(5)
    mirror = math.pi - theta0
    special = [0.0, -0.0, 5e-324, theta0, mirror, theta0 + math.pi, theta0 - math.pi,
               mirror + math.pi, mirror - math.pi, np.nextafter(theta0 + math.pi, 0.0)]
    thetas = np.concatenate([special, rng.uniform(-1e3, 1e3, 500), rng.uniform(-7.0, 7.0, 500),
                             theta0 + rng.uniform(-1e-6, 1e-6, 100)])
    got = delta_ray_offset(theta0, thetas)
    assert [x.hex() for x in got.tolist()] == [
        ray_offset_per_point(theta0, th).hex() for th in thetas.tolist()]
    assert delta_ray_offset(theta0, 0.3) == ray_offset_per_point(theta0, 0.3)


def test_cross_section_is_squared_amplitude():
    kin = Kinematics(bigK=1.4, theta0=0.1, theta=2.0)
    ds = DefectSet([-0.5, 1.0], [1.0, 2.0])
    f1 = f1_geometric(kin, ds, 0.1, 0.5, -0.5)
    np.testing.assert_allclose(
        cross_section(kin, ds, 0.1, 0.5, -0.5), abs(f1) ** 2, rtol=1e-14
    )


def test_invalid_inputs_raise():
    with pytest.raises(ValueError):
        _g(0.5, 1.0, (0.0,), eta=-0.1)
    with pytest.raises(ValueError):
        _g(0.5, -1.0, (0.0,))
    with pytest.raises(ValueError):
        _g(float("nan"), 1.0, (0.0,))
    with pytest.raises(ValueError):
        _g(0.5, 1.0, (0.0,), lambda1=float("nan"))
    with pytest.raises(ValueError):
        _g(0.5, 1.0, (0.0,), lambda2=float("inf"))
    with pytest.raises(ValueError):
        _g(1.5, 1.0, (0.0,))


@pytest.mark.parametrize("kwargs", [
    {"eta": -0.1}, {"eta": float("nan")}, {"bigK": -1.0}, {"bigK": float("inf")},
    {"s": float("nan")}, {"s": 1.5}, {"lambda1": float("nan")}, {"lambda2": float("inf")},
    {"alphas": (0.5, -0.5)},  # the region kernel reads the defects in order
    # per-point weights: non-finite at one point, or not one per point of s
    {"s": np.array([0.0, 0.3, 0.7]), "bigK": np.ones(3),
     "lambda1": np.array([0.5, math.nan, 0.5])},
    {"s": np.array([0.0, 0.3, 0.7]), "bigK": np.ones(3),
     "lambda2": np.array([-0.5, -0.5, math.inf])},
    {"s": np.array([0.0, 0.3, 0.7]), "bigK": np.ones(3), "lambda1": np.array([0.5, 0.5])},
    {"s": np.array([0.0, 0.3]), "bigK": np.ones(2), "lambda2": np.array([-0.5, -0.5, -0.5])},
    {"lambda1": np.array([0.5])},  # an array weight with a float s
    # eta is one value, with float or array points
    {"eta": np.array([0.1, 0.2])}, {"eta": np.array([0.1])},
    {"s": np.array([0.0, 0.3]), "bigK": np.ones(2), "eta": np.array([0.1, 0.2])},
])
def test_coefficient_input_errors_are_input_errors(kwargs):
    args = {"s": 0.5, "bigK": 1.0, "alphas": (0.0,), **kwargs}
    with pytest.raises(InputError):
        _g(**args)


@pytest.mark.parametrize("s, bigK", [
    (np.array([0.1, 0.2]), 1.0),  # an array s with a float K
    (0.5, np.ones(2)),
    (np.zeros((2, 2)), np.ones((2, 2))),  # 2-D points
    (np.zeros(2), np.ones(3)),  # arrays of two lengths
    ([0.1, 0.2], [1.0, 1.0]),  # lists, not arrays
])
def test_coefficient_inputs_refuse_point_shapes_the_tables_cannot_take(s, bigK):
    # s and K are both numbers or both 1-D arrays of one length; any other
    # shapes raise InputError at construction, not an AttributeError,
    # IndexError, TypeError or broadcast ValueError in coefficient_table,
    # I0_closed or the oracle.
    with pytest.raises(InputError, match="s and bigK"):
        _g(s, bigK, (0.0,))
