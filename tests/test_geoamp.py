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
    contraction_py,
    half_line_table_per_qb,
    immnn_x2,
    kink_coefficient_mp,
)

from bumpscatter import geoamp
from bumpscatter.defects import (
    DefectSet,
    InputError,
    Kinematics,
    SingularMatrixError,
    build_defect_matrix,
)
from bumpscatter.geoamp import (
    GeoCoefficientInputs,
    REG_COND_LIMIT,
    I0_closed,
    SingularAngleError,
    coefficient_table,
    cross_section,
    delta_ray_offset,
    f1_geometric,
    f1_scan,
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


def test_assembly_costs_n_squared_core_evaluations(monkeypatch):
    # One f1 at N = 4 evaluates N bra-kink and N ket-kink coefficients and
    # N^2 kink pairs, from one incoming and one outgoing defect matrix.
    calls = {"bra only": 0, "ket only": 0, "pair": 0, "build": 0}
    kernel = geoamp._kink_coefficient

    def counted_kernel(g, bra=None, ket=None):
        if bra is None:
            calls["ket only"] += 1
        elif ket is None:
            calls["bra only"] += 1
        else:
            calls["pair"] += 1
        return kernel(g, bra, ket)

    def counted_build(*args):
        calls["build"] += 1
        return build_defect_matrix(*args)

    monkeypatch.setattr(geoamp, "_kink_coefficient", counted_kernel)
    monkeypatch.setattr(geoamp, "build_defect_matrix", counted_build)
    kin = Kinematics(bigK=1.1, theta0=0.0, theta=2.2)
    ds = DefectSet([-2.0, -0.5, 1.0, 2.5], [1.0, 1.0, 1.0, 1.0])
    f1_geometric(kin, ds, 0.1, 0.5, -0.5)
    assert calls == {"bra only": 4, "ket only": 4, "pair": 16, "build": 2}


@pytest.mark.parametrize("thetas_deg, expected", [
    # away from 90 deg: one table (one exp_erfc call for all its half-line
    # integrals and 1 + 2N + N^2 kernel calls), one incoming and one
    # outgoing build, whatever the scan's length
    ((20.0, 45.0, 70.0, 110.0, 135.0, 160.0),
     {"I0": 1, "kernel": 8, "build": 2, "erfc": 1}),
    # a theta = 90 deg point is replaced by its two averaged flanks in the
    # same table; only the outgoing build is made again, for the new points
    ((20.0, 45.0, 70.0, 90.0, 110.0, 135.0, 160.0),
     {"I0": 1, "kernel": 8, "build": 3, "erfc": 1}),
])
def test_scan_costs_one_table_and_two_builds(monkeypatch, thetas_deg, expected):
    calls = dict.fromkeys(expected, 0)

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(geoamp, "I0_closed", counted("I0", I0_closed))
    monkeypatch.setattr(geoamp, "_kink_coefficient",
                        counted("kernel", geoamp._kink_coefficient))
    monkeypatch.setattr(geoamp, "build_defect_matrix",
                        counted("build", build_defect_matrix))
    erfc = counted("erfc", geoamp.exp_erfc)
    sizes = []

    def sized_erfc(x, w):
        sizes.append(np.broadcast(x, w).size)
        return erfc(x, w)

    monkeypatch.setattr(geoamp, "exp_erfc", sized_erfc)
    ds = DefectSet([-3.0, 3.0], [1.0, 1.0])
    f1 = f1_scan(1.0, 0.0, np.radians(thetas_deg), ds, 0.1, 0.5, -0.5)
    assert len(f1) == len(thetas_deg)
    assert calls == expected
    # 2N(P + 1) erfc arguments for P evaluated points (a 90 deg point is
    # two): q = 2 beta at each point and q = 0 once, per defect and side
    points = len(thetas_deg) + thetas_deg.count(90.0)
    assert sizes == [2 * ds.n * (points + 1)]


@pytest.mark.parametrize("positions", [(), (0.7,), (-3.0, 3.0), (-3.1, -1.0, 0.2, 2.8),
                                       tuple(np.linspace(-7.0, 7.0, 8))])
def test_scan_equals_one_point_calls_bit_for_bit(positions):
    # f1_geometric is the one-point case of f1_scan: a K scan at three
    # angles (90 deg among them), and an angle scan holding 90 deg, the
    # nudged forward and mirror angles of the CLI, and near-90 deg angles,
    # give the same numbers as one call per point.
    ds = DefectSet(positions, [1.0] * len(positions))
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


def _random_complex(rng, shape, lo, hi):
    """Complex array whose parts have random signs and log-uniform
    magnitudes in [lo, hi], one part in eight a signed zero."""
    z = np.empty(shape, dtype=complex)
    for part in (z.real, z.imag):  # written in place: z = re + 1j * im would drop -0.0
        x = rng.choice([-1.0, 1.0], shape) * np.exp(rng.uniform(np.log(lo), np.log(hi), shape))
        part[...] = np.where(rng.random(shape) < 0.125, np.copysign(0.0, x), x)
    return z


@pytest.mark.parametrize("n", [0, 1, 2, 4, 8])
def test_contraction_is_the_python_float_reference_bit_for_bit(n):
    # The amplitude's contraction in numpy float arithmetic equals the same
    # operations written out on Python floats, on every platform: table
    # entries from 1e-150 to 1e150, the weights of u and v from 1e-75 to
    # 1e75 (no product overflows), and signed zeros.
    rng = np.random.default_rng(1000 + n)
    points = 50
    u = _random_complex(rng, (points, n + 1), 1e-75, 1e75)
    v = _random_complex(rng, (points, n + 1), 1e-75, 1e75)
    table = _random_complex(rng, (points, n + 1, n + 1), 1e-150, 1e150)
    bigK = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), points))
    got = geoamp._contract(u.T, table.transpose(1, 2, 0), v.T, bigK)
    ref = contraction_py(u.tolist(), table.tolist(), v.tolist(), bigK.tolist())
    assert all(type(f) is complex for f in got)
    assert [(f.real.hex(), f.imag.hex()) for f in got] == [
        (f.real.hex(), f.imag.hex()) for f in ref]


@pytest.mark.parametrize("positions", [(0.0,), (-3.0, 3.0), (-2.6, -0.4, 0.0, 1.3, 5.5)])
def test_half_line_table_equals_the_per_qb_evaluation_bit_for_bit(positions):
    # The q = -2 beta moments are the conjugates of the q = 2 beta ones and
    # the q = 0 moments are computed once: the table is the one the three
    # q values give one by one, signed zeros included, at beta of either
    # sign and at beta = 0, for a scan and for one point.
    rng = np.random.default_rng(len(positions))
    s = np.concatenate([rng.uniform(-1.0, 1.0, 30), [0.0, -0.0, 1.0, -1.0]])
    bigK = rng.uniform(0.01, 5.0, s.size)
    for g in (_g(s, bigK, positions), _g(float(s[0]), float(bigK[0]), positions),
              _g(0.0, 1.0, positions)):
        got, ref = geoamp._half_line_table(g), half_line_table_per_qb(g)
        assert got.keys() == ref.keys()
        for key, value in ref.items():
            assert np.shape(got[key]) == np.shape(value)
            bits = [np.ascontiguousarray(np.atleast_1d(x), dtype=complex).view(np.int64).tolist()
                    for x in (got[key], value)]
            assert bits[0] == bits[1], key


@pytest.mark.parametrize("positions", [(), (0.7,), (-3.0, 3.0)])
def test_empty_scan_returns_no_points(positions):
    ds = DefectSet(positions, [1.0] * len(positions))
    assert f1_scan([], 0.0, [], ds, 0.1, 0.5, -0.5) == []


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


def test_right_angle_single_defect_needs_no_averaging(monkeypatch):
    # N = 1 keeps the outgoing matrix well conditioned at 90 degrees: the
    # point is evaluated at 90 degrees itself, with one outgoing and one
    # incoming build and no flanking angle.
    built = []

    def recorded(kx, defects):
        built.append(np.asarray(kx).tolist())
        return build_defect_matrix(kx, defects)

    monkeypatch.setattr(geoamp, "build_defect_matrix", recorded)
    kin = Kinematics(bigK=1.0, theta0=0.0, theta=math.pi / 2)
    f1 = f1_geometric(kin, DefectSet([0.5], [1.0]), 0.1, 0.5, -0.5)
    assert math.isfinite(abs(f1))
    assert sorted(built) == sorted([[kin.kx_out], [kin.kx]])


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
])
def test_coefficient_input_errors_are_input_errors(kwargs):
    args = {"s": 0.5, "bigK": 1.0, "alphas": (0.0,), **kwargs}
    with pytest.raises(InputError):
        _g(**args)
