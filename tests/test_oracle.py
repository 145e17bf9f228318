"""Tests for the adaptive-quadrature oracle and its agreement with the
closed forms.

The oracle exists to validate the closed-form coefficients from their
defining integrals, so most tests here are self-checks of the quadrature
machinery (error estimates, route equivalence, the symbolic operator
identities it relies on) plus spot comparisons.  The exhaustive grid
comparison carries the "oracle" marker for selection and runs by default.
"""

import cmath
import math
from collections import Counter

import numpy as np
import pytest
import sympy as sp
from conftest import full_grid_report
from references import immnn_x2, jmn_mollified, matches_oracle

from bumpscatter import geoamp
from bumpscatter.defects import DefectSet, Kinematics, build_defect_matrix
from bumpscatter.geoamp import GeoCoefficientInputs, coefficient_table, f1_geometric
from bumpscatter.oracle import (
    OracleValue,
    QuadratureConvergenceError,
    QuadratureSpec,
    _adaptive,
    _kink_integral,
    _label,
    _operator_parts,
    assemble_f1_oracle,
    default_verification_grid,
    integral_table,
    verify_all,
)
from bumpscatter.surface import (
    BumpProfile,
    CurvatureCoefficients,
    operator_coeffs_first_order,
)


def _g(s=0.5, bigK=1.3, alphas=(-1.1, 2.3), eta=0.1, lambda1=0.5, lambda2=-0.5):
    return GeoCoefficientInputs(
        s=s, bigK=bigK, alphas=tuple(alphas), eta=eta,
        lambda1=lambda1, lambda2=lambda2,
    )


# ---------------------------------------------------------------------------
# Symbolic backing of the Cartesian operator application


def test_radial_first_derivative_identity_generic_symbolic():
    # r dh/dr = x h_x + y h_y for a completely generic h, via the chain rule.
    r, phi = sp.symbols("r phi", positive=True)
    x, y = sp.symbols("x y", real=True)
    h = sp.Function("h")
    X, Y = r * sp.cos(phi), r * sp.sin(phi)
    lhs = r * sp.diff(h(X, Y), r)
    rhs = (x * sp.diff(h(x, y), x) + y * sp.diff(h(x, y), y)).subs({x: X, y: Y})
    assert sp.simplify(lhs - rhs) == 0


def test_radial_second_derivative_identity_symbolic():
    # r^2 d2h/dr2 = x^2 h_xx + 2xy h_xy + y^2 h_yy: the first-derivative
    # cross terms cancel exactly.  Verified as a symbolic identity on two
    # spanning families: an arbitrary-coefficient bivariate polynomial
    # (the 21 coefficients are free symbols, so this kills every residual
    # operator coefficient up to degree 5) and the exponential family with
    # symbolic wave numbers, which is the shape the oracle integrates.
    r, phi = sp.symbols("r phi", positive=True)
    x, y = sp.symbols("x y", real=True)
    X, Y = r * sp.cos(phi), r * sp.sin(phi)

    def residuals(h):
        hx, hy = sp.diff(h, x), sp.diff(h, y)
        hxx, hyy = sp.diff(h, x, 2), sp.diff(h, y, 2)
        hxy = sp.diff(h, x, y)
        polar = h.subs({x: X, y: Y})
        first = r * sp.diff(polar, r) - (x * hx + y * hy).subs({x: X, y: Y})
        second = r**2 * sp.diff(polar, r, 2) - (
            x**2 * hxx + 2 * x * y * hxy + y**2 * hyy
        ).subs({x: X, y: Y})
        return first, second

    poly = sum(
        sp.Symbol(f"c_{i}_{j}") * x**i * y**j
        for i in range(6)
        for j in range(6 - i)
    )
    for fam in (poly, sp.exp(sp.Symbol("c1") * x + sp.Symbol("c2") * y)):
        first, second = residuals(fam)
        assert sp.simplify(sp.expand_trig(sp.expand(first))) == 0
        assert sp.simplify(sp.expand_trig(sp.expand(second))) == 0


def _polar_integrand(bra, ket, g):
    """bra * (L ket) with L in polar form, a d2/dr2 + (b/r) d/dr + c.

    The radial derivatives come from the identities r dh/dr = x h_x + y h_y
    and r^2 d2h/dr2 = x^2 h_xx + 2xy h_xy + y^2 h_yy; for the exponential
    kets this differs from the oracle's Cartesian integrand only in
    floating-point grouping.
    """
    beta = g.beta
    gamma = math.sqrt(max(g.bigK**2 - beta**2, 0.0))
    profile = BumpProfile(delta=math.sqrt(g.eta))
    cc = CurvatureCoefficients(g.lambda1, g.lambda2)

    def f(X, Y):
        R = np.hypot(X, Y)
        oc = operator_coeffs_first_order(R, profile, cc)
        sg = 1.0 if ket is None else np.sign(X - ket)
        hx = 1j * beta * sg
        hy = 1j * gamma
        with np.errstate(invalid="ignore", divide="ignore"):
            dr1 = np.where(R > 0.0, (X * hx + Y * hy) / R, 0.0)
            dr2 = np.where(
                R > 0.0,
                (
                    X * X * (-(beta**2))
                    + 2.0 * X * Y * (-(beta * gamma) * sg)
                    + Y * Y * (-(gamma**2))
                )
                / (R * R),
                0.0,
            )
        factor = oc.a * dr2 + np.where(R > 0.0, oc.b * dr1 / R, 0.0) + oc.c
        bra_x = np.exp(1j * beta * (X if bra is None else -np.abs(X - bra)))
        ket_x = np.exp(1j * beta * (X if ket is None else np.abs(X - ket)))
        return bra_x * np.exp(-1j * gamma * Y) * factor * ket_x * np.exp(1j * gamma * Y)

    return f


def _cartesian_integrand(bra, ket, g):
    """The oracle's bra * (L ket), built from its operator parts F0 + sg F1
    with the y factors of bra and ket cancelled."""
    beta = g.beta
    parts = _operator_parts(g)

    def f(X, Y):
        f0, f1 = parts(X, Y)
        sg = 1.0 if ket is None else np.sign(X - ket)
        bra_x = np.exp(1j * beta * (X if bra is None else -np.abs(X - bra)))
        ket_x = np.exp(1j * beta * (X if ket is None else np.abs(X - ket)))
        return bra_x * (f0 + sg * f1) * ket_x

    return f


def test_cartesian_and_polar_routes_agree_pointwise():
    g = _g(s=0.6, bigK=1.4, alphas=(0.7,))
    rng = np.random.default_rng(7)
    X = rng.uniform(-8.0, 8.0, 1000)
    Y = rng.uniform(-8.0, 8.0, 1000)
    # bra and ket pieces: a kink position, or None for the plane wave
    pairs = [(None, None), (None, 0.7), (0.7, 0.7)]
    for bra, ket in pairs:
        fc = _cartesian_integrand(bra, ket, g)(X, Y)
        fp = _polar_integrand(bra, ket, g)(X, Y)
        scale = np.max(np.abs(fc))
        assert np.max(np.abs(fc - fp)) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# Quadrature vs closed forms (spot checks; the grids run under acceptance)


def test_closed_forms_match_quadrature_spot():
    # every entry of the table: the plane wave, each kink on either side
    # and every kink pair
    g = _g()
    for closed_row, oracle_row in zip(coefficient_table(g), integral_table(g)):
        for closed, oracle in zip(closed_row, oracle_row):
            rel = abs(closed - oracle.value) / max(abs(oracle.value), 1e-10)
            assert rel <= 1e-6
            assert oracle.err_est <= 1e-6


def test_mollified_line_term_converges_quadratically():
    # Replacing the sharp line term by a narrow Gaussian must reproduce the
    # closed form as width -> 0 with O(width^2) error: the errors at widths
    # 0.02 / 0.01 / 0.005 shrink by ~4x per halving.
    g = _g()
    ref = coefficient_table(g)[0][2]
    errs = []
    for w in (0.02, 0.01, 0.005):
        errs.append(abs(jmn_mollified(g, 1, w) - ref))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)
    assert errs[2] <= 2e-6


def test_assembly_oracle_matches_closed_amplitude():
    kin = Kinematics(bigK=1.0, theta0=0.0, theta=math.radians(50.0))
    ds = DefectSet([-3.0, 3.0], [1.0, 1.0])
    closed = f1_geometric(kin, ds, 0.1, 0.5, -0.5)
    ov = assemble_f1_oracle(kin, ds, 0.1, 0.5, -0.5)
    assert abs(ov.value - closed) / abs(closed) <= 1e-5
    # Also at a backscattering angle where the outgoing k_x is negative.
    kin2 = Kinematics(bigK=1.0, theta0=0.0, theta=math.radians(130.0))
    closed2 = f1_geometric(kin2, ds, 0.1, 0.5, -0.5)
    ov2 = assemble_f1_oracle(kin2, ds, 0.1, 0.5, -0.5)
    assert abs(ov2.value - closed2) / abs(closed2) <= 1e-5


# ---------------------------------------------------------------------------
# Quadrature machinery self-checks


def test_error_estimate_is_honest_under_refinement():
    g = _g()
    loose = _kink_integral(g, QuadratureSpec(), bra=g.alphas[1])
    strict_spec = QuadratureSpec(
        r_max=QuadratureSpec().resolve_r_max(g.alphas) + 4.0,
        rel_tol=QuadratureSpec().rel_tol / 10.0,
    )
    strict = _kink_integral(g, strict_spec, bra=g.alphas[1])
    # Enlarging the box and tightening the tolerance must not move the
    # value by more than a few times the reported error estimate.
    assert abs(strict.value - loose.value) <= 10.0 * loose.err_est


@pytest.mark.parametrize("g", [
    _g(),
    _g(s=0.7, bigK=1.0, alphas=(-3.0, 0.0, 3.0)),
], ids=["N2", "N3"])
def test_shared_table_matches_one_entry_integrals(g):
    # Every entry of the shared tree agrees with the entry integrated on
    # its own tree, within the two error estimates.
    pieces = (None, *g.alphas)
    spec = QuadratureSpec()
    for bra, row in zip(pieces, integral_table(g, spec)):
        for ket, shared in zip(pieces, row):
            alone = _kink_integral(g, spec, bra, ket)
            assert abs(shared.value - alone.value) <= shared.err_est + alone.err_est


def test_quadrature_convergence_error_carries_partial_result():
    g = _g()
    bad_spec = QuadratureSpec(rel_tol=1e-14, max_panels=8)
    with pytest.raises(QuadratureConvergenceError) as exc_info:
        _kink_integral(g, bad_spec, bra=g.alphas[1])
    err = exc_info.value
    assert np.isfinite(err.err_est)
    assert np.isfinite(abs(err.value))
    # the message names the integral and states both parts of the partial result
    message = str(err)
    assert message.startswith("Imn[1]: ")
    assert f"error estimate {err.err_est:.3g}" in message
    assert f"partial value of Imn[1] = {err.value:.6g}" in message


def test_table_convergence_error_names_worst_entry():
    g = _g()
    bad_spec = QuadratureSpec(rel_tol=1e-14, max_panels=8)
    with pytest.raises(QuadratureConvergenceError) as exc_info:
        integral_table(g, bad_spec)
    err = exc_info.value
    what = str(err).split(":")[0]
    labels = {"I0", "Imn[0]", "Imn[1]", "Jmn[0]", "Jmn[1]",
              *(f"I4 base[{m},{n}]" for m in range(2) for n in range(2))}
    assert what in labels
    assert f"error estimate {err.err_est:.3g}" in str(err)
    assert f"partial value of {what} = {err.value:.6g}" in str(err)
    # the partial value is that entry's, not another's
    closed = coefficient_table(g)
    pieces = (None, *g.alphas)
    index = {_label(g, bra, ket): closed[i][j]
             for i, bra in enumerate(pieces) for j, ket in enumerate(pieces)}
    assert abs(err.value - index[what]) <= 1e-3 * abs(index[what])


def test_quadrature_spec_resolves_box_from_offsets():
    spec = QuadratureSpec()
    assert spec.resolve_r_max((-3.0, 3.0)) == pytest.approx(15.0)
    assert spec.resolve_r_max(()) == pytest.approx(12.0)
    fixed = QuadratureSpec(r_max=20.0)
    assert fixed.resolve_r_max((-3.0,)) == pytest.approx(20.0)


# ---------------------------------------------------------------------------
# Verification driver


def test_verify_all_micro_grid_passes():
    grid = {
        "s": (0.7,),
        "bigK": (1.0,),
        "lambdas": ((0.5, -0.5),),
        "alphas": (-3.0, 3.0),
        "eta": 0.1,
    }
    report = verify_all(grid=grid)
    assert report.all_passed
    assert report.n_failed == 0
    # 1 I0 + 4 Imn + 4 Jmn + 16 quadruples
    assert len(report.records) == 25
    text = report.to_text()
    assert "summary records=25 failed=0 all_passed=True" in text
    assert "coefficient=I0" in text
    worst = report.worst()
    assert set(worst) == {"I0", "Imn", "Jmn", "Immnn"}
    assert all(v <= 1e-6 for v in worst.values())


def test_verify_all_reports_failures_under_absurd_tolerance():
    grid = {
        "s": (0.7,),
        "bigK": (1.0,),
        "lambdas": ((0.5, -0.5),),
        "alphas": (-3.0, 3.0),
        "eta": 0.1,
    }
    report = verify_all(grid=grid, rtol=1e-18)
    assert not report.all_passed
    assert report.n_failed > 0
    assert "pass=False" in report.to_text()


# s = 0, K = 1, lambdas = (0.5, 0.5): the bracket K^2 (4 l1 s^2 - 1)
# + l2 (beta^4 + 2) vanishes, so every coefficient is exactly 0 and the
# oracle returns rounding noise of order eps * int|f|.
_ZERO_POINT_GRID = {
    "s": (0.0,),
    "bigK": (1.0,),
    "lambdas": ((0.5, 0.5),),
    "alphas": (-3.0, 0.0, 3.0),
    "eta": 0.1,
}


def test_adaptive_accumulates_integral_of_modulus():
    # x e^{-r^2} integrates to 0, its modulus to int |x| e^{-x^2} dx
    # * int e^{-y^2} dy = sqrt(pi).
    def odd_gaussian(x, wx, y, wy):
        F = x[:, None] * np.exp(-x[:, None] ** 2 - y[None, :] ** 2)
        return np.array([wx @ F @ wy]), np.array([wx @ np.abs(F) @ wy])

    [ov] = _adaptive(odd_gaussian, [-8.0, 0.0, 8.0], [-8.0, 0.0, 8.0],
                     QuadratureSpec(), ["odd gaussian"])
    assert abs(ov.value) <= 1e-15
    assert ov.abs_integral == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert ov.resolution() == pytest.approx(
        24 * np.finfo(float).eps * math.sqrt(math.pi), rel=1e-12
    )


def test_verify_all_judges_structural_zero_against_resolution():
    report = verify_all(grid=_ZERO_POINT_GRID)
    assert report.all_passed
    assert len(report.records) == 100
    for r in report.records:
        assert r.judged == "resolution"
        assert abs(r.oracle) <= r.resolution <= 1e-14
        assert r.closed == 0.0
        assert "judged=resolution" in r.line()
    # the x2 transcription does not vanish for every quadruple here
    g = _g(s=0.0, bigK=1.0, alphas=(-3.0, 0.0, 3.0), lambda2=0.5)
    assert any(
        not matches_oracle(immnn_x2(g, *r.indices), r)
        for r in report.records
        if r.coefficient == "Immnn"
    )
    # no relative error is meaningful here, so none enters the worst-case
    assert report.worst() == {}
    assert "resolution_judged=100 resolution_failed=0" in report.to_text()


def test_verify_all_resolution_rule_rejects_resolvable_offset(monkeypatch):
    import bumpscatter.oracle as oracle_mod

    grid = dict(_ZERO_POINT_GRID, alphas=(0.0,))
    for closed, passes in ((1e-12, False), (1e-15, True)):
        def offset_table(g, c=closed):
            table = coefficient_table(g)
            table[0][0] = c
            return table

        monkeypatch.setattr(oracle_mod, "coefficient_table", offset_table)
        i0 = verify_all(grid=grid).records[0]
        assert i0.coefficient == "I0"
        assert i0.judged == "resolution"
        assert i0.passed is passes


def test_verify_all_keeps_relative_failures_away_from_zero_point():
    grid = dict(_ZERO_POINT_GRID, lambdas=((0.5, -0.5),), alphas=(-3.0, 3.0))
    report = verify_all(grid=grid, rtol=1e-18)
    assert report.n_failed > 0
    for r in report.records:
        assert r.judged == "relative"
        assert abs(r.oracle) > 1e9 * r.resolution
        assert r.passed == (r.rel_err <= 1e-18)


def _fake_table(entry):
    """Stand-in for the table integrator: entry(label) for every label."""
    def fake(bras, kets, g, spec, labels):
        return [[entry(what) for what in row] for row in labels]

    return fake


def test_assembly_oracle_error_estimate_is_weighted(monkeypatch):
    import bumpscatter.oracle as oracle_mod

    # Stand-in integrals with a distinct error estimate per label.
    err_of = {}

    def fake_entry(what):
        err_of[what] = 1e-9 * (1 + len(err_of))
        return OracleValue(value=0.1 + 0.2j, err_est=err_of[what], panels=1,
                           abs_integral=1.0)

    monkeypatch.setattr(oracle_mod, "_integrate_table", _fake_table(fake_entry))
    kin = Kinematics(bigK=1.2, theta0=0.1, theta=2.0)
    ds = DefectSet([-1.0, 0.5, 2.0], [1.0, 0.5 + 0.2j, 2.0])
    ov = assemble_f1_oracle(kin, ds, 0.1, 0.5, -0.5)
    ain = np.abs(build_defect_matrix(kin.kx, ds).inverse)
    aout = np.abs(build_defect_matrix(kin.kx_out, ds).inverse)
    n = ds.n
    # the kink-only integrals Imn[k], Jmn[k] serve every phase position m
    expected = err_of["I0"] + sum(
        aout[m, k] * err_of[f"Imn[{k}]"]
        + ain[m, k] * err_of[f"Jmn[{k}]"]
        + aout[m].sum() * ain[k].sum() * err_of[f"I4 base[{m},{k}]"]
        for m in range(n)
        for k in range(n)
    )
    pref = 0.5 / math.sqrt(2.0 * math.pi * kin.bigK)
    assert ov.err_est == pytest.approx(pref * expected, rel=1e-12)


def test_assembly_oracle_four_index_sum_matches_quadruple_loop(monkeypatch):
    import bumpscatter.oracle as oracle_mod

    # Stand-in integrals with a distinct value per label.
    value_of = {}

    def fake_entry(what):
        k = len(value_of)
        value_of[what] = complex(math.cos(1.3 * k), math.sin(0.7 * k + 0.2))
        return OracleValue(value=value_of[what], err_est=0.0, panels=1,
                           abs_integral=1.0)

    monkeypatch.setattr(oracle_mod, "_integrate_table", _fake_table(fake_entry))
    kin = Kinematics(bigK=1.2, theta0=0.1, theta=2.0)
    ds = DefectSet([-1.0, 0.5, 2.0], [1.0, 0.5 + 0.2j, 2.0])
    ov = assemble_f1_oracle(kin, ds, 0.1, 0.5, -0.5)
    ain = build_defect_matrix(kin.kx, ds).inverse
    aout = build_defect_matrix(kin.kx_out, ds).inverse
    a = ds.positions
    beta = _g(s=kin.s, bigK=kin.bigK, alphas=a).beta
    n = ds.n
    # Imn = e^{i beta a_m} Imn[k] and Jmn = e^{i beta a_m} Jmn[k]
    singles = sum(
        cmath.exp(1j * beta * a[m])
        * (aout[m, k] * value_of[f"Imn[{k}]"] + ain[m, k] * value_of[f"Jmn[{k}]"])
        for m in range(n)
        for k in range(n)
    )
    quads = sum(
        aout[m, mp] * ain[k, kp] * cmath.exp(1j * beta * (a[mp] + a[kp]))
        * value_of[f"I4 base[{m},{k}]"]
        for m in range(n)
        for mp in range(n)
        for k in range(n)
        for kp in range(n)
    )
    pref = -0.5 * cmath.exp(1j * math.pi / 4.0) / math.sqrt(2.0 * math.pi * kin.bigK)
    expected = pref * (value_of["I0"] - 1j * singles - quads)
    assert abs(ov.value - expected) <= 1e-13 * abs(expected)


def test_oracle_integrates_one_2d_and_one_1d_tree_per_table(monkeypatch):
    import bumpscatter.oracle as oracle_mod

    trees = []
    adaptive = oracle_mod._adaptive

    def spy(f, edges_x, edges_y, spec, labels):
        out = adaptive(f, edges_x, edges_y, spec, labels)
        trees.append(("2d" if edges_y is not None else "1d", list(labels), out[0].panels))
        return out

    monkeypatch.setattr(oracle_mod, "_adaptive", spy)
    # N = 3: one 2D tree carries the plane integral, 3 + 3 kink integrals
    # and 9 kink pairs, where one tree per entry would make 16; one 1D tree
    # carries the 3 line integrals of the ket kinks
    expected = {"I0": 1, "Imn": 3, "Jmn": 3, "I4 base": 9}
    grid = dict(_ZERO_POINT_GRID, lambdas=((0.5, -0.5),))
    kin = Kinematics(bigK=1.2, theta0=0.1, theta=2.0)
    ds = DefectSet([-1.0, 0.5, 2.0], [1.0, 0.5 + 0.2j, 2.0])
    for run in (lambda: verify_all(grid=grid),
                lambda: assemble_f1_oracle(kin, ds, 0.1, 0.5, -0.5)):
        trees.clear()
        out = run()
        assert [kind for kind, *_ in trees] == ["2d", "1d"]
        (_, labels, panels_2d), (_, lines, panels_1d) = trees
        assert len(labels) == 16
        assert len(set(labels)) == 16
        families = Counter(what.split("[")[0] for what in labels)
        assert families == expected
        assert lines == [f"Jmn[{n}] (line term)" for n in range(3)]
    # the assembly reports the shared trees' panels once
    assert out.panels == panels_2d + panels_1d


def test_verify_all_evaluates_each_closed_coefficient_once_per_table_entry(monkeypatch):
    import bumpscatter.oracle as oracle_mod

    # N = 3 at one grid point: the 100 records read one closed table of
    # 1 + 2N + N^2 = 16 entries, where one closed-form call per record
    # would make 1 + 2N^2 + N^4 = 100.  The quadrature side is stubbed.
    calls = Counter()
    kernel, plane = geoamp._kink_coefficient, geoamp.I0_closed

    def counted_kernel(g, bra=None, ket=None):
        calls["kernel"] += 1
        return kernel(g, bra, ket)

    def counted_plane(g):
        calls["I0"] += 1
        return plane(g)

    def fake_entry(what):
        return OracleValue(value=0.1 + 0.2j, err_est=0.0, panels=1, abs_integral=1.0)

    monkeypatch.setattr(geoamp, "_kink_coefficient", counted_kernel)
    monkeypatch.setattr(geoamp, "I0_closed", counted_plane)
    monkeypatch.setattr(oracle_mod, "_integrate_table", _fake_table(fake_entry))
    grid = dict(_ZERO_POINT_GRID, s=(0.7,), lambdas=((0.5, -0.5),))
    report = verify_all(grid=grid)
    assert len(report.records) == 100
    assert calls == {"kernel": 15, "I0": 1}


# ---------------------------------------------------------------------------
# Exhaustive grid (selectable with `pytest -m oracle`)


@pytest.mark.oracle
def test_full_default_grid_all_coefficients_pass():
    grid = default_verification_grid()
    report, _ = full_grid_report()
    assert report.all_passed, report.to_text()
    # The rejected x2 transcription of the step term must fail somewhere on
    # the grid, otherwise the oracle has no discriminating power.
    alphas = tuple(sorted(grid["alphas"]))
    assert any(
        not matches_oracle(immnn_x2(_g(r.s, r.bigK, alphas, grid["eta"],
                                       r.lambda1, r.lambda2), *r.indices), r)
        for r in report.records
        if r.coefficient == "Immnn"
    )
