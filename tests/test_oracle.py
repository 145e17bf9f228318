"""Tests for the adaptive-quadrature oracle and its agreement with the
closed forms.

The oracle exists to validate the closed-form coefficients from their
defining integrals, so most tests here are self-checks of the quadrature
machinery (error estimates, route equivalence, the symbolic operator
identities it relies on) plus spot comparisons.  The exhaustive grid
comparison carries the "oracle" marker for selection and runs by default.
"""

import cmath
import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest
import sympy as sp
from conftest import full_grid_report
from references import (
    adaptive_per_tree,
    immnn_x2,
    jmn_mollified,
    matches_oracle,
    operator_parts,
    records_per_point,
    stacked_inputs,
    table_moduli_per_panel,
    tensor_integrand,
)

from bumpscatter import geoamp, oracle
from bumpscatter.defects import DefectSet, InputError, Kinematics, build_defect_matrix
from bumpscatter.geoamp import GeoCoefficientInputs, coefficient_table, f1_geometric
from bumpscatter.oracle import (
    OracleValue,
    QuadratureConvergenceError,
    PANEL_BATCH,
    VerificationRecord,
    _adaptive,
    _cell_basis,
    _combine,
    _Integrand,
    _integrand_inputs,
    _integrate_pair,
    _label,
    _nodes,
    _panel_edges,
    _slot_sums,
    assemble_f1_oracle,
    default_verification_grid,
    integral_table,
    verify_all,
)
from bumpscatter.surface import BumpProfile, operator_coeffs_first_order


def _g(s=0.5, bigK=1.3, alphas=(-1.1, 2.3), eta=0.1, lambda1=0.5, lambda2=-0.5):
    return GeoCoefficientInputs(
        s=s, bigK=bigK, alphas=tuple(alphas), eta=eta,
        lambda1=lambda1, lambda2=lambda2,
    )


# A small grid: every s but 0.3 and three curvature settings, at K = 1.
_SMALL_GRID = {
    "s": (0.0, 0.7, 1.0),
    "bigK": (1.0,),
    "lambdas": ((0.5, -0.5), (0.0, -0.5), (0.5, 0.5)),
    "alphas": (-3.0, 0.0, 3.0),
    "eta": 0.1,
}


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
    floating-point grouping.  a = f'^2 and b = f'^2 + r f' f'' are the
    first-order polar coefficients themselves, not the oracle's ratios.
    """
    beta = g.beta
    gamma = math.sqrt(max(g.bigK**2 - beta**2, 0.0))
    profile = BumpProfile(delta=math.sqrt(g.eta))
    lambda1, lambda2 = g.lambda1, g.lambda2

    def f(X, Y):
        R = np.hypot(X, Y)
        g, _, g2 = profile.slopes(R)
        a, b = g * g, g * g + R * g * g2
        oc = operator_coeffs_first_order(R, profile)
        c = lambda1 * oc.c1 + lambda2 * oc.c2
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
        factor = a * dr2 + np.where(R > 0.0, b * dr1 / R, 0.0) + c
        bra_x = np.exp(1j * beta * (X if bra is None else -np.abs(X - bra)))
        ket_x = np.exp(1j * beta * (X if ket is None else np.abs(X - ket)))
        return bra_x * np.exp(-1j * gamma * Y) * factor * ket_x * np.exp(1j * gamma * Y)

    return f


def _cartesian_integrand(bra, ket, g):
    """The oracle's bra * (L ket), built from the operator parts F0 + sg F1
    with the y factors of bra and ket cancelled, point by point; the
    oracle's per-cell contractions of F0 and F1 are checked against them
    below."""
    beta = g.beta
    parts = operator_parts(*_integrand_inputs(g))

    def f(X, Y):
        f0, f1 = parts(0, X, Y)
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


def _random_panels(gs, n, seed):
    """n random rectangles inside the oracle's box, each on a random tree
    of gs."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-15.0, 11.0, (n, 2))
    cells = np.stack([lo, lo + rng.uniform(0.05, 4.0, (n, 2))], axis=-1)
    return rng.integers(0, len(gs), n), cells


def test_cell_basis_combines_to_contracted_operator_parts():
    # The oracle keeps per cell only the y contractions no tree changes
    # and combines them per tree; that is the y contraction of the
    # pointwise F0 and F1 the polar route above is checked against.
    gs = _grid_inputs(_SMALL_GRID)
    inputs = _integrand_inputs(stacked_inputs(gs))
    betas, gammas, lambda1, lambda2, profile = inputs
    parts = operator_parts(*inputs)
    t, cells = _random_panels(gs, 40, seed=3)
    for order in (12, 24):
        per_tree = (v[t][:, None] for v in (betas, gammas, lambda1, lambda2))
        combined = _combine(_cell_basis(profile, cells, order), *per_tree)
        (x, _), (y, wy) = _nodes(cells[:, 0], order), _nodes(cells[:, 1], order)
        pointwise = parts(t[:, None, None], x[:, :, None], y[:, None, :])
        for got, f in zip(combined, pointwise):
            want = (f @ wy[:, :, None])[..., 0]
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


def test_final_panel_moduli_match_the_per_panel_sum(monkeypatch):
    # int |f| is taken once, on the final panels, from |c - a u^2 + i b u|
    # with the 2D grid built once per distinct cell; per panel it is the
    # tensor rule on |F0 + sg F1| of the pointwise operator parts.
    import bumpscatter.oracle as oracle_mod

    gs = _grid_inputs(dict(_SMALL_GRID, lambdas=((0.5, -0.5), (0.5, 0.5))))
    seen = []
    adaptive = oracle_mod._adaptive

    def spy(f, n_trees, edges_x, edges_y, labels):
        def moduli(t, cells, order, inner=f.moduli):
            out = inner(t, cells, order)
            seen.append((t, cells, order, out))
            return out

        if edges_y is not None:
            f = _Integrand(f.values, moduli)
        return adaptive(f, n_trees, edges_x, edges_y, labels)

    monkeypatch.setattr(oracle_mod, "_adaptive", spy)
    tables = integral_table(stacked_inputs(gs))
    [(t, cells, order, out)] = seen
    pieces = (None, *gs[0].alphas)
    assert order == 2 * oracle_mod.PANEL_ORDER
    assert len(cells) == sum(table[0][0].panels for table in tables)
    want = table_moduli_per_panel(pieces, stacked_inputs(gs), t, cells, order)
    got = out.reshape(len(cells), len(pieces), len(pieces))
    for row in got.transpose(1, 0, 2):
        assert np.all(np.abs(row - want) <= 1e-13 * want)


def test_final_panel_moduli_keep_their_bits_whichever_panels_share_the_call(monkeypatch):
    # moduli builds one grid per distinct cell and takes the cell's panels
    # GRID_BATCH at a time: a final panel's int |F0 +- F1| has the same
    # bits with every tree's panels in the call, with its tree's alone,
    # and with the panels reversed, on the full grid, where some cell's
    # panels fill several GRID_BATCH chunks.
    import bumpscatter.oracle as oracle_mod

    gs = _grid_inputs(default_verification_grid())
    seen = []
    adaptive = oracle_mod._adaptive

    def spy(f, n_trees, edges_x, edges_y, labels):
        def moduli(t, cells, order, inner=f.moduli):
            seen.append((inner, t, cells, order))
            return inner(t, cells, order)

        if edges_y is not None:
            f = _Integrand(f.values, moduli)
        return adaptive(f, n_trees, edges_x, edges_y, labels)

    monkeypatch.setattr(oracle_mod, "_adaptive", spy)
    integral_table(stacked_inputs(gs))
    [(moduli, t, cells, order)] = seen
    _, counts = np.unique(cells.reshape(len(cells), -1), axis=0, return_counts=True)
    assert counts.max() > 2 * oracle_mod.GRID_BATCH
    want = moduli(t, cells, order)
    for tree in range(len(gs)):
        alone = t == tree
        assert moduli(t[alone], cells[alone], order).tobytes() == want[alone].tobytes()
    assert moduli(t[::-1], cells[::-1], order).tobytes() == want[::-1].tobytes()


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
    # f1 as one quadrature of the physical states agrees with the closed
    # amplitude within its own error estimate and to 1e-10 relative, on
    # both sides of theta = 90 deg (the averaged rows are left out): the
    # presets' layout, one defect off 0 and one at 0, a pair with a defect
    # at 0 and an asymmetric pair with unequal couplings.
    layouts = [((-3.0, 3.0), (1.0, 1.0)), ((3.0,), (1.0,)), ((0.0,), (1.0,)),
               ((-3.0, 0.0), (1.0, 1.0)), ((-1.0, 3.0), (1.0, 0.7))]
    for positions, couplings in layouts:
        ds = DefectSet(positions, couplings)
        for theta in (5.0, 50.0, 130.0, 175.0):
            kin = Kinematics(bigK=1.0, theta0=0.0, theta=math.radians(theta))
            closed = f1_geometric(kin, ds, 0.1, 0.5, -0.5)
            ov = assemble_f1_oracle(kin, ds, 0.1, 0.5, -0.5)
            assert abs(ov.value - closed) <= ov.err_est, (positions, theta)
            assert abs(ov.value - closed) <= 1e-10 * abs(closed), (positions, theta)


# ---------------------------------------------------------------------------
# Quadrature machinery self-checks


def test_error_estimate_is_honest_under_refinement(monkeypatch):
    g = _g()
    bra = g.alphas[1]
    loose = _integrate_pair(bra, None, g, what=_label(g, bra, None))
    monkeypatch.setattr(oracle, "BOX_MARGIN", oracle.BOX_MARGIN + 4.0)
    monkeypatch.setattr(oracle, "REL_TOL", oracle.REL_TOL / 10.0)
    strict = _integrate_pair(bra, None, g, what=_label(g, bra, None))
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
    for bra, row in zip(pieces, integral_table(g)):
        for ket, shared in zip(pieces, row):
            alone = _integrate_pair(bra, ket, g, what=_label(g, bra, ket))
            assert abs(shared.value - alone.value) <= shared.err_est + alone.err_est


def _unreachable_target(monkeypatch):
    """A relative target of 1e-14 within a budget of 8 panels."""
    monkeypatch.setattr(oracle, "REL_TOL", 1e-14)
    monkeypatch.setattr(oracle, "MAX_PANELS", 8)


def test_quadrature_convergence_error_carries_partial_result(monkeypatch):
    g = _g()
    _unreachable_target(monkeypatch)
    with pytest.raises(QuadratureConvergenceError) as exc_info:
        _integrate_pair(g.alphas[1], None, g, what=_label(g, g.alphas[1], None))
    err = exc_info.value
    assert np.isfinite(err.err_est)
    assert np.isfinite(abs(err.value))
    # the message names the integral and states both parts of the partial result
    message = str(err)
    assert message.startswith("Imn[1]: ")
    assert f"error estimate {err.err_est:.3g}" in message
    assert f"partial value of Imn[1] = {err.value:.6g}" in message


def test_table_convergence_error_names_worst_entry(monkeypatch):
    g = _g()
    _unreachable_target(monkeypatch)
    with pytest.raises(QuadratureConvergenceError) as exc_info:
        integral_table(g)
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


def test_box_resolves_from_offsets():
    # the base panels span [-r, r]^2, r = 12 + max|alpha|
    for alphas, r_max in (((-3.0, 3.0), 15.0), ((), 12.0)):
        edges_x, edges_y = _panel_edges(_g(alphas=alphas))
        assert edges_y == [-r_max, 0.0, r_max]
        assert (edges_x[0], edges_x[-1]) == (-r_max, r_max)


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


def test_verify_all_of_an_empty_grid_has_no_records():
    grid = {"s": (), "bigK": (1.0,), "lambdas": ((0.5, -0.5),), "alphas": (0.0,), "eta": 0.1}
    report = verify_all(grid=grid)
    assert report.records == []
    assert report.all_passed


@pytest.mark.parametrize("eta", [np.array([0.1, 0.2]), np.array([0.1])])
def test_verify_all_refuses_an_array_eta(monkeypatch, eta):
    # A grid has one eta: an array of either length raises InputError
    # before any closed form or quadrature.
    calls = []
    monkeypatch.setattr(oracle, "_adaptive", lambda *a: calls.append("quadrature"))
    monkeypatch.setattr(oracle, "coefficient_table", lambda *a: calls.append("closed"))
    with pytest.raises(InputError):
        verify_all(grid={**_SMALL_GRID, "eta": eta})
    assert calls == []


def test_verify_all_reports_failures_under_absurd_tolerance(monkeypatch):
    grid = {
        "s": (0.7,),
        "bigK": (1.0,),
        "lambdas": ((0.5, -0.5),),
        "alphas": (-3.0, 3.0),
        "eta": 0.1,
    }
    monkeypatch.setattr(oracle, "VERIFY_RTOL", 1e-18)
    report = verify_all(grid=grid)
    assert not report.all_passed
    assert report.n_failed > 0
    assert "pass=False" in report.to_text()


def test_summary_lines_end_the_text_report(monkeypatch):
    grid = {
        "s": (0.7,),
        "bigK": (1.0,),
        "lambdas": ((0.5, -0.5),),
        "alphas": (3.0,),
        "eta": 0.1,
    }
    monkeypatch.setattr(oracle, "VERIFY_RTOL", 1e-18)
    report = verify_all(grid=grid)
    summary = report.summary_lines()
    assert summary[0].startswith(f"summary records={len(report.records)} ")
    assert "all_passed=False" in summary[0]
    assert [ln.split()[1] for ln in summary[1:]] == [
        f"coefficient={fam}" for fam in sorted(report.worst())]
    assert report.to_text().splitlines() == [r.line() for r in report.records] + summary


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
    def odd_gaussian(t, x, y):
        F = x[:, :, None] * np.exp(-x[:, :, None] ** 2 - y[:, None, :] ** 2)
        return F[:, None]

    [[ov]] = _adaptive(tensor_integrand(odd_gaussian), 1, [-8.0, 0.0, 8.0], [-8.0, 0.0, 8.0],
                       ["odd gaussian"])
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
            table[0][0] = np.full(np.shape(g.s), c)
            return table

        monkeypatch.setattr(oracle_mod, "coefficient_table", offset_table)
        i0 = verify_all(grid=grid).records[0]
        assert i0.coefficient == "I0"
        assert i0.judged == "resolution"
        assert i0.passed is passes


_TIGHT_GRID = {"s": (0.7,), "bigK": (1.0,), "lambdas": ((0.5, -0.5),), "alphas": (-3.0, 3.0),
               "eta": 0.1}


def _record_grids(monkeypatch):
    """The records of the full grid, of a failing grid (VERIFY_RTOL 1e-18)
    and of the structural-zero grid, each with its rtol and atol, which
    are VERIFY_RTOL and VERIFY_ATOL while it is being checked."""
    yield full_grid_report()[0].records, 1e-6, 1e-10
    with monkeypatch.context() as patched:
        patched.setattr(oracle, "VERIFY_RTOL", 1e-18)
        yield verify_all(grid=_TIGHT_GRID).records, 1e-18, 1e-10
    yield verify_all(grid=_ZERO_POINT_GRID).records, 1e-6, 1e-10


def test_pass_rule_arrays_equal_the_scalar_rule(monkeypatch):
    # verify_all judges its records as arrays; each record's rel_err,
    # judged and passed are what the scalar rule gives for its oracle,
    # closed and resolution, bit for bit.
    judged = Counter()
    for records, rtol, atol in _record_grids(monkeypatch):
        assert (oracle.VERIFY_RTOL, oracle.VERIFY_ATOL) == (rtol, atol)
        for r in records:
            diff = abs(r.closed - r.oracle)
            assert r.rel_err == diff / max(abs(r.oracle), atol)
            assert r.judged == ("resolution" if abs(r.oracle) <= r.resolution else "relative")
            assert r.passed == matches_oracle(r.closed, r)
            assert r.passed == (diff <= r.resolution if r.judged == "resolution"
                                else r.rel_err <= rtol)
            judged[r.judged, r.passed] += 1
    # the three grids reach every branch of the rule but a failing
    # resolution verdict, which test_verify_all_resolution_rule_rejects_
    # resolvable_offset covers
    assert set(judged) == {("relative", True), ("relative", False), ("resolution", True)}


def test_records_hold_python_scalars():
    report, _ = full_grid_report()
    types = {"coefficient": str, "s": float, "bigK": float, "lambda1": float,
             "lambda2": float, "alphas": tuple, "indices": tuple, "oracle": complex,
             "err_est": float, "closed": complex, "rel_err": float, "passed": bool,
             "judged": str, "resolution": float, "panels": int}
    assert set(types) == set(VerificationRecord._fields)
    for r in report.records:
        for name, kind in types.items():
            assert type(getattr(r, name)) is kind, (name, r.line())
        assert all(type(a) is float for a in r.alphas)
        assert all(type(i) is int for i in r.indices)
    # and so do the table entries, the ket kinks' with their line terms
    for row in integral_table(_g()):
        for ov in row:
            assert [type(v) for v in dataclasses.astuple(ov)] == [complex, float, int, float]


@pytest.mark.parametrize("grid, rtol, judged, negated", [
    (None, 1e-6, {"relative", "resolution"}, False),
    (_TIGHT_GRID, 1e-18, {"relative"}, False),
    (_ZERO_POINT_GRID, 1e-6, {"resolution"}, False),
    (_ZERO_POINT_GRID, 1e-6, {"resolution"}, True),
], ids=["full", "failing", "structural_zero", "negated_zeros"])
def test_records_are_the_per_point_records_field_for_field(monkeypatch, grid, rtol, judged,
                                                           negated):
    # verify_all builds every record of a call in one pass over columns:
    # each field has the Python type, the bits (float and complex parts by
    # .hex()) and the repr of the record built one grid point at a time
    # from Python floats, on grids that pass, fail and are judged by
    # resolution.  No grid gives a -0.0 part, so the last case negates the
    # values the pass rule hands on, the structural zeros among them.
    if negated:
        pass_rule = oracle._pass_rule

        def negating(*args):
            qr, qi, cr, ci, *rest = pass_rule(*args)
            return (-qr, -qi, -cr, -ci, *rest)

        monkeypatch.setattr(oracle, "_pass_rule", negating)
    monkeypatch.setattr(oracle, "VERIFY_RTOL", rtol)
    if grid is None:
        grid, got = default_verification_grid(), full_grid_report()[0].records
    else:
        got = verify_all(grid).records
    want = records_per_point(grid)
    assert len(got) == len(want) > 0
    assert {r.judged for r in got} == judged
    assert any(not r.passed for r in got) == (rtol < 1e-6)
    assert any(r.closed.imag == 0.0 and math.copysign(1.0, r.closed.imag) < 0
               for r in got) == negated
    for a, b in zip(got, want):
        assert repr(a) == repr(b)
        for name, x, y in zip(VerificationRecord._fields, a, b):
            assert type(x) is type(y), name
            if isinstance(x, (float, complex)):
                assert [v.hex() for v in (x.real, x.imag)] == [
                    v.hex() for v in (y.real, y.imag)], name
            else:
                assert x == y, name


def test_records_are_immutable():
    r = full_grid_report()[0].records[0]
    for name in VerificationRecord._fields:
        with pytest.raises(AttributeError):
            setattr(r, name, getattr(r, name))
    with pytest.raises(AttributeError):
        r.extra = 0


def test_records_carry_the_oracle_entry_panel_count():
    grid = {"s": (0.7,), "bigK": (1.0,), "lambdas": ((0.5, -0.5),), "alphas": (-3.0, 3.0),
            "eta": 0.1}
    table = integral_table(_g(0.7, 1.0, (-3.0, 3.0)))
    line = table[0][1].panels - table[0][0].panels
    assert line > 0
    for r in verify_all(grid=grid).records:
        if r.coefficient == "I0":
            entry = table[0][0]
        elif r.coefficient in ("Imn", "Jmn"):
            n = r.indices[1] + 1
            entry = table[n][0] if r.coefficient == "Imn" else table[0][n]
        else:
            entry = table[r.indices[0] + 1][r.indices[2] + 1]
        assert r.panels == entry.panels
        # a ket kink's entry counts the 2D tree and the line tree
        assert r.panels == table[0][0].panels + (line if r.coefficient in ("Jmn", "Immnn")
                                                 else 0)


def test_verify_all_closed_values_are_the_array_tables_bit_for_bit():
    # verify_all takes its closed values from one array table with a
    # weight per grid point; the reference is one array table per
    # curvature setting, the path f1_scan runs, and each record's phase
    # from one table per grid point: the records carry exactly the array
    # entries times e^{i beta (sum of phase positions)}.
    grid = default_verification_grid()
    alphas = tuple(sorted(grid["alphas"]))
    report, _ = full_grid_report()
    points = list(itertools.product(grid["s"], grid["bigK"], grid["lambdas"]))
    tables = {}
    for lambdas in grid["lambdas"]:
        s, bigK = np.array([p[:2] for p in points if p[2] == lambdas]).T
        g = GeoCoefficientInputs(s=s, bigK=bigK, alphas=alphas, eta=grid["eta"],
                                 lambda1=lambdas[0], lambda2=lambdas[1])
        table = np.array(coefficient_table(g), dtype=complex)
        for i, (si, ki) in enumerate(zip(s, bigK)):
            tables[si, ki, lambdas] = table[..., i]
    for r in report.records:
        table = tables[r.s, r.bigK, (r.lambda1, r.lambda2)]
        if r.coefficient == "I0":
            entry, positions = table[0, 0], ()
        elif r.coefficient == "Imn":
            entry, positions = table[r.indices[1] + 1, 0], (alphas[r.indices[0]],)
        elif r.coefficient == "Jmn":
            entry, positions = table[0, r.indices[1] + 1], (alphas[r.indices[0]],)
        else:
            m, mp, n, np_ = r.indices
            entry, positions = table[m + 1, n + 1], (alphas[mp], alphas[np_])
        expected = complex(entry)
        if positions:
            expected *= complex(np.exp(1j * _g(r.s, r.bigK).beta * sum(positions)))
        assert r.closed == expected
        assert math.copysign(1.0, r.closed.imag) == math.copysign(1.0, expected.imag)


def test_verify_all_keeps_relative_failures_away_from_zero_point(monkeypatch):
    grid = dict(_ZERO_POINT_GRID, lambdas=((0.5, -0.5),), alphas=(-3.0, 3.0))
    monkeypatch.setattr(oracle, "VERIFY_RTOL", 1e-18)
    report = verify_all(grid=grid)
    assert report.n_failed > 0
    for r in report.records:
        assert r.judged == "relative"
        assert abs(r.oracle) > 1e9 * r.resolution
        assert r.passed == (r.rel_err <= 1e-18)


def _fake_table(entry):
    """Stand-in for the state integrator: entry(label) for every label of
    every point of g."""
    def fake(u, v, g, labels):
        return [[[entry(what) for what in row] for row in labels] for _ in range(np.size(g.s))]

    return fake


@pytest.mark.parametrize("positions, couplings", [
    ((), ()),
    ((0.0,), (0.8 - 0.3j,)),
    ((-1.0, 3.0), (1.0, 0.7j)),
    ((-1.0, 0.5, 2.0), (1.0, 0.5 + 0.2j, 2.0)),
], ids=["N0", "N1_at_0", "N2", "N3"])
def test_state_integral_is_the_contracted_table(positions, couplings):
    # assemble_f1_oracle integrates <u| L |v> of the physical states on
    # trees of its own; the same states contracted with the piece table of
    # integral_table at the same point, sum_ab u_a T_ab v_b by math.fsum,
    # agree with it within the two error estimates summed.
    kin = Kinematics(bigK=1.2, theta0=0.1, theta=2.0)
    ds = DefectSet(positions, couplings)
    ov = assemble_f1_oracle(kin, ds, 0.1, 0.5, -0.5)
    g = _g(s=kin.s, bigK=kin.bigK, alphas=ds.positions)
    e = np.exp(1j * g.beta * np.array(ds.positions))
    u, v = ([1.0, *(-1j * (build_defect_matrix(kx, ds).inverse @ e))]
            for kx in (kin.kx_out, kin.kx))
    table = integral_table(g)
    terms = [u[a] * v[b] * ov_ab.value for a, row in enumerate(table)
             for b, ov_ab in enumerate(row)]
    pref = -0.5 * cmath.exp(1j * math.pi / 4.0) / math.sqrt(2.0 * math.pi * kin.bigK)
    contracted = pref * complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))
    table_err = abs(pref) * math.fsum(abs(u[a] * v[b]) * ov_ab.err_est
                                      for a, row in enumerate(table) for b, ov_ab in enumerate(row))
    assert abs(ov.value - contracted) <= ov.err_est + table_err
    assert abs(ov.value - f1_geometric(kin, ds, 0.1, 0.5, -0.5)) <= ov.err_est


def test_amplitude_products_change_no_bit_at_identity():
    # integral_table, the identity case, skips the amplitude products.  A
    # permutation of the pieces takes them and gives the table's entries,
    # permuted, bit for bit: products by 1 and sums with exact zeros are
    # exact, so the same panels converge and every sum is the same.
    g = _g(s=0.7, bigK=1.0, alphas=(-3.0, 0.0, 3.0))
    table = integral_table(g)
    perm = [2, 0, 3, 1]
    amps = np.eye(4)[perm][None]
    labels = [[f"{i},{j}" for j in range(4)] for i in range(4)]
    [permuted] = oracle._integrate_states(amps, amps, g, labels)
    assert permuted == [[table[i][j] for j in perm] for i in perm]


def test_oracle_integrates_one_2d_and_one_1d_tree_per_table(monkeypatch):
    import bumpscatter.oracle as oracle_mod

    trees = []
    adaptive = oracle_mod._adaptive

    def spy(f, n_trees, edges_x, edges_y, labels):
        out = adaptive(f, n_trees, edges_x, edges_y, labels)
        trees.append(("2d" if edges_y is not None else "1d", list(labels), out[0][0].panels))
        return out

    monkeypatch.setattr(oracle_mod, "_adaptive", spy)
    # N = 3: for the table, one 2D tree carries the plane integral, 3 + 3
    # kink integrals and 9 kink pairs, where one tree per entry would make
    # 16; for f1, one 2D tree carries the one state integral.  Either way
    # one 1D tree carries the 3 line integrals of the ket kinks.
    expected = {"I0": 1, "Imn": 3, "Jmn": 3, "I4 base": 9}
    grid = dict(_ZERO_POINT_GRID, lambdas=((0.5, -0.5),))
    verify_all(grid=grid)
    assert [kind for kind, *_ in trees] == ["2d", "1d"]
    (_, labels, _), (_, lines, _) = trees
    assert len(labels) == 16
    assert len(set(labels)) == 16
    assert Counter(what.split("[")[0] for what in labels) == expected
    assert lines == [f"Jmn[{n}] (line term)" for n in range(3)]
    trees.clear()
    kin = Kinematics(bigK=1.2, theta0=0.1, theta=2.0)
    ds = DefectSet([-1.0, 0.5, 2.0], [1.0, 0.5 + 0.2j, 2.0])
    out = assemble_f1_oracle(kin, ds, 0.1, 0.5, -0.5)
    assert [kind for kind, *_ in trees] == ["2d", "1d"]
    (_, labels, panels_2d), (_, lines, panels_1d) = trees
    assert labels == ["f1 bracket"]
    assert lines == [f"Jmn[{n}] (line term)" for n in range(3)]
    # the assembly reports both trees' panels
    assert out.panels == panels_2d + panels_1d


def test_verify_all_evaluates_each_closed_coefficient_once_per_table_entry(monkeypatch):
    import bumpscatter.oracle as oracle_mod

    # N = 3 at one grid point: the 100 records read one closed table of
    # (N+1)^2 = 16 entries, all from one call of the region kernel the scan
    # contracts (at unit amplitudes), where one closed-form call per record
    # would make 1 + 2N^2 + N^4 = 100.  Away from beta = 0 the kernel
    # takes no I0 (_plane_coefficient); with an s = 0 point it takes I0
    # once.  Two s values at two curvature settings make one call too,
    # where one call per setting would make 2.  The quadrature side is
    # stubbed.
    calls = Counter()
    kernel, plane = geoamp._bracket_terms, geoamp._plane_coefficient

    def counted_kernel(state, eta, lambda1, lambda2):
        calls["kernel"] += 1
        return kernel(state, eta, lambda1, lambda2)

    def counted_plane(beta, eta, p2):
        calls["I0"] += 1
        return plane(beta, eta, p2)

    def fake_entry(what):
        return OracleValue(value=0.1 + 0.2j, err_est=0.0, panels=1, abs_integral=1.0)

    monkeypatch.setattr(geoamp, "_bracket_terms", counted_kernel)
    monkeypatch.setattr(geoamp, "_plane_coefficient", counted_plane)
    monkeypatch.setattr(oracle_mod, "_integrate_states", _fake_table(fake_entry))
    grid = dict(_ZERO_POINT_GRID, s=(0.7,), lambdas=((0.5, -0.5),))
    report = verify_all(grid=grid)
    assert len(report.records) == 100
    assert calls == {"kernel": 1}
    calls.clear()
    report = verify_all(grid=dict(grid, s=(0.3, 0.7), lambdas=((0.5, -0.5), (0.0, -0.5))))
    assert len(report.records) == 400
    assert calls == {"kernel": 1}
    calls.clear()
    report = verify_all(grid=dict(grid, s=(0.0, 0.7)))
    assert len(report.records) == 200
    assert calls == {"kernel": 1, "I0": 1}


# ---------------------------------------------------------------------------
# Lockstep refinement of the trees of several grid points


def _grid_inputs(grid):
    """The inputs of every grid point, in verify_all's order."""
    alphas = tuple(sorted(grid["alphas"]))
    return [_g(s, bigK, alphas, grid["eta"], l1, l2)
            for s, bigK, (l1, l2) in itertools.product(grid["s"], grid["bigK"], grid["lambdas"])]


def test_lockstep_tables_equal_one_table_at_a_time():
    # The 48 trees of the acceptance grid refined together are the trees
    # each grid point grows alone, bit for bit: value, err_est, panels and
    # the integral of |f|.
    gs = _grid_inputs(default_verification_grid())
    for g, together in zip(gs, integral_table(stacked_inputs(gs))):
        assert together == integral_table(g)


def _final_cells_spy(monkeypatch, adaptive):
    """Route oracle._adaptive to adaptive, recording the final panels
    (trees and cells) each call hands to f.moduli."""
    import bumpscatter.oracle as oracle_mod

    finals = []

    def spy(f, *args):
        def moduli(t, cells, order, inner=f.moduli):
            finals.append((t, cells))
            return inner(t, cells, order)

        return adaptive(_Integrand(f.values, moduli), *args)

    monkeypatch.setattr(oracle_mod, "_adaptive", spy)
    return finals


def test_array_adaptive_equals_the_per_tree_loop(monkeypatch):
    # The array-state lockstep integrator and the per-tree loop it
    # replaced give the same OracleValues and the same final panels, in
    # the same order, on the full grid's 48 trees and its line tree.
    import bumpscatter.oracle as oracle_mod

    gs = _grid_inputs(default_verification_grid())
    both = (oracle_mod._adaptive, adaptive_per_tree)
    runs = []
    for adaptive in both:
        finals = _final_cells_spy(monkeypatch, adaptive)
        runs.append((integral_table(stacked_inputs(gs)), finals))
    (tables, finals), (want_tables, want_finals) = runs
    assert tables == want_tables
    assert len(finals) == len(want_finals) == 2
    for (t, cells), (want_t, want_cells) in zip(finals, want_finals):
        assert np.array_equal(t, want_t)
        assert np.array_equal(cells, want_cells)
    # overruns: the same message and partial value, with one or both
    # trees overrunning, in either order
    alphas = (-3.0, 0.0, 3.0)
    easy = _g(s=0.0, bigK=1.0, alphas=alphas)
    hard = _g(s=1.0, bigK=2.0, alphas=alphas, lambda2=0.5)
    for max_panels in (20, 30):
        monkeypatch.setattr(oracle_mod, "MAX_PANELS", max_panels)
        for pair in ([easy, hard], [hard, easy]):
            errors = []
            for adaptive in both:
                monkeypatch.setattr(oracle_mod, "_adaptive", adaptive)
                with pytest.raises(QuadratureConvergenceError) as exc_info:
                    integral_table(stacked_inputs(pair))
                err = exc_info.value
                errors.append((str(err), err.value, err.err_est))
            assert errors[0] == errors[1]


@pytest.mark.parametrize("labels", [1, 2, 3, 16])
def test_slot_sums_are_each_trees_own_sums_bit_for_bit(labels):
    # One sum over the slot axis of the lockstep state is, per tree, the
    # sum numpy takes of that tree's rows alone, as the per-tree loop took
    # it: in slot order for several labels, pairwise for one.
    rng = np.random.default_rng(labels)
    for n_trees, n in ((1, 9), (2, 17), (48, 44), (48, 130)):
        rows = rng.standard_normal((n_trees, n, 3, labels))
        rows *= np.exp(rng.uniform(-30.0, 30.0, rows.shape))
        got = _slot_sums(rows)
        for t in range(n_trees):
            alone = [part.sum(axis=0) for part in rows[t].copy().transpose(1, 0, 2)]
            assert np.array_equal(got[:, t], alone)


def test_full_grid_makes_few_integrand_calls(monkeypatch):
    import bumpscatter.oracle as oracle_mod

    calls, batch = Counter(), []
    for name in ("_eval_panel_2d", "_eval_panel_1d"):
        def counted(f, trees, cells, p, _evaluate=getattr(oracle_mod, name), _name=name):
            calls[_name] += 1
            batch.append(len(cells))
            return _evaluate(f, trees, cells, p)

        monkeypatch.setattr(oracle_mod, name, counted)
    verify_all(default_verification_grid())
    # each evaluator call makes one integrand call per Gauss order, p and
    # 2p; one evaluator call per panel made 6,172 integrand calls, and
    # batches of at most 12 panels made 452
    assert 2 * sum(calls.values()) <= 136
    assert calls["_eval_panel_1d"] > 0
    assert max(batch) == PANEL_BATCH


def test_full_grid_evaluates_the_operator_once_per_cell(monkeypatch):
    # The 2,606 panels the full grid evaluates lie on 86 distinct cells:
    # the operator is evaluated once per cell and Gauss order, and once
    # more at order 2p on each distinct final cell for int |f|.  Evaluating
    # it on every panel at both orders took 1,877,400 points.
    points = Counter()
    slopes = BumpProfile.slopes

    def counted(self, r):
        points["slopes"] += np.size(r)
        return slopes(self, r)

    monkeypatch.setattr(BumpProfile, "slopes", counted)
    verify_all(default_verification_grid())
    assert points["slopes"] <= 1_877_400 // 2
    # 86 cells at orders 12 and 24, 68 final cells at order 24 and the
    # line tree's 1,512 points: 102,600
    assert points["slopes"] <= 110_000


def test_overrun_in_one_tree_of_a_batch_names_its_worst_entry(monkeypatch):
    # Alone, easy converges on 24 2D panels and hard needs 44; with room
    # for 30, only hard's tree overruns, wherever it sits in the batch.
    alphas = (-3.0, 0.0, 3.0)
    easy = _g(s=0.0, bigK=1.0, alphas=alphas)
    hard = _g(s=1.0, bigK=2.0, alphas=alphas, lambda2=0.5)
    monkeypatch.setattr(oracle, "MAX_PANELS", 30)
    integral_table(easy)
    pieces = (None, *alphas)

    def closed_by_label(g):
        closed = coefficient_table(g)
        return {_label(g, bra, ket): closed[i][j]
                for i, bra in enumerate(pieces) for j, ket in enumerate(pieces)}

    closed_easy, closed_hard = closed_by_label(easy), closed_by_label(hard)
    for gs in ([easy, hard], [hard, easy]):
        with pytest.raises(QuadratureConvergenceError) as exc_info:
            integral_table(stacked_inputs(gs))
        err = exc_info.value
        what = str(err).split(":")[0]
        assert what in closed_hard
        assert f"error estimate {err.err_est:.3g} above target after 30 panels" in str(err)
        assert f"partial value of {what} = {err.value:.6g}" in str(err)
        # the partial value is hard's entry, not easy's
        assert abs(err.value - closed_hard[what]) <= 1e-3 * abs(closed_hard[what])
        assert abs(err.value - closed_easy[what]) > 1e-3 * abs(closed_hard[what])


def test_overrun_of_several_trees_names_the_first_grid_point(monkeypatch):
    # With room for 20 panels both trees overrun.  Every unconverged tree
    # gains one panel per round, so they overrun in the same round, and the
    # error is the one the first grid point raises alone: the one a loop
    # over the grid points, one at a time, would report.
    alphas = (-3.0, 0.0, 3.0)
    easy = _g(s=0.0, bigK=1.0, alphas=alphas)
    hard = _g(s=1.0, bigK=2.0, alphas=alphas, lambda2=0.5)
    monkeypatch.setattr(oracle, "MAX_PANELS", 20)
    named = []
    for gs in ([easy, hard], [hard, easy]):
        with pytest.raises(QuadratureConvergenceError) as alone:
            integral_table(gs[0])
        with pytest.raises(QuadratureConvergenceError) as together:
            integral_table(stacked_inputs(gs))
        assert str(together.value) == str(alone.value)
        assert together.value.value == alone.value.value
        assert together.value.err_est == alone.value.err_est
        named.append(str(together.value))
    assert named[0] != named[1]


def test_one_line_tree_serves_every_grid_point(monkeypatch):
    import bumpscatter.oracle as oracle_mod

    lines = []
    adaptive = oracle_mod._adaptive

    def spy(f, n_trees, edges_x, edges_y, labels):
        out = adaptive(f, n_trees, edges_x, edges_y, labels)
        if edges_y is None:
            lines.append((n_trees, edges_x, labels, out))
        return out

    monkeypatch.setattr(oracle_mod, "_adaptive", spy)
    gs = _grid_inputs(_SMALL_GRID)
    tables = integral_table(stacked_inputs(gs))
    [(n_trees, edges, labels, [shared])] = lines
    assert n_trees == 1
    kinks = np.array(gs[0].alphas)[:, None]
    for g, table in zip(gs, tables):
        # the line integrals of this table alone, from its own bump profile,
        # equal the shared ones bit for bit
        profile = BumpProfile(delta=math.sqrt(g.eta))

        def own_lines(t, y, profile=profile):
            return operator_coeffs_first_order(np.hypot(kinks, y[:, None, :]), profile).a_over_r2

        [own] = adaptive(tensor_integrand(own_lines), 1, edges, None, labels)
        assert own == shared
        # every ket-kink entry counts the 2D tree and the shared line tree
        panels_2d = table[0][0].panels
        assert all(ov.panels == panels_2d + (shared[0].panels if j > 0 else 0)
                   for row in table for j, ov in enumerate(row))


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
