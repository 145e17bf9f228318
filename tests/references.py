"""Test-side references that the engine no longer carries.

``immnn_x2`` is the rejected "x2" transcription of the four-index step
term of the hand-expanded closed forms.  The engine's moment kernel agrees
with the other one, "kappa2"; this reference keeps the oracle's
discrimination between the two reproducible.

``kink_coefficient_mp`` is a 50-digit quadrature of the kink-family
defining integrals, independent of the engine's moment recursion.

``operator_parts`` is L applied to a ket piece point by point, the form
the oracle's per-cell y contractions are checked against, and
``table_moduli_per_panel`` the integral of |f| over one panel at a time
from it.  ``tensor_integrand`` wraps a pointwise vector of integrands for
the oracle's integrator.

``jmn_mollified`` is the oracle's ket-kink entry with its delta line
smeared into a narrow Gaussian, a check that the sharp line term is right.

``adaptive_per_tree`` is the oracle's lockstep integrator written as a
Python loop over the trees, each tree's rows and cells in arrays of their
own: the form the array-state integrator is checked against.

``kink_coefficient_py`` is one entry of the coefficient table by its own
walk over the x intervals cut at its kinks, the engine's per-entry kernel
before the region sum, and ``coefficient_table_py`` the table of them: the
O(N^2) cross-check of the region sum.

``contraction_py`` is the bracket's region-sum contraction in Python
floats, one rounding per written operation, and ``half_line_table_per_qb`` the
half-line table evaluated at each of its three q values and at both sides
of every defect, one exp_erfc argument each, as the engine did before it
shared the work between them; both pin the engine's array arithmetic bit
for bit.  ``running_cumsum`` is geoamp._running as one np.cumsum, the
form its loop of np.add, one row at a time, is checked against bit for
bit.  ``records_per_point`` is verify_all's record building one grid point
at a time, the form its one pass over columns is checked against field by
field.

``svg_coordinates_per_point`` and ``svg_points_per_point`` are the SVG
renderer's polyline coordinates and text computed one point at a time on
Python floats, ``ray_offset_per_point`` the delta-ray offset of one angle
by math.remainder, and ``angular_points_per_point`` the angle scan's ray
rule applied to every grid point by it: the forms the array coordinates
and the array ray rule of the CLI are checked against.

``normalized_per_point`` is Kinematics' normalisation of theta by
math.remainder, one float at a time, and ``scan_per_row`` and
``read_csv_per_line`` are the sweep / angular writer and the plot reader
as they were before the CLI handled tables as arrays: a tuple per row,
curves grouped in a dict, one line parsed at a time.  The array forms are
checked against them bit for bit and byte for byte.
"""

import cmath
import itertools
import math
import warnings

import mpmath as mp
import numpy as np

from bumpscatter import cli, geoamp, oracle
from bumpscatter.defects import DefectSet
from bumpscatter.geoamp import SINGULAR_ANGLE_TOL, coefficient_table, f1_scan
from bumpscatter.oracle import (
    ABS_FLOOR,
    PANEL_BATCH,
    PANEL_ORDER,
    OracleValue,
    QuadratureConvergenceError,
    _adaptive,
    _Integrand,
    _integrand_inputs,
    _ket_signs,
    _nodes,
    _panel_edges,
)
from bumpscatter.specfun import exp_erf, exp_erfc
from bumpscatter.surface import operator_coeffs_first_order
from bumpscatter.svgplot import _fmt, render_svg


def immnn_x2(g, m, mp, n, np_):
    """Four-index coefficient with the "x2" step term.

    For a bra kink left of the ket kink (am < an), x2 puts am^2 where
    kappa2 has K^2 in the bracket of the erf(am + i beta) step term:

        x2 = kappa2 - (pi eta / 4) (am^2 - K^2) ((1 + 4 l1) s^2 - 1)
             * exp_erf(-beta^2 + i beta (am + an), am + i beta)
             * e^{i beta (am' + an')};

    otherwise the two transcriptions coincide.  kappa2 is the engine's
    kink-pair entry of geoamp.coefficient_table times its phase.
    """
    b = g.beta
    phase = cmath.exp(1j * b * (g.alphas[mp] + g.alphas[np_]))
    kappa2 = phase * coefficient_table(g)[m + 1][n + 1]
    am, an = g.alphas[m], g.alphas[n]
    if not am < an:
        return kappa2
    step = (
        (am * am - g.bigK**2) * ((1.0 + 4.0 * g.lambda1) * g.s**2 - 1.0)
        * exp_erf(-b * b + 1j * b * (am + an), am + 1j * b)
        * phase
    )
    return kappa2 - 0.25 * math.pi * g.eta * step


def matches_oracle(closed, record):
    """The verify_all pass rule applied to another closed value, under the
    oracle's VERIFY_RTOL and VERIFY_ATOL at the time of the call."""
    diff = abs(closed - record.oracle)
    if record.judged == "resolution":
        return diff <= record.resolution
    return diff / max(abs(record.oracle), oracle.VERIFY_ATOL) <= oracle.VERIFY_RTOL


def kink_coefficient_mp(g, bra=None, ket=None):
    """Kink coefficient of a bra kink at bra against a ket kink at ket (None:
    plane wave), phase positions 0, by mp.quad at 50 digits.

    The y integral is done by Gaussian moments (<y^2> = 1/2, <y^4> = 3/4
    against e^{-y^2}/sqrt(pi)) of the first-order operator of
    bumpscatter.surface with sigma = 1: a/r^2 = eta e^{-r^2},
    b/r^2 = eta e^{-r^2} (2 - r^2) and
    c = eta e^{-r^2} (-2 l1 (r^2 - 1) + (l2/2) (r^2 - 2)^2), applied to the
    ket piece e^{i (kx x + gamma y)}, kx = +-beta its x slope.  The x
    integral is split at the kinks; a ket kink at a adds its delta-line
    term 2 i beta a^2 e^{-a^2} bra(a).
    """
    with mp.workdps(50):
        b = mp.mpf(g.beta)
        gam2 = mp.mpf(g.bigK) ** 2 - b * b
        l1, l2 = mp.mpf(g.lambda1), mp.mpf(g.lambda2)
        y2, y4 = mp.mpf(1) / 2, mp.mpf(3) / 4

        def bra_x(x):
            if bra is None:
                return mp.expj(b * x)
            return mp.expj(-b * abs(x - bra))

        def integrand(x):
            kx = b if ket is None or x >= ket else -b
            ket_x = mp.expj(b * x) if ket is None else mp.expj(b * abs(x - ket))
            r2 = x * x
            a_part = -(kx * kx * r2 + gam2 * y2)
            b_part = 1j * kx * x * (2 - r2 - y2)
            c_part = (-2 * l1 * (r2 + y2 - 1)
                      + l2 / 2 * ((r2 - 2) ** 2 + 2 * (r2 - 2) * y2 + y4))
            return mp.exp(-r2) * bra_x(x) * (a_part + b_part + c_part) * ket_x

        cuts = sorted({mp.mpf(a) for a in (bra, ket) if a is not None})
        total = mp.quad(integrand, [-mp.inf, *cuts, mp.inf])
        if ket is not None:
            a = mp.mpf(ket)
            total += 2j * b * a * a * mp.exp(-a * a) * bra_x(a)
        return complex(mp.mpf(g.eta) * mp.sqrt(mp.pi) * total)


def operator_parts(betas, gammas, lambda1, lambda2, profile):
    """(t, X, Y) -> (F0, F1): L applied to a ket piece, over the ket, at the
    points X, Y of tree t, from the per-tree arrays and the profile that
    oracle._integrand_inputs returns (t broadcasts against X and Y).

    The ket's x slope is beta * sg (sg = 1 for the plane wave, sign(x - a)
    for a kink at a) and its y slope gamma, so L ket / ket = F0 + sg F1
    with
        F0 = a/r^2 (-beta^2 x^2 - gamma^2 y^2) + b/r^2 i gamma y + c,
        F1 = a/r^2 (-2 beta gamma x y) + b/r^2 i beta x,
    evaluated point by point: the form the oracle's per-cell contractions
    are checked against.
    """
    def parts(t, X, Y):
        beta, gamma = betas[t], gammas[t]
        oc = operator_coeffs_first_order(np.hypot(X, Y), profile)
        a_r2, b_r2 = oc.a_over_r2, oc.b_over_r2
        c = lambda1[t] * oc.c1 + lambda2[t] * oc.c2
        f0, f1 = np.empty((2, *a_r2.shape), complex)
        f0.real = a_r2 * (-(beta**2) * X * X - gamma**2 * Y * Y) + c
        f0.imag = b_r2 * (gamma * Y)
        f1.real = a_r2 * (-2.0 * beta * gamma * X * Y)
        f1.imag = b_r2 * (beta * X)
        return f0, f1

    return parts


def tensor_integrand(F):
    """The oracle integrand (an _Integrand) of a pointwise vector of
    integrands: F(trees, *nodes) takes the Gauss-Legendre nodes of each
    panel, one row per panel and axis, and returns the integrands on the
    tensor grid, (panel, entry, *node axes).  The values and the moduli
    are the tensor rule applied to F and to |F|."""
    def rule(modulus):
        def integrate(trees, cells, order):
            nodes = [_nodes(cells[:, k], order) for k in range(cells.shape[1])]
            out = F(trees, *(x for x, _ in nodes))
            if modulus:
                out = np.abs(out)
            for _, w in reversed(nodes):
                out = (out @ w.reshape(len(w), *(1,) * (out.ndim - 3), -1, 1))[..., 0]
            return out

        return integrate

    return _Integrand(rule(False), rule(True))


def stacked_inputs(gs):
    """One array GeoCoefficientInputs of the float points gs (they share
    alphas and eta): s, K and the curvature weights one value per point."""
    s, bigK, lambda1, lambda2 = (np.array([getattr(g, name) for g in gs], dtype=float)
                                 for name in ("s", "bigK", "lambda1", "lambda2"))
    return geoamp.GeoCoefficientInputs(s=s, bigK=bigK, alphas=gs[0].alphas, eta=gs[0].eta,
                                       lambda1=lambda1, lambda2=lambda2)


def table_moduli_per_panel(kets, g, trees, cells, order):
    """int |F0 + sg F1| of each panel, cells[k] at the point trees[k] of
    the array g, one column per ket (sg = _ket_signs): the tensor rule on
    the complex sum of operator_parts, one panel at a time."""
    parts = operator_parts(*_integrand_inputs(g))
    sg = _ket_signs(kets, cells)
    out = np.empty((len(cells), len(kets)))
    for k, (t, cell) in enumerate(zip(trees, cells)):
        (x, wx), (y, wy) = (_nodes(cell[i][None], order) for i in (0, 1))
        f0, f1 = parts(t, x[0][:, None], y[0][None, :])
        for j, s in enumerate(sg[k]):
            out[k, j] = wx[0] @ np.abs(f0 + s * f1) @ wy[0]
    return out


def jmn_mollified(g, n, width):
    """Ket kink n against the plane wave (the table entry T[0][n+1], phase
    position at 0) with its line term's delta(x - a) replaced by a Gaussian
    of the given width, so that the whole entry is one 2D integral.

    The smooth part and the mollified line term are a vector of two
    integrals on the oracle's shared panel tree; the result is their sum.
    It approaches the sharp entry as O(width^2).
    """
    a = g.alphas[n]
    inputs = _integrand_inputs(g)
    beta, profile = g.beta, inputs[-1]
    parts = operator_parts(*inputs)

    def F(t, x, y):
        X, Y = x[:, :, None], y[:, None, :]
        f0, f1 = parts(t[:, None, None], X, Y)
        plane_ket = np.exp(1j * beta * (X + np.abs(X - a)))
        smooth = plane_ket * (f0 + np.sign(X - a) * f1)
        oc = operator_coeffs_first_order(np.hypot(X, Y), profile)
        moll = np.exp(-(((X - a) / width) ** 2)) / (width * math.sqrt(math.pi))
        line = 2j * beta * np.exp(1j * beta * X) * oc.a_over_r2 * X * X * moll
        return np.stack([smooth, line], axis=1)

    # the mollifier support needs panel edges at a +- a few widths
    edges_x, edges_y = _panel_edges(g)
    edges_x = sorted({*edges_x, a - 6.0 * width, a + 6.0 * width})
    [[smooth, line]] = _adaptive(tensor_integrand(F), 1, edges_x, edges_y,
                                 [f"Jmn[{n}] smooth", "mollified line"])
    return smooth.value + line.value


def adaptive_per_tree(f, n_trees, edges_x, edges_y, labels):
    """oracle._adaptive with its lockstep state held per tree: every round
    a Python loop over the live trees runs the stop test, the MAX_PANELS
    check and the split of each, re-concatenating the tree's row and cell
    arrays.  Same arguments, batches, evaluator calls and results."""
    edges = (edges_x,) if edges_y is None else (edges_x, edges_y)
    evaluate = oracle._eval_panel_1d if edges_y is None else oracle._eval_panel_2d
    base = np.array(list(itertools.product(*(itertools.pairwise(e) for e in edges))))
    cells = [base] * n_trees
    rows = [np.empty((0, 3, len(labels)))] * n_trees
    todo = dict.fromkeys(range(n_trees), base)
    while todo:
        trees = np.repeat(list(todo), [len(c) for c in todo.values()])
        batch = np.concatenate(list(todo.values()))
        new = np.concatenate([
            np.stack([q.real, q.imag, err], axis=1)
            for q, err in (evaluate(f, trees[i:i + PANEL_BATCH], batch[i:i + PANEL_BATCH],
                                    PANEL_ORDER)
                           for i in range(0, len(batch), PANEL_BATCH))])
        cuts = np.cumsum([len(c) for c in todo.values()])[:-1]
        for t, block in zip(todo, np.split(new, cuts)):
            rows[t] = np.concatenate([rows[t], block])
        live, todo = list(todo), {}
        for t in live:
            re, im, errs = rows[t].transpose(1, 0, 2)
            err = errs.sum(axis=0)
            target = np.maximum(oracle.REL_TOL * np.hypot(re.sum(axis=0), im.sum(axis=0)),
                                ABS_FLOOR)
            unconverged = err > target
            if not unconverged.any():
                continue
            if len(cells[t]) >= oracle.MAX_PANELS:
                k = int(np.argmax(np.where(unconverged, err / target, -1.0)))
                what, tot = labels[k], complex(math.fsum(re[:, k]), math.fsum(im[:, k]))
                raise QuadratureConvergenceError(
                    f"{what}: error estimate {err[k]:.3g} above target after "
                    f"{len(cells[t])} panels; partial value of {what} = {tot:.6g}",
                    tot,
                    float(err[k]),
                )
            worst = int(np.argmax((errs[:, unconverged] / target[unconverged]).max(axis=1)))
            cell = cells[t][worst]
            k = int(np.argmax(cell[:, 1] - cell[:, 0]))
            kids = np.array([cell, cell])
            kids[0, k, 1] = kids[1, k, 0] = 0.5 * (cell[k, 0] + cell[k, 1])
            cells[t] = np.concatenate([cells[t][:worst], cells[t][worst + 1:], kids])
            rows[t] = np.concatenate([rows[t][:worst], rows[t][worst + 1:]])
            todo[t] = kids
    sizes = [len(c) for c in cells]
    mags = f.moduli(np.repeat(np.arange(n_trees), sizes), np.concatenate(cells), 2 * PANEL_ORDER)
    return [[OracleValue(complex(math.fsum(a), math.fsum(b)), math.fsum(e), len(c), math.fsum(m))
             for a, b, e, m in zip(*r.transpose(1, 2, 0), mag.T)]
            for r, c, mag in zip(rows, cells, np.split(mags, np.cumsum(sizes)[:-1]))]


def kink_coefficient_py(g, bra=None, ket=None):
    """Coefficient of a bra kink at `bra` against a ket kink at `ket`, with
    every phase position at 0; None puts the plane wave on that side.  One
    value per point of g: the engine's per-entry kernel before the region
    sum, and its O(N^2) cross-check.

    The x intervals are cut at the entry's own kinks only; on each, the
    bra and ket factors make one phase times e^{i q x} with ket slope
    kx = +-beta, and the interval's integral of e^{-x^2 + i q x} p_kx is
    taken from geoamp's half-line table by the side rule: an interval in
    x <= 0 is the difference of two left half-lines, one in x >= 0 of two
    right half-lines, and one across 0 the full line minus the two outer
    half-lines.  A ket kink at a adds the line term
    2 i beta a^2 e^{-a^2} bra(a).  At beta = 0 the coefficient is I0.
    """
    b = g.beta
    ib = 1j * b
    table, defect = _half_lines(g), g.alphas.index
    edges = [-math.inf, *sorted({a for a in (bra, ket) if a is not None}), math.inf]
    total = 0j
    for lo, hi in zip(edges, edges[1:]):
        # x momentum q = qb * beta, constant phase of bra(x) ket(x) and
        # ket slope kx = sg * beta on (lo, hi)
        qb, phase, sg = 2.0, 0.0, 1.0
        if bra is not None:
            sb = 1.0 if lo >= bra else -1.0
            qb -= 1.0 + sb
            phase += sb * bra
        if ket is not None:
            sg = 1.0 if lo >= ket else -1.0
            qb += sg - 1.0
            phase -= sg * ket
        pair = geoamp._PAIRS[qb, sg]
        left = 0.0 if math.isinf(lo) else table[defect(lo), 0, pair]
        right = 0.0 if math.isinf(hi) else table[defect(hi), 1, pair]
        if hi <= 0.0:
            part = table[defect(hi), 0, pair] - left
        elif lo >= 0.0:
            part = table[defect(lo), 1, pair] - right
        else:
            part = _full_lines(g)[qb != 0.0] - left - right
        total += np.exp(ib * phase) * part
    if ket is not None:
        x_bra = b * ket if bra is None else -b * abs(ket - bra)
        total += 2j * b * ket * ket * np.exp(-ket * ket + 1j * x_bra)
    out = g.eta * math.sqrt(math.pi) * total
    return np.where(np.equal(b, 0.0), geoamp.I0_closed(g), out)


def _half_lines(g):
    """geoamp's half-line table of g's points and defects."""
    return geoamp._half_line_table(g.beta, g.bigK, geoamp._half_line_moments(g.beta, g.alphas),
                                   g.lambda1, g.lambda2)


def _full_lines(g):
    """geoamp's full-line integrals of g's points."""
    p2 = geoamp._p2(geoamp._powers(g.s, g.bigK), g.lambda1, g.lambda2)
    return geoamp._full_lines(g.beta, g.bigK, g.lambda2, p2)


def coefficient_table_py(g):
    """The (N+1) x (N+1) table of g's pieces from kink_coefficient_py,
    (bra piece, ket piece[, point]), T[0][0] = I0."""
    pieces = (None, *g.alphas)
    return np.array([[geoamp.I0_closed(g) if bra is None and ket is None
                      else kink_coefficient_py(g, bra, ket) for ket in pieces]
                     for bra in pieces], dtype=complex)


def _regions(g, half, full, r, p):
    """The four region integrals R(r; qb, sg) at point p in the order of
    geoamp._PAIRS, by the side rule, from the nested lists of g's half-line
    and full-line integrals."""
    n = len(g.alphas)
    out = []
    for j in range(len(geoamp._PAIRS)):
        lo_left, lo_right = (half[r - 1][0][j][p], half[r - 1][1][j][p]) if r else (0j, 0j)
        hi_left, hi_right = (half[r][0][j][p], half[r][1][j][p]) if r < n else (0j, 0j)
        if r < n and g.alphas[r] <= 0.0:
            out.append(hi_left - lo_left)
        elif r and g.alphas[r - 1] >= 0.0:
            out.append(lo_right - hi_right)
        else:  # q = 2 kx for the first and last pair, q = 0 for the middle two
            out.append(full[j in (0, 3)][p] - lo_left - hi_right)
    return out


def contraction_py(g, u, v):
    """The bracket of geoamp._bracket_terms per point in Python floats.

    g holds a scan; u and v are (point, piece) lists of complex amplitudes.
    The transcendental inputs are the engine's: the half-line and full-line
    integrals, the phases e_n = e^{i beta a_n}, e^{-a_n^2} and I0.  The side
    rule, the running sums P, Q, C and D, every product (Python's complex
    *, (ar br - ai bi, ar bi + ai br), taken left to right) and the two
    math.fsum of each bracket are written out here on Python numbers."""
    n = len(g.alphas)
    half = _half_lines(g).tolist()
    full = [np.broadcast_to(f, g.beta.shape).tolist() for f in _full_lines(g)]
    phases = geoamp._kink_phases(g.beta, g.alphas).T.tolist()
    gauss = geoamp._gauss(np.array(g.alphas)).tolist()
    i0 = np.broadcast_to(geoamp.I0_closed(g), g.beta.shape).tolist()
    w = g.eta * math.sqrt(math.pi)
    out = []
    for p, (u_p, v_p, beta) in enumerate(zip(u, v, g.beta.tolist())):
        e = phases[p]
        ec = [z.conjugate() for z in e]
        P, Q, C, D = [u_p[0]], [0j], [v_p[0]], [0j]
        for k in range(n):
            Q.append(Q[-1] + u_p[k + 1] * e[k])
            C.append(C[-1] + v_p[k + 1] * ec[k])
            P.append(P[-1] + u_p[n - k] * ec[n - k - 1])
            D.append(D[-1] + v_p[n - k] * e[n - k - 1])
        P.reverse()
        D.reverse()
        if n == 0 or beta == 0.0:
            terms = [(P[0] * C[n]) * complex(i0[p], 0.0)]
        else:
            terms = [(bra * ket) * complex(w * region.real, w * region.imag)
                     for r in range(n + 1)
                     for (bra, ket), region in zip(((P[r], C[r]), (Q[r], C[r]), (P[r], D[r]),
                                                    (Q[r], D[r])), _regions(g, half, full, r, p))]
            terms += [(v_p[k + 1] * (P[k + 1] * e[k] + Q[k + 1] * ec[k]))
                      * complex(0.0, w * 2.0 * beta * (a * a) * gauss[k])
                      for k, a in enumerate(g.alphas)]
        out.append(complex(math.fsum(t.real for t in terms),
                           math.fsum(t.imag for t in terms)))
    return out


def running_cumsum(start, parts, reverse):
    """geoamp._running as one np.cumsum along axis -2 over start and the
    parts (the parts reversed, and the sums read back reversed, when
    reverse)."""
    if reverse:
        parts = parts[..., ::-1, :]
    sums = np.empty(parts.shape[:-2] + (parts.shape[-2] + 1,) + parts.shape[-1:])
    sums[..., 0, :] = start
    sums[..., 1:, :] = parts
    np.cumsum(sums, axis=-2, out=sums)
    return sums[..., ::-1, :] if reverse else sums


def records_per_point(grid):
    """verify_all's records built one grid point at a time, as verify_all
    built them before it built every record of a call from columns: the
    closed tables of one call per curvature setting, the quadrature tables
    and the same pass-rule arrays, then per grid point the .tolist() rows
    of those arrays and one VerificationRecord per record, its complex
    values complex(re, im) of two Python floats."""
    alphas = tuple(sorted(grid["alphas"]))
    npos = len(alphas)
    points = list(itertools.product(grid["s"], grid["bigK"], grid["lambdas"]))
    gs = [geoamp.GeoCoefficientInputs(s=s, bigK=bigK, alphas=alphas, eta=grid["eta"],
                                      lambda1=l1, lambda2=l2)
          for s, bigK, (l1, l2) in points]
    closed = np.empty((len(points), npos + 1, npos + 1), dtype=complex)
    stride = len(grid["lambdas"])
    for j, (l1, l2) in enumerate(grid["lambdas"]):
        s, bigK = np.array([p[:2] for p in points[j::stride]], dtype=float).T
        g = geoamp.GeoCoefficientInputs(s=s, bigK=bigK, alphas=alphas, eta=grid["eta"],
                                        lambda1=l1, lambda2=l2)
        closed[j::stride] = np.moveaxis(np.array(coefficient_table(g), dtype=complex), -1, 0)
    positions = np.array([0.0, *(sum(p) for p in itertools.chain(
        itertools.product(alphas), itertools.product(alphas, repeat=2)))])
    families, indices, entry, phase = ["I0"], [()], [0], [0]
    for m, n in itertools.product(range(npos), repeat=2):
        families += ["Imn", "Jmn"]
        indices += [(m, n)] * 2
        entry += [(n + 1) * (npos + 1), n + 1]
        phase += [1 + m] * 2
    for m, mp_, n, np_ in itertools.product(range(npos), repeat=4):
        families.append("Immnn")
        indices.append((m, mp_, n, np_))
        entry.append((m + 1) * (npos + 1) + n + 1)
        phase.append(1 + npos + mp_ * npos + np_)
    ovs = [ov for table in oracle.integral_table(stacked_inputs(gs))
           for row in table for ov in row]
    values, err_est, abs_integral, panels = (
        np.array([getattr(ov, name) for ov in ovs]).reshape(len(gs), -1)
        for name in ("value", "err_est", "abs_integral", "panels"))
    phase = np.array(phase)
    phases = np.exp(1j * np.array([g.beta for g in gs])[:, None] * positions)[:, phase]
    resolution = 2 * PANEL_ORDER * oracle._EPS * abs_integral[:, entry]
    arrays = oracle._pass_rule(values[:, entry], closed.reshape(len(gs), -1)[:, entry],
                               phases, phase > 0, resolution)
    records = []
    for i, (s, bigK, (l1, l2)) in enumerate(points):
        errs, counts = err_est[i].tolist(), panels[i].tolist()
        records.extend(
            oracle.VerificationRecord(name, s, bigK, l1, l2, alphas, idx, complex(qr, qi),
                                      errs[k], complex(cr, ci), rel, ok,
                                      ("relative", "resolution")[by_floor], res, counts[k])
            for name, idx, k, qr, qi, cr, ci, rel, ok, by_floor, res in zip(
                families, indices, entry, *(v[i].tolist() for v in (*arrays, resolution))))
    return records


def half_line_table_per_qb(g):
    """geoamp._half_line_table evaluated at q = qb beta for each qb in
    (-2, 0, 2) on one (defect, side, qb[, point]) array, keyed (a, side,
    qb, sg) for both signs sg of kx: three exp_erfc arguments per defect,
    side and point, where the engine evaluates one erfcx per distinct |a|
    and point."""
    sqpi = math.sqrt(math.pi)
    b = np.asarray(g.beta, dtype=float)
    point_axes = (1,) * b.ndim
    a = np.array(g.alphas, dtype=float).reshape((-1, 1, 1) + point_axes)
    side = np.array([-1.0, 1.0]).reshape((1, 2, 1) + point_axes)
    qbs = (-2.0, 0.0, 2.0)
    q = np.array(qbs).reshape((1, 1, 3) + point_axes) * b
    iq = 1j * q
    m0 = 0.5 * sqpi * exp_erfc(-0.25 * q * q, side * (a - 0.5 * iq))
    edge = side * np.exp(a * (iq - a))
    m1 = 0.5 * (edge + iq * m0)
    edge *= a
    m2 = 0.5 * (edge + m0 + iq * m1)
    edge *= a
    m3 = 0.5 * (edge + 2.0 * m1 + iq * m2)
    edge *= a
    m4 = 0.5 * (edge + 3.0 * m2 + iq * m3)
    l1, l2 = g.lambda1, g.lambda2
    c0 = 0.125 * (-4.0 * (g.bigK**2 - b * b) + 8.0 * l1 + 11.0 * l2)
    c2 = -(b * b + 2.0 * l1 + 1.5 * l2)
    c4 = 0.5 * l2
    table = {}
    for sg in (-1.0, 1.0):
        kx = sg * b
        c1, c3 = 1.5j * kx, -1j * kx
        h = c0 * m0 + c1 * m1 + c2 * m2 + c3 * m3 + c4 * m4
        for i, al in enumerate(g.alphas):
            for j, sd in enumerate((-1.0, 1.0)):
                for k, qb in enumerate(qbs):
                    table[al, sd, qb, sg] = h[i, j, k]
    return table


def svg_coordinates_per_point(xs, ys, x_axis, y_axis):
    """The pixel coordinates of svgplot._points, one point at a time on
    Python floats: two lists."""
    (x0, x1, px0, px1), (y0, y1, py0, py1) = x_axis, y_axis
    return ([px0 + (float(x) - x0) / (x1 - x0) * (px1 - px0) for x in xs],
            [py0 + (float(y) - y0) / (y1 - y0) * (py1 - py0) for y in ys])


def svg_points_per_point(xs, ys, x_axis, y_axis):
    """svgplot._points one point at a time: each coordinate formatted by
    svgplot._fmt."""
    sx, sy = svg_coordinates_per_point(xs, ys, x_axis, y_axis)
    return " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(sx, sy))


def ray_offset_per_point(theta0, theta):
    """geoamp.delta_ray_offset for one float angle, by math.remainder:
    the signed offset to the nearer ray, theta0 on a tie."""
    return min((math.remainder(theta - ray, 2.0 * math.pi)
                for ray in (theta0, math.pi - theta0)), key=abs)


def angular_points_per_point(args):
    """The (ksigma, theta_deg) points of an angular command: every grid
    point checked by ray_offset_per_point, a point on a ray nudged
    NUDGE_DEG off it with an AngleNudgeWarning."""
    points = []
    for th in cli._parse_grid(args.thetagrid, "--thetagrid"):
        th = float(th)
        ray = ray_offset_per_point(math.radians(args.theta0_deg), math.radians(th))
        if abs(ray) < SINGULAR_ANGLE_TOL:
            nudged = th - math.degrees(ray) + (cli.NUDGE_DEG if ray >= 0.0 else -cli.NUDGE_DEG)
            warnings.warn(
                f"warning: theta = {th:g} deg sits on a delta-supported "
                f"direction; nudged to {nudged:.10g} deg",
                cli.AngleNudgeWarning,
            )
            th = nudged
        points.append((args.ksigma, th))
    return points


def normalized_per_point(theta):
    """theta moved by whole turns into [-pi/2, 3 pi/2) with math.remainder,
    for one float."""
    th = math.remainder(theta - math.pi / 2, 2.0 * math.pi) + math.pi / 2
    if th >= 1.5 * math.pi:
        th -= 2.0 * math.pi
    return th


def sweep_points_per_point(args):
    """The (ksigma, theta_deg) points of a sweep command, angle by angle."""
    thetas = cli._parse_floats(args.theta_deg, "--theta-deg")
    return [(float(k), th) for th in thetas for k in cli._parse_grid(args.kgrid, "--kgrid")]


def curves_per_row(headers, rows):
    """The plot curves of a table of row tuples: a K scan's rows grouped by
    angle in a dict, an angle scan's in one curve."""
    if headers.get("mode", "kscan") == "kscan":
        groups = {}
        for (k, th, _, _, _, xsec) in rows:
            ks, ys = groups.setdefault(th, ([], []))
            ks.append(k)
            ys.append(xsec)
        return [(f"theta = {th:g} deg", ks, ys) for th, (ks, ys) in groups.items()]
    label = f"l1 = {headers.get('lambda1', '?')}, l2 = {headers.get('lambda2', '?')}"
    return [(label, [r[1] for r in rows], [r[5] for r in rows])]


def scan_per_row(args, mode, points, keys):
    """The CSV (and the SVG, with args.svg) of sweep or angular from a list
    of (ksigma, theta_deg) points: one f1_scan call, a tuple per row, each
    row formatted with one "%.17g" per column."""
    positions = cli._parse_floats(args.defects, "--defects")
    couplings = cli._parse_couplings(args.couplings, len(positions))
    f1 = f1_scan([k for k, _ in points], math.radians(args.theta0_deg),
                 [math.radians(th) for _, th in points], DefectSet(positions, couplings),
                 args.eta, args.lambda1, args.lambda2)
    rows = [(k, th, args.theta0_deg, f.real, f.imag, abs(f) ** 2)
            for (k, th), f in zip(points, f1)]
    headers = {**cli._common_headers(args, mode, positions, couplings), **keys}
    lines = [f"# {k}={v}" for k, v in headers.items()]
    lines.append(f"# columns={cli.COLUMNS}")
    lines += [",".join(["%.17g"] * 6) % row for row in rows]
    cli._write_out(args.out, "\n".join(lines) + "\n")
    if args.svg:
        xlabel = "k sigma" if mode == "kscan" else "theta (deg)"
        cli._write_out(args.svg, render_svg(curves_per_row(headers, rows), xlabel,
                                            "|f1|^2 / sigma"))


def read_csv_per_line(path):
    """Headers and row tuples of a sweep or angular CSV, one line at a
    time; a bad input raises ValueError (or OSError) with the reader's
    text."""
    headers, rows = {}, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    k, v = body.split("=", 1)
                    headers[k.strip()] = v.strip()
                continue
            row = tuple(map(float, line.split(",")))
            if len(row) != 6:
                raise ValueError(f"row {line!r} does not have the columns {cli.COLUMNS}")
            rows.append(row)
    return headers, rows
