"""Independent adaptive-quadrature oracle for the closed-form coefficients.

Every closed form in bumpscatter.geoamp is a Gaussian-moment evaluation of
the one defining integral the oracle takes,

    <U| L |V> = int dx dy  bra(x, y) * (L ket)(x, y).

A state is a combination of the pieces of the exact unperturbed states,
the plane wave (piece 0) and the kink at alpha_n (piece n + 1), given by
complex amplitudes: U holds one row per bra state and V one row per ket
state, one column per piece, per tree.  The bra side is already
conjugated: its y factor is e^{-i gamma y}, its kink factor
e^{-i beta |x - a|}.  L is the first-order curvature operator from
bumpscatter.surface applied in Cartesian form,

    L h = psi_a(r) (x^2 h_xx + 2 x y h_xy + y^2 h_yy)
        + psi_b(r) (x h_x + y h_y) + c(r) h,

with psi_a = a/r^2 and psi_b = b/r^2 the origin-regular coefficient ratios.
This uses the exact identities r^2 d2h/dr2 = x^2 h_xx + 2xy h_xy + y^2 h_yy
and r dh/dr = x h_x + y h_y (the first-derivative cross terms cancel
exactly; the test suite verifies this symbolically).  Only the ket is ever
differentiated; the bra enters as a plain factor.  A kinked ket
additionally contributes a line term: h_xx of e^{i beta |x - a|} carries
2 i beta * delta(x - a), which becomes a 1D integral along the defect line,

    C_line = int dy  bra(a, y) * psi_a(a, y) * a^2 * 2 i beta * e^{i gamma y}.

Three cases use it.  The (N+1) x (N+1) table of the pieces is the
identity case U = V = 1 (integral_table, the quadrature twin of
geoamp.coefficient_table, which takes the same inputs: one table for a
float GeoCoefficientInputs, one per point for an array one).  One entry
of it is the one-hot case (_integrate_pair).  f1 is the physical case,
one outgoing bra state and one incoming ket state from the defect
matrices (assemble_f1_oracle).  Phase rule: a phase position a' enters a
defining integral only as the constant factor e^{i beta a'}, so every
integral is taken with its phase positions at 0 and the exact phase
multiplies the result outside the quadrature.

The integrand.  The bra and ket y factors cancel, and L ket is the ket
times F0 + sg F1 (sg = sign(x - a) for a kink at a, 1 for the plane wave;
F0, F1 are the same for every piece).  Panel edges include x = 0, y = 0
and every defect position, so integrand kinks lie on panel boundaries and
sg is constant on each panel, where entry (i, j) is

    T_ij = sum_k wx_k (U B)_i(x_k) (V H)_j(x_k),
    H_q = K_q (G0 + sg_q G1),

B_p and K_q the bra and ket x factors of the pieces and G0, G1 the
y-contracted F0, F1: one matrix product per panel for every pair of
states.  Each piece's x factor is one complex exponential, taken once: a
bra plane wave's factor is its ket's, and a bra kink's the conjugate of
its ket's.  At U = V = 1, the piece table, the amplitude products would
be products by 1 and sums with exact zeros, which change no bit, so they
are skipped there.  G0 and G1 are linear in seven y contractions that depend on the
panel's cell alone (c is lambda1 c1 + lambda2 c2 at first order):

    G0 = -beta^2 x^2 int a - gamma^2 int a y^2 + lambda1 int c1
         + lambda2 int c2 + i gamma int b y,
    G1 = -2 beta gamma x int a y + i beta x int b

(a = psi_a, b = psi_b).  The trees of a call share most of their cells,
so the operator is evaluated once per distinct cell and Gauss order: the
seven contractions and the x nodes and weights, O(p) numbers, are kept
for the life of the call's integrand, no 2D grid with them, and a tree's
panel costs O(p (N + 1)).  int |f| of the piece pair (p, q) is
M_pq = int |F0 + sg_q F1| = int |c - a u^2 + i b u|, u = sg_q beta x +
gamma y, two values per panel, and a pair of states takes |U| M |V|^T, a
triangle-inequality bound that is M itself at identity amplitudes.  Only
the order-2p values of the final panels are read, so they are taken
once, after every tree has converged, with each distinct final cell's 2D
grid built once.  The line integral int psi_a(a, y) dy of a ket kink
depends on neither the bra nor beta, K and the curvature weights, so one
1D tree integrates the N of them for every point of a call; ket state j
weighs kink n's by V[j, n+1] 2 i beta a_n^2 (U B)_i(a_n).

The integrator is global-adaptive tensor-product Gauss-Legendre quadrature
of a vector of integrals on one shared subdivision (DCUHRE: Berntsen,
Espelid and Genz, ACM TOMS 17, 1991).  Each panel scores every entry by the
difference of its order-p and order-2p values; an entry is converged when
its summed difference, the reported err_est, meets
max(REL_TOL |T_ij|, ABS_FLOOR), and until every entry is, the panel with
the largest error-to-target ratio over the unconverged entries is bisected
across its longer side.  The box, the error target, the panel budget and
verify_all's pass rule are module constants; the oracle has no options.
The trees of the points of one call (one per point) are refined in
lockstep: each round every unconverged tree bisects its worst panel, and
the new panels of all trees are evaluated together, at most PANEL_BATCH
panels per integrand call and Gauss order.
The live trees' panels are held as arrays with one row per tree, so each
round's stop test and split are array operations over all of them.  A tree
reads only its own panels, so it is the tree it would be alone.  Panel
contributions are summed with math.fsum (real and imaginary parts
separately), which is exactly rounded and so independent of the order the
panels end up in.

This module is intentionally independent of the closed forms: it never
calls them or their kernels, only mirrors the defining integrals (from
geoamp it takes the inputs, coefficient_table for the comparison and the
complex product _cmul; from defects the defect matrices).  verify_all
evaluates both tables on one array input for its whole grid and reports
coefficient-by-coefficient agreement, judging all records of a call as
arrays.  The closed table is geoamp's region kernel at unit amplitudes:
the numbers every scan contracts.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .defects import DefectSet, Kinematics, build_defect_matrix
from .geoamp import GeoCoefficientInputs, _cmul, coefficient_table
from .surface import BumpProfile, operator_coeffs_first_order

__all__ = [
    "OracleValue",
    "QuadratureConvergenceError",
    "integral_table",
    "assemble_f1_oracle",
    "VerificationRecord",
    "VerificationReport",
    "verify_all",
    "default_verification_grid",
]

# Base Gauss-Legendre order p of a panel (the value estimate uses 2p).
PANEL_ORDER = 12
# Error target of an entry whose value is legitimately ~0.
ABS_FLOOR = 1e-13
# An entry has converged once its summed two-level error estimate is below
# max(REL_TOL |value|, ABS_FLOOR); a tree that needs more than MAX_PANELS
# panels raises QuadratureConvergenceError.
REL_TOL = 1e-8
MAX_PANELS = 6000
# The box's half-width beyond max|alpha|: the integrand carries e^{-r^2},
# so the tail beyond ~10 is far below double precision.
BOX_MARGIN = 12.0
# rtol and atol of verify_all's pass rule.
VERIFY_RTOL = 1e-6
VERIFY_ATOL = 1e-10
# Most panels per integrand call.  A table panel's own work is O(p (N + 1))
# (see _table_integrand), so the cap bounds the call count more than the
# memory; larger batches save little more time.
PANEL_BATCH = 48
# Most 2p x 2p grids of cells or panels held at once: the operator on new
# cells, and |f| on final panels.  Their temporaries set the peak memory.
GRID_BATCH = 12


@dataclass(frozen=True)
class OracleValue:
    """A quadrature result with its two-level error estimate.

    abs_integral is the integral of |integrand| over the same panels, at
    order 2p, taken once on the final panels of the converged tree.  It
    sets the roundoff floor of the result (_resolution): each panel value
    is two length-2p dot products, so summing the panels loses up to
    about 2p * eps * abs_integral (the gamma_4p bound of
    Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1).  A
    value no larger than that floor cannot be told apart from zero;
    verify_all judges such values against the floor instead of relatively.
    """

    value: complex
    err_est: float
    panels: int
    abs_integral: float

    def resolution(self) -> float:
        """Roundoff floor of this value (_resolution)."""
        return _resolution(self.abs_integral)


class QuadratureConvergenceError(RuntimeError):
    """Panel budget exhausted before the error target was met; value and
    err_est are the partial result of the integral the message names."""

    def __init__(self, message: str, value: complex, err_est: float):
        super().__init__(message)
        self.value = value
        self.err_est = err_est


# ---------------------------------------------------------------------------
# Gauss-Legendre panel machinery
# ---------------------------------------------------------------------------

_GL_CACHE: dict = {}
_EPS = float(np.finfo(float).eps)


def _resolution(abs_integral):
    """Roundoff floor 2p * eps * abs_integral of a value, or of each value of
    an array, whose integral of |integrand| is abs_integral."""
    return 2 * PANEL_ORDER * _EPS * abs_integral


def _leggauss(n: int):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _nodes(bounds, order):
    """Gauss-Legendre nodes and weights of each interval (a, b) in the
    rows of bounds, scaled to it: one row of nodes per interval."""
    t, w = _leggauss(order)
    a, b = bounds[:, :1], bounds[:, 1:]
    return 0.5 * (a + b) + 0.5 * (b - a) * t, 0.5 * (b - a) * w


class _Integrand(NamedTuple):
    """A vector of integrals in the form _adaptive takes.

    values(trees, cells, order) returns, one row per panel, the
    order x order tensor Gauss-Legendre values (order nodes on a 1D cell)
    of every integral over cells[k], at the point of tree trees[k];
    cells[k] holds one (lo, hi) row per axis.  moduli takes the same
    arguments and returns the same rule applied to the moduli of the
    integrands.
    """

    values: Callable
    moduli: Callable


def _eval_panel_2d(f, trees, cells, p):
    """Order-p and order-2p evaluations of the rectangles cells, trees[k]
    the tree of cells[k], by f.values (see _Integrand).  Returns the
    order-2p values and the two-level errors, one row per panel.
    """
    q_lo = f.values(trees, cells, p)
    q_hi = f.values(trees, cells, 2 * p)
    return q_hi, np.abs(q_hi - q_lo)


def _eval_panel_1d(f, trees, cells, p):
    """The 1D twin of _eval_panel_2d, for intervals; a separate name so
    that the two kinds of call can be counted apart."""
    q_lo = f.values(trees, cells, p)
    q_hi = f.values(trees, cells, 2 * p)
    return q_hi, np.abs(q_hi - q_lo)


def _slot_sums(rows):
    """The real parts, imaginary parts and errors of rows (tree, slot, 3,
    label) summed over the slots, (tree, label) each: per tree, bit for bit
    the sums numpy takes of that tree's rows alone, which run in slot order
    for several labels and pairwise for one."""
    if rows.shape[-1] > 1:
        return rows.sum(axis=1).transpose(1, 0, 2)
    return np.ascontiguousarray(rows.transpose(2, 0, 3, 1)).sum(axis=-1)


def _adaptive(f, n_trees, edges_x, edges_y, labels) -> list:
    """n_trees vectors of integrals f (an _Integrand), one entry per label,
    each on its own global-adaptive panel tree as in the module docstring
    (x is bisected on a tie); every tree starts from the same edges, and
    edges_y=None selects the 1D path.

    The trees are refined in lockstep.  In each round every unconverged
    tree bisects its worst panel, and the new panels of all trees are
    evaluated together, at most PANEL_BATCH panels per evaluator call, in
    grid order.  Every live tree gains one panel per round, so all have
    the same count n, and their state is two arrays with one row per live
    tree, in grid order, and one slot per panel: the cells (tree, slot,
    axis, 2) and the rows (tree, slot, 3, label) of the real and imaginary
    parts of the order-2p values and the two-level errors.  A tree's slots
    keep the order a lone tree keeps its panels in: a split shifts the
    slots after the worst panel down by one and appends the two kids, so
    each round rebuilds the state with one more slot and no unused ones.
    One sum over the slot axis (_slot_sums) is then, per tree, the sum a
    lone tree takes of its own rows, bit for bit, and each tree is the one
    it would be alone.  The stop test, the worst-panel argmax (the first
    panel on a tie) and the split run on all live trees at once.  A tree
    that converges leaves the state with its math.fsum sums and its final
    cells.  Once every tree has converged, one f.moduli call at order 2p
    integrates |f| over the final panels of all trees.  Returns, per tree,
    one OracleValue per label, each with that tree's panel count.

    A tree that reaches MAX_PANELS unconverged raises
    QuadratureConvergenceError with its worst entry.  The live trees all
    reach it in the same round, and the error names the first of them in
    grid order: the tree a loop over the trees, one at a time, would fail
    on.
    """
    edges = (edges_x,) if edges_y is None else (edges_x, edges_y)
    evaluate = _eval_panel_1d if edges_y is None else _eval_panel_2d
    # a cell is one (lo, hi) interval per axis
    base = np.array(list(itertools.product(*(itertools.pairwise(e) for e in edges))))
    live = np.arange(n_trees)  # the tree of each row of the state
    cells = np.repeat(base[None], n_trees, axis=0)
    rows = np.empty((n_trees, 0, 3, len(labels)))
    fresh = cells  # the live trees' cells still to evaluate
    done = [None] * n_trees  # per converged tree: its final cells and fsum sums
    while True:
        trees = np.repeat(live, fresh.shape[1])
        batch = fresh.reshape(-1, *base.shape[1:])
        new = np.empty((len(batch), *rows.shape[2:]))
        for i in range(0, len(batch), PANEL_BATCH):
            q, err = evaluate(f, trees[i:i + PANEL_BATCH], batch[i:i + PANEL_BATCH], PANEL_ORDER)
            new[i:i + PANEL_BATCH] = np.stack([q.real, q.imag, err], axis=1)
        rows = np.concatenate([rows, new.reshape(len(live), -1, *new.shape[1:])], axis=1)
        re, im, err = _slot_sums(rows)
        target = np.maximum(REL_TOL * np.hypot(re, im), ABS_FLOOR)
        unconverged = err > target
        going = unconverged.any(axis=1)
        if not going.all():
            for i in np.flatnonzero(~going):
                done[live[i]] = cells[i].copy(), [
                    list(map(math.fsum, part)) for part in rows[i].transpose(2, 1, 0).tolist()]
            live, cells, rows = live[going], cells[going], rows[going]
            err, target, unconverged = err[going], target[going], unconverged[going]
            if not len(live):
                break
        n = cells.shape[1]
        if n >= MAX_PANELS:
            k = int(np.argmax(np.where(unconverged[0], err[0] / target[0], -1.0)))
            what = labels[k]
            tot = complex(math.fsum(rows[0, :, 0, k]), math.fsum(rows[0, :, 1, k]))
            raise QuadratureConvergenceError(
                f"{what}: error estimate {err[0, k]:.3g} above target after "
                f"{n} panels; partial value of {what} = {tot:.6g}",
                tot,
                float(err[0, k]),
            )
        ratio = np.where(unconverged[:, None], rows[:, :, 2] / target[:, None], -1.0)
        worst = ratio.max(axis=2).argmax(axis=1)
        at = np.arange(len(live))
        cell = cells[at, worst]
        k = np.argmax(cell[:, :, 1] - cell[:, :, 0], axis=1)
        fresh = np.repeat(cell[:, None], 2, axis=1)
        fresh[at, 0, k, 1] = fresh[at, 1, k, 0] = 0.5 * (cell[at, k, 0] + cell[at, k, 1])
        # shift out the worst panel: the slots after it move down by one
        i, j = np.nonzero(np.arange(n - 1) >= worst[:, None])
        cells[i, j], rows[i, j] = cells[i, j + 1], rows[i, j + 1]
        cells = np.concatenate([cells[:, :-1], fresh], axis=1)
        rows = rows[:, :-1]
    final = [c for c, _ in done]
    mags = f.moduli(np.repeat(np.arange(n_trees), [len(c) for c in final]),
                    np.concatenate(final), 2 * PANEL_ORDER)
    out, lo = [], 0
    for c, sums in done:
        mag = mags[lo:lo + len(c)].T.tolist()
        lo += len(c)
        out.append([OracleValue(complex(a, b), e, len(c), math.fsum(m))
                    for (a, b, e), m in zip(sums, mag)])
    return out


# ---------------------------------------------------------------------------
# Defining-integral integrands
# ---------------------------------------------------------------------------


def _integrand_inputs(g):
    """beta, gamma, lambda1 and lambda2 of each point of g (one for a float
    g), as arrays indexed by tree, and g's bump profile."""
    beta = np.array(g.beta, dtype=float, ndmin=1)
    # Per point in Python floats, K**2 libm's pow as in geoamp's p2: a
    # point's gamma is the same in an array g as alone.  GeoCoefficientInputs
    # rejects |s| > 1, so gam2 < 0 only by rounding.
    gamma = np.array([math.sqrt(max(k**2 - b**2, 0.0)) for k, b in
                      zip(np.array(g.bigK, dtype=float, ndmin=1).tolist(), beta.tolist())])
    lambda1, lambda2 = (np.broadcast_to(np.asarray(w, dtype=float), beta.shape)
                        for w in (g.lambda1, g.lambda2))
    return beta, gamma, lambda1, lambda2, BumpProfile(delta=math.sqrt(g.eta))


def _cell_grids(profile, cells, order):
    """The order x order tensor grid of each 2D cell: its nodes x, y and
    weights wx, wy, one row per cell, and on the grid a/r^2, b/r^2 and the
    curvature parts c1, c2 of c = lambda1 c1 + lambda2 c2."""
    (x, wx), (y, wy) = _nodes(cells[:, 0], order), _nodes(cells[:, 1], order)
    oc = operator_coeffs_first_order(np.hypot(x[:, :, None], y[:, None, :]), profile)
    return x, wx, y, wy, oc.a_over_r2, oc.b_over_r2, oc.c1, oc.c2


def _cell_basis(profile, cells, order):
    """Everything of a cell's order-`order` panel value that no tree
    changes, one (9, order) row block per cell: x, wx, then the y
    contractions against wy of a, a y, a y^2, b, b y, c1 and c2
    (a = a/r^2, b = b/r^2, c1, c2 as in _cell_grids)."""
    x, wx, y, wy, a, b, c1, c2 = _cell_grids(profile, cells, order)
    y, wy = y[:, None, :], wy[:, :, None]
    ay = a * y
    return np.stack([x, wx, *((v @ wy)[..., 0] for v in (a, ay, ay * y, b, b * y, c1, c2))],
                    axis=1)


def _combine(basis, beta, gamma, lambda1, lambda2):
    """(G0, G1), the y-contracted F0 and F1 on the x nodes of each panel,
    from its cell's _cell_basis rows and its tree's beta, gamma and
    curvature weights (one per panel, broadcast against the nodes):

        G0 = -beta^2 x^2 int a - gamma^2 int a y^2 + lambda1 int c1
             + lambda2 int c2 + i gamma int b y,
        G1 = -2 beta gamma x int a y + i beta x int b.
    """
    x, _, a, ay, ay2, b, by, c1, c2 = basis.transpose(1, 0, 2)
    g0, g1 = np.empty((2, *x.shape), complex)
    g0.real = -(beta**2) * x * x * a - gamma**2 * ay2 + lambda1 * c1 + lambda2 * c2
    g0.imag = gamma * by
    g1.real = -2.0 * beta * gamma * x * ay
    g1.imag = beta * x * b
    return g0, g1


def _piece_factors(alphas, x, beta):
    """The bra and the ket x factors of the pieces (None, *alphas) at the
    nodes x, each stacked over the pieces on the second-last axis:
    e^{i beta x} for the plane wave on either side, e^{i beta |x - a|} for
    a ket kink at a and its conjugate e^{-i beta |x - a|} for a bra kink.
    One complex exponential per piece."""
    ket = np.exp(1j * beta * np.stack([x, *(np.abs(x - a) for a in alphas)], axis=-2))
    return np.concatenate([ket[..., :1, :], ket[..., 1:, :].conj()], axis=-2), ket


def _ket_signs(kets, cells):
    """sg of every ket on every panel: 1 for the plane wave, the sign of
    x - a on the panel for a kink at a (read at the panel's midpoint)."""
    mid = 0.5 * (cells[:, 0, 0] + cells[:, 0, 1])
    return np.stack([np.ones_like(mid) if b is None else np.copysign(1.0, mid - b)
                     for b in kets], axis=-1)


def _table_integrand(u, v, g):
    """The integrand of <U| L |V> for the amplitude matrices u and v,
    (tree, state, piece) arrays over the pieces (None, *g.alphas), every
    bra state against every ket state flattened row by row, each panel at
    the point t of g that its tree t belongs to: the factored table of the
    module docstring, U applied to the bra factors and V to the ket
    factors times G0 + sg G1 (not at U = V = 1, where they change no bit).

    A panel's values split into its cell's _cell_basis, which no tree
    changes and which is kept, per cell and Gauss order, for the life of
    the integrand, and its tree's _combine of it: O(p (N + 1)) per panel.
    The piece moduli M, |F0 + sg F1| = |c - a w^2 + i b w| with
    w = sg beta x + gamma y, take the 2D grid: it is built once per
    distinct cell of a call and not kept; a pair of states takes
    |U| M |V|^T of them."""
    betas, gammas, lambda1, lambda2, profile = _integrand_inputs(g)
    pieces = (None, *g.alphas)
    # at U = V = 1, the piece table, the products would change no bit
    identity = all(w.shape[1] == len(pieces) and (w == np.eye(len(pieces))).all() for w in (u, v))
    basis = {}  # (cell bounds, order) -> its _cell_basis rows

    def values(t, cells, order):
        keys = [(c.tobytes(), order) for c in cells]
        new = {k: c for k, c in zip(keys, cells) if k not in basis}
        if new:
            todo = np.array(list(new.values()))
            basis.update(zip(new, itertools.chain.from_iterable(
                _cell_basis(profile, todo[i:i + GRID_BATCH], order)
                for i in range(0, len(todo), GRID_BATCH))))
        rows = np.array([basis[k] for k in keys])
        g0, g1 = _combine(rows, *(w[t][:, None] for w in (betas, gammas, lambda1, lambda2)))
        x, wx, beta = rows[:, 0], rows[:, 1], betas[t][:, None, None]
        sg = _ket_signs(pieces, cells)[:, :, None]
        bra, ket = _piece_factors(g.alphas, x, beta)
        ket = ket * (g0[:, None] + sg * g1[:, None])
        if not identity:
            bra, ket = u[t] @ bra, v[t] @ ket
        table = (bra * wx[:, None, :]) @ ket.transpose(0, 2, 1)
        return table.reshape(len(t), -1)

    def moduli(t, cells, order):
        # with return_inverse np.unique also stays off its hash path, whose
        # first call imports numpy.ma (13 ms and 0.8 MB of a cold process)
        distinct, cell_of = np.unique(cells.reshape(len(cells), -1), axis=0, return_inverse=True)
        out = np.empty((len(cells), 2))  # int |F0 + F1| and int |F0 - F1|
        # one grid per distinct cell, broadcast over its panels GRID_BATCH at a time
        for k, cell in enumerate(distinct):
            x, wx, y, wy, a, b, c1, c2 = _cell_grids(profile, cell.reshape(1, 2, 2), order)
            on_cell = np.flatnonzero(cell_of.ravel() == k)
            for i in range(0, len(on_cell), GRID_BATCH):
                panels = on_cell[i:i + GRID_BATCH]
                tt = t[panels][:, None, None]
                c = lambda1[tt] * c1
                c += lambda2[tt] * c2
                bx, gy = betas[tt] * x[:, :, None], gammas[tt] * y[:, None, :]
                f = np.empty(c.shape, complex)
                for j, sign in enumerate((1.0, -1.0)):
                    w = sign * bx + gy
                    np.multiply(b, w, out=f.imag)
                    w *= w
                    w *= a
                    np.subtract(c, w, out=f.real)  # f = c - a w^2 + i b w
                    np.abs(f, out=w)
                    out[panels, j] = (wx[:, None, :] @ w @ wy[:, :, None])[:, 0, 0]
        # M[p, q] is its ket's modulus for every bra p
        mag = np.where(_ket_signs(pieces, cells) > 0.0, out[:, :1], out[:, 1:])
        bras = np.abs(u[t]).sum(axis=2)
        kets = (np.abs(v[t]) @ mag[:, :, None])[:, :, 0]
        return (bras[:, :, None] * kets[:, None, :]).reshape(len(t), -1)

    return _Integrand(values, moduli)


def _line_integrand(kinks, eta):
    """The integrand of int a/r^2(a, y) dy along each defect line x = a in
    kinks: a ket kink at a adds 2 i beta a^2 bra(a) times it to the entry
    of every bra.  a/r^2 depends on the bump (eta) alone, not on beta, K or
    the curvature weights, so one tree serves every point.  It is not
    negative, so each integral is also the integral of its modulus."""
    profile = BumpProfile(delta=math.sqrt(eta))
    a = np.asarray(kinks, dtype=float)[:, None]

    def psi(t, cells, order):
        y, wy = _nodes(cells[:, 0], order)
        F = operator_coeffs_first_order(np.hypot(a, y[:, None, :]), profile).a_over_r2
        return (F @ wy[:, :, None])[:, :, 0]

    return _Integrand(psi, psi)


def _panel_edges(g: GeoCoefficientInputs):
    """Base panel edges of the box [-r, r]^2, r = BOX_MARGIN + max|alpha|:
    x breaks at 0 and at the defects, y breaks at 0."""
    rmax = BOX_MARGIN + max((abs(a) for a in g.alphas), default=0.0)
    interior = sorted({0.0, *g.alphas})
    edges_x = [-rmax] + [v for v in interior if -rmax < v < rmax] + [rmax]
    return edges_x, [-rmax, 0.0, rmax]


def _integrate_states(u, v, g, labels) -> list:
    """<U| L |V> for the amplitude matrices u and v, (tree, state, piece)
    arrays over the pieces (None, *g.alphas), one tree per point of g (one
    for a float g): per point the table of every bra state i against
    every ket state j, labeled labels[i][j].  The smooth parts are on one
    2D tree per point, refined in lockstep; the line terms of the kinks
    on one 1D tree that every point shares, taken only if some ket state
    holds a kink.  Ket state j adds, for every kink n it holds,
    V[j, n+1] 2 i beta a_n^2 (U bra)_i(a_n) times line n; its entries
    then count both trees' panels."""
    edges_x, edges_y = _panel_edges(g)
    smooth = _adaptive(_table_integrand(u, v, g), len(u), edges_x, edges_y,
                       [what for row in labels for what in row])
    tables = [[entries[i:i + v.shape[1]] for i in range(0, len(entries), v.shape[1])]
              for entries in smooth]
    if not v[:, :, 1:].any():
        return tables
    at = np.array(g.alphas)
    [lines] = _adaptive(_line_integrand(at, g.eta), 1, edges_y, None,
                        [_label(g, None, a) + " (line term)" for a in g.alphas])
    betas = np.array(g.beta, dtype=float, ndmin=1)
    bra_at = u @ _piece_factors(g.alphas, at, betas[:, None, None])[0]
    for beta, table, bra, amps in zip(betas.tolist(), tables, bra_at, v[:, :, 1:].tolist()):
        # Python complex weights, so the merged entries hold Python numbers
        weights = (2j * beta * at**2 * bra).tolist()
        for j, amp in enumerate(amps):
            held = [(n, a) for n, a in enumerate(amp) if a]  # the kinks ket state j holds
            if not held:
                continue
            for row, row_weights in zip(table, weights):
                ov = row[j]
                value, err, mod = ov.value, ov.err_est, ov.abs_integral
                for n, a in held:
                    c = a * row_weights[n]
                    value += c * lines[n].value
                    err += abs(c) * lines[n].err_est
                    mod += abs(c) * lines[n].abs_integral
                row[j] = OracleValue(value, err, ov.panels + lines[0].panels, mod)
    return tables


def _integrate_pair(bra, ket, g: GeoCoefficientInputs, what: str) -> OracleValue:
    """Integral of bra piece `bra` against ket piece `ket` (kink positions,
    or None for the plane wave) at the float g, labeled `what`: the
    one-hot case of <U| L |V>."""
    one_hot = np.eye(len(g.alphas) + 1)[None, [(None, *g.alphas).index(p) for p in (bra, ket)]]
    return _integrate_states(one_hot[:, :1], one_hot[:, 1:], g, [[what]])[0][0][0]


def _label(g: GeoCoefficientInputs, bra, ket) -> str:
    """I0, Imn[n], Jmn[n] or I4 base[m,n] by the kink indices in g.alphas."""
    index = g.alphas.index
    if bra is None:
        return "I0" if ket is None else f"Jmn[{index(ket)}]"
    if ket is None:
        return f"Imn[{index(bra)}]"
    return f"I4 base[{index(bra)},{index(ket)}]"


def integral_table(g: GeoCoefficientInputs) -> list:
    """The (N+1) x (N+1) table of g's pieces, 0 the plane wave and n + 1 the
    kink at alpha_n, every phase position at 0: T[0][0] is I0, T[n+1][0]
    the bra kink I~_n, T[0][n+1] the ket kink J~_n and T[m+1][n+1] the kink
    pair C[m, n].  The quadrature of geoamp.coefficient_table, all entries
    of a point on one shared panel tree: <U| L |V> at U = V = 1.  A float
    g gives its table; an array g one table per point, all trees refined
    in one lockstep loop, each the table of that point alone."""
    pieces = (None, *g.alphas)
    labels = [[_label(g, bra, ket) for ket in pieces] for bra in pieces]
    eye = np.broadcast_to(np.eye(len(pieces)), (np.size(g.beta), len(pieces), len(pieces)))
    tables = _integrate_states(eye, eye, g, labels)
    return tables[0] if np.ndim(g.beta) == 0 else tables


# ---------------------------------------------------------------------------
# Full-assembly oracle
# ---------------------------------------------------------------------------


def assemble_f1_oracle(
    kin: Kinematics,
    defects: DefectSet,
    eta: float,
    lambda1: float,
    lambda2: float,
) -> OracleValue:
    """f1 as one quadrature of the physical states, with no closed form.

    Shares only the defect-matrix algebra with the engine: the outgoing
    bra state u = (1, -i Ainv_out e) and the incoming ket state
    v = (1, -i Ainv_in e) over the pieces (None, *alphas), with
    e_n = e^{i beta a_n} and each Ainv e taken by
    build_defect_matrix(...).weights, make one <u| L |v> on one 2D tree
    and, at N >= 1, one 1D tree of the N line integrals.  f1 is that
    integral times -e^{i pi/4} / (2 sqrt(2 pi K)).  So the engine's
    reduction to the table, its contraction, its fsum and its prefactor
    are all checked.

    err_est is the integral's two-level estimate (and the line integrals'
    estimates weighted by the moduli of their weights).  abs_integral is
    |u| M |v|^T plus the line terms' moduli, M the piece moduli of
    integral_table: a triangle-inequality bound on the integral of the
    modulus.  Both carry the prefactor's modulus.  panels counts both
    trees.
    """
    g = GeoCoefficientInputs(
        s=kin.s, bigK=kin.bigK, alphas=defects.positions,
        eta=eta, lambda1=lambda1, lambda2=lambda2,
    )
    e = np.exp(1j * g.beta * np.array(g.alphas))
    u, v = (np.concatenate([[1.0], -1j * build_defect_matrix(kx, defects).weights(e)])[None, None]
            for kx in (kin.kx_out, kin.kx))
    [[[ov]]] = _integrate_states(u, v, g, [["f1 bracket"]])
    pref = -0.5 * complex(np.exp(1j * math.pi / 4.0)) / math.sqrt(2.0 * math.pi * kin.bigK)
    return OracleValue(value=pref * ov.value, err_est=abs(pref) * ov.err_est, panels=ov.panels,
                       abs_integral=abs(pref) * ov.abs_integral)


# ---------------------------------------------------------------------------
# Structured verification
# ---------------------------------------------------------------------------


class VerificationRecord(NamedTuple):
    """Closed form vs quadrature at one grid point for one coefficient.

    judged is "relative" when rel_err decided the verdict and "resolution"
    when the oracle value was no larger than its roundoff floor resolution,
    so that |closed - oracle| <= resolution decided it (see verify_all).
    panels is the oracle entry's panel count (OracleValue.panels: a ket
    kink's entry counts its 2D tree and the line tree); line() omits it.
    A named tuple: immutable, and one tuple construction per record.
    """

    coefficient: str
    s: float
    bigK: float
    lambda1: float
    lambda2: float
    alphas: tuple
    indices: tuple
    oracle: complex
    err_est: float
    closed: complex
    rel_err: float
    passed: bool
    judged: str
    resolution: float
    panels: int

    def line(self) -> str:
        idx = ",".join(str(i) for i in self.indices)
        if self.judged == "relative":
            err = f"rel_err={self.rel_err:.3e}"
        else:
            err = f"abs_err={abs(self.closed - self.oracle):.3e}"
        return (
            f"coefficient={self.coefficient} s={self.s:g} K={self.bigK:g} "
            f"l1={self.lambda1:g} l2={self.lambda2:g} "
            f"alphas={','.join(f'{a:g}' for a in self.alphas)} idx=({idx}) "
            f"oracle_err={self.err_est:.2e} judged={self.judged} "
            f"R={self.resolution:.2e} {err} pass={self.passed}"
        )


@dataclass
class VerificationReport:
    """All records of a verify run plus aggregate outcome."""

    records: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def n_failed(self) -> int:
        return sum(0 if r.passed else 1 for r in self.records)

    def worst(self) -> dict:
        """Largest relative error per family, over relatively judged records."""
        out = {}
        for r in self.records:
            if r.judged != "relative":
                continue
            out[r.coefficient] = max(out.get(r.coefficient, 0.0), r.rel_err)
        return out

    def summary(self) -> dict:
        """The aggregate counts, and under worst_rel_err the worst relative
        error of each family (see worst)."""
        by_floor = [r for r in self.records if r.judged == "resolution"]
        return {
            "records": len(self.records),
            "failed": self.n_failed,
            "all_passed": self.all_passed,
            "resolution_judged": len(by_floor),
            "resolution_failed": sum(0 if r.passed else 1 for r in by_floor),
            "worst_rel_err": self.worst(),
        }

    def summary_lines(self) -> list:
        """The aggregate lines: one summary line, then the worst relative
        error of each family."""
        s = self.summary()
        return [
            f"summary records={s['records']} failed={s['failed']} "
            f"all_passed={s['all_passed']} "
            f"resolution_judged={s['resolution_judged']} "
            f"resolution_failed={s['resolution_failed']}",
            *(f"worst coefficient={fam} rel_err={err:.3e}"
              for fam, err in sorted(s["worst_rel_err"].items())),
        ]

    def to_text(self) -> str:
        """One line per record, then the summary lines."""
        return "\n".join([*(r.line() for r in self.records), *self.summary_lines()])

    def to_json(self) -> str:
        """Every field of every record (a complex value as [re, im], a tuple
        as a list) and the summary, as JSON.  Floats are written by repr, so
        they read back bit for bit."""
        import json  # here, so that reports never written as JSON do not load it

        def value(x):
            if isinstance(x, complex):
                return [x.real, x.imag]
            return list(x) if isinstance(x, tuple) else x

        records = [{name: value(x) for name, x in zip(r._fields, r)} for r in self.records]
        return json.dumps({"summary": self.summary(), "records": records}) + "\n"


def default_verification_grid():
    """Full acceptance grid: every s, K, curvature setting, offset combo."""
    return {
        "s": (0.0, 0.3, 0.7, 1.0),
        "bigK": (0.5, 1.0, 2.0),
        "lambdas": ((0.5, -0.5), (0.0, -0.5), (0.5, 0.0), (0.5, 0.5)),
        "alphas": (-3.0, 0.0, 3.0),
        "eta": 0.1,
    }


# The two values of VerificationRecord.judged, indexed by whether the
# resolution judged: an object array, so indexing it gives the strings.
_JUDGED = np.array(["relative", "resolution"], dtype=object)


def _pass_rule(oracle, closed, phases, phased, resolution):
    """verify_all's pass rule on (grid point, record) arrays.  Multiplies
    the oracle and closed values by their phases where phased, in Python's
    complex product (geoamp._cmul), and returns their real and imaginary
    parts, rel_err, passed and whether the resolution judged.  |z| is
    np.hypot, which is Python's abs of a complex bit for bit."""
    (qr, qi), (cr, ci) = (
        np.where(phased, _cmul(np.stack([phases.real, phases.imag]), z), z)
        for z in (np.stack([v.real, v.imag]) for v in (oracle, closed)))
    size, diff = np.hypot(qr, qi), np.hypot(cr - qr, ci - qi)
    rel_err = diff / np.maximum(size, VERIFY_ATOL)
    by_floor = size <= resolution
    passed = np.where(by_floor, diff <= resolution, rel_err <= VERIFY_RTOL)
    return qr, qi, cr, ci, rel_err, passed, by_floor


def verify_all(grid: dict | None = None) -> VerificationReport:
    """Compare every closed-form coefficient against quadrature on a grid
    (default_verification_grid when None).

    One array GeoCoefficientInputs holds every grid point's s, K and
    curvature weights.  The closed (N+1) x (N+1) tables of all grid points
    come from one geoamp.coefficient_table call on it, and the quadrature
    tables from one integral_table call (one lockstep loop, see the module
    docstring).  An invalid grid point raises before any quadrature, and a
    QuadratureConvergenceError names the first grid point, in grid order,
    whose tree overruns.  The records
    keep the four coefficient families of the index-tuple expansion of f1:
    I0 = T[0][0] and, with e_n = e^{i beta a_n},

        Imn[m, n] = e_m T[n+1][0],   Jmn[m, n] = e_m T[0][n+1],
        Immnn[m, m', n, n'] = e_m' e_n' T[m+1][n+1],

    each record multiplying its closed and its oracle entry by the same
    phase, e^{i beta (sum of its phase positions)} from one array of the
    phases of all grid points.

    The records are judged as (grid point, record) arrays (_pass_rule):
    the phase products in real arithmetic, Python's complex * (the
    arithmetic of geoamp._cmul), the moduli by np.hypot, Python's abs
    of a complex bit for bit, then rel_err, judged and passed.  All
    records of a call are then built in one pass, VerificationRecord._make
    over the zipped .tolist() columns of those arrays (the complex values
    assembled by assigning their real and imaginary parts), so each holds
    Python numbers and the same bits as the rule applied to one record at
    a time.

    Pass rule, per closed value c against the oracle value q, with
    rtol = VERIFY_RTOL = 1e-6 and atol = VERIFY_ATOL = 1e-10 (every record
    keeps its rel_err, so a report can be judged under another tolerance
    afterwards):

    * relative: if |q| > R, c matches when |c - q| / max(|q|, atol) <= rtol.
      atol is a floor on the relative-error scale, not a numpy-style
      absolute tolerance: below |q| = atol the check demands
      |c - q| <= rtol * atol.
    * resolution: if |q| <= R, q is rounding noise and c matches only when
      |c - q| <= R; rtol and atol play no part.

    R = 2p * eps * int|f| is the oracle's roundoff floor
    (_resolution, p = PANEL_ORDER), about 2.6e-15 at the
    grid point s = 0, K = 1, lambdas = (0.5, 0.5), whose exact value is 0.

    Records land in deterministic grid order.
    """
    grid = grid or default_verification_grid()
    report = VerificationReport()
    alphas = tuple(sorted(grid["alphas"]))
    npos = len(alphas)
    points = [(s, bigK, l1, l2) for s, bigK, (l1, l2) in
              itertools.product(grid["s"], grid["bigK"], grid["lambdas"])]
    if not points:
        return report
    s, bigK, l1, l2 = np.array(points, dtype=float).T
    g = GeoCoefficientInputs(s=s, bigK=bigK, alphas=alphas, eta=grid.get("eta", 0.1),
                             lambda1=l1, lambda2=l2)
    # the closed tables as (grid point, flat table entry)
    closed = np.moveaxis(np.array(coefficient_table(g), dtype=complex), -1, 0).reshape(
        len(points), -1)
    # the records of a grid point: family, indices, flat table entry and
    # phase position, an index into positions: 0 for I0, which takes no
    # phase, then a_m and a_m' + a_n'
    positions = np.array([0.0, *(sum(p) for p in itertools.chain(
        itertools.product(alphas), itertools.product(alphas, repeat=2)))])
    families, indices, entry, phase = ["I0"], [()], [0], [0]
    for m, n in itertools.product(range(npos), repeat=2):
        families += ["Imn", "Jmn"]
        indices += [(m, n)] * 2
        entry += [(n + 1) * (npos + 1), n + 1]
        phase += [1 + m] * 2
    for m, mp, n, np_ in itertools.product(range(npos), repeat=4):
        families.append("Immnn")
        indices.append((m, mp, n, np_))
        entry.append((m + 1) * (npos + 1) + n + 1)
        phase.append(1 + npos + mp * npos + np_)
    ovs = [ov for table in integral_table(g) for row in table for ov in row]
    oracle, err_est, abs_integral, panels = (
        np.array([getattr(ov, name) for ov in ovs]).reshape(len(points), -1)
        for name in ("value", "err_est", "abs_integral", "panels"))
    phase = np.array(phase)
    phases = np.exp(1j * g.beta[:, None] * positions)[:, phase]
    resolution = _resolution(abs_integral[:, entry])
    qr, qi, cr, ci, rel_err, passed, by_floor = _pass_rule(
        oracle[:, entry], closed[:, entry], phases, phase > 0, resolution)
    # the records as columns in field order, one row per record: the
    # complex values take their parts by assignment, which keeps every bit
    # (a signed zero too), and .tolist() gives each field its Python type
    values = np.empty((2, *qr.shape), dtype=complex)
    values.real, values.imag = (qr, cr), (qi, ci)
    per_point = np.repeat(np.array(points, dtype=object), len(entry), axis=0)
    report.records = list(map(VerificationRecord._make, zip(
        families * len(points), *per_point.T.tolist(), itertools.repeat(alphas),
        indices * len(points), values[0].ravel().tolist(), err_est[:, entry].ravel().tolist(),
        values[1].ravel().tolist(), rel_err.ravel().tolist(), passed.ravel().tolist(),
        _JUDGED[by_floor.astype(np.intp)].ravel().tolist(), resolution.ravel().tolist(),
        panels[:, entry].ravel().tolist())))
    return report
