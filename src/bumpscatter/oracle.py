"""Independent adaptive-quadrature oracle for the closed-form coefficients.

Every closed form in bumpscatter.geoamp is a Gaussian-moment evaluation of a
defining integral of the shape

    C = int dx dy  bra(x, y) * (L ket)(x, y),

where bra and ket are the plane-wave or kink pieces of the exact
unperturbed states, named as in geoamp by a kink position or None for the
plane wave (the bra side already conjugated: its y factor is
e^{-i gamma y}, its kink factor e^{-i beta |x - a|}), and L is the
first-order curvature operator from bumpscatter.surface applied in
Cartesian form,

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

Phase rule: a phase position a' enters a defining integral only as the
constant factor e^{i beta a'}.  Every integral is taken with its phase
positions at 0, once per entry of the (N+1) x (N+1) table of plane (0) and
kink (n + 1) pieces that geoamp contracts (integral_table, the quadrature
twin of geoamp.coefficient_table), and the exact phase multiplies the
result outside the quadrature.

The integrator is a global-adaptive tensor-product Gauss-Legendre scheme:
the domain [-r_max, r_max]^2 starts as a grid of panels whose edges include
every defect position and x = 0 / y = 0 (so integrand kinks always lie on
panel boundaries), each panel is scored by the difference between its
order-p and order-2p evaluations, and the worst panel is bisected along
its longer side until the summed error estimate meets the tolerance.  The
reported err_est is that summed two-level difference.  Panel contributions
are summed with math.fsum (real and imaginary parts separately), which is
exactly rounded and so independent of the order the panels end up in.

This module is intentionally independent of the closed forms: it never
calls geoamp internals, only mirrors the defining integrals.  verify_all
evaluates both tables and reports coefficient-by-coefficient agreement.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .defects import DefectSet, Kinematics, build_defect_matrix
from .geoamp import GeoCoefficientInputs, coefficient_table
from .surface import BumpProfile, CurvatureCoefficients, operator_coeffs_first_order

__all__ = [
    "QuadratureSpec",
    "OracleValue",
    "QuadratureConvergenceError",
    "integral_table",
    "integrate_Jmn_mollified",
    "assemble_f1_oracle",
    "VerificationRecord",
    "VerificationReport",
    "verify_all",
    "default_verification_grid",
    "reduced_verification_grid",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the adaptive panel integrator.

    r_max = None means 12 + max|alpha| (the integrand carries e^{-r^2}, so
    the tail beyond ~10 is far below double precision).  rel_tol is the
    target for the summed two-level error estimate relative to the result;
    abs_floor protects coefficients that are legitimately ~0.  max_panels
    bounds the refinement; exceeding it raises QuadratureConvergenceError.
    panel_order is the base Gauss-Legendre order p (the value estimate uses
    2p).
    """

    r_max: float | None = None
    rel_tol: float = 1e-8
    abs_floor: float = 1e-13
    max_panels: int = 6000
    panel_order: int = 12

    def resolve_r_max(self, alphas=()) -> float:
        if self.r_max is not None:
            return float(self.r_max)
        biggest = max((abs(a) for a in alphas), default=0.0)
        return 12.0 + biggest


@dataclass(frozen=True)
class OracleValue:
    """A quadrature result with its two-level error estimate.

    abs_integral is the integral of |integrand| over the same panels, taken
    from the order-2p panel values.  It sets the roundoff floor of the
    result: each panel value is two length-2p dot products, so summing the
    panels loses up to about 2p * eps * abs_integral (the gamma_4p bound of
    Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1).  A
    value no larger than that floor cannot be told apart from zero;
    verify_all judges such values against the floor instead of relatively.
    """

    value: complex
    err_est: float
    panels: int
    abs_integral: float

    def resolution(self, spec: QuadratureSpec) -> float:
        """Roundoff floor 2p * eps * abs_integral of this value."""
        return 2 * spec.panel_order * _EPS * self.abs_integral


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


def _leggauss(n: int):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _eval_panel_2d(f, ax, bx, ay, by, p):
    """Order-p and order-2p tensor evaluations of one rectangle.

    Returns the order-2p value, the two-level error and the order-2p
    integral of |f| over the rectangle.
    """
    scale = 0.25 * (bx - ax) * (by - ay)
    out = []
    for order in (p, 2 * p):
        x, wx = _leggauss(order)
        xm = 0.5 * (ax + bx) + 0.5 * (bx - ax) * x
        ym = 0.5 * (ay + by) + 0.5 * (by - ay) * x
        F = f(xm[:, None], ym[None, :])
        out.append(scale * complex(wx @ F @ wx))
    q_lo, q_hi = out
    return q_hi, abs(q_hi - q_lo), scale * float(wx @ np.abs(F) @ wx)


def _eval_panel_1d(f, a, b, p):
    scale = 0.5 * (b - a)
    out = []
    for order in (p, 2 * p):
        x, w = _leggauss(order)
        xm = 0.5 * (a + b) + 0.5 * (b - a) * x
        F = f(xm)
        out.append(scale * complex(w @ F))
    q_lo, q_hi = out
    return q_hi, abs(q_hi - q_lo), scale * float(w @ np.abs(F))


def _adaptive(f, edges_x, edges_y, spec: QuadratureSpec, what: str) -> OracleValue:
    """Global-adaptive integration; edges_y=None selects the 1D path."""
    p = spec.panel_order
    two_d = edges_y is not None
    heap = []
    seq = 0
    if two_d:
        for ax, bx in zip(edges_x, edges_x[1:]):
            for ay, by in zip(edges_y, edges_y[1:]):
                val, err, mag = _eval_panel_2d(f, ax, bx, ay, by, p)
                heapq.heappush(heap, (-err, seq, ax, bx, ay, by, val, mag))
                seq += 1
    else:
        for a, b in zip(edges_x, edges_x[1:]):
            val, err, mag = _eval_panel_1d(f, a, b, p)
            heapq.heappush(heap, (-err, seq, a, b, 0.0, 0.0, val, mag))
            seq += 1

    def totals():
        tot = complex(math.fsum(e[6].real for e in heap),
                      math.fsum(e[6].imag for e in heap))
        err = math.fsum(-e[0] for e in heap)
        return tot, err

    tot, err = totals()
    while err > max(spec.rel_tol * abs(tot), spec.abs_floor):
        if len(heap) >= spec.max_panels:
            raise QuadratureConvergenceError(
                f"{what}: error estimate {err:.3g} above target after "
                f"{len(heap)} panels; partial value of {what} = {tot:.6g}",
                tot,
                err,
            )
        neg_err, _, ax, bx, ay, by, _, _ = heapq.heappop(heap)
        if two_d:
            if (bx - ax) >= (by - ay):
                mid = 0.5 * (ax + bx)
                kids = [(ax, mid, ay, by), (mid, bx, ay, by)]
            else:
                mid = 0.5 * (ay + by)
                kids = [(ax, bx, ay, mid), (ax, bx, mid, by)]
            for cax, cbx, cay, cby in kids:
                val, perr, mag = _eval_panel_2d(f, cax, cbx, cay, cby, p)
                heapq.heappush(heap, (-perr, seq, cax, cbx, cay, cby, val, mag))
                seq += 1
        else:
            mid = 0.5 * (ax + bx)
            for ca, cb in ((ax, mid), (mid, bx)):
                val, perr, mag = _eval_panel_1d(f, ca, cb, p)
                heapq.heappush(heap, (-perr, seq, ca, cb, 0.0, 0.0, val, mag))
                seq += 1
        tot, err = totals()

    return OracleValue(value=tot, err_est=err, panels=len(heap),
                       abs_integral=math.fsum(e[7] for e in heap))


# ---------------------------------------------------------------------------
# Defining-integral integrands
# ---------------------------------------------------------------------------


def _integrand_inputs(g: GeoCoefficientInputs):
    """beta, gamma, bump profile and curvature weights shared by the integrands."""
    beta = g.beta
    # GeoCoefficientInputs rejects |s| > 1, so gam2 < 0 only by rounding.
    gam2 = g.bigK**2 - beta**2
    return (beta, math.sqrt(max(gam2, 0.0)), BumpProfile(delta=math.sqrt(g.eta)),
            CurvatureCoefficients(g.lambda1, g.lambda2))


def _smooth_integrand(bra, ket, g: GeoCoefficientInputs):
    """Vectorized bra * (L ket) smooth-part integrand on arrays X, Y.

    bra and ket are kink positions, or None for the plane wave: x factor
    e^{i beta x} on either side, e^{-i beta |x - bra|} for a bra kink (the
    conjugated dual) and e^{i beta |x - ket|} for a ket kink.
    """
    beta, gamma, profile, cc = _integrand_inputs(g)

    def f(X, Y):
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        R = np.hypot(X, Y)
        oc = operator_coeffs_first_order(R, profile, cc)
        sg = 1.0 if ket is None else np.sign(X - ket)
        hx = 1j * beta * sg
        hy = 1j * gamma
        quad_part = oc.a_over_r2 * (
            X * X * (-(beta**2))
            + 2.0 * X * Y * (-(beta * gamma) * sg)
            + Y * Y * (-(gamma**2))
        )
        grad_part = oc.b_over_r2 * (X * hx + Y * hy)
        factor = quad_part + grad_part + oc.c
        bra_x = (np.exp(1j * beta * X) if bra is None
                 else np.exp(-1j * beta * np.abs(X - bra)))
        ket_x = np.exp(1j * beta * (X if ket is None else np.abs(X - ket)))
        bra_v = bra_x * np.exp(-1j * gamma * Y)
        ket_v = ket_x * np.exp(1j * gamma * Y)
        return bra_v * factor * ket_v

    return f


def _delta_line_integrand(bra, ket: float, g: GeoCoefficientInputs):
    """1D y-integrand of the line term of a ket kink at `ket`."""
    beta, gamma, profile, cc = _integrand_inputs(g)
    const = 2j * beta * ket * ket
    bra_x = (np.exp(1j * beta * np.array(ket)) if bra is None
             else np.exp(-1j * beta * np.abs(np.array(ket) - bra)))

    def f(Y):
        Y = np.asarray(Y, dtype=float)
        R = np.hypot(ket, Y)
        oc = operator_coeffs_first_order(R, profile, cc)
        bra_v = bra_x * np.exp(-1j * gamma * Y)
        return const * bra_v * oc.a_over_r2 * np.exp(1j * gamma * Y)

    return f


def _combine(a: OracleValue, b: OracleValue) -> OracleValue:
    """Sum of two integrals, with their error estimates and |f| integrals."""
    return OracleValue(
        value=a.value + b.value,
        err_est=a.err_est + b.err_est,
        panels=a.panels + b.panels,
        abs_integral=a.abs_integral + b.abs_integral,
    )


def _phase(g: GeoCoefficientInputs, *positions: float) -> complex:
    """Exact phase e^{i beta (sum of positions)} of the given phase positions."""
    return complex(np.exp(1j * g.beta * sum(positions)))


def _panel_edges(g: GeoCoefficientInputs, spec: QuadratureSpec, points):
    """Base panel edges: x breaks at 0 and at the points inside the box,
    y breaks at 0."""
    rmax = spec.resolve_r_max(g.alphas)
    interior = sorted({0.0, *points})
    edges_x = [-rmax] + [v for v in interior if -rmax < v < rmax] + [rmax]
    return edges_x, [-rmax, 0.0, rmax]


def _integrate_pair(bra, ket, g: GeoCoefficientInputs,
                    spec: QuadratureSpec, what: str) -> OracleValue:
    """Integral of bra piece `bra` against ket piece `ket` (kink positions,
    or None for the plane wave), labeled `what`."""
    kinks = [k for k in (bra, ket) if k is not None]
    edges_x, edges_y = _panel_edges(g, spec, kinks)
    out = _adaptive(_smooth_integrand(bra, ket, g), edges_x, edges_y, spec, what)
    if ket is not None:
        extra = _adaptive(_delta_line_integrand(bra, ket, g), edges_y, None, spec,
                          what + " (line term)")
        out = _combine(out, extra)
    return out


def _kink_integral(g: GeoCoefficientInputs, spec: QuadratureSpec,
                   bra: float | None = None, ket: float | None = None) -> OracleValue:
    """Integral of a bra kink at `bra` against a ket kink at `ket`, every
    phase position at 0; None puts the plane wave on that side.  Labeled
    I0, Imn[n], Jmn[n] or I4 base[m,n] by the kink indices in g.alphas."""
    index = g.alphas.index
    if bra is None:
        label = "I0" if ket is None else f"Jmn[{index(ket)}]"
    elif ket is None:
        label = f"Imn[{index(bra)}]"
    else:
        label = f"I4 base[{index(bra)},{index(ket)}]"
    return _integrate_pair(bra, ket, g, spec, label)


def integral_table(g: GeoCoefficientInputs, spec: QuadratureSpec = QuadratureSpec()):
    """The (N+1) x (N+1) table of g's pieces, 0 the plane wave and n + 1 the
    kink at alpha_n, every phase position at 0: T[0][0] is I0, T[n+1][0]
    the bra kink I~_n, T[0][n+1] the ket kink J~_n and T[m+1][n+1] the kink
    pair C[m, n].  Entry by entry the quadrature of geoamp.coefficient_table."""
    pieces = (None, *g.alphas)
    return [[_kink_integral(g, spec, bra, ket) for ket in pieces] for bra in pieces]


def integrate_Jmn_mollified(g: GeoCoefficientInputs, n: int, width: float,
                            spec: QuadratureSpec = QuadratureSpec()) -> OracleValue:
    """Ket kink n against the plane wave (the table entry T[0][n+1]) with
    its line term's delta(x - a) replaced by a Gaussian of the given
    width, evaluated as a genuine 2D integral.

    Used to confirm the sharp line term: the mollified value approaches it
    as O(width^2).  Returns the smooth part plus the mollified line term,
    with the phase position at 0.
    """
    a = g.alphas[n]
    base = _adaptive(
        _smooth_integrand(None, a, g),
        *_panel_edges(g, spec, [a]),
        spec,
        f"Jmn[{n}] smooth",
    )
    beta, gamma, profile, cc = _integrand_inputs(g)

    def f(X, Y):
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        R = np.hypot(X, Y)
        oc = operator_coeffs_first_order(R, profile, cc)
        moll = np.exp(-((X - a) / width) ** 2) / (width * math.sqrt(math.pi))
        bra_v = np.exp(1j * beta * X) * np.exp(-1j * gamma * Y)
        return 2j * beta * bra_v * oc.a_over_r2 * X * X * moll * np.exp(1j * gamma * Y)

    # the mollifier support needs panel edges at a +- few widths
    edges = _panel_edges(g, spec, [a, a - 6.0 * width, a + 6.0 * width])
    line = _adaptive(f, *edges, spec, "mollified line")
    return _combine(base, line)


# ---------------------------------------------------------------------------
# Full-assembly oracle
# ---------------------------------------------------------------------------


def assemble_f1_oracle(
    kin: Kinematics,
    defects: DefectSet,
    eta: float,
    lambda1: float,
    lambda2: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> OracleValue:
    """f1 with every coefficient taken from quadrature instead of closed form.

    Shares only the defect-matrix algebra with the engine; all scattering
    coefficients are integrated.  This is the engine's bilinear form over
    the (N+1) x (N+1) table T of integral_table, 0 the plane wave and
    n + 1 the kink at alpha_n.  With e_n = e^{i beta a_n}, v = Ainv^T e and
    w = Ainv e, each entry is weighted by

        1 for T[0][0] = I0,   -i v_out[n] for the bra kink T[n+1][0],
        -i v_in[n] for the ket kink T[0][n+1],
        -w_out[m] w_in[n] for the kink pair T[m+1][n+1],

    and the weighted entries are added by math.fsum.  The engine contracts
    w in place of v (A is symmetric); keeping both orientations of the
    inverse here checks that reduction too.

    err_est and abs_integral weigh each integral's estimate by the summed
    modulus of its assembly weights: sum_m |Ainv_out[m,n]| for a bra kink,
    sum_m |Ainv_in[m,n]| for a ket kink, and sum_{m',n'} |Ainv_out[m,m']
    Ainv_in[n,n']| = (sum_m' |Ainv_out[m,m']|) (sum_n' |Ainv_in[n,n']|)
    for a kink pair.
    """
    g = GeoCoefficientInputs(
        s=kin.s, bigK=kin.bigK, alphas=defects.positions,
        eta=eta, lambda1=lambda1, lambda2=lambda2,
    )
    n = defects.n
    coef = np.ones((n + 1, n + 1), dtype=complex)
    weight = np.ones((n + 1, n + 1))
    if n > 0:
        ainv_in = build_defect_matrix(kin.kx, defects).inverse
        ainv_out = build_defect_matrix(kin.kx_out, defects).inverse
        e = np.exp(1j * g.beta * np.array(g.alphas))
        coef[1:, 0], coef[0, 1:] = -1j * (ainv_out.T @ e), -1j * (ainv_in.T @ e)
        coef[1:, 1:] = -np.outer(ainv_out @ e, ainv_in @ e)
        weight[1:, 0], weight[0, 1:] = np.abs(ainv_out).sum(0), np.abs(ainv_in).sum(0)
        weight[1:, 1:] = np.outer(np.abs(ainv_out).sum(1), np.abs(ainv_in).sum(1))
    cells = [(coef[a, b], weight[a, b], ov)
             for a, row in enumerate(integral_table(g, spec)) for b, ov in enumerate(row)]
    values = [c * ov.value for c, _, ov in cells]
    bracket = complex(math.fsum(z.real for z in values), math.fsum(z.imag for z in values))
    total_err = math.fsum(w * ov.err_est for _, w, ov in cells)
    total_abs = math.fsum(w * ov.abs_integral for _, w, ov in cells)
    pref = -0.5 * complex(np.exp(1j * math.pi / 4.0)) / math.sqrt(2.0 * math.pi * kin.bigK)
    return OracleValue(value=complex(pref * bracket), err_est=float(abs(pref) * total_err),
                       panels=sum(ov.panels for *_, ov in cells),
                       abs_integral=float(abs(pref) * total_abs))


# ---------------------------------------------------------------------------
# Structured verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationRecord:
    """Closed form vs quadrature at one grid point for one coefficient.

    judged is "relative" when rel_err decided the verdict and "resolution"
    when the oracle value was no larger than its roundoff floor resolution,
    so that |closed - oracle| <= resolution decided it (see verify_all).
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
    rtol: float = 1e-6
    atol: float = 1e-10

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

    def to_text(self) -> str:
        lines = [r.line() for r in self.records]
        by_floor = [r for r in self.records if r.judged == "resolution"]
        lines.append(
            f"summary records={len(self.records)} failed={self.n_failed} "
            f"all_passed={self.all_passed} "
            f"resolution_judged={len(by_floor)} "
            f"resolution_failed={sum(0 if r.passed else 1 for r in by_floor)}"
        )
        for fam, err in sorted(self.worst().items()):
            lines.append(f"worst coefficient={fam} rel_err={err:.3e}")
        return "\n".join(lines)


def default_verification_grid():
    """Full acceptance grid: every s, K, curvature setting, offset combo."""
    return {
        "s": (0.0, 0.3, 0.7, 1.0),
        "bigK": (0.5, 1.0, 2.0),
        "lambdas": ((0.5, -0.5), (0.0, -0.5), (0.5, 0.0), (0.5, 0.5)),
        "alphas": (-3.0, 0.0, 3.0),
        "eta": 0.1,
    }


def reduced_verification_grid():
    """Smaller grid for routine runs: all s and curvature settings, K = 1."""
    return {
        "s": (0.0, 0.7, 1.0),
        "bigK": (1.0,),
        "lambdas": ((0.5, -0.5), (0.0, -0.5), (0.5, 0.5)),
        "alphas": (-3.0, 0.0, 3.0),
        "eta": 0.1,
    }


def _rel_err(closed: complex, oracle: complex, atol: float) -> float:
    scale = max(abs(oracle), atol)
    return abs(closed - oracle) / scale


def verify_all(
    grid: dict | None = None,
    spec: QuadratureSpec = QuadratureSpec(),
    rtol: float = 1e-6,
    atol: float = 1e-10,
    progress=None,
) -> VerificationReport:
    """Compare every closed-form coefficient against quadrature on a grid.

    Per grid point, geoamp.coefficient_table and integral_table each build
    the (N+1) x (N+1) table once.  The records keep the four coefficient
    families of the index-tuple expansion of f1: I0 = T[0][0] and, with
    e_n = e^{i beta a_n},

        Imn[m, n] = e_m T[n+1][0],   Jmn[m, n] = e_m T[0][n+1],
        Immnn[m, m', n, n'] = e_m' e_n' T[m+1][n+1],

    each record multiplying its closed and its oracle entry by the same
    phase.

    Pass rule, per closed value c against the oracle value q:

    * relative: if |q| > R, c matches when |c - q| / max(|q|, atol) <= rtol.
      atol is a floor on the relative-error scale, not a numpy-style
      absolute tolerance: below |q| = atol the check demands
      |c - q| <= rtol * atol.
    * resolution: if |q| <= R, q is rounding noise and c matches only when
      |c - q| <= R; rtol and atol play no part.

    R = 2p * eps * int|f| is the oracle's roundoff floor
    (OracleValue.resolution, p = spec.panel_order), about 2.6e-15 at the
    grid point s = 0, K = 1, lambdas = (0.5, 0.5), whose exact value is 0.

    Records land in deterministic grid order.
    """
    grid = grid or default_verification_grid()
    report = VerificationReport(rtol=rtol, atol=atol)
    alphas = tuple(sorted(grid["alphas"]))
    eta = grid.get("eta", 0.1)
    npos = len(alphas)

    def emit(coefficient, indices, ov, closed, base, phase=None):
        oval = ov.value
        if phase is not None:
            oval, closed = phase * oval, phase * closed
        resolution = ov.resolution(spec)
        rel = _rel_err(closed, oval, atol)
        if abs(oval) <= resolution:
            judged = "resolution"
            ok = abs(closed - oval) <= resolution
        else:
            judged = "relative"
            ok = rel <= rtol
        rec = VerificationRecord(
            coefficient=coefficient, indices=indices, oracle=oval,
            err_est=ov.err_est, closed=closed, rel_err=rel, passed=ok,
            judged=judged, resolution=resolution, **base,
        )
        report.records.append(rec)
        if progress is not None:
            progress(rec)

    for s in grid["s"]:
        for bigK in grid["bigK"]:
            for (l1, l2) in grid["lambdas"]:
                g = GeoCoefficientInputs(
                    s=s, bigK=bigK, alphas=alphas, eta=eta,
                    lambda1=l1, lambda2=l2,
                )
                base = dict(s=s, bigK=bigK, lambda1=l1, lambda2=l2, alphas=alphas)
                closed, table = coefficient_table(g), integral_table(g, spec)
                emit("I0", (), table[0][0], closed[0][0], base)
                for m, n in itertools.product(range(npos), repeat=2):
                    phase = _phase(g, alphas[m])
                    emit("Imn", (m, n), table[n + 1][0], closed[n + 1][0], base, phase)
                    emit("Jmn", (m, n), table[0][n + 1], closed[0][n + 1], base, phase)
                for m, mp, n, np_ in itertools.product(range(npos), repeat=4):
                    emit("Immnn", (m, mp, n, np_), table[m + 1][n + 1],
                         closed[m + 1][n + 1], base, _phase(g, alphas[mp], alphas[np_]))
    return report
