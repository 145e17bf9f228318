"""First-order geometric scattering amplitude with closed-form coefficients.

The bump changes the metric seen by the particle; to first order in
eta = (delta/sigma)^2 the scattering amplitude picks up the correction

    f1 = -(1/2) sqrt(i / (2 pi K)) * <chi_out| L |chi_in>,

the matrix element of the curvature-induced operator L between the exact
unperturbed states: the dual state at the outgoing momentum K cos(theta)
(bra) and the incident state at k_x = K cos(theta0) (ket); sqrt(i) is
e^{i pi/4}.  In the frame rotated to the momentum transfer each state is
a plane wave plus N kinks, e^{i beta x} - i sum_n w_n e^{i beta |x - a_n|}
(the bra's kinks conjugated), with w = Ainv e, e_n = e^{i beta a_n} and
Ainv the inverse defect matrix at that state's momentum.  Number the
pieces 0 for the plane wave and n + 1 for the kink at a_n: the bra's
amplitudes are u = (1, -i w_out), the ket's v = (1, -i w_in), and with
T[a][b] the coefficient of bra piece a against ket piece b (every phase
position at 0) the bracket is one bilinear form over an (N+1) x (N+1)
table,

    sum_{a,b} u_a T[a][b] v_b,   T = [[I0, J~_n], [I~_m, C[m, n]]],

of 1 + 2N + N^2 coefficients (coefficient_table).  The terms are added
by one math.fsum over the real parts and one over the imaginary parts,
which is exactly rounded and so independent of their order.  A is
symmetric, so w = Ainv e is also Ainv^T e (DefectMatrix.weights).

Evaluation is array-first.  f1_arrays takes a whole K or theta scan as
one array Kinematics and returns f1 as two float arrays (real, imag), the
form the CLI writes; f1_scan, f1_geometric and cross_section are thin
adapters on the same evaluation.  Its GeoCoefficientInputs holds one s
and K per point, every table entry is an array over the points, and the
scan costs one pass over its half-line integrals, 1 + 2N + N^2 kernel
calls, one outgoing stacked defect build and one incoming build of the
distinct values of kx = K cos(theta0) (one matrix for an angle scan),
whatever its length.  A point averaged across theta = +-90 deg (below)
is replaced by its two flanking angles in the same evaluation, which
costs one more outgoing build, of the flanks alone, and no second table.
The contraction is array arithmetic too: the products u_a T[a][b] v_b
and the prefactor are taken on the real and imaginary parts as float
arrays, one rounding per operation as in Python's complex *, which
numpy's complex arithmetic does not reproduce, and each bracket is the
two fsums; an averaged point is the mean of its flanks in the same
arithmetic.  f1_geometric is the one-point case of the same evaluation,
so a scan and one call per point give the same numbers bit for bit.  The
array evaluation has a fixed cost per call: at N = 2 a one-point call
costs about a third of a 179-point angle scan
(docs/math_to_code.md section 3 gives the measurements).

Every entry but T[0][0] is one shape, computed by one kernel
(_kink_coefficient(g, bra, ket), a kink position or None on each side):

    sqrt(pi) * eta * [ sum_regions phase * int e^{-x^2 + i q x} p_kx(x) dx
                       + delta-line term ],

with p_kx the quartic that the operator leaves after the Gaussian y
integral, kx = +-beta (beta = s K, s = sin((theta - theta0)/2)) the ket's
slope on the region and q in {0, +-2 beta}.  The x integrals are half-line
Gaussian moments: an erfc for the zeroth and a two-term recursion for the
rest.  A half-line integral depends only on the defect, the side, q / beta
and the sign of kx, and the kernel reads four (q / beta, kx / beta) pairs
of them, so the 8 N it uses are computed together once per
GeoCoefficientInputs (half_lines) as one (defect, side, pair) array and
the kernel combines them.  Their moments need only two of the three q
values, q = 2 beta and q = 0: the q = -2 beta moments are the exact
conjugates.  The two sides of a defect take erfc at w and -w and share
one erfcx, which is evaluated once per distinct |alpha| on the first
quadrant (specfun.erfcx_c) and combined with guarded exponentials
(specfun.eexp) as specfun.exp_erfc would; every exponent in the kernel
has a non-positive real part, so no intermediate exponential can
overflow.  I0 keeps its own closed form.

Validation status (enforced by the test suite and the quadrature oracle in
bumpscatter.oracle): every coefficient matches adaptive quadrature of its
defining integral to better than 1e-6 relative across the acceptance grid,
and the kink coefficients match a 50-digit quadrature to 1e-12 relative
on points with K up to 5 and defects up to |alpha| = 6.

Special directions: at theta = theta0 and theta = pi - theta0 the
zeroth-order amplitude is a delta spike (see defects.f0_distributional)
and the first-order cross section is not defined pointwise;
delta_ray_offset measures an angle's distance to them, and cross_section
refuses the angles within SINGULAR_ANGLE_TOL.  At |cos theta| -> 0 with
N >= 2 the outgoing defect matrix degenerates (all entries approach i);
f1 is then evaluated by averaging theta +- 1e-6 rad, which cancels the
leading divergence.  The average cancels terms about 1e6 times larger
than the result, so the order of the arithmetic alone moves it;
docs/math_to_code.md section 3 gives the measured size of that effect on
the stock figure presets.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .defects import DefectMatrix, DefectSet, InputError, Kinematics, build_defect_matrix
from .specfun import SAFE_REAL_WINDOW, eexp, erfcx_c, unbox

__all__ = [
    "GeoCoefficientInputs",
    "I0_closed",
    "coefficient_table",
    "f1_arrays",
    "f1_scan",
    "f1_geometric",
    "cross_section",
    "modulus_squared",
    "delta_ray_offset",
    "SingularAngleError",
]

SQPI = math.sqrt(math.pi)

# -(1/2) e^{i pi/4}, the constant factor of f1's prefactor.
_PREF = -0.5 * cmath.exp(1j * math.pi / 4.0)

# Offset of the averaged pair of angles used to cross theta = +-90 deg.
ANGLE_REG_EPS = 1e-6
# 1-norm condition number of the outgoing defect matrix that triggers
# averaging.
REG_COND_LIMIT = 1e12
# Angles with |delta_ray_offset| below this (radians; 1e-6 deg) are
# refused by cross_section and by the CLI's K scan, and nudged off the ray
# by its angle scan.
SINGULAR_ANGLE_TOL = math.radians(1e-6)


class SingularAngleError(ValueError):
    """Cross section requested on the delta-supported forward/mirror rays."""


@dataclass(frozen=True)
class GeoCoefficientInputs:
    """Everything the closed-form coefficients depend on.

    s, bigK enter through beta = s*K; alphas are the sigma-scaled defect
    positions (ascending); eta scales every coefficient linearly; lambda1
    and lambda2 weigh the two curvature contributions.  s and bigK are
    floats, or 1-D arrays of one length for a scan: every coefficient is
    then an array with one value per point.
    """

    s: float | np.ndarray
    bigK: float | np.ndarray
    alphas: tuple
    eta: float
    lambda1: float
    lambda2: float

    def __post_init__(self):
        if self.eta < 0.0 or not np.isfinite(self.eta):
            raise InputError(f"eta must be a finite non-negative number, got {self.eta!r}")
        if not ((np.abs(self.s) <= 1.0) & np.isfinite(self.bigK) & (self.bigK > 0.0)).all():
            raise InputError(
                f"s must lie in [-1, 1] and K be positive, got s={self.s!r}, "
                f"K={self.bigK!r}"
            )
        if not (np.isfinite(self.lambda1) and np.isfinite(self.lambda2)):
            raise InputError(
                f"lambda1 and lambda2 must be finite, got {self.lambda1!r}, {self.lambda2!r}"
            )
        for a in self.alphas:
            if abs(a) > SAFE_REAL_WINDOW:
                raise OverflowError(
                    f"defect offset |alpha| = {abs(a):.3g} exceeds the validated "
                    f"stable window ({SAFE_REAL_WINDOW})"
                )

    @cached_property
    def beta(self):
        return self.s * self.bigK

    @cached_property
    def p2(self):
        """Plane-plane bracket: K^2 (4 l1 s^2 - 1) + l2 (beta^4 + 2).

        The powers are libm's pow, as Python's float ** and math.pow take
        it, which numpy's power does not match bit for bit; the rest is one
        IEEE operation at a time in the written order.  So I0, and with it
        every N = 0 amplitude, keeps its value bit for bit, alone or in a
        scan."""
        l1, l2 = self.lambda1, self.lambda2
        s, k = self.s, self.bigK
        if np.ndim(s) == 0:
            return k**2 * (4.0 * l1 * s**2 - 1.0) + l2 * ((s * k) ** 4 + 2.0)
        n = s.size
        powers = map(math.pow, [*k.tolist(), *s.tolist(), *(s * k).tolist()],
                     [2.0] * (2 * n) + [4.0] * n)
        k2, s2, b4 = np.array(list(powers)).reshape(3, -1)
        return k2 * (4.0 * l1 * s2 - 1.0) + l2 * (b4 + 2.0)

    @cached_property
    def full_lines(self) -> tuple:
        """The full-line integrals of e^{-x^2 + i q x} p_kx (see
        _kink_coefficient) at q = 0 and at q = 2 kx."""
        return (SQPI * (self.lambda2 - 0.5 * self.bigK**2),
                0.5 * SQPI * _gauss(self.beta) * self.p2)

    @cached_property
    def half_lines(self) -> np.ndarray:
        """Every half-line integral the kink coefficients of these inputs
        use (see _half_line_table), computed together once."""
        return _half_line_table(self)


def _gauss(b):
    """e^{-b^2} for a float or real array.  numpy's real exp differs from
    math.exp in the last bit on some inputs, its complex exp does not."""
    return np.exp(np.asarray(-b * b, dtype=complex)).real


def I0_closed(g: GeoCoefficientInputs):
    """Plane-wave x plane-wave coefficient.

    I0 = (pi eta / 2) e^{-beta^2} [ K^2 (4 l1 s^2 - 1) + l2 (beta^4 + 2) ].
    """
    return unbox(0.5 * math.pi * g.eta * _gauss(g.beta) * g.p2)


# ---------------------------------------------------------------------------
# Gaussian half-line moment kernel
# ---------------------------------------------------------------------------


# The (q / beta, kx / beta) pairs a kink coefficient reads, in the order of
# the last axis of _half_line_table: q = 2 kx, or q = 0 for either sign of kx.
_PAIRS = {(2.0, 1.0): 0, (0.0, 1.0): 1, (0.0, -1.0): 2, (-2.0, -1.0): 3}


def _half_line_table(g: GeoCoefficientInputs) -> np.ndarray:
    """sum_k c[k] M_k for the moments M_k = int x^k e^{-x^2 + i q x} dx over
    x < a (side 0) or x > a (side 1), k = 0..4, and the quartic's
    coefficients c of _kink_coefficient, as one (defect, side, pair) array
    [with a last axis over g's points]: defect i is at g.alphas[i], and
    pair _PAIRS[qb, sg] has q = qb beta and kx = sg beta.

    M_0 = (sqrt(pi)/2) e^{-q^2/4} erfc(side (a - i q/2)) and, integrating
    (x^k e^{-x^2 + i q x})' by parts,
    M_{k+1} = (side a^k e^{-a^2 + i q a} + k M_{k-1} + i q M_k) / 2.
    Only two values of q are distinct: at qb = 0 the moments do not depend
    on beta, and at qb = -2 they are the conjugates of those at qb = 2
    (exactly: erfcx's conjugate symmetry holds bit for bit).  So the
    moments are one recursion over a (defect, side, point) array of
    q = 2 beta at the points plus one column of q = 0.

    The two sides of a defect take erfc at w = a - i q/2 and at -w, and
    share one erfcx: R = e^{x - w^2} erfcx(r) for r the one of +-w in the
    right half plane, and 2 e^x - R for the other (x = -q^2/4), the
    operations specfun.exp_erfc makes.  At a = 0 both lie on the imaginary
    axis and take erfcx(|q|/2 i) or its conjugate.  erfcx is evaluated once
    per distinct |a| and point, on the first quadrant: n(P + 1) arguments
    for n distinct |a| and P points.  No exponent here has a positive real
    part, so no element can overflow.
    """
    b = np.asarray(g.beta, dtype=float)
    p = b.size
    q = np.zeros(p + 1)
    q[:p] = 2.0 * b.reshape(-1)
    alphas = np.array(g.alphas, dtype=float)
    iq = 1j * q
    x = -0.25 * q * q
    w = alphas[:, None] - 0.5 * iq
    abs_a = sorted({abs(a) for a in g.alphas})
    r = np.empty((len(abs_a), p + 1), dtype=complex)
    r.real, r.imag = np.array(abs_a)[:, None], 0.5 * np.abs(q)
    cx = erfcx_c(r)[[abs_a.index(abs(a)) for a in g.alphas]]
    # e^{x - w^2} at each defect and, in the last row, e^x
    e = eexp(np.vstack([x - w * w, x]))
    # R = e^{x - w^2} erfcx(r) for r = -w (side 0) and w (side 1) taken into
    # the right half plane, |a| + i q/2 and |a| - i q/2: cx or its conjugate
    r_side = e[:-1, None] * np.where(np.stack([q < 0.0, q > 0.0]), cx.conj()[:, None],
                                     cx[:, None])
    a = alphas.reshape(-1, 1, 1)
    side = np.array([-1.0, 1.0]).reshape(1, 2, 1)
    # a side whose argument is in the left half plane takes 2 e^x - R
    m0 = 0.5 * SQPI * np.where(side * a < 0.0, 2.0 * e[-1] - r_side[:, ::-1], r_side)
    iq = iq[None, None]
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
    kx = np.array([1.0, -1.0])[:, None] * b  # sg = 1, -1
    c1, c3 = 1.5j * kx, -1j * kx

    def weighted(m, j):  # sum_k c[k] M_k at kx = sg[j] beta
        return c0 * m[0] + c1[j] * m[1] + c2 * m[2] + c3[j] * m[3] + c4 * m[4]

    # (defect, side, pair, point) in the order of _PAIRS; a float beta
    # drops the point axis
    moments = (m0, m1, m2, m3, m4)
    at_2b = [m[..., :p] for m in moments]
    table = np.empty(m0.shape[:2] + (len(_PAIRS), p), dtype=complex)
    table[:, :, 0] = weighted(at_2b, 0)
    table[:, :, 1:3] = weighted([m[..., None, p:] for m in moments], slice(None))
    table[:, :, 3] = weighted([m.conj() for m in at_2b], 1)
    return table.reshape(table.shape[:3] + b.shape)


def _kink_coefficient(g: GeoCoefficientInputs, bra: float | None = None,
                      ket: float | None = None):
    """Coefficient of a bra kink at `bra` against a ket kink at `ket`, with
    every phase position at 0; None puts the plane wave on that side.  One
    value per point of g.

    The y integral of the defining integral is Gaussian, which leaves

        eta sqrt(pi) [ sum_regions int e^{-x^2} bra(x) ket(x) p_kx(x) dx
                       + 2 i beta a^2 e^{-a^2} bra(a) ],

    the last term only for a ket kink at a (the delta line of its second
    derivative).  The regions are the x intervals cut at the kinks; on each,
    kx = +-beta is the ket's slope and bra(x) ket(x) = phase e^{i q x}, with
    bra factors e^{i beta x} (plane) or e^{-i beta |x - a|} (kink) and ket
    factors e^{i beta x} or e^{i beta |x - a|}.  The quartic is L applied to
    the ket piece after the y integral, gamma^2 = K^2 - beta^2:

        p_kx(x) = (-4 gamma^2 + 8 l1 + 11 l2)/8 + (3 i kx/2) x
                  - (kx^2 + 2 l1 + 3 l2/2) x^2 - i kx x^3 + (l2/2) x^4.

    q is 0 or 2 kx, and the full-line integral of e^{-x^2 + i q x} p_kx has
    a closed form: sqrt(pi) (l2 - K^2/2) at q = 0, and I0 / (eta sqrt(pi))
    = sqrt(pi) e^{-beta^2} p2 / 2 at q = 2 kx.  An interval in x <= 0 is
    the difference of two left half-lines, one in x >= 0 of two right
    half-lines, and one across 0 is the full line minus the two outer
    half-lines.  No half-line then holds the bulk of the Gaussian, so the
    result keeps its relative accuracy where the full-line integral
    cancels (K^2 = 2 l2 at q = 0).  At beta = 0 every kink factor and the
    line term are trivial and the coefficient is I0 exactly.
    """
    b = g.beta
    ib = 1j * b
    table, defect = g.half_lines, g.alphas.index
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
        # the half-line integrals over x < lo and x > hi (0 beyond +-inf),
        # and over x < hi and x > lo (side 0 is x < a, side 1 x > a)
        pair = _PAIRS[qb, sg]
        left = 0.0 if math.isinf(lo) else table[defect(lo), 0, pair]
        right = 0.0 if math.isinf(hi) else table[defect(hi), 1, pair]
        if hi <= 0.0:
            part = table[defect(hi), 0, pair] - left
        elif lo >= 0.0:
            part = table[defect(lo), 1, pair] - right
        else:  # across 0: the full line minus the two outer half-lines
            part = g.full_lines[qb != 0.0] - left - right
        total += np.exp(ib * phase) * part
    if ket is not None:
        x_bra = b * ket if bra is None else -b * abs(ket - bra)
        total += 2j * b * ket * ket * np.exp(-ket * ket + 1j * x_bra)
    out = g.eta * SQPI * total
    at_zero = np.equal(b, 0.0)
    if at_zero.any():
        out = np.where(at_zero, I0_closed(g), out)
    return unbox(out)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def coefficient_table(g: GeoCoefficientInputs) -> list:
    """The (N+1) x (N+1) table of g's pieces, 0 the plane wave and n + 1 the
    kink at alpha_n, every phase position at 0: T[0][0] is I0, T[n+1][0]
    the bra kink I~_n, T[0][n+1] the ket kink J~_n and T[m+1][n+1] the kink
    pair C[m, n].  Each entry is a number, or an array with one value per
    point when g holds a scan."""
    pieces = (None, *g.alphas)
    return [[I0_closed(g) if bra is None and ket is None
             else _kink_coefficient(g, bra, ket) for ket in pieces] for bra in pieces]


def _products(ar, ai, br, bi) -> tuple:
    """(ar + i ai)(br + i bi) on float arrays as (real, imag), each operation
    rounded once: the product Python's complex * computes."""
    return ar * br - ai * bi, ar * bi + ai * br


def _contract(u: np.ndarray, table: np.ndarray, v: np.ndarray, bigK: np.ndarray) -> tuple:
    """pref(K) sum_ab u_a T[a][b] v_b at every point, as two float arrays
    (real, imag), with pref(K) = -(1/2) e^{i pi/4} / sqrt(2 pi K).

    u and v are (piece, point) and table (bra piece, ket piece, point)
    complex arrays.  Each product is taken left to right in real arithmetic
    on the real and imaginary parts (_products), which is what Python's
    complex * computes and numpy's complex * does not reproduce; each
    bracket is one math.fsum over the real parts of its terms and one over
    the imaginary parts.  So the result does not depend on the platform's
    complex arithmetic or on the order of the terms.
    """
    terms = _products(*_products(u.real[:, None], u.imag[:, None], table.real, table.imag),
                      v.real[None], v.imag[None])
    br, bi = (list(map(math.fsum, t.reshape(-1, len(bigK)).T.tolist())) for t in terms)
    d = np.sqrt(2.0 * math.pi * bigK)
    return _products(_PREF.real / d, _PREF.imag / d, np.array(br), np.array(bi))


def _f1_points(
    kin: Kinematics,
    defects: DefectSet,
    eta: float,
    lambda1: float,
    lambda2: float,
) -> tuple:
    """f1 at each point of kin (one point, or a scan) as two float arrays
    (real, imag): f1_arrays after validation.

    One array evaluation for all points: one coefficient table, one
    outgoing stacked defect build and one incoming build per distinct
    kx = K cos(theta0) (a single matrix for an angle scan).  With N >= 2, a
    point whose outgoing matrix is singular or past REG_COND_LIMIT is
    replaced by its flanks theta +- ANGLE_REG_EPS: the flanks alone make an
    array Kinematics and one more outgoing build, and are spliced into the
    points in its place; the point's value is the mean of its flanks',
    0.5 * (f_up + f_down) as Python computes it on complex numbers (through
    3.13 a float times a complex is the complex product with 0.5 + 0j,
    signed zeros included).
    Each point's bracket sum_ab u_a T[a][b] v_b over the plane (0) and kink
    (n + 1) pieces, as in the module docstring, and the prefactor are
    _contract's real array arithmetic and math.fsum.
    """
    bigK = np.array(kin.bigK, dtype=float, ndmin=1)
    if not bigK.size:
        return np.empty(0), np.empty(0)
    s = np.array(kin.s, ndmin=1)
    averaged = np.zeros(bigK.size, dtype=bool)
    if defects.n > 0:
        kx = np.array(kin.kx, ndmin=1)
        dm_out = build_defect_matrix(np.array(kin.kx_out, ndmin=1), defects)
        if defects.n >= 2:
            averaged = ~(dm_out.cond <= REG_COND_LIMIT)
        if averaged.any():
            theta = np.array(kin.theta, ndmin=1)[averaged]
            flanks = Kinematics(np.repeat(bigK[averaged], 2), kin.theta0, np.stack(
                [theta + ANGLE_REG_EPS, theta - ANGLE_REG_EPS], axis=1).reshape(-1))
            # position j of the evaluation holds entry at[j] of [points, flanks]
            at = np.arange(bigK.size).repeat(1 + averaged)
            at[averaged.repeat(1 + averaged)] = bigK.size + np.arange(flanks.bigK.size)

            def splice(points, flank_values):
                return np.concatenate([points, flank_values])[at]

            s, bigK, kx = splice(s, flanks.s), splice(bigK, flanks.bigK), splice(kx, flanks.kx)
            dm_flanks = build_defect_matrix(flanks.kx_out, defects)
            dm_out = DefectMatrix(splice(dm_out.matrix, dm_flanks.matrix),
                                  splice(dm_out.inverse, dm_flanks.inverse),
                                  splice(dm_out.cond, dm_flanks.cond))
    g = GeoCoefficientInputs(
        s=s, bigK=bigK, alphas=defects.positions, eta=eta, lambda1=lambda1, lambda2=lambda2,
    )
    # amplitudes (piece, point) of the bra (u) and the ket (v)
    u = v = np.ones((1, bigK.size), dtype=complex)
    if defects.n > 0:
        kx, at = np.unique(kx, return_inverse=True)
        dm_in = build_defect_matrix(kx, defects)[at]
        e = np.exp(1j * g.beta[:, None] * defects.alphas)
        u = np.concatenate([u, -1j * dm_out.require_regular().weights(e).T])
        v = np.concatenate([v, -1j * dm_in.require_regular().weights(e).T])
    table = np.array(coefficient_table(g), dtype=complex)
    fr, fi = _contract(u, table, v, bigK)
    if not averaged.any():
        return fr, fi
    # each point's first entry in the evaluation, and an averaged one's second
    first = np.cumsum(1 + averaged) - 1 - averaged
    re, im = fr[first], fi[first]
    up = first[averaged]
    re[averaged], im[averaged] = _products(0.5, 0.0, fr[up] + fr[up + 1], fi[up] + fi[up + 1])
    return re, im


def f1_arrays(bigK, theta0: float, theta, defects: DefectSet, eta: float,
              lambda1: float, lambda2: float) -> tuple:
    """First-order geometric amplitude f1 at every point of a scan, as two
    float arrays (real, imag).

    bigK and theta are equal-length 1-D arrays (a scalar stands for a
    constant one); point i is Kinematics(bigK[i], theta0, theta[i]).  Every
    input is checked before any point is evaluated: a shape, point, eta or
    curvature weight outside its domain raises defects.InputError, a
    defect past |alpha| = 26 OverflowError.  The whole scan is one array
    Kinematics and one array evaluation: one table of 1 + 2N + N^2
    coefficient arrays, one outgoing stacked defect build, one incoming
    build of the scan's distinct kx = K cos(theta0), and one more outgoing
    build, of the flanks alone, if a point is averaged across
    theta = +-90 deg (see f1_geometric); its flanking angles join the same
    table.  f1_scan, f1_geometric and cross_section take their numbers
    from this evaluation.
    """
    bigK, theta = np.asarray(bigK, dtype=float), np.asarray(theta, dtype=float)
    if max(bigK.ndim, theta.ndim) != 1 or len({bigK.size, theta.size} - {1}) > 1:
        raise InputError(f"bigK and theta must broadcast to one 1-D shape, got "
                         f"shapes {bigK.shape} and {theta.shape}")
    bigK, theta = np.broadcast_arrays(bigK, theta)
    return _f1_points(Kinematics(bigK, theta0, theta), defects, eta, lambda1, lambda2)


def f1_scan(bigK, theta0: float, theta, defects: DefectSet, eta: float,
            lambda1: float, lambda2: float) -> list:
    """f1_arrays as a list of Python complex numbers."""
    return list(map(complex, *(part.tolist() for part in f1_arrays(
        bigK, theta0, theta, defects, eta, lambda1, lambda2))))


def f1_geometric(
    kin: Kinematics,
    defects: DefectSet,
    eta: float,
    lambda1: float,
    lambda2: float,
) -> complex:
    """First-order geometric scattering amplitude f1(theta).

    Exactly linear in eta.  Near theta = +-90 deg with N >= 2 defects the
    outgoing defect matrix degenerates (it is singular or its condition
    number exceeds REG_COND_LIMIT); f1 is then evaluated as the average
    over theta +- 1e-6 rad, which cancels the leading divergence (the
    averaged value changes by < 1e-4 relative when the offset shrinks
    tenfold; the test suite checks this).  The two flanking angles take
    the point's place in the one evaluation, which then makes three
    defect builds instead of two.  The one-point case of f1_arrays: the
    same evaluation gives the same number.  An array kin raises
    InputError; f1_arrays, f1_scan and cross_section take scans.
    """
    if np.ndim(kin.theta):
        raise InputError("f1_geometric takes one point; evaluate a scan with f1_scan")
    re, im = _f1_points(kin, defects, eta, lambda1, lambda2)
    return complex(re[0], im[0])


def modulus_squared(re, im) -> list:
    """|f|^2 of f = re + i im at every point, as Python's abs(f) ** 2 takes
    it: libm's hypot (numpy's hypot; numpy's square x * x may differ from
    pow in the last bit) and libm's pow (math.pow).  A list of floats."""
    return list(map(math.pow, np.hypot(re, im).tolist(), itertools.repeat(2.0)))


def delta_ray_offset(theta0: float, theta: float) -> float:
    """Signed angle theta - ray in [-pi, pi] (radians) to the nearer of the
    delta-supported rays theta0 and pi - theta0 (theta0 on a tie)."""
    if not (math.isfinite(theta0) and math.isfinite(theta)):
        raise InputError(f"angles must be finite, got theta0={theta0!r}, theta={theta!r}")
    return min((math.remainder(theta - ray, 2.0 * math.pi)
                for ray in (theta0, math.pi - theta0)), key=abs)


def cross_section(
    kin: Kinematics,
    defects: DefectSet,
    eta: float,
    lambda1: float,
    lambda2: float,
):
    """Differential cross section |f1|^2 (sigma-scaled units): a float, or
    for an array kin a list with one float per point, from one f1_scan
    evaluation.

    Not defined on the delta-supported directions theta0 and pi - theta0
    where the zeroth-order amplitude concentrates; use
    defects.f0_distributional for those weights.  SingularAngleError if
    any point lies within SINGULAR_ANGLE_TOL of them.
    """
    for theta in np.array(kin.theta, ndmin=1).tolist():
        if abs(delta_ray_offset(kin.theta0, theta)) < SINGULAR_ANGLE_TOL:
            raise SingularAngleError(
                f"theta = {theta!r} lies on a delta-supported direction of the "
                "flat-defect amplitude; pointwise |f1|^2 is not meaningful "
                "there (use defects.f0_distributional for the spike weights)"
            )
    xsec = modulus_squared(*_f1_points(kin, defects, eta, lambda1, lambda2))
    return xsec if np.ndim(kin.theta) else xsec[0]
