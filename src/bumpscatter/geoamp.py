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

Evaluation is array-first.  f1_scan takes a whole K or theta scan: its
GeoCoefficientInputs holds one s and K per point, every table entry is an
array over the points, and the scan costs one pass over its half-line
integrals, 1 + 2N + N^2 kernel calls and one incoming and one outgoing
stacked defect build, whatever its length.  A point averaged across
theta = +-90 deg (below) is replaced by its two flanking angles in the
same evaluation, which costs one more outgoing build and no second
table.  Only the per-point contraction stays in Python: the products
u_a T[a][b] v_b, the two fsums and the prefactor are Python complex
arithmetic, whose rounding numpy's complex arithmetic does not
reproduce.  f1_geometric is the one-point case of the same evaluation,
so a scan and one call per point give the same numbers bit for bit.  The
array evaluation has a fixed cost per call: at N = 2 a one-point call
costs about a fifth of a 179-point angle scan (docs/math_to_code.md
section 3 gives the measurements).

Every entry but T[0][0] is one shape, computed by one kernel
(_kink_coefficient(g, bra, ket), a kink position or None on each side):

    sqrt(pi) * eta * [ sum_regions phase * int e^{-x^2 + i q x} p_kx(x) dx
                       + delta-line term ],

with p_kx the quartic that the operator leaves after the Gaussian y
integral, kx = +-beta (beta = s K, s = sin((theta - theta0)/2)) the ket's
slope on the region and q in {0, +-2 beta}.  The x integrals are half-line
Gaussian moments: an erfc for the zeroth and a two-term recursion for the
rest.  A half-line integral depends only on the defect, the side, q / beta
and the sign of kx, so the at most 12 N of them are computed together
once per GeoCoefficientInputs (half_lines) and the kernel combines them.
The erfc goes through the fused, overflow-safe specfun.exp_erfc;
every other exponent in the kernel has a non-positive real part, so no
intermediate exponential can overflow.  I0 keeps its own closed form.

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
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .defects import DefectSet, InputError, Kinematics, build_defect_matrix
from .specfun import SAFE_REAL_WINDOW, exp_erfc, unbox

__all__ = [
    "GeoCoefficientInputs",
    "I0_closed",
    "coefficient_table",
    "f1_scan",
    "f1_geometric",
    "cross_section",
    "delta_ray_offset",
    "SingularAngleError",
]

SQPI = math.sqrt(math.pi)

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
        if not np.all((np.abs(self.s) <= 1.0) & np.isfinite(self.bigK) & (self.bigK > 0.0)):
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

        Evaluated point by point with Python's float pow, which numpy's
        power does not match bit for bit, so that I0, and with it every
        N = 0 amplitude, keeps its value bit for bit, alone or in a scan."""
        l1, l2 = self.lambda1, self.lambda2

        def p2(s, k):
            return k**2 * (4.0 * l1 * s**2 - 1.0) + l2 * ((s * k) ** 4 + 2.0)

        if np.ndim(self.s) == 0:
            return p2(self.s, self.bigK)
        return np.array([p2(s, k) for s, k in zip(self.s.tolist(), self.bigK.tolist())])

    @cached_property
    def full_lines(self) -> tuple:
        """The full-line integrals of e^{-x^2 + i q x} p_kx (see
        _kink_coefficient) at q = 0 and at q = 2 kx."""
        return (SQPI * (self.lambda2 - 0.5 * self.bigK**2),
                0.5 * SQPI * _gauss(self.beta) * self.p2)

    @cached_property
    def half_lines(self) -> dict:
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


def _half_line_table(g: GeoCoefficientInputs) -> dict:
    """sum_k c[k] M_k for the moments M_k = int x^k e^{-x^2 + i q x} dx over
    x > a (side = 1) or x < a (side = -1), k = 0..4, and the quartic's
    coefficients c of _kink_coefficient, keyed (a, side, qb, sg) for q =
    qb beta and kx = sg beta: every defect a, both sides, qb in {-2, 0, 2}
    and sg = +-1.  Each value is a number, or an array over g's points.

    M_0 = (sqrt(pi)/2) e^{-q^2/4} erfc(side (a - i q/2)) and, integrating
    (x^k e^{-x^2 + i q x})' by parts,
    M_{k+1} = (side a^k e^{-a^2 + i q a} + k M_{k-1} + i q M_k) / 2.
    All of them are one array pass: one exp_erfc call and one recursion
    over a (defect, side, qb[, point]) array, whatever N and the scan's
    length.  No exponent here has a positive real part, so no element can
    overflow.
    """
    b = np.asarray(g.beta, dtype=float)
    point_axes = (1,) * b.ndim
    a = np.array(g.alphas, dtype=float).reshape((-1, 1, 1) + point_axes)
    side = np.array([-1.0, 1.0]).reshape((1, 2, 1) + point_axes)
    qbs = (-2.0, 0.0, 2.0)
    q = np.array(qbs).reshape((1, 1, 3) + point_axes) * b
    iq = 1j * q
    m0 = 0.5 * SQPI * exp_erfc(-0.25 * q * q, side * (a - 0.5 * iq))
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
        # and over x < hi and x > lo
        left, right = (0.0 if math.isinf(a) else g.half_lines[a, side, qb, sg]
                       for a, side in ((lo, -1.0), (hi, 1.0)))
        if hi <= 0.0:
            part = g.half_lines[hi, -1.0, qb, sg] - left
        elif lo >= 0.0:
            part = g.half_lines[lo, 1.0, qb, sg] - right
        else:  # across 0: the full line minus the two outer half-lines
            part = g.full_lines[qb != 0.0] - left - right
        total += np.exp(1j * b * phase) * part
    if ket is not None:
        x_bra = b * ket if bra is None else -b * abs(ket - bra)
        total += 2j * b * ket * ket * np.exp(-ket * ket + 1j * x_bra)
    out = g.eta * SQPI * total
    at_zero = b == 0.0
    if np.any(at_zero):
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


def _f1_points(
    kins: list,
    defects: DefectSet,
    eta: float,
    lambda1: float,
    lambda2: float,
) -> list:
    """f1 at each point of kins: f1_scan after validation.

    One array evaluation for all points: one coefficient table and one
    incoming and one outgoing stacked defect build.  With N >= 2, a point
    whose outgoing matrix is singular or past REG_COND_LIMIT is replaced in
    the point list by its flanks theta +- ANGLE_REG_EPS, and the outgoing
    matrices are built once more for that list; the point's value is the
    mean of its flanks'.  Each point's bracket is sum_ab u_a T[a][b] v_b
    over the plane (0) and kink (n + 1) pieces, as in the module
    docstring, summed exactly by math.fsum; the prefactor multiplies it in
    Python complex arithmetic.
    """
    if not kins:
        return []
    averaged = [False] * len(kins)
    if defects.n > 0:
        dm_out = build_defect_matrix(np.array([k.kx_out for k in kins]), defects)
        if defects.n >= 2:
            averaged = (~(dm_out.cond <= REG_COND_LIMIT)).tolist()
        if any(averaged):
            kins = [p for k, a in zip(kins, averaged)
                    for p in ((replace(k, theta=k.theta + ANGLE_REG_EPS),
                               replace(k, theta=k.theta - ANGLE_REG_EPS)) if a else (k,))]
            dm_out = build_defect_matrix(np.array([k.kx_out for k in kins]), defects)
    bigK = [k.bigK for k in kins]
    g = GeoCoefficientInputs(
        s=np.array([k.s for k in kins]), bigK=np.array(bigK), alphas=defects.positions,
        eta=eta, lambda1=lambda1, lambda2=lambda2,
    )
    u = v = np.ones((len(kins), 1))
    if defects.n > 0:
        dm_in = build_defect_matrix(np.array([k.kx for k in kins]), defects)
        e = np.exp(1j * g.beta[:, None] * defects.alphas)
        u = np.hstack([u, -1j * dm_out.require_regular().weights(e)])
        v = np.hstack([v, -1j * dm_in.require_regular().weights(e)])
    table = np.moveaxis(np.array(coefficient_table(g), dtype=complex), -1, 0).tolist()
    f1 = []
    for k, u_p, t_p, v_p in zip(bigK, u.tolist(), table, v.tolist()):
        terms = [ua * t * vb for ua, row in zip(u_p, t_p) for t, vb in zip(row, v_p)]
        bracket = complex(math.fsum([z.real for z in terms]), math.fsum([z.imag for z in terms]))
        pref = -0.5 * cmath.exp(1j * math.pi / 4.0) / math.sqrt(2.0 * math.pi * k)
        f1.append(pref * bracket)
    points = iter(f1)
    return [0.5 * (next(points) + next(points)) if a else next(points) for a in averaged]


def f1_scan(bigK, theta0: float, theta, defects: DefectSet, eta: float,
            lambda1: float, lambda2: float) -> list:
    """First-order geometric amplitude f1 at every point of a scan.

    bigK and theta are equal-length 1-D arrays (a scalar stands for a
    constant one); point i is Kinematics(bigK[i], theta0, theta[i]).  Every
    input is checked before any point is evaluated: a shape, point, eta or
    curvature weight outside its domain raises defects.InputError, a
    defect past |alpha| = 26 OverflowError.  The whole scan is one array
    evaluation: one table of 1 + 2N + N^2 coefficient arrays, one incoming
    and one outgoing stacked defect build, and one more outgoing build if
    a point is averaged across theta = +-90 deg (see f1_geometric); its
    flanking angles join the same table.
    Returns the amplitudes as a list of Python complex numbers;
    f1_geometric is the one-point case.
    """
    bigK, theta = np.asarray(bigK, dtype=float), np.asarray(theta, dtype=float)
    if max(bigK.ndim, theta.ndim) != 1 or len({bigK.size, theta.size} - {1}) > 1:
        raise InputError(f"bigK and theta must broadcast to one 1-D shape, got "
                         f"shapes {bigK.shape} and {theta.shape}")
    bigK, theta = np.broadcast_arrays(bigK, theta)
    kins = [Kinematics(k, theta0, th) for k, th in zip(bigK.tolist(), theta.tolist())]
    return _f1_points(kins, defects, eta, lambda1, lambda2)


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
    defect builds instead of two.  The one-point case of f1_scan: the
    same evaluation gives the same number.
    """
    return _f1_points([kin], defects, eta, lambda1, lambda2)[0]


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
) -> float:
    """Differential cross section |f1|^2 (sigma-scaled units).

    Not defined on the delta-supported directions theta0 and pi - theta0
    where the zeroth-order amplitude concentrates; use
    defects.f0_distributional for those weights.
    """
    if abs(delta_ray_offset(kin.theta0, kin.theta)) < SINGULAR_ANGLE_TOL:
        raise SingularAngleError(
            f"theta = {kin.theta!r} lies on a delta-supported direction of the "
            "flat-defect amplitude; pointwise |f1|^2 is not meaningful "
            "there (use defects.f0_distributional for the spike weights)"
        )
    f1 = f1_geometric(kin, defects, eta, lambda1, lambda2)
    return abs(f1) ** 2
