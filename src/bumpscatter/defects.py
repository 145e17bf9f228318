"""Exact scattering state of a free particle crossing N parallel line defects.

The unperturbed problem is a particle in the plane hitting N delta-line
defects, all parallel to the y axis, located at x = alpha_n with coupling
strengths z_n (sigma-scaled units: positions in units of sigma, couplings
absorb one factor of sigma, energies in units of hbar^2 / (2 m sigma^2)).
Because the lines are parallel, the y momentum is conserved and the problem
separates: psi0(x, y) = chi(x) e^{i k_y y} / (2 pi) with a 1D multi-delta
profile chi.

Writing the outgoing solution as

    chi(x) = e^{i k_x x} - i * sum_n w_n e^{i k_x |x - alpha_n|},
    w = Ainv e,   e_n = e^{i k_x alpha_n},

the N x N linear system that fixes the scattered amplitudes has the
symmetric matrix

    A[m, n] = 2 k_x delta_{mn} / z_m + i e^{i k_x |alpha_m - alpha_n|}.

Because A is symmetric, every quantity below needs only weights
w = Ainv b for one vector b (DefectMatrix.weights), never Ainv^T.  The
same matrix evaluated at the outgoing momentum also drives the dual
(reciprocal) state psi0_dual whose conjugate serves as the bra in
first-order perturbation theory:

    chi_dual(x) = e^{i k_x x} + i * sum_n conj(w~_n) e^{-i k_x |x - alpha_n|},
    w~ = Ainv conj(e).

Far-field transmission and mirror-reflection coefficients follow from the
|x| -> inf limits:

    t_plus  = -i conj(e) . w,
    t_minus = -i e . w,

and for purely real couplings flux conservation pins
|1 + t_plus|^2 + |t_minus|^2 = 1.

The zeroth-order scattering amplitude is distributional: a free flat plane
plus line defects scatters an incident plane wave into exactly two
directions (forward theta0 and mirror pi - theta0), so f0 is reported as
delta-function weights, never as a pointwise function of angle.
"""

from __future__ import annotations

import cmath
import contextlib
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .specfun import unbox

__all__ = [
    "InputError",
    "DefectSet",
    "Kinematics",
    "DefectMatrix",
    "SingularMatrixError",
    "TCoefficients",
    "F0Distribution",
    "build_defect_matrix",
    "t_coefficients",
    "f0_distributional",
    "chi_profile",
    "chi_dual_profile",
    "psi0",
    "psi0_dual",
]

# Defect positions closer than this (units of sigma) are rejected: N lines
# must sit at N distinct positions.
MIN_SEPARATION = 1e-9

# theta0 must keep k_x = K cos(theta0) bounded away from zero.
THETA0_MARGIN = 1e-6

# 1-norm condition number ||A||_1 ||Ainv||_1 beyond which the defect matrix
# is treated as singular.
COND_LIMIT = 1e15


class InputError(ValueError):
    """An input outside its domain: a bad position, coupling, wavenumber,
    angle, eta or curvature weight.  The caller's fault, never a numerical
    failure; the CLI reports it as a usage error (exit 1)."""


class SingularMatrixError(np.linalg.LinAlgError):
    """Defect matrix is numerically singular; carries the condition estimate."""

    def __init__(self, message: str, cond: float):
        super().__init__(message)
        self.cond = cond


@dataclass(frozen=True)
class DefectSet:
    """Positions alpha_n (units of sigma) and couplings z_n of the N lines.

    Positions are stored sorted ascending, couplings permuted alongside,
    so that index order and position order coincide.  The geometric
    coefficients do not depend on it: their kernel cuts the x axis at the
    kinks itself.  Couplings equal to exactly zero describe absent
    defects and are dropped with a warning.  N = 0 (free flat plane) is a
    valid configuration.
    """

    positions: tuple
    couplings: tuple

    def __init__(self, positions=(), couplings=()):
        positions = [float(p) for p in positions]
        couplings = [complex(z) for z in couplings]
        if len(positions) != len(couplings):
            raise InputError(
                f"{len(positions)} positions but {len(couplings)} couplings"
            )
        if not all(math.isfinite(p) for p in positions):
            raise InputError("defect positions must be finite")
        if not all(cmath.isfinite(z) for z in couplings):
            raise InputError("defect couplings must be finite")
        keep = [i for i, z in enumerate(couplings) if z != 0.0]
        if len(keep) < len(positions):
            dropped = [positions[i] for i in range(len(positions)) if i not in keep]
            warnings.warn(
                f"dropping zero-coupling defects at {dropped}", stacklevel=2
            )
        order = sorted(keep, key=lambda i: positions[i])
        pos = tuple(positions[i] for i in order)
        for p, q in zip(pos, pos[1:]):
            if q - p <= MIN_SEPARATION:
                raise InputError(
                    f"defect positions {p} and {q} are not distinct "
                    f"(separation <= {MIN_SEPARATION})"
                )
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "couplings", tuple(couplings[i] for i in order))

    @property
    def n(self) -> int:
        return len(self.positions)

    @property
    def alphas(self) -> np.ndarray:
        return np.array(self.positions, dtype=float)

    @property
    def z(self) -> np.ndarray:
        return np.array(self.couplings, dtype=complex)

    def all_real_couplings(self) -> bool:
        return all(z.imag == 0.0 for z in self.couplings)


def _check_theta0(theta0: float) -> None:
    """Raise the InputError of a bad incidence angle."""
    if not math.isfinite(theta0) or abs(theta0) >= math.pi / 2 - THETA0_MARGIN:
        raise InputError(
            f"theta0 must satisfy |theta0| < pi/2 - {THETA0_MARGIN}, got {theta0!r}"
        )


def _check_point(bigK, theta0: float, theta) -> None:
    """Raise the InputError of the first bad input of one point."""
    if not (math.isfinite(bigK) and bigK > 0.0):
        raise InputError(f"K must be positive and finite, got {bigK!r}")
    _check_theta0(theta0)
    if not math.isfinite(theta):
        raise InputError(f"theta must be finite, got {theta!r}")


def _remainder_2pi(x):
    """x less the nearest multiple of 2 pi, element by element: fmod by 2 pi
    and one step of 2 pi, both exact (Sterbenz's lemma), so math.remainder(x,
    2 pi) bit for bit, except that an exact tie at +-pi may keep the other
    sign (IEEE takes the even multiple)."""
    x = np.fmod(x, 2.0 * math.pi)
    return np.where(x > math.pi, x - 2.0 * math.pi, np.where(x < -math.pi, x + 2.0 * math.pi, x))


def _normalized(theta):
    """theta moved by whole turns into [-pi/2, 3*pi/2): a float, or an array
    element by element, by one rule.  Bit for bit it is
    math.remainder(theta - pi/2, 2 pi) + pi/2, less 2 pi from 3 pi/2 on:
    _remainder_2pi, whose ties at +-pi the last step maps both to -pi/2.
    """
    th = _remainder_2pi(np.asarray(theta, dtype=float) - math.pi / 2) + math.pi / 2
    return unbox(np.where(th >= 1.5 * math.pi, th - 2.0 * math.pi, th))


def _each(fn, x):
    """fn(x) for a float; for an array, fn on each element.  math's sin and
    cos keep their bits on every platform, where numpy's may take SIMD
    paths whose last bit depends on the CPU."""
    if np.ndim(x) == 0:
        return fn(x)
    return np.array(list(map(fn, x.tolist())), dtype=float)


@dataclass(frozen=True)
class Kinematics:
    """Incident and outgoing directions at fixed wavenumber K (units 1/sigma).

    theta0 is the incidence angle measured from the x axis (normal to the
    defect lines); it must satisfy |theta0| < pi/2 - 1e-6 so the incident
    k_x stays positive.  theta is the observation angle, normalized into
    [-pi/2, 3*pi/2).  Derived quantities: Theta = theta - theta0,
    s = sin(Theta/2), and the rotated-frame momentum components used by the
    geometric coefficients (k and -k for the incoming/outgoing x components,
    K cos(Theta/2) shared along y).

    bigK and theta are floats, or 1-D float arrays of one length for a scan
    (theta0 is one float): every derived quantity is then an array with one
    value per point, bit for bit the value of that point's own instance.
    The inputs are checked once, and a bad point raises the InputError of
    its own instance; a scan of no points still checks theta0.  An
    instance with array fields cannot be hashed or compared.
    """

    bigK: float | np.ndarray
    theta0: float
    theta: float | np.ndarray

    def __post_init__(self):
        bigK, theta0, theta = self.bigK, self.theta0, self.theta
        if np.ndim(bigK) == np.ndim(theta) == 0:
            _check_point(bigK, theta0, theta)
        else:
            bigK, theta = np.asarray(bigK, dtype=float), np.asarray(theta, dtype=float)
            if bigK.ndim != 1 or bigK.shape != theta.shape:
                raise InputError(f"bigK and theta must be 1-D arrays of one length, "
                                 f"got shapes {bigK.shape} and {theta.shape}")
            if bigK.size:
                # the first bad point, or the first point for theta0's check
                i = int((~(np.isfinite(bigK) & (bigK > 0.0) & np.isfinite(theta))).argmax())
                _check_point(bigK[i].item(), theta0, theta[i].item())
            else:
                _check_theta0(theta0)
            object.__setattr__(self, "bigK", bigK)
        object.__setattr__(self, "theta", _normalized(theta))

    @property
    def Theta(self):
        return self.theta - self.theta0

    @property
    def s(self):
        return _each(math.sin, 0.5 * self.Theta)

    @property
    def beta(self):
        """Rotated-frame incident x momentum, s * K."""
        return self.s * self.bigK

    @property
    def gamma(self):
        """Rotated-frame shared y momentum, K cos(Theta/2)."""
        return self.bigK * _each(math.cos, 0.5 * self.Theta)

    @property
    def kx(self):
        """Lab-frame incident x momentum K cos(theta0) (positive)."""
        return self.bigK * math.cos(self.theta0)

    @property
    def ky(self):
        return self.bigK * math.sin(self.theta0)

    @property
    def kx_out(self):
        """Lab-frame outgoing x momentum K cos(theta); any sign."""
        return self.bigK * _each(math.cos, self.theta)

    @property
    def ky_out(self):
        return self.bigK * _each(math.sin, self.theta)


@dataclass(frozen=True)
class DefectMatrix:
    """The symmetric defect matrix, its inverse, and its 1-norm condition
    number ||A||_1 ||Ainv||_1; for a 1-D kx, stacked along a leading axis
    with one condition number per point."""

    matrix: np.ndarray
    inverse: np.ndarray
    cond: float | np.ndarray

    def __getitem__(self, index) -> DefectMatrix:
        """The matrices of a stack at the points index selects."""
        return DefectMatrix(self.matrix[index], self.inverse[index], self.cond[index])

    def weights(self, b) -> np.ndarray:
        """w = Ainv b, one row of b per point for a stacked matrix.  A is
        symmetric, so w also stands for Ainv^T b."""
        return (self.inverse @ np.asarray(b)[..., None])[..., 0]

    def require_regular(self) -> DefectMatrix:
        """self, after raising SingularMatrixError, carrying the condition
        number, if the matrix at any point is numerically singular: its
        condition number is past COND_LIMIT or not finite."""
        conds = np.atleast_1d(self.cond)
        bad = ~(conds <= COND_LIMIT)
        if bad.any():
            cond = float(conds[bad][0])
            raise SingularMatrixError(
                f"defect matrix is singular to working precision (cond ~ {cond:.3g})",
                cond,
            )
        return self


def build_defect_matrix(kx, defects: DefectSet) -> DefectMatrix:
    """Assemble and invert A[m,n] = 2 kx delta_mn / z_m + i e^{i kx |am - an|}.

    kx may have either sign (the outgoing-frame matrix uses K cos(theta));
    the inverse is computed by LU factorization with partial pivoting, and
    the condition number is the exact 1-norm one of that inverse.
    Raises SingularMatrixError, carrying the condition number, when the
    matrix is numerically singular.

    kx may also be a 1-D array: the matrices, inverses and condition numbers
    are then stacked per point.  Instead of raising, a stack gives an
    exactly singular matrix cond = inf and a NaN inverse, and leaves the
    decision to the caller: require_regular applies the scalar rule to
    every point.
    """
    kxs = np.asarray(kx, dtype=float)
    if kxs.ndim == 0:
        dm = build_defect_matrix(kxs[None], defects).require_regular()
        return DefectMatrix(dm.matrix[0], dm.inverse[0], float(dm.cond[0]))
    n = defects.n
    if n == 0:
        empty = np.zeros((kxs.size, 0, 0), dtype=complex)
        return DefectMatrix(empty, empty, np.ones(kxs.size))
    alphas = defects.alphas
    sep = np.abs(alphas[:, None] - alphas[None, :])
    a = 1j * np.exp(1j * kxs[:, None, None] * sep)
    a[:, np.arange(n), np.arange(n)] += 2.0 * kxs[:, None] / defects.z
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        # numpy refuses the whole stack for one exactly singular matrix
        inv = np.full_like(a, np.nan)
        for i, ai in enumerate(a):
            with contextlib.suppress(np.linalg.LinAlgError):
                inv[i] = np.linalg.inv(ai)
    # 1-norms: the largest column sum of |entries|
    cond = np.abs(a).sum(axis=1).max(axis=1) * np.abs(inv).sum(axis=1).max(axis=1)
    cond[np.isnan(cond)] = np.inf
    return DefectMatrix(a, inv, cond)


@dataclass(frozen=True)
class TCoefficients:
    """Far-field transmission (t_plus) and mirror reflection (t_minus)."""

    t_plus: complex
    t_minus: complex

    @property
    def unitarity(self) -> float:
        """|1 + t_plus|^2 + |t_minus|^2; equals 1 for all-real couplings."""
        return abs(1.0 + self.t_plus) ** 2 + abs(self.t_minus) ** 2


def t_coefficients(kx: float, defects: DefectSet) -> TCoefficients:
    """Transmission and reflection coefficients of the defect array:
    t_plus = -i conj(e) . w and t_minus = -i e . w with w = Ainv e."""
    e = np.exp(1j * kx * defects.alphas)
    w = build_defect_matrix(kx, defects).weights(e)
    return TCoefficients(
        t_plus=complex(-1j * (np.conj(e) @ w)), t_minus=complex(-1j * (e @ w))
    )


@dataclass(frozen=True)
class F0Distribution:
    """Zeroth-order amplitude: two delta-supported spikes, never pointwise.

    The flat-plane defect array scatters the incident wave into exactly the
    forward direction theta0 (weight t_plus) and the mirror direction
    pi - theta0 (weight t_minus), each multiplied by the common prefactor
    sqrt(2 pi / k) e^{-i pi/4}.  Evaluating f0 at a generic angle is
    meaningless; this object only reports the weights and their supports.
    """

    prefactor: complex
    t_plus: complex
    t_minus: complex
    theta_forward: float
    theta_mirror: float

    @property
    def forward_weight(self) -> complex:
        return self.prefactor * self.t_plus

    @property
    def mirror_weight(self) -> complex:
        return self.prefactor * self.t_minus

    @property
    def unitarity(self) -> float:
        return abs(1.0 + self.t_plus) ** 2 + abs(self.t_minus) ** 2


def f0_distributional(kin: Kinematics, defects: DefectSet) -> F0Distribution:
    """Delta-supported zeroth-order amplitude for the flat defect array."""
    tc = t_coefficients(kin.kx, defects)
    pref = math.sqrt(2.0 * math.pi / kin.bigK) * cmath.exp(-1j * math.pi / 4.0)
    return F0Distribution(
        prefactor=pref,
        t_plus=tc.t_plus,
        t_minus=tc.t_minus,
        theta_forward=kin.theta0,
        theta_mirror=math.pi - kin.theta0,
    )


def chi_profile(x, kx: float, defects: DefectSet):
    """1D transverse profile chi(x) of psi0 (psi0 = chi(x) e^{i ky y} / 2 pi).

    chi(x) = e^{i kx x} - i sum_n v_n e^{i |kx| |x - an|} with
    v = A(|kx|)^{-1} e^{i kx alpha}: the outgoing state for either sign of
    kx, whose scattered kinks all run away from the lines.
    """
    x = np.asarray(x, dtype=float)
    k = abs(kx)
    w = build_defect_matrix(k, defects).weights(np.exp(1j * kx * defects.alphas))
    out = np.exp(1j * kx * x).astype(complex)
    for wn, an in zip(w, defects.alphas):
        out = out - 1j * wn * np.exp(1j * k * np.abs(x - an))
    return out


def chi_dual_profile(x, kx: float, defects: DefectSet):
    """Transverse profile of the dual state psi0_dual.

    chi_dual(x) = e^{i kx x} + i sum_n conj(w~_n) e^{-i kx |x - an|} with
    w~ = Ainv conj(e).  Its complex conjugate is the bra of first-order
    perturbation theory.
    """
    x = np.asarray(x, dtype=float)
    w = build_defect_matrix(kx, defects).weights(np.exp(-1j * kx * defects.alphas))
    out = np.exp(1j * kx * x).astype(complex)
    for wn, an in zip(np.conj(w), defects.alphas):
        out = out + 1j * wn * np.exp(-1j * kx * np.abs(x - an))
    return out


def psi0(x, y, kin: Kinematics, defects: DefectSet):
    """Exact unperturbed scattering state (2 pi momentum normalization)."""
    y = np.asarray(y, dtype=float)
    return chi_profile(x, kin.kx, defects) * np.exp(1j * kin.ky * y) / (2.0 * math.pi)


def psi0_dual(x, y, kin: Kinematics, defects: DefectSet):
    """Dual unperturbed state; conj(psi0_dual) is the perturbative bra."""
    y = np.asarray(y, dtype=float)
    return (
        chi_dual_profile(x, kin.kx, defects)
        * np.exp(1j * kin.ky * y)
        / (2.0 * math.pi)
    )
