"""Surface geometry of the Gaussian bump and the induced operator.

The scattering surface is the rotationally symmetric graph z = f(r) with

    f(r) = delta * exp(-r**2 / 2),

in sigma-scaled units (the bump width sigma is the unit of length),
embedded in flat 3D space.  A particle confined to a thin layer around the
surface feels, after the normal degree of freedom is frozen out, an extra
in-plane operator built from two ingredients:

  * the metric of the curved surface, entering through
    G(r) = f'(r) / sqrt(1 + f'(r)**2), and
  * a curvature-induced potential  V = 2*lambda1*K + 2*lambda2*M**2  with
    Gaussian curvature K and mean curvature M; the physical thin-layer
    values are lambda1 = +1/2, lambda2 = -1/2, but both are kept free so
    the two contributions can be switched on and off independently.

In polar coordinates the full perturbation acting on a wave h reads
L h = a h_rr + (b/r) h_r + c h.  With r h_r = x h_x + y h_y and
r**2 h_rr = x**2 h_xx + 2xy h_xy + y**2 h_yy this is the Cartesian operator

    L h = a/r**2 (x**2 h_xx + 2xy h_xy + y**2 h_yy)
        + b/r**2 (x h_x + y h_y) + c h,

and this module evaluates its coefficient triple (a/r**2, b/r**2, c) in two
forms: exact in the bump height, and truncated at first order in the
smallness parameter  eta = delta**2  (the form the closed-form scattering
coefficients are built on).  All evaluators are origin-regular: they use
the analytic ratio f'(r)/r instead of dividing by r, so r = 0 is an
ordinary point.  They accept numpy arrays.

Exact coefficient forms (g := f'(r), w := 1 + g**2):

    a = G**2 = g**2/w,   b = G**2 + r*G*G' = a + r*g*f''/w**2
    K = (g/r) * f'' / w**2
    M = (1/2) * [ (g/r)/sqrt(w) + f''/w**(3/2) ]
    c_exact = 2*lambda1*K + 2*lambda2*M**2

First order in eta:

    a1 = g**2,   b1 = g**2 + r*g*f'',
    c1 = 2*lambda1*(g/r)*f'' + (lambda2/2)*((g/r) + f'')**2
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BumpProfile",
    "CurvatureCoefficients",
    "RadialOperatorCoefficients",
    "curvatures",
    "operator_coeffs_exact",
    "operator_coeffs_first_order",
]

# Above this the first-order (single-scattering) treatment of the geometry
# is dubious; constructing such a profile warns but is not an error.
ETA_SOFT_LIMIT = 0.3


@dataclass(frozen=True)
class BumpProfile:
    """Gaussian bump profile f(r) = delta * exp(-r**2 / 2), sigma-scaled.

    delta is the peak height in units of the width; eta = delta**2 is the
    perturbative smallness parameter of the geometric scattering series.
    """

    delta: float

    def __post_init__(self):
        if not np.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta!r}")
        if self.eta > ETA_SOFT_LIMIT:
            warnings.warn(
                f"eta = delta^2 = {self.eta:.3g} exceeds {ETA_SOFT_LIMIT}; "
                "first-order geometric amplitudes are unreliable this far from "
                "the perturbative regime",
                stacklevel=2,
            )

    @property
    def eta(self) -> float:
        return self.delta**2

    # -- profile and derivatives (vectorized, origin-regular) --------------

    def _gauss(self, r):
        r = np.asarray(r, dtype=float)
        return np.exp(-r * r / 2.0)

    def value(self, r):
        """f(r)."""
        return self.delta * self._gauss(r)

    def slopes(self, r):
        """(f'(r), f'(r)/r, f''(r)) from one Gaussian evaluation; f'/r is
        continued analytically through r = 0."""
        r = np.asarray(r, dtype=float)
        gauss = self._gauss(r)
        return (-self.delta * r * gauss, -self.delta * gauss,
                self.delta * (r * r - 1.0) * gauss)


@dataclass(frozen=True)
class CurvatureCoefficients:
    """Weights of the curvature-induced potential 2*l1*K + 2*l2*M**2.

    The thin-layer confinement values are lambda1 = 0.5, lambda2 = -0.5.
    Either weight may be an array that broadcasts against r, one weight per
    point; such an instance can be neither hashed nor compared with ==.
    """

    lambda1: float | np.ndarray
    lambda2: float | np.ndarray

    def __post_init__(self):
        if not (np.all(np.isfinite(self.lambda1)) and np.all(np.isfinite(self.lambda2))):
            raise ValueError("curvature coefficients must be finite")


@dataclass(frozen=True)
class RadialOperatorCoefficients:
    """Coefficients of the Cartesian operator at radius r: the
    origin-regular ratios a/r**2 and b/r**2 of L = a d2/dr2 + b (1/r) d/dr
    + c, and c.  For the Gaussian bump all three stay finite at r = 0.
    """

    a_over_r2: np.ndarray
    b_over_r2: np.ndarray
    c: np.ndarray


def curvatures(r, profile: BumpProfile):
    """Gaussian curvature K and mean curvature M of z = f(r), exactly.

    Uses the graph-of-revolution formulas through G = f'/sqrt(1+f'^2);
    the ratio f'/r is evaluated analytically so the axis r = 0 is regular:
    K(0) = f''(0)**2 and M(0) = f''(0) for any smooth even-slope profile
    (for the Gaussian bump, K(0) = delta**2, M(0) = -delta).
    """
    g, gr, g2 = profile.slopes(r)
    w = 1.0 + g * g
    K = gr * g2 / (w * w)
    M = 0.5 * (gr / np.sqrt(w) + g2 / w**1.5)
    return K, M


def operator_coeffs_exact(r, profile: BumpProfile, cc: CurvatureCoefficients):
    """Exact operator coefficients (all orders in the bump height).

    a = G**2, b = G**2 + r G G', c = 2*lambda1*K + 2*lambda2*M**2 with
    G = f'/sqrt(1+f'^2).  The c path deliberately goes through curvatures()
    so it is an independent code path from the G-based a and b.
    """
    g, gr, g2 = profile.slopes(r)
    w = 1.0 + g * g
    G2_over_r2 = gr * gr / w
    K, M = curvatures(r, profile)
    return RadialOperatorCoefficients(
        a_over_r2=G2_over_r2,
        # r G G' / r**2 = (g/r) g2 / w**2
        b_over_r2=G2_over_r2 + gr * g2 / (w * w),
        c=2.0 * cc.lambda1 * K + 2.0 * cc.lambda2 * M * M,
    )


def operator_coeffs_first_order(r, profile: BumpProfile, cc: CurvatureCoefficients):
    """Operator coefficients truncated at first order in eta.

    This is the form the closed-form scattering coefficients integrate:
    a = f'^2, b = f'^2 + r f' f'', c = 2*l1*(f'/r)*f'' + (l2/2)*(f'/r + f'')**2.
    The truncation error relative to the exact coefficients is O(eta^2),
    i.e. O(eta) relative to the coefficients themselves.
    """
    _, gr, g2 = profile.slopes(r)
    return RadialOperatorCoefficients(
        a_over_r2=gr * gr,
        b_over_r2=gr * gr + gr * g2,
        c=2.0 * cc.lambda1 * gr * g2 + 0.5 * cc.lambda2 * (gr + g2) ** 2,
    )
