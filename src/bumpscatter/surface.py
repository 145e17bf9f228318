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

and this module evaluates its coefficients truncated at first order in
the smallness parameter  eta = delta**2, the form the closed-form
scattering coefficients are built on (g := f'(r)):

    a = g**2,   b = g**2 + r*g*f'',
    c = lambda1*c1 + lambda2*c2,   c1 = 2*(g/r)*f'',   c2 = ((g/r) + f'')**2 / 2.

c1 and c2 are the first-order parts of 2K and 2M**2: the bump fixes them,
and the caller weighs them.  The evaluator is origin-regular: it uses the
analytic ratio f'(r)/r instead of dividing by r, so r = 0 is an ordinary
point.  It accepts numpy arrays.  The exact coefficients, to all orders
in the bump height, are derived from the embedding with sympy in
tests/test_surface.py, which checks that this truncation is their
delta**2 term.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BumpProfile",
    "RadialOperatorCoefficients",
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
class RadialOperatorCoefficients:
    """Coefficients of the Cartesian operator at radius r: the
    origin-regular ratios a/r**2 and b/r**2 of L = a d2/dr2 + b (1/r) d/dr
    + c, and the two curvature parts of c = lambda1 c1 + lambda2 c2.  For
    the Gaussian bump all four stay finite at r = 0.
    """

    a_over_r2: np.ndarray
    b_over_r2: np.ndarray
    c1: np.ndarray
    c2: np.ndarray


def operator_coeffs_first_order(r, profile: BumpProfile):
    """Operator coefficients truncated at first order in eta.

    This is the form the closed-form scattering coefficients integrate:
    a = f'^2, b = f'^2 + r f' f'', and c = lambda1 c1 + lambda2 c2 with
    c1 = 2 (f'/r) f'' and c2 = (f'/r + f'')**2 / 2.  The truncation error
    relative to the exact coefficients is O(eta^2), i.e. O(eta) relative
    to the coefficients themselves.
    """
    _, gr, g2 = profile.slopes(r)
    return RadialOperatorCoefficients(
        a_over_r2=gr * gr,
        b_over_r2=gr * gr + gr * g2,
        c1=2.0 * gr * g2,
        c2=0.5 * (gr + g2) ** 2,
    )
