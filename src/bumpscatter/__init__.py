"""Scattering of a 2D quantum particle by a Gaussian bump with line defects.

The package computes, in sigma-scaled units, the exact scattering state of
a particle crossing N parallel delta-line defects on a flat plane
(bumpscatter.defects), the geometry of a Gaussian bump and the curvature
operator it induces (bumpscatter.surface), and the first-order geometric
correction to the scattering amplitude with closed-form coefficients
(bumpscatter.geoamp) validated by an independent adaptive-quadrature
oracle (bumpscatter.oracle).  bumpscatter.feasibility translates SI defect
parameters into the engine's dimensionless inputs, and bumpscatter.cli
exposes sweeps, verification, and plotting.
"""

__version__ = "0.1.0"

from .defects import (  # noqa: F401
    DefectSet,
    F0Distribution,
    InputError,
    Kinematics,
    SingularMatrixError,
    TCoefficients,
    build_defect_matrix,
    f0_distributional,
    psi0,
    psi0_dual,
    t_coefficients,
)
from .geoamp import (  # noqa: F401
    GeoCoefficientInputs,
    I0_closed,
    SingularAngleError,
    coefficient_table,
    cross_section,
    f1_geometric,
)
from .surface import (  # noqa: F401
    BumpProfile,
    CurvatureCoefficients,
    RadialOperatorCoefficients,
    curvatures,
    operator_coeffs_exact,
    operator_coeffs_first_order,
)
