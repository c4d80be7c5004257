"""Probabilistic whole-body inverse dynamics for articulated rigid-body models.

The package assembles the Newton-Euler equations of a fixed-base kinematic
tree as a sparse linear constraint on the stacked per-link dynamic variables,
fuses redundant noisy sensor readings, and computes maximum-a-posteriori
estimates of every link/joint dynamic quantity together with covariances.
"""

from mapdyn.spatial import (
    GRAVITY,
    GRAVITY_SPATIAL,
    HomTransform,
    SpatialInertia,
    adjoint_force,
    adjoint_motion,
    body_equation_of_motion,
    cross_force,
    cross_motion,
    inertia_of_shape,
    skew,
)

__version__ = "0.1.0"

__all__ = [
    "GRAVITY",
    "GRAVITY_SPATIAL",
    "HomTransform",
    "SpatialInertia",
    "adjoint_force",
    "adjoint_motion",
    "body_equation_of_motion",
    "cross_force",
    "cross_motion",
    "inertia_of_shape",
    "skew",
    "__version__",
]
