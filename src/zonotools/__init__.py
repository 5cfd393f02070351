"""Integral geometry on the 2-sphere.

Spherical quadrature and harmonics, cosine and Funk transforms, radial
symmetrization, support-function differential geometry, bodies of
revolution with a Minkowski-problem solver, and zonoids generated by
densities, including a constructive family of non-constant densities
whose great-circle sections are all isotropic over a cap of directions.
"""

from zonotools.sphere import (
    Cap,
    GreatCircle,
    SphericalGrid,
    build_grid,
    great_circle,
    integrate,
    tangent_basis,
)

__version__ = "0.1.0"

from zonotools import convex, harmonics, transforms, zonoid  # noqa: E402

__all__ = [
    "Cap",
    "GreatCircle",
    "SphericalGrid",
    "build_grid",
    "great_circle",
    "integrate",
    "tangent_basis",
    "__version__",
]
