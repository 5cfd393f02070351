"""Support-function differential geometry, bodies of revolution and the
umbilic-cap verification machinery."""

from zonotools.convex.support import (
    SupportFunction,
    UmbilicReport,
    boundary_points_grid,
    fit_sphere,
    mixed_area_density_grid,
    mixed_volume,
    newton_report,
    radii_grid,
    random_support_function,
    umbilic_sphere_check,
    umbilic_sphere_check_data,
)
from zonotools.convex.revolution import (
    RevolutionBody,
    ZonalMeasure,
    cap_measure_errors,
    minkowski_solve_revolution,
    prescribed_cap_measure,
    surface_area_measure_zonal,
)
from zonotools.convex import fixtures

__all__ = [
    "RevolutionBody",
    "SupportFunction",
    "UmbilicReport",
    "ZonalMeasure",
    "boundary_points_grid",
    "cap_measure_errors",
    "fit_sphere",
    "fixtures",
    "mixed_area_density_grid",
    "mixed_volume",
    "minkowski_solve_revolution",
    "newton_report",
    "prescribed_cap_measure",
    "radii_grid",
    "random_support_function",
    "surface_area_measure_zonal",
    "umbilic_sphere_check",
    "umbilic_sphere_check_data",
]
