"""Closed-form zonal bodies used as test fixtures and counterexample
witnesses: the ball, the lens (intersection of two balls) and the
spherocylinder (ball plus segment).

The ball builds its sampled profile (``body``); the lens and the
spherocylinder give their principal radii in the normal parametrization,
as functions of the normal latitude t, and their boundary points, and the
lens its exact support values.  The lens and the spherocylinder are the
two classical obstructions for umbilic-implies-sphere statements: the
lens has equal principal curvatures almost everywhere on each smooth
boundary piece yet its radii (normal parametrization) split on the edge
fan, while the spherocylinder is umbilic at almost every normal but its
first-order area measure carries a singular equator component, so no
single sphere fits its boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from zonotools.convex.revolution import RevolutionBody


def _meridian_frame(u):
    """Unit vector of the equatorial component of u (meridian direction)."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    horiz = u.copy()
    horiz[:, 2] = 0.0
    norms = np.linalg.norm(horiz, axis=1, keepdims=True)
    safe = np.where(norms > 1e-15, norms, 1.0)
    return horiz / safe


@dataclass(frozen=True)
class Ball:
    radius: float = 1.0

    def body(self, n=4097):
        r = self.radius
        return RevolutionBody.from_function(
            lambda rho: np.sqrt(np.maximum(0.0, r * r - rho * rho)), r, n
        )


@dataclass(frozen=True)
class Lens:
    """Intersection of two balls of radius r centered at ±c e3 (c < r).

    The boundary is two spherical caps meeting at the edge circle of
    radius d = sqrt(r^2 - c^2); normals with |t| < t_edge = c / r fan
    around the edge.  Support:

        h(t) = r - c |t|            for |t| >= c / r   (cap-supported)
        h(t) = d sqrt(1 - t^2)      for |t| <  c / r   (edge-supported)

    On the fan the radii are (0, d / sqrt(1 - t^2)): unequal, although
    the curvatures on each smooth cap piece are identically 1/r.
    """

    r: float = 1.0
    c: float = 0.5

    @property
    def d(self):
        return math.sqrt(self.r**2 - self.c**2)

    @property
    def t_edge(self):
        return self.c / self.r

    def support(self, t):
        t = np.asarray(t, dtype=float)
        cap = self.r - self.c * np.abs(t)
        edge = self.d * np.sqrt(np.maximum(0.0, 1.0 - t * t))
        return np.where(np.abs(t) >= self.t_edge, cap, edge)

    def radii(self, t):
        t = np.asarray(t, dtype=float)
        on_cap = np.abs(t) >= self.t_edge
        r1 = np.where(on_cap, self.r, 0.0)
        r2 = np.where(
            on_cap, self.r, self.d / np.sqrt(np.maximum(1e-30, 1.0 - t * t))
        )
        return r1, r2

    def boundary_points(self, u):
        u = np.atleast_2d(np.asarray(u, dtype=float))
        t = u[:, 2]
        e3 = np.array([0.0, 0.0, 1.0])
        cap_pts = self.r * u - np.outer(np.sign(t) * self.c, e3)
        edge_pts = self.d * _meridian_frame(u)
        return np.where(
            (np.abs(t) >= self.t_edge)[:, None], cap_pts, edge_pts
        )


@dataclass(frozen=True)
class Spherocylinder:
    """Minkowski sum of a ball of radius r and the segment [-l/2, l/2] e3.

    h(t) = r + (l/2) |t|; at every normal off the equator the boundary
    point lies on one of the two hemispherical caps, so r1 = r2 = r, yet
    the cylindrical wall sends a surface-area atom to t = 0 and the two
    cap centers differ: no single sphere contains the boundary.
    """

    r: float = 1.0
    l: float = 0.6

    def radii(self, t):
        t = np.asarray(t, dtype=float)
        r = np.where(np.abs(t) > 0, self.r, np.nan)
        return r, r.copy()

    def boundary_points(self, u):
        u = np.atleast_2d(np.asarray(u, dtype=float))
        e3 = np.array([0.0, 0.0, 1.0])
        return self.r * u + np.outer(np.sign(u[:, 2]) * 0.5 * self.l, e3)
