"""Quadrature grids on the unit sphere, great circles and tangent frames.

The grid is a tensor product of Gauss-Legendre nodes in cos(theta) and
uniformly spaced longitudes, so every latitude ring carries nodes of equal
weight.  That ring structure is what the radial symmetrization operator
relies on, and the product rule integrates all spherical polynomials of
degree <= min(2*n_theta - 1, n_phi - 1) exactly.

All angles are in radians; surface measures are those induced by the
2-dimensional Hausdorff measure on the unit sphere (total mass 4*pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class SphericalGrid:
    """Gauss-Legendre x uniform product grid on the unit sphere.

    Nodes are ordered ring-major: node ``i * n_phi + j`` sits at colatitude
    ``theta[i]`` and longitude ``phi[j]``.  All nodes of a ring share the
    weight ``ring_weight[i]`` and the weights sum to 4*pi.
    """

    n_theta: int
    n_phi: int
    nodes: np.ndarray        # (N, 3) unit vectors
    weights: np.ndarray      # (N,) positive quadrature weights
    theta: np.ndarray        # (n_theta,) ring colatitudes, increasing
    phi: np.ndarray          # (n_phi,) longitudes
    cos_theta: np.ndarray    # (n_theta,) = cos(theta), decreasing
    ring_weight: np.ndarray  # (n_theta,) per-node weight within each ring

    @property
    def n_nodes(self):
        return self.n_theta * self.n_phi

    def ring_view(self, values):
        """Reshape node values to (n_theta, n_phi) without copying."""
        values = np.asarray(values)
        if values.shape != (self.n_nodes,):
            raise ValueError(
                f"expected {self.n_nodes} node values, got shape {values.shape}"
            )
        return values.reshape(self.n_theta, self.n_phi)

    def antipode_index(self):
        """Permutation mapping each node to its antipode (requires even n_phi)."""
        if self.n_phi % 2 != 0:
            raise ValueError("antipodal node map needs an even longitude count")
        i = np.arange(self.n_theta)[:, None]
        j = np.arange(self.n_phi)[None, :]
        idx = (self.n_theta - 1 - i) * self.n_phi + (j + self.n_phi // 2) % self.n_phi
        return idx.reshape(-1)

    def reflection_index(self, axis):
        """Permutation mapping each node to its mirror image under x -> -x
        (``axis="x"``, longitude pi - phi; requires even n_phi) or y -> -y
        (``axis="y"``, longitude -phi).  Both keep every node on its ring."""
        j = np.arange(self.n_phi)
        if axis == "y":
            lon = -j % self.n_phi
        elif axis == "x":
            if self.n_phi % 2 != 0:
                raise ValueError("x reflection node map needs an even longitude count")
            lon = (self.n_phi // 2 - j) % self.n_phi
        else:
            raise ValueError(f"reflection axis must be 'x' or 'y', got {axis!r}")
        return (np.arange(self.n_theta)[:, None] * self.n_phi + lon).reshape(-1)

    def cap_mask(self, cap):
        """Boolean mask of the nodes lying inside a spherical cap."""
        return cap.contains(self.nodes)


@lru_cache(maxsize=16)
def leggauss(n):
    """Gauss-Legendre nodes and weights of degree n on [-1, 1], as numpy's
    ``leggauss`` returns them; cached per n, both arrays read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def build_grid(n_theta, n_phi):
    """Build the product quadrature grid.

    Parameters
    ----------
    n_theta : int
        Number of Gauss-Legendre colatitude rings, at least 2.
    n_phi : int
        Number of uniformly spaced longitudes, at least 4.
    """
    if n_theta < 2:
        raise ValueError(f"n_theta must be >= 2, got {n_theta}")
    if n_phi < 4:
        raise ValueError(f"n_phi must be >= 4, got {n_phi}")
    t, glw = np.polynomial.legendre.leggauss(n_theta)
    order = np.argsort(-t)  # colatitude increasing from the north pole
    t, glw = t[order], glw[order]
    theta = np.arccos(t)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    sin_theta = np.sqrt(1.0 - t**2)
    nodes = np.empty((n_theta * n_phi, 3))
    nodes[:, 0] = np.outer(sin_theta, np.cos(phi)).reshape(-1)
    nodes[:, 1] = np.outer(sin_theta, np.sin(phi)).reshape(-1)
    nodes[:, 2] = np.repeat(t, n_phi)
    ring_weight = glw * (2.0 * np.pi / n_phi)
    weights = np.repeat(ring_weight, n_phi)
    return SphericalGrid(
        n_theta=n_theta,
        n_phi=n_phi,
        nodes=nodes,
        weights=weights,
        theta=theta,
        phi=phi,
        cos_theta=t,
        ring_weight=ring_weight,
    )


def integrate(grid, f):
    """Quadrature of node samples over the sphere.

    ``f`` may be a plain array of node values or any object exposing a
    ``values`` attribute of that shape.  The reduction uses numpy's pairwise
    summation in node order, so repeated runs are bit-identical.
    """
    values = np.asarray(getattr(f, "values", f), dtype=float)
    if values.shape != (grid.n_nodes,):
        raise ValueError(
            f"expected {grid.n_nodes} node values, got shape {values.shape}"
        )
    return float(np.sum(grid.weights * values))


def tangent_basis(u):
    """Deterministic orthonormal frame (eps1, eps2) spanning u-perp.

    Away from the poles eps1 = normalize(e3 x u); within 0.9 of the poles
    the frame switches to eps1 = normalize(e1 - <e1,u> u) to avoid the
    degeneracy.  Always eps2 = u x eps1, so (eps1, eps2, u) is a
    right-handed orthonormal triple.  ``u`` is one unit vector or an
    (N, 3) array of them; a non-finite entry or a norm more than 1e-12
    from 1 raises ValueError, the rule ``Cap`` applies to its centre.
    """
    u = np.asarray(u, dtype=float)
    single = u.ndim == 1
    pts = np.atleast_2d(u)
    off = np.abs(np.linalg.norm(pts, axis=1) - 1.0)
    if not np.all(off <= 1e-12):  # also false for NaN and infinite entries
        raise ValueError(f"tangent frame needs a finite unit vector, norm is off by {np.max(off):.3e}")
    eps1 = np.empty_like(pts)
    polar = np.abs(pts[:, 2]) >= 0.9
    gen = ~polar
    if np.any(gen):
        v = np.cross(np.broadcast_to(E3, pts[gen].shape), pts[gen])
        eps1[gen] = v / np.linalg.norm(v, axis=1, keepdims=True)
    if np.any(polar):
        v = E1 - pts[polar, 0:1] * pts[polar]
        eps1[polar] = v / np.linalg.norm(v, axis=1, keepdims=True)
    eps2 = np.cross(pts, eps1)
    if single:
        return eps1[0], eps2[0]
    return eps1, eps2


@dataclass(frozen=True)
class GreatCircle:
    """Equispaced nodes on the great circle orthogonal to ``normal``.

    The trapezoidal weight 2*pi/m per node is spectrally accurate for
    smooth periodic integrands, and exact for trigonometric polynomials of
    degree < m in the circle angle.  ``normal`` may also be an (S, 3)
    stack of unit vectors; the frame vectors then stack the same way and
    ``nodes`` holds the S circles, each node bitwise equal to the one its
    circle gets on its own.
    """

    normal: np.ndarray
    eps1: np.ndarray
    eps2: np.ndarray
    m: int
    angles: np.ndarray

    @property
    def nodes(self):
        """(m, 3) node array, or (S, m, 3) for S stacked normals."""
        c, s = np.cos(self.angles)[:, None], np.sin(self.angles)[:, None]
        return c * self.eps1[..., None, :] + s * self.eps2[..., None, :]


def great_circle(u, m=256):
    """Great circle S^2 ∩ u-perp with m equispaced quadrature nodes; ``u``
    is one unit vector or an (S, 3) stack of them (S circles)."""
    if m < 8:
        raise ValueError(f"need at least 8 circle nodes, got {m}")
    u = np.asarray(u, dtype=float)
    eps1, eps2 = tangent_basis(u)  # rejects a normal that is not a unit vector
    angles = 2.0 * np.pi * np.arange(m) / m
    return GreatCircle(normal=u, eps1=eps1, eps2=eps2, m=m, angles=angles)


@dataclass(frozen=True)
class Cap:
    """Open spherical cap {x : <x, center> > height}, 0 < height < 1."""

    center: np.ndarray
    height: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        if abs(np.linalg.norm(c) - 1.0) > 1e-12:
            raise ValueError("cap center must be a unit vector")
        if not 0.0 < self.height < 1.0:
            raise ValueError(f"cap height must lie in (0, 1), got {self.height}")
        object.__setattr__(self, "center", c)

    @property
    def radius(self):
        """Geodesic radius of the cap."""
        return math.acos(self.height)

    def contains(self, points):
        points = np.asarray(points, dtype=float)
        return points @ self.center > self.height

    def antipodal(self):
        return Cap(center=-self.center, height=self.height)

    def separation(self, other):
        """Geodesic distance between two caps (0 if they overlap)."""
        gap = math.acos(
            float(np.clip(np.dot(self.center, other.center), -1.0, 1.0))
        )
        return max(0.0, gap - self.radius - other.radius)

    def sample(self, count, rng):
        """Uniform random points inside the cap."""
        t = rng.uniform(self.height, 1.0, size=count)
        ang = rng.uniform(0.0, 2.0 * np.pi, size=count)
        r = np.sqrt(1.0 - t**2)
        eps1, eps2 = tangent_basis(self.center)
        return (
            np.outer(t, self.center)
            + np.outer(r * np.cos(ang), eps1)
            + np.outer(r * np.sin(ang), eps2)
        )


CSV_HEADER = "theta,phi,weight,value"

#: Grid layouts whose text stays cached (0.5 MB for 64 x 128).
CSV_LAYOUT_CACHE_SIZE = 4


def _ring_text(theta, weight, phi, cell):
    """The rows of one ring, ``theta,phi,weight,`` with 17 significant
    digits and then ``cell``, joined by newlines; ``phi`` holds the
    formatted longitudes."""
    head, tail = f"{theta:.17g},", f",{weight:.17g},{cell}"
    return head + (tail + "\n" + head).join(phi) + tail


@lru_cache(maxsize=CSV_LAYOUT_CACHE_SIZE)
def _csv_layout(theta_key, weight_key, phi_key):
    """The rows grid_to_csv writes for the grid of these ring colatitudes,
    ring weights and longitudes, joined by newlines, each value cell a
    ``%s`` template field; one string, cached per grid."""
    phi = [f"{p:.17g}" for p in np.frombuffer(phi_key)]
    return "\n".join(
        _ring_text(th, w, phi, "%s")
        for th, w in zip(np.frombuffer(theta_key), np.frombuffer(weight_key))
    )


def grid_to_csv(path, grid, values):
    """Dump node samples as CSV with header theta,phi,weight,value.

    Every number is written with 17 significant digits, so the floats read
    back exactly.  Each ring is written by one call: its text is a
    %-template that holds theta and the weight, formatted once per ring,
    and phi, formatted once per longitude, so only the values are
    formatted per node.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n_nodes,):
        raise ValueError("value column must match the grid size")
    phi = [f"{p:.17g}" for p in grid.phi]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for th, w, ring in zip(grid.theta, grid.ring_weight, grid.ring_view(values)):
            fh.write((_ring_text(th, w, phi, "%.17g") + "\n") % tuple(ring.tolist()))


def _text_values(rows, grid):
    """The value cells of ``rows`` as floats when the rows are exactly the
    grid's layout text (``_csv_layout``) with one finite float in each
    value cell, else None.

    Each row's value cell is the text after its last comma; filled into
    the layout, the cells must give back the rows, so every row has
    exactly three commas and the grid's own theta, phi and weight cells,
    and the numeric check would accept it with the same value: numpy
    converts the value text in both routes.
    """
    if len(rows) != grid.n_nodes:
        return None
    layout = _csv_layout(grid.theta.tobytes(), grid.ring_weight.tobytes(), grid.phi.tobytes())
    cells = [row.rpartition(",")[2] for row in rows]
    if layout % tuple(cells) != "\n".join(rows):
        return None
    try:
        values = np.array(cells, dtype=float)
    except ValueError:  # a cell that is not a float
        return None
    return values if np.all(np.isfinite(values)) else None


def grid_from_csv(path, grid):
    """Read a value column dumped by grid_to_csv, validating the layout.

    Every row must hold four finite floats, its theta and phi within 1e-9
    of its grid node.  A file whose rows are the text that grid_to_csv
    writes for the grid, whatever the values (``_csv_layout``), has only
    its value column converted (``_text_values``).  Any other file goes
    through the
    numeric check (``_check_rows``), whose ValueError names the first
    offending line of the file.  Both routes accept the same files and
    return the same values.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"line 1: expected header {CSV_HEADER}, got {header!r}")
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()  # the newline that ends the last row
    rows = lines[: grid.n_nodes]
    values = _text_values(rows, grid)
    if values is None:
        values = _check_rows(rows, grid)
    if len(lines) < grid.n_nodes:
        raise ValueError(f"line {len(lines) + 2}: unexpected end of file")
    if len(lines) > grid.n_nodes:
        raise ValueError(f"line {grid.n_nodes + 2}: trailing data after grid rows")
    return values


def _check_rows(rows, grid):
    """The numeric check of grid_from_csv: ``rows`` parsed and checked
    line by line, their value column returned; the ValueError names the
    first offending line of the file."""
    values = np.empty(len(rows))
    theta = np.repeat(grid.theta, grid.n_phi)
    phi = np.tile(grid.phi, grid.n_theta)
    for k, line in enumerate(rows):
        parts = line.strip().split(",")
        if len(parts) != 4:
            raise ValueError(f"line {k + 2}: expected 4 columns, got {len(parts)}")
        try:
            row = [float(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"line {k + 2}: {exc}") from None
        for name, cell, text in zip(CSV_HEADER.split(","), row, parts):
            if not math.isfinite(cell):
                raise ValueError(f"line {k + 2}: {name} is not finite ({text.strip()!r})")
        if abs(row[0] - theta[k]) > 1e-9 or abs(row[1] - phi[k]) > 1e-9:
            raise ValueError(f"line {k + 2}: node does not match the grid layout")
        values[k] = row[3]
    return values
