"""Support functions as band-limited expansions: principal radii, area
densities, Newton and mixed-volume diagnostics, and sphere fitting.

The radii matrix at a direction u is the tangential Hessian of the
1-homogeneous extension of h restricted to u-perp, equivalently the
covariant spherical Hessian of h plus h times the identity.  It is
evaluated over whole grids by a separable colatitude/longitude route
(never at the poles, which Gauss-Legendre rings avoid), exact for
band-limited h up to rounding; no finite differences are involved.  The
tests check it against a pole-safe per-point route that differentiates h
along great circles by trigonometric interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from zonotools import harmonics, sphere

#: Relative floor for the positive-semidefiniteness certificate: truncation
#: may create eigenvalues this slightly negative on genuinely convex bodies.
PSD_RTOL = 1e-8


def _eigs_2x2(q11, q22, q12):
    mean = 0.5 * (q11 + q22)
    disc = np.sqrt(0.25 * (q11 - q22) ** 2 + q12 * q12)
    return mean - disc, mean + disc


def radii_grid(coeffs, grid):
    """Radii-matrix components at every grid node.

    Returns (q11, q22, q12, r1, r2) in the (e_theta, e_phi) frame, where
    q11 = h_tt + h, q22 = h_pp/sin^2 + cot * h_t + h and
    q12 = (h_tp - cot * h_p)/sin.  Each is linear in the ring sums over l
    of Q A and Q' A, A = Ac and As, with factors constant on a ring and
    the order's m (``harmonics._tangential_hessian``), and q11 is the
    trace (2 - l(l+1)) Q A less q22.  So three ring sums, matmuls batched
    over the orders against the stored Q and Q' (``grid_legendre``,
    ``grid_theta_derivative``), are combined ring by ring, and one
    (3 n_theta x 2(L+1)) @ (2(L+1) x n_phi) matmul against the stacked
    longitude table gives the three entries at every node.
    """
    L, R = coeffs.L, grid.n_theta
    Ac, As = coeffs.split_orders()
    l = np.arange(L + 1.0)
    X = np.empty((L + 1, 4, L + 1))  # [m, :, l]: Ac, As, then (2 - l(l+1)) Ac, As
    X[:, 0], X[:, 1] = Ac.T, As.T
    np.multiply(X[:, :2], 2.0 - l * (l + 1.0), out=X[:, 2:])
    # [m, :, ring]: the ring sums of Q X and of Q' Ac, As
    S = X @ harmonics.grid_legendre(L, grid).transpose(1, 0, 2)
    D = X[:, :2] @ harmonics.grid_theta_derivative(L, grid).transpose(1, 0, 2)
    t, m = grid.cos_theta, l[:, None, None]
    q22, twist = harmonics._tangential_hessian(m, t, np.sqrt(1.0 - t * t), S[:, :2], D)
    # W[(cos, sin), m, entry, ring]: q11 and q22 pair with Ac cos + As sin,
    # q12 with As cos - Ac sin
    W = np.empty((2, L + 1, 3, R))
    by_order = W.transpose(1, 2, 0, 3)
    np.subtract(S[:, 2:], q22, out=by_order[:, 0])
    by_order[:, 1] = q22
    np.multiply(twist[:, ::-1], m * [[1.0], [-1.0]], out=by_order[:, 2])
    q11, q22, q12 = (W.reshape(2 * (L + 1), 3 * R).T @ harmonics.longitude_table(L, grid.n_phi)).reshape(3, -1)
    return (q11, q22, q12, *_eigs_2x2(q11, q22, q12))


def boundary_points_grid(coeffs, grid):
    """Gradient of the extended support function at every grid node, from
    h and its theta and phi partials on the grid's rings
    (``harmonics.ring_samples``, unrotated)."""
    h, ht, hp = (
        V.reshape(-1)
        for V in harmonics.ring_samples(coeffs.c, None, grid.cos_theta, grid.n_phi, derivatives=True)
    )
    st = np.repeat(np.sqrt(1.0 - grid.cos_theta**2), grid.n_phi)
    ct = np.repeat(grid.cos_theta, grid.n_phi)
    phi = np.tile(grid.phi, grid.n_theta)
    cp, sp = np.cos(phi), np.sin(phi)
    e_th = np.stack([ct * cp, ct * sp, -st], axis=1)
    e_ph = np.stack([-sp, cp, np.zeros_like(sp)], axis=1)
    return (
        h[:, None] * grid.nodes + ht[:, None] * e_th + (hp / st)[:, None] * e_ph
    )


@dataclass
class SupportFunction:
    """A positive band-limited function certified convex on the grid.

    Construction rejects a function that is not positive at every grid
    node (the origin must be interior to the body) and one whose
    certificate, the minimum radii eigenvalue over all grid nodes, falls
    below -PSD_RTOL times the maximum eigenvalue.  Every body is built by
    ``_certify``, and ``radii`` always holds the five node arrays
    (q11, q22, q12, r1, r2) of its certificate, as radii_grid returns them;
    the grid operators below read them instead of calling radii_grid or the
    eigenvalue solve again.

    The radii matrix is linear in h and is the identity at h = 1.  So for
    eps > 0 the entries and eigenvalues of 1 + eps * noise are
    (eps * q11 + 1, eps * q22 + 1, eps * q12, eps * r1 + 1, eps * r2 + 1)
    of the noise's, and random_support_function hands those to
    ``_certify`` instead of calling radii_grid or the eigenvalue solve a
    second time.
    """

    grid: sphere.SphericalGrid
    coeffs: harmonics.HarmonicCoeffs
    values: np.ndarray
    min_radius: float
    max_radius: float
    radii: tuple = field(repr=False, compare=False)

    @classmethod
    def from_coeffs(cls, grid, coeffs):
        return cls._certify(grid, coeffs, None)

    @classmethod
    def _certify(cls, grid, coeffs, radii):
        """from_coeffs, with the five radii arrays (q11, q22, q12, r1, r2)
        of coeffs on the grid given, or computed by radii_grid when
        ``radii`` is None."""
        coeffs = coeffs.copy()
        values = harmonics.synthesize_grid(coeffs, grid)
        if np.min(values) <= 0.0:
            raise ValueError("support function must be positive (origin interior)")
        q = radii_grid(coeffs, grid) if radii is None else radii
        rmin, rmax = float(np.min(q[3])), float(np.max(q[4]))
        if rmin < -PSD_RTOL * max(rmax, 1.0):
            raise ValueError(
                f"radii matrix fails the convexity certificate: min eigenvalue "
                f"{rmin:.3e} vs maximum {rmax:.3e}"
            )
        return cls(
            grid=grid,
            coeffs=coeffs,
            values=values,
            min_radius=rmin,
            max_radius=rmax,
            radii=q,
        )

    @classmethod
    def ball(cls, grid, radius=1.0, L=0):
        coeffs = harmonics.HarmonicCoeffs.zeros(L)
        coeffs.set(0, 0, radius * math.sqrt(4.0 * math.pi))
        return cls.from_coeffs(grid, coeffs)


def newton_report(h, tol=1e-8):
    """Newton-inequality diagnostic s_1 >= s_2^(1/2) at every grid node.

    Returns a dict with lhs, rhs, gap arrays and the equality mask; the
    equality set coincides with the umbilic set r1 = r2.
    """
    _, _, _, r1, r2 = h.radii
    lhs = 0.5 * (r1 + r2)
    rhs = np.sqrt(np.maximum(0.0, r1 * r2))
    gap = lhs - rhs
    scale = np.maximum(lhs, 1e-30)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "gap": gap,
        "equality": gap <= tol * scale,
        "min_gap": float(np.min(gap)),
    }


def mixed_area_density_grid(hK, hL):
    """Mixed discriminant of radii matrices at every grid node."""
    a11, a22, a12, _, _ = hK.radii
    b11, b22, b12, _, _ = hL.radii
    return 0.5 * (a11 * b22 + a22 * b11) - a12 * b12


def mixed_volume(h1, h2, h3):
    """V(K1, K2, K3) = (1/3) integral of h1 times the mixed density of K2, K3."""
    dens = mixed_area_density_grid(h2, h3)
    return float(np.sum(h1.grid.weights * h1.values * dens) / 3.0)


def fit_sphere(points):
    """Least-squares sphere through points: algebraic solve plus one
    Gauss-Newton step.  Returns (center, radius, max_abs_residual)."""
    points = np.asarray(points, dtype=float)
    A = np.hstack([2.0 * points, np.ones((points.shape[0], 1))])
    b = np.sum(points**2, axis=1)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    center = sol[:3]
    radius = math.sqrt(max(sol[3] + center @ center, 0.0))
    # one Gauss-Newton refinement of the geometric residuals
    d = points - center
    dist = np.linalg.norm(d, axis=1)
    res = dist - radius
    J = np.hstack([-d / dist[:, None], -np.ones((points.shape[0], 1))])
    step, *_ = np.linalg.lstsq(J, -res, rcond=None)
    center = center + step[:3]
    radius = radius + step[3]
    dist = np.linalg.norm(points - center, axis=1)
    residual = float(np.max(np.abs(dist - radius)))
    return center, float(radius), residual


@dataclass(frozen=True)
class UmbilicReport:
    is_umbilic: bool
    max_radii_split: float
    center: np.ndarray | None
    radius: float | None
    residual: float | None


def umbilic_sphere_check_data(r1, r2, points, tol):
    """Umbilicity plus sphere fit from precomputed radii and boundary points.

    Umbilic means max |r1 - r2| / max(r1, r2) <= tol over the nodes; only
    then is the sphere fitted (non-umbilic data is reported without a fit).
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    split = np.abs(r2 - r1) / np.maximum(np.maximum(np.abs(r1), np.abs(r2)), 1e-30)
    max_split = float(np.max(split))
    if max_split > tol:
        return UmbilicReport(
            is_umbilic=False,
            max_radii_split=max_split,
            center=None,
            radius=None,
            residual=None,
        )
    center, radius, residual = fit_sphere(np.asarray(points, dtype=float))
    return UmbilicReport(
        is_umbilic=True,
        max_radii_split=max_split,
        center=center,
        radius=radius,
        residual=residual,
    )


def umbilic_sphere_check(h, cap, tol=1e-6):
    """Check that the boundary patch with normals in the cap is spherical."""
    mask = h.grid.cap_mask(cap)
    if not np.any(mask):
        raise ValueError("cap contains no grid nodes")
    _, _, _, r1, r2 = h.radii
    pts = boundary_points_grid(h.coeffs, h.grid)[mask]
    return umbilic_sphere_check_data(r1[mask], r2[mask], pts, tol)


def random_support_function(grid, rng, band=8, margin=0.05):
    """Reproducible strictly convex corpus element 1 + eps * (even band-k noise).

    The radii matrix is linear in h and is the identity at h = 1, so the
    smallest radii eigenvalue of 1 + eps * noise over the grid is
    1 + eps * mu, with mu the smallest eigenvalue for the noise alone.  eps
    puts it at ``margin``, so the certificate passes with room to spare.
    The same linearity gives the body's radii entries and eigenvalues from
    the noise's, so radii_grid and the eigenvalue solve run once per body.

    eps is positive, so the body is convex at the nodes, when mu < 0.  On
    a grid of at least sphere.exact_grid(band) that holds for every draw
    but a null set: the noise has no degree 0, so neither has its radii
    trace r1 + r2 = Delta h + 2h, a band-``band`` function, and the trace
    integrates to zero.  The rule integrates it exactly with positive
    weights, so the trace is <= 0 at some node, and there r1 <= 0.  Then
    mu = min r1 <= 0, with equality only when the radii vanish at every
    node, a proper linear subspace of the draws, which a Gaussian draw
    misses with probability one.  A draw with mu >= 0, which a coarser
    grid can give, raises ValueError naming the grid and the band.
    """
    if band < 2:
        raise ValueError(f"corpus noise needs band >= 2, got {band}")
    noise = harmonics.HarmonicCoeffs.zeros(band)
    for l in range(2, band + 1, 2):
        noise.degree_slice(l)[:] = rng.normal(size=2 * l + 1)
    noise.c /= math.sqrt(noise.norm2())
    q11, q22, q12, r1, r2 = radii_grid(noise, grid)
    mu = float(np.min(r1))
    if not mu < 0.0:
        t, p = sphere.exact_grid(band)
        raise ValueError(
            f"band-{band} noise has no negative radius on the {grid.n_theta}x{grid.n_phi} grid "
            f"(min {mu:.3e}); it needs a grid of at least {t}x{p}"
        )
    eps = (1.0 - margin) / -mu
    out = noise.copy()
    out.c = out.c * eps
    out.set(0, 0, out.get(0, 0) + math.sqrt(4.0 * math.pi))
    radii = (eps * q11 + 1.0, eps * q22 + 1.0, eps * q12, eps * r1 + 1.0, eps * r2 + 1.0)
    return SupportFunction._certify(grid, out, radii)
