"""Grid-level integral transforms and operators: cosine transform, Funk
transform, section second-moment tensors, radial symmetrization and finite
rotation averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from zonotools import harmonics, sphere

AXIS = sphere.E3


@dataclass
class SphericalFunction:
    """Real-valued samples on a grid, optionally with a harmonic expansion.

    Functions holding only samples can be integrated; anything that needs
    off-grid values (circle quadrature) or acts on the expansion
    (multiplier transforms, rotation averages) requires it.
    """

    grid: sphere.SphericalGrid
    values: np.ndarray
    coeffs: harmonics.HarmonicCoeffs | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"expected {self.grid.n_nodes} samples, got {self.values.shape}"
            )

    @classmethod
    def from_coeffs(cls, grid, coeffs):
        return cls(grid=grid, values=harmonics.synthesize_grid(coeffs, grid), coeffs=coeffs)

    def with_coeffs(self, L):
        """Attach the band-L analysis (returns a new function object)."""
        return SphericalFunction(
            grid=self.grid,
            values=self.values,
            coeffs=harmonics.analyze(self.grid, self.values, L),
        )


def _multiplier_transform(f, kernel):
    """Apply a kernel's per-degree multipliers to the expansion of f.

    Both kernels have exact-zero multipliers on odd degrees, so any input
    is accepted and the output is even.
    """
    if f.coeffs is None:
        raise ValueError(
            f"{kernel} transform needs an evaluation rule; call with_coeffs(L) first"
        )
    lam = harmonics.multiplier_table(kernel, f.coeffs.L)
    return SphericalFunction.from_coeffs(f.grid, harmonics.apply_multipliers(f.coeffs, lam))


def cosine_transform(f):
    """Cosine transform (C f)(u) = integral of |<x, u>| f(x) over the sphere.

    Exact for the band-limited expansion of f: each degree is multiplied
    by its cosine-kernel eigenvalue and the result is synthesized on the
    grid.
    """
    return _multiplier_transform(f, "cosine")


def funk_transform(f):
    """Funk transform: integral over the orthogonal great circle.

    Exact for the band-limited expansion of f: each degree is multiplied
    by 2 pi P_l(0) and the result is synthesized on the grid.
    """
    return _multiplier_transform(f, "funk")


# ----------------------------------------------------------------------
# Section isotropy
# ----------------------------------------------------------------------

#: Floor of the isotropy measures' denominators, relative to the circle's
#: own scale (``circle_scale``).
EPS_FLOOR = 1e-14

#: Circle node counts whose angle tables stay cached.
CIRCLE_TABLE_CACHE_SIZE = 16


@dataclass(frozen=True)
class IsotropyReport:
    """Second moments of a function restricted to the circle S^2 ∩ u-perp.

    T is the 2x2 matrix of integrals of <x, eps_a><x, eps_b> g(x) over the
    circle in the deterministic tangent frame; the restriction is isotropic
    exactly when T is a multiple of the identity, and ``deviation`` is the
    scale-free Frobenius distance to that isotropic part.
    """

    u: np.ndarray
    T: np.ndarray
    trace: float
    deviation: float


def circle_samples(C, normals, m):
    """Expansion s on the m nodes of ``great_circle(normals[s], m)``.

    ``C`` holds the (S, (L+1)^2) coefficient rows of S expansions and
    ``normals`` is an (S, 3) stack of unit vectors; returns the (S, m)
    samples.  One row of shape ((L+1)^2,) with one normal of shape (3,)
    gives (m,).

    On a great circle a band-L expansion is a trigonometric polynomial of
    degree <= L in the circle angle, so its samples at n = max(8, 2L + 2)
    equispaced nodes fix it.  Those are synthesized
    (``harmonics.synthesize_stacked``) and resampled exactly to the m
    nodes: their rfft keeps orders 0..L, and the inverse rfft of length m
    pads the higher orders with zeros.  When n >= m the m nodes are
    synthesized directly.  A circle's samples are bitwise the same alone
    or in any stack.
    """
    normals = np.asarray(normals, dtype=float)
    single = normals.ndim == 1
    if single:
        C, normals = C[None], normals[None]
    L = harmonics._rows_band_limit(C)
    n = max(8, 2 * L + 2)
    if n >= m:
        out = harmonics.synthesize_stacked(C, sphere.great_circle(normals, m).nodes)
    else:
        vals = harmonics.synthesize_stacked(C, sphere.great_circle(normals, n).nodes)
        spec = np.fft.rfft(vals, norm="forward")[:, : L + 1]
        out = np.fft.irfft(spec, n=m, norm="forward")
    return out[0] if single else out


@lru_cache(maxsize=CIRCLE_TABLE_CACHE_SIZE)
def _angle_tables(m):
    """cos a and sin a at the m circle angles a = 2 pi k / m, cached per m;
    both arrays are read-only."""
    angles = 2.0 * np.pi * np.arange(m) / m
    ca, sa = np.cos(angles), np.sin(angles)
    ca.flags.writeable = False
    sa.flags.writeable = False
    return ca, sa


def _given_or_sampled(g, u, m, values):
    """The m samples of g on the great circle u-perp (``great_circle(u, m)``):
    ``values`` when the caller has them, checked for shape; otherwise g
    called on the nodes, or g's harmonic expansion sampled there by
    ``circle_samples``."""
    if values is None:
        if callable(g):
            return np.asarray(g(sphere.great_circle(u, m).nodes), dtype=float)
        if g.coeffs is None:
            raise ValueError(
                "circle samples need an evaluation rule: a callable, or a "
                "function with coefficients (call with_coeffs(L) first)"
            )
        return circle_samples(g.coeffs.c, u, m)
    values = np.asarray(values, dtype=float)
    if values.shape != (m,):
        raise ValueError(f"expected {m} circle samples, got shape {values.shape}")
    return values


def circle_scale(values):
    """(2 pi / m) sum |g| for each of S circles from their (S, m) samples:
    the circle integral of |g|, which scales the floors of the isotropy
    measures, so that they do not change when g is scaled."""
    return 2.0 * np.pi / values.shape[1] * np.sum(np.abs(values), axis=1)


def isotropy_tensors(values):
    """Second-moment tensors and isotropy deviations of S circles.

    ``values`` are the (S, m) samples of g on the nodes of great circles
    (``great_circle(normals, m)``); returns T of shape (S, 2, 2) and the
    (S,) deviations.  The deviation is the Frobenius distance of T to its
    isotropic part over |trace T|, floored at EPS_FLOOR times the circle's
    ``circle_scale``, and 0 on a circle where g vanishes.  Each circle's
    sums are formed alone, so a row's result is bitwise the same in any
    stack.
    """
    m = values.shape[1]
    weight = 2.0 * np.pi / m
    ca, sa = _angle_tables(m)
    t11 = weight * np.sum(values * ca * ca, axis=1)
    t22 = weight * np.sum(values * sa * sa, axis=1)
    t12 = weight * np.sum(values * ca * sa, axis=1)
    T = np.stack([np.stack([t11, t12], axis=1), np.stack([t12, t22], axis=1)], axis=1)
    dev_num = np.sqrt(0.5 * (t11 - t22) ** 2 + 2.0 * t12 * t12)
    floor = np.maximum(np.abs(t11 + t22), EPS_FLOOR * circle_scale(values))
    deviation = np.divide(dev_num, floor, out=np.zeros_like(dev_num), where=floor > 0.0)
    return T, deviation


def section_isotropy_tensor(g, u, m=256, values=None):
    """Second-moment tensor of g restricted to the great circle u-perp:
    the one-circle call of ``isotropy_tensors``.

    ``values`` are the samples of g on the circle's m nodes, when the
    caller already has them; g is then not read.
    """
    u = np.asarray(u, dtype=float)
    vals = _given_or_sampled(g, u, m, values)
    T, deviation = isotropy_tensors(vals[None])
    T = T[0]
    return IsotropyReport(u=u, T=T, trace=float(T[0, 0] + T[1, 1]), deviation=float(deviation[0]))


# ----------------------------------------------------------------------
# Radial symmetrization and rotation averages
# ----------------------------------------------------------------------

def radial_symmetrize(f):
    """Replace f on every latitude ring by its ring average.

    The output is zonal; applying the operator twice is bit-identical to
    applying it once (rings that are already constant are passed through
    untouched).  Coefficients, when present, are projected onto m = 0,
    which is the exact coefficient-space action of ring averaging for
    band limits below the longitude count.
    """
    V = f.grid.ring_view(f.values)
    flat = np.all(V == V[:, :1], axis=1)
    out = np.repeat(np.where(flat, V[:, 0], np.mean(V, axis=1)), f.grid.n_phi)
    coeffs = f.coeffs.zonal_projected() if f.coeffs is not None else None
    return SphericalFunction(grid=f.grid, values=out, coeffs=coeffs)


def _as_axis_rotation(T):
    """Validate an orthogonal map fixing e3; angles become rotations."""
    if np.isscalar(T):
        if not math.isfinite(T):
            raise ValueError(f"rotation angle must be finite, got {T!r}")
        c, s = math.cos(T), math.sin(T)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    T = np.asarray(T, dtype=float)
    if T.shape != (3, 3):
        raise ValueError("rotation must be an angle or a 3x3 matrix")
    if not np.all(np.isfinite(T)):
        raise ValueError("rotation matrix must be finite")
    # absolute tests, no relative slack; an entry that overflows fails them
    if not np.all(np.abs(T.T @ T - np.eye(3)) <= 1e-10):
        raise ValueError("matrix is not orthogonal")
    if not np.all(np.abs(T @ AXIS - AXIS) <= 1e-10):
        raise ValueError("rotation does not fix the symmetrization axis e3")
    return T


def finite_average(f, rotations):
    """Pointwise average of resamplings f∘T over axis-fixing maps T.

    Rotations may be angles about e3 or orthogonal 3x3 matrices fixing e3
    (reflections through planes containing the axis qualify).  Such a map
    sends longitude phi to phi + g (a rotation by g) or to g - phi (a
    reflection), so it acts on each order m of the expansion as a 2x2
    matrix on the (cos m phi, sin m phi) coefficient pair.  Those matrices
    are averaged and applied once, then the result is synthesized on the
    grid: exact for band-limited f, and the output keeps its coefficients.
    """
    if len(rotations) == 0:
        raise ValueError("need at least one rotation")
    maps = [_as_axis_rotation(T) for T in rotations]
    if f.coeffs is None:
        raise ValueError(
            "finite_average needs an evaluation rule; call with_coeffs(L) first"
        )
    gamma = np.array([math.atan2(T[1, 0], T[0, 0]) for T in maps])
    kind = np.sign([np.linalg.det(T) for T in maps])  # +1 rotation, -1 reflection
    mg = np.outer(np.arange(f.coeffs.L + 1), gamma)
    cos_mg, sin_mg = np.cos(mg), np.sin(mg)
    # a' = cc a + cs b,  b' = sc a + ss b, averaged over the maps
    cc = np.mean(cos_mg, axis=1)
    cs = np.mean(sin_mg, axis=1)
    sc = np.mean(-kind * sin_mg, axis=1)
    ss = np.mean(kind * cos_mg, axis=1)
    Ac, As = f.coeffs.split_orders()
    coeffs = harmonics.HarmonicCoeffs.from_split_orders(cc * Ac + cs * As, sc * Ac + ss * As)
    return SphericalFunction.from_coeffs(f.grid, coeffs)


def lp_norm(f, p):
    """(integral |f|^p)^(1/p) by grid quadrature."""
    if p < 1:
        raise ValueError(f"L^p norms need p >= 1, got {p}")
    return float(sphere.integrate(f.grid, np.abs(f.values) ** p) ** (1.0 / p))


def l2_distance(f, g):
    """L2 distance of two functions sampled on the same grid."""
    if (f.grid.n_theta, f.grid.n_phi) != (g.grid.n_theta, g.grid.n_phi):
        raise ValueError(
            f"functions live on different grids: ({f.grid.n_theta}, {f.grid.n_phi}) "
            f"and ({g.grid.n_theta}, {g.grid.n_phi})"
        )
    diff = f.values - g.values
    return float(math.sqrt(np.sum(f.grid.weights * diff * diff)))


def sr_profile_l1_identity(f, n_t=160, n_r=240):
    """Both sides of the polar-slicing identity tying ||f||_1 to the
    symmetrized profile.

    The left side is the grid L1 norm of f; the right side is
    8 pi * int_{-1}^{1} int_0^{sqrt(1-t^2)} r sqrt(r^2+t^2) *
    Sr(f)(t / sqrt(r^2+t^2)) dr dt, evaluated by tensor Gauss-Legendre
    quadrature split at t = 0, with the zonal profile of Sr(f) evaluated
    through its Legendre expansion.  Requires f non-negative (for the L1
    reading) and band-limited.
    """
    if f.coeffs is None:
        raise ValueError("identity check needs coefficients for the zonal profile")
    lhs = lp_norm(f, 1)
    zonal = radial_symmetrize(f).coeffs.zonal()
    ls = np.arange(zonal.size)
    leg_coeffs = zonal * np.sqrt((2.0 * ls + 1.0) / (4.0 * math.pi))

    def profile(s):
        return np.polynomial.legendre.legval(s, leg_coeffs)

    xt, wt = sphere.leggauss(n_t)
    xr, wr = sphere.leggauss(n_r)
    total = 0.0
    for sign in (-1.0, 1.0):
        t = sign * 0.5 * (xt + 1.0)     # half interval (0, 1)
        wts = 0.5 * wt
        rmax = np.sqrt(np.maximum(0.0, 1.0 - t * t))
        # tensor nodes: r = rmax * (xr+1)/2 per t-node
        r = 0.5 * np.outer(rmax, xr + 1.0)
        wrs = 0.5 * np.outer(rmax, wr)
        rho = np.sqrt(r * r + t[:, None] ** 2)
        s = np.where(rho > 0, t[:, None] / np.maximum(rho, 1e-300), 0.0)
        inner = np.sum(wrs * r * rho * profile(s), axis=1)
        total += float(np.sum(wts * inner))
    rhs = 8.0 * math.pi * total
    return lhs, rhs
