"""Independent routes that the tests compare the package against.

Each computes a quantity the package also computes, by a different and
slower method, and its docstring names the production route it checks:
direct quadrature on the sphere or the circle, the m x m sin^2 kernel of
the circle double integrals, the polar-slicing identity's tensor
quadrature held whole, a Gauss rule for the cosine multipliers, a
ring-by-ring average, a weight-expanding isotonic projection, a support
function's grid partials contracted once per partial and the radii
entries formed from six of them node by node, the order matrices
of a coefficient table repacked through index arrays built anew per call,
the second theta-derivative table one degree at a time, the
isotropy-gap corpus's zonal cases from numpy's Legendre series on the grid,
the Fourier mass of circle samples by trapezoid moments instead of the
FFT, the radii matrix, boundary point and area densities at one direction from
derivatives along great circles, the Laplacian route to the first area
density, an ellipsoid's radii from the shape operator of its implicit
surface, the grid CSV written node by node, the coefficient CSV written
coefficient by coefficient, the plateau design's QR
folds by ``np.linalg.qr`` on a copy of the gathered rows, and the design's
orbit fold from the stacked images of the whole group.  None of them
is reached from the package.
"""

import math
from dataclasses import dataclass

import numpy as np

from zonotools import cli, harmonics, sphere, transforms, zonoid
from zonotools.convex import support


def _synthesize_on(Ac, As, t, sine, phi):
    """Evaluate S expansions, each at its own n points, by the Legendre
    recurrence at every point: the off-grid point synthesis.

    ``Ac``, ``As`` are the split-order tables of the expansions, shape
    (S, L+1, L+1); ``t``, ``sine`` and ``phi`` hold cos(colatitude),
    sin(colatitude) and longitude of S * n points grouped per expansion,
    expansion s owning points s*n ... s*n + n - 1.  A degree whose
    coefficients are zero in every expansion is not accumulated, and the
    orders are summed row by row in increasing m, so a point's value does
    not depend on S, on n or on the other points.  O(L^2) per point.
    """
    S, L = Ac.shape[0], Ac.shape[1] - 1
    n = t.size // S
    live = np.any(Ac != 0.0, axis=(0, 2)) | np.any(As != 0.0, axis=(0, 2))
    Bc = np.zeros((L + 1, S, n))
    Bs = np.zeros((L + 1, S, n))
    work = np.empty((L + 1, S, n))
    for l, row in enumerate(harmonics._legendre_rows(L, t, sine)):
        if not live[l]:
            continue
        k = l + 1
        rows = row[:k].reshape(k, S, n)
        np.multiply(Ac[:, l, :k].T[:, :, None], rows, out=work[:k])
        Bc[:k] += work[:k]
        np.multiply(As[:, l, :k].T[:, :, None], rows, out=work[:k])
        Bs[:k] += work[:k]
    Bc, Bs, angle = (x.reshape(L + 1, S * n) for x in (Bc, Bs, work))
    np.multiply(np.arange(L + 1)[:, None], phi, out=angle)
    trig = np.cos(angle)
    Bc *= trig
    np.sin(angle, out=trig)
    Bs *= trig
    out, sines = Bc[0].copy(), Bs[0].copy()
    for m in range(1, L + 1):
        out += Bc[m]
        sines += Bs[m]
    out += sines
    return out


def synthesize_points(coeffs, points, chunk=2048):
    """Evaluate the expansion at arbitrary unit vectors, ``chunk`` points
    per call of ``_synthesize_on``; one vector of shape (3,) gives a float.
    The colatitude is read as atan2(hypot(x, y), z), which keeps its sine
    to full relative precision at a point near a pole, where the sine
    sqrt(1 - z^2) of the rounded z would be off by up to 1e-16 / sin and
    move the point by that much.
    Checks every off-grid value of the package: ``transforms.circle_samples``
    and ``harmonics.rotate_rows``, and the grid synthesis at grid nodes."""
    points = np.asarray(points, dtype=float)
    single = points.ndim == 1
    pts = np.atleast_2d(points)
    Ac, As = coeffs.split_orders()
    Ac, As = Ac[None], As[None]
    out = np.empty(pts.shape[0])
    for start in range(0, pts.shape[0], chunk):
        p = pts[start : start + chunk]
        theta, phi = np.arctan2(np.hypot(p[:, 0], p[:, 1]), p[:, 2]), np.arctan2(p[:, 1], p[:, 0])
        out[start : start + chunk] = _synthesize_on(Ac, As, np.cos(theta), np.sin(theta), phi)
    return float(out[0]) if single else out


def rotate_by_sampling(coeffs, frame):
    """Coefficients of x -> f(frame @ x) by sampling f at the images under
    ``frame`` of the nodes of a grid that analyzes its band exactly, then
    analyzing the samples there; checks ``harmonics.rotate_rows``.  Both
    steps are exact for a band-limited f, O(L^4) in all."""
    L = coeffs.L
    grid = sphere.build_grid(L + 2, max(2 * L + 2, 4))
    return harmonics.analyze(grid, synthesize_points(coeffs, grid.nodes @ frame.T), L)


def circle_nodes(circle):
    """The (m, 3) nodes cos(a) eps1 + sin(a) eps2 of a ``sphere.GreatCircle``,
    or (S, m, 3) for S stacked normals: the points at which
    ``transforms.circle_samples`` samples an expansion."""
    c, s = np.cos(circle.angles)[:, None], np.sin(circle.angles)[:, None]
    return c * circle.eps1[..., None, :] + s * circle.eps2[..., None, :]


def _as_evaluator(g):
    """g as a callable on (M, 3) unit vectors: g itself when callable, else
    point synthesis of its harmonic expansion."""
    if callable(g):
        return g
    if getattr(g, "coeffs", None) is None:
        raise ValueError("integrand has grid samples only and no evaluation rule")
    return lambda points: synthesize_points(g.coeffs, points)


def grid_to_csv_per_node(path, grid, values):
    """The grid CSV written one node at a time, each of the four numbers
    formatted per node; checks the ring-wise ``sphere.grid_to_csv``."""
    values = np.asarray(values, dtype=float)
    theta = np.repeat(grid.theta, grid.n_phi)
    phi = np.tile(grid.phi, grid.n_theta)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("theta,phi,weight,value\n")
        for th, ph, w, v in zip(theta, phi, grid.weights, values):
            fh.write(f"{th:.17g},{ph:.17g},{w:.17g},{v:.17g}\n")


def circle_integrate(g, circle):
    """Quadrature of g over a great circle (H^1 line measure), with the
    trapezoidal weight 2 pi / m per node; checks the multiplier Funk
    transform through ``funk_transform_at``."""
    values = np.asarray(_as_evaluator(g)(circle_nodes(circle)), dtype=float)
    return float(2.0 * np.pi / circle.m * np.sum(values))


def funk_transform_at(f, targets, m=256):
    """Funk transform at explicit target directions by circle quadrature;
    checks ``transforms.funk_transform`` and f1 of
    ``zonoid.isotropy_gap_stack``."""
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    out = np.empty(targets.shape[0])
    for k, u in enumerate(targets):
        out[k] = circle_integrate(f, sphere.great_circle(u, m))
    return out if out.size > 1 else float(out[0])


def circle_fourier_mass(g, u, degree=2, m=256, values=None):
    """Squared Fourier mass A^2 + B^2 of g on the circle u-perp at the
    given order, A and B the trapezoid moments of g cos(k a) and
    g sin(k a) over the m circle nodes; ``values`` are g's samples there,
    when the caller has them, else g is evaluated at the nodes (a callable,
    or point synthesis of its expansion).  Checks the FFT route to ``mass``
    of ``zonoid.isotropy_gap_stack``."""
    vals = values if values is not None else _as_evaluator(g)(circle_nodes(sphere.great_circle(u, m)))
    angles = 2.0 * np.pi * degree * np.arange(m) / m
    a = 2.0 * np.pi / m * float(np.sum(vals * np.cos(angles)))
    b = 2.0 * np.pi / m * float(np.sum(vals * np.sin(angles)))
    return a * a + b * b


def cosine_transform_quadrature(g, targets, n_t=96, n_phi=256):
    """Cosine transform at explicit target directions.

    Integrates in a frame aligned with each target: with Theta the polar
    angle from u, the kernel is |cos Theta| and the integral splits at the
    kink into two halves that are Gauss-Legendre-integrated in Theta and
    trapezoid-integrated in longitude.  Spectrally accurate for smooth g
    (needs an evaluation rule), and independent of the multiplier table;
    checks ``transforms.cosine_transform`` and the support of
    ``zonoid.make_zonoid``.
    """
    eval_g = _as_evaluator(g)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    x, w = np.polynomial.legendre.leggauss(n_t)
    th_hi = 0.25 * math.pi * (x + 1.0)            # (0, pi/2): cos > 0
    th = np.concatenate([th_hi, math.pi - th_hi])  # mirrored half
    wth = np.concatenate([w, w]) * 0.25 * math.pi
    kern = np.abs(np.cos(th)) * np.sin(th) * wth
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    cph, sph = np.cos(phi), np.sin(phi)
    st, ct = np.sin(th), np.cos(th)
    out = np.empty(targets.shape[0])
    for k, u in enumerate(targets):
        e1, e2 = sphere.tangent_basis(u)
        pts = (
            np.multiply.outer(np.outer(st, cph), e1)
            + np.multiply.outer(np.outer(st, sph), e2)
            + np.multiply.outer(np.outer(ct, np.ones(n_phi)), u)
        ).reshape(-1, 3)
        vals = np.asarray(eval_g(pts)).reshape(2 * n_t, n_phi)
        ring = vals.sum(axis=1) * (2.0 * np.pi / n_phi)
        out[k] = float(np.sum(kern * ring))
    return out if out.size > 1 else float(out[0])


def sr_profile_l1_identity_tensor(f, n_t=160, n_r=240):
    """Both sides of the polar-slicing identity with each half interval's
    n_t x n_r tensor quadrature held whole: the unblocked evaluation that
    ``transforms.sr_profile_l1_identity`` replaced by blocks of t-nodes,
    which must return the same two floats bitwise."""
    lhs = transforms.lp_norm(f, 1)
    zonal = transforms.radial_symmetrize(f).coeffs.zonal()
    ls = np.arange(zonal.size)
    leg_coeffs = zonal * np.sqrt((2.0 * ls + 1.0) / (4.0 * math.pi))
    xt, wt = sphere.leggauss(n_t)
    xr, wr = sphere.leggauss(n_r)
    total = 0.0
    for sign in (-1.0, 1.0):
        t = sign * 0.5 * (xt + 1.0)
        wts = 0.5 * wt
        rmax = np.sqrt(np.maximum(0.0, 1.0 - t * t))
        r = 0.5 * np.outer(rmax, xr + 1.0)
        wrs = 0.5 * np.outer(rmax, wr)
        rho = np.sqrt(r * r + t[:, None] ** 2)
        s = np.where(rho > 0, t[:, None] / np.maximum(rho, 1e-300), 0.0)
        inner = np.sum(wrs * r * rho * np.polynomial.legendre.legval(s, leg_coeffs), axis=1)
        total += float(np.sum(wts * inner))
    return lhs, 8.0 * math.pi * total


def cosine_multiplier_gauss(l):
    """Cosine-kernel multiplier of degree l by a Gauss rule on [0, 1].

    4 pi int_0^1 t P_l(t) dt with l/2 + 2 nodes, exact for the polynomial
    integrand; odd degrees are zero.  Checks
    ``harmonics.multiplier_table("cosine", L)``.
    """
    if l % 2 == 1:
        return 0.0
    x, w = np.polynomial.legendre.leggauss(l // 2 + 2)
    x01 = 0.5 * (x + 1.0)
    pl = np.polynomial.legendre.legval(x01, [0.0] * l + [1.0])
    return float(2.0 * math.pi * np.sum(w * x01 * pl))


def inverse_funk_transform(coeffs):
    """Solve R(w) = G for w coefficientwise (even, band-limited G), one
    degree at a time; its round trip checks the Funk multipliers
    (``harmonics.apply_multipliers`` with ``multiplier_table("funk", L)``)."""
    harmonics._require_even(coeffs, "inverse Funk transform")
    lam = harmonics.multiplier_table("funk", coeffs.L)
    out = harmonics.HarmonicCoeffs.zeros(coeffs.L)
    for l in range(0, coeffs.L + 1, 2):
        block = slice(l * l, (l + 1) ** 2)
        out.c[block] = coeffs.c[block] / lam[l]
    return out


def laplacian_spectral(coeffs):
    """Laplace-Beltrami operator: multiply degree l by -l(l+1)."""
    degrees = coeffs.degrees()
    out = coeffs.copy()
    out.c = coeffs.c * (-degrees * (degrees + 1.0))
    return out


def sin2_kernel(m):
    """The m x m matrix sin^2(a_i - a_j) on m equispaced circle angles."""
    angles = 2.0 * np.pi * np.arange(m) / m
    return np.sin(angles[:, None] - angles[None, :]) ** 2


def weil_prefactors_kernel(m):
    """The circle-integral prefactors from the constant-density oracle
    through the full m x m kernel sum; checks ``zonoid.WEIL_PREFACTOR_1``
    and ``zonoid.WEIL_PREFACTOR_2``."""
    w = 2.0 * np.pi / m
    raw = float(np.sum(sin2_kernel(m))) * w * w  # double integral for g ≡ 1
    return 2.0 * math.pi / raw, (2.0 * math.pi) ** 2 / raw


def weil_densities_kernel(gvals):
    """(f1, f2) from circle samples through the m x m sin^2 kernel; checks
    the closed-form f1 and f2 of ``zonoid.isotropy_gap_stack``."""
    m = gvals.size
    pref1, pref2 = weil_prefactors_kernel(m)
    w = 2.0 * np.pi / m
    kernel = sin2_kernel(m)
    f1 = pref1 * w * w * float(np.sum(kernel @ np.ones(m) * gvals))
    f2 = pref2 * w * w * float(gvals @ kernel @ gvals)
    return f1, f2


def ring_average_loop(V):
    """Ring averages one ring at a time: a constant ring keeps its value,
    any other ring takes np.mean of its samples.  Checks
    ``transforms.radial_symmetrize`` bitwise."""
    out = np.empty_like(V)
    for i in range(V.shape[0]):
        row = V[i]
        if np.all(row == row[0]):
            out[i] = row[0]
        else:
            out[i] = np.mean(row)
    return out


def coeffs_csv_by_coefficient(path, coeffs):
    """Coefficient CSV with one ``get`` and one write per coefficient.
    Checks ``harmonics.coeffs_to_csv`` byte for byte."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("l,m,value\n")
        for l in range(coeffs.L + 1):
            for m in range(-l, l + 1):
                fh.write(f"{l},{m},{coeffs.get(l, m):.17g}\n")


def pav_decreasing_by_weight(y, w):
    """Weighted non-increasing isotonic projection that expands each pooled
    block back to its samples by accumulating weights up to the block's
    weight, less 1e-12; right only while every weight is well above 1e-12.
    Checks ``convex.revolution._pav_decreasing``."""
    y = np.asarray(y, dtype=float).copy()
    w = np.asarray(w, dtype=float).copy()
    vals = []
    wts = []
    for yi, wi in zip(y, w):
        vals.append(yi)
        wts.append(wi)
        while len(vals) > 1 and vals[-2] < vals[-1]:
            v = (vals[-1] * wts[-1] + vals[-2] * wts[-2]) / (wts[-1] + wts[-2])
            wt = wts[-1] + wts[-2]
            vals = vals[:-2] + [v]
            wts = wts[:-2] + [wt]
    out = np.empty_like(y)
    k = 0
    for v, wt in zip(vals, wts):
        total = 0.0
        j = k
        while j < y.size and total < wt - 1e-12:
            total += w[j]
            j += 1
        out[k:j] = v
        k = j
    return out


def theta_tables(L, t):
    """Q, Q' and Q'' at the ring cosines t, each (L+1, L+1, len(t)): Q and
    Q' of ``harmonics.ring_theta_tables``, and Q'' from the associated
    Legendre ODE one degree at a time, its orders m > l left +0.0.  The
    package forms no Q'': ``harmonics._tangential_hessian`` gives the
    radii matrix and the plateau design's anisotropy rows from Q and Q'
    alone, and this checks it."""
    P, dP = harmonics.ring_theta_tables(L, t)
    s = np.sqrt(1.0 - t * t)
    cot = t / s
    d2P = np.zeros_like(P)
    for l in range(L + 1):
        m = np.arange(0, l + 1)
        d2P[l, : l + 1] = (
            -cot * dP[l, : l + 1]
            - (l * (l + 1.0) - m[:, None] ** 2 / (s * s)) * P[l, : l + 1]
        )
    return P, dP, d2P


def derivative_fields_per_field(coeffs, grid):
    """h and its partials (h, ht, htt, hp, hpp, htp) on the grid, with the
    theta table contracted with the coefficients anew for each partial;
    h, ht and hp are what ``harmonics.ring_samples`` gives, unrotated, on
    the grid's rings with ``derivatives=True``."""
    L = coeffs.L
    Ac, As = coeffs.split_orders()
    P, dP, d2P = theta_tables(L, grid.cos_theta)
    cosm, sinm = harmonics._phi_tables(L, grid.phi)
    ms = np.arange(L + 1)

    def assemble(theta_table, phi_deriv):
        Bc = np.einsum("lmr,lm->mr", theta_table, Ac)
        Bs = np.einsum("lmr,lm->mr", theta_table, As)
        if phi_deriv == 0:
            V = Bc.T @ cosm + Bs.T @ sinm
        elif phi_deriv == 1:
            V = (Bs.T * ms) @ cosm - (Bc.T * ms) @ sinm
        else:
            V = -(Bc.T * ms**2) @ cosm - (Bs.T * ms**2) @ sinm
        return V.reshape(-1)

    return (
        assemble(P, 0), assemble(dP, 0), assemble(d2P, 0),
        assemble(P, 1), assemble(P, 2), assemble(dP, 1),
    )


def radii_grid_six_fields(coeffs, grid):
    """(q11, q22, q12, r1, r2) at every grid node from the six partial
    fields of ``derivative_fields_per_field`` and per-node sin and cot
    theta: q11 = htt + h, q22 = hpp / sin^2 + cot ht + h and
    q12 = (htp - cot hp) / sin.  Checks ``convex.radii_grid``, which sums
    over the degrees first and applies the ring factors to the sums."""
    h, ht, htt, hp, hpp, htp = derivative_fields_per_field(coeffs, grid)
    ct = np.repeat(grid.cos_theta, grid.n_phi)
    st = np.sqrt(1.0 - ct**2)
    cot = ct / st
    q11 = htt + h
    q22 = hpp / (st * st) + cot * ht + h
    q12 = (htp - cot * hp) / st
    return (q11, q22, q12, *support._eigs_2x2(q11, q22, q12))


def zonal_values_legval(grid, axis, weights):
    """sum_i weights[i] P_{2i}(<x, axis>) at the grid nodes by numpy's
    Legendre series, one degree at a time; checks the zonal coefficients
    of ``harmonics.zonal_expansions`` synthesized on the grid."""
    vals = np.zeros(grid.n_nodes)
    tt = grid.nodes @ axis
    for i, w in enumerate(weights):
        vals += w * np.polynomial.legendre.legval(tt, [0.0] * (2 * i) + [1.0])
    return vals


def isotropy_corpus_legval(ctx, n_cases=200):
    """``cli._isotropy_corpus`` with each zonal case built from its grid
    values (``zonal_values_legval``, shifted to a minimum of 0.2) and
    analyzed back to band 12, and each random case drawn one coefficient
    at a time."""
    grid = ctx.grid
    rng = ctx.rng(6)
    for _ in range(n_cases // 2):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        vals = zonal_values_legval(grid, axis, rng.normal(size=7))
        vals = vals - vals.min() + 0.2
        f = transforms.SphericalFunction(grid=grid, values=vals).with_coeffs(12)
        yield f, axis, True
    for _ in range(n_cases - n_cases // 2):
        c = harmonics.HarmonicCoeffs.zeros(12)
        for l in range(0, 13, 2):
            for m in range(-l, l + 1):
                c.set(l, m, rng.normal())
        f = cli._lifted(grid, c, floor=0.2)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        yield f, u, False


_MASK64 = 2**64 - 1


def _splitmix_mix(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def normals_splitmix(seed, n):
    """``cli.Normals(seed).normal(size=n)`` one draw at a time, in Python
    integers and ``math``: draw k from SplitMix64 outputs 2k and 2k + 1,
    started at the seed's mix."""
    state = _splitmix_mix(seed)
    out = []
    for k in range(n):
        u, v = (((_splitmix_mix((state + (i + 1) * 0x9E3779B97F4A7C15) & _MASK64) >> 11) + 1) * 2.0**-53
                for i in (2 * k, 2 * k + 1))
        out.append(math.sqrt(-2.0 * math.log(u)) * math.cos(2.0 * math.pi * v))
    return out


def split_orders_tril(coeffs):
    """``HarmonicCoeffs.split_orders`` with its (l, m) index arrays built
    by np.tril_indices on each call."""
    L = coeffs.L
    l, m = np.tril_indices(L + 1)
    scale = np.where(m > 0, math.sqrt(2.0), 1.0)
    Ac = np.zeros((L + 1, L + 1))
    As = np.zeros((L + 1, L + 1))
    Ac[l, m] = scale * coeffs.c[l * l + l + m]
    As[l, m] = np.where(m > 0, scale * coeffs.c[l * l + l - m], 0.0)
    return Ac, As


def from_split_orders_tril(Ac, As):
    """``HarmonicCoeffs.from_split_orders`` with index arrays built per call."""
    L = Ac.shape[0] - 1
    l, m = np.tril_indices(L + 1)
    scale = np.where(m > 0, math.sqrt(2.0), 1.0)
    c = np.empty(harmonics.coeff_count(L))
    c[l * l + l - m] = As[l, m] / scale  # the m = 0 slots are overwritten next
    c[l * l + l + m] = Ac[l, m] / scale
    return harmonics.HarmonicCoeffs(L=L, c=c)


@dataclass(frozen=True)
class RadiiMatrix:
    """Tangential Hessian of the extended support function at u.

    Q is symmetric 2x2 in the deterministic tangent frame at u; its
    eigenvalues r1 <= r2 are the principal radii of curvature.
    """

    u: np.ndarray
    Q: np.ndarray
    r1: float
    r2: float


def _circle_derivatives(coeffs, u, direction, m):
    """(value, first, second) derivatives of h along a great circle at u.

    gamma(s) = cos(s) u + sin(s) direction is a unit-speed geodesic, so the
    second derivative at s = 0 is the covariant Hessian entry for the
    direction.  h restricted to the circle is a trigonometric polynomial of
    degree <= L, recovered exactly from m > 2L equispaced samples.
    """
    angles = 2.0 * np.pi * np.arange(m) / m
    pts = np.outer(np.cos(angles), u) + np.outer(np.sin(angles), direction)
    vals = synthesize_points(coeffs, pts)
    spec = np.fft.rfft(vals) / m
    k = np.arange(spec.size)
    val = float(np.sum(spec.real * np.where(k == 0, 1.0, 2.0)))
    d1 = float(np.sum(-2.0 * k * spec.imag))
    d2 = float(np.sum(-2.0 * k * k * spec.real * np.where(k == 0, 0.5, 1.0)))
    return val, d1, d2


def _circle_count(coeffs, m):
    if m is None:
        m = max(2 * coeffs.L + 4, 16)
        m += m % 2
    return m


def radii(h, u, m=None):
    """Principal radii matrix at one unit direction u (pole-safe), from the
    second derivatives of h along four great circles through u; checks
    ``convex.radii_grid``.  h is a support function or its coefficients."""
    coeffs = getattr(h, "coeffs", h)
    u = np.asarray(u, dtype=float)
    m = _circle_count(coeffs, m)
    e1, e2 = sphere.tangent_basis(u)
    p = (e1 + e2) / math.sqrt(2.0)
    q = (e1 - e2) / math.sqrt(2.0)
    hval, _, d2_1 = _circle_derivatives(coeffs, u, e1, m)
    _, _, d2_2 = _circle_derivatives(coeffs, u, e2, m)
    _, _, d2_p = _circle_derivatives(coeffs, u, p, m)
    _, _, d2_q = _circle_derivatives(coeffs, u, q, m)
    q11 = d2_1 + hval
    q22 = d2_2 + hval
    q12 = 0.5 * (d2_p - d2_q)
    r1, r2 = support._eigs_2x2(q11, q22, q12)
    return RadiiMatrix(u=u, Q=np.array([[q11, q12], [q12, q22]]), r1=float(r1), r2=float(r2))


def boundary_point(h, u, m=None):
    """Boundary point with outer normal u (gradient of the extension), from
    the first derivatives of h along two great circles through u; checks
    ``convex.boundary_points_grid``.

    Flags degenerate directions where the smaller radius vanishes, since
    the inverse Gauss map is not single-valued there.
    """
    coeffs = getattr(h, "coeffs", h)
    u = np.asarray(u, dtype=float)
    rm = radii(h, u, m=m)
    if rm.r1 <= support.PSD_RTOL * max(abs(rm.r2), 1.0):
        raise ValueError(
            f"degenerate radii at u (r1 = {rm.r1:.3e}); boundary point is not unique"
        )
    m = _circle_count(coeffs, m)
    e1, e2 = sphere.tangent_basis(u)
    hval, d1_1, _ = _circle_derivatives(coeffs, u, e1, m)
    _, d1_2, _ = _circle_derivatives(coeffs, u, e2, m)
    return hval * u + d1_1 * e1 + d1_2 * e2


def area_density(h, u, j=1):
    """Area-measure density of order j at u, s_1 = (r1 + r2)/2 or
    s_2 = r1 r2 of the per-point radii; checks the densities that the grid
    operators read from ``SupportFunction.radii`` and the circle integrals
    f1, f2 of ``zonoid.isotropy_gap_stack``."""
    rm = radii(h, u)
    if j == 1:
        return 0.5 * (rm.r1 + rm.r2)
    if j == 2:
        return rm.r1 * rm.r2
    raise ValueError(f"order j must be 1 or 2 at n = 3, got {j}")


def mixed_area_density(hK, hL, u):
    """Mixed discriminant of the two per-point radii matrices at u (n = 3),
    D(Q, Q') = (Q11 Q'22 + Q22 Q'11)/2 - Q12 Q'12, so D(Q, Q) = det Q and
    D(Q, I) = tr(Q)/2; checks ``convex.mixed_area_density_grid``."""
    QK = radii(hK, u).Q
    QL = radii(hL, u).Q
    return float(
        0.5 * (QK[0, 0] * QL[1, 1] + QK[1, 1] * QL[0, 0]) - QK[0, 1] * QL[0, 1]
    )


def area_density_spectral(h, grid=None):
    """First-order area density by the Laplace-Beltrami route:
    coefficientwise (1 - l(l+1)/2) c_lm, synthesized on the grid; checks the
    Hessian-trace density (q11 + q22)/2 of ``convex.radii_grid``."""
    coeffs = getattr(h, "coeffs", h)
    if grid is None:
        grid = h.grid
    out = coeffs.copy()
    deg = coeffs.degrees()
    out.c = coeffs.c * (1.0 - deg * (deg + 1.0) / 2.0)
    return harmonics.synthesize_grid(out, grid)


def ellipsoid_support(semi_axes):
    """Support function of an origin-centred ellipsoid as a callable on
    (M, 3) unit vectors: the input of the radii and boundary-point checks."""
    a = np.asarray(semi_axes, dtype=float)

    def h(points):
        p = np.atleast_2d(np.asarray(points, dtype=float))
        return np.sqrt(np.sum((a[None, :] * p) ** 2, axis=1))

    return h


def ellipsoid_radii_oracle(semi_axes, u):
    """Principal radii of an ellipsoid at normal u via the shape operator
    of the implicit surface, independent of the support-function route;
    checks ``radii`` and so ``convex.radii_grid``.

    The boundary point with outer normal u solves x = D^2 u / |D u| with
    D = diag(semi-axes); the Weingarten map is the tangential part of
    Hess(F)/|grad F| for F = |D^{-1} x|^2 - 1, and the radii are the
    reciprocals of its eigenvalues.
    """
    a = np.asarray(semi_axes, dtype=float)
    u = np.asarray(u, dtype=float)
    x = (a**2 * u) / np.linalg.norm(a * u)
    grad = 2.0 * x / a**2
    n = grad / np.linalg.norm(grad)
    hess = np.diag(2.0 / a**2)
    P = np.eye(3) - np.outer(n, n)
    W = P @ hess @ P / np.linalg.norm(grad)
    eigs = np.linalg.eigvalsh(W)
    curv = np.sort(eigs)[1:]  # drop the zero along the normal
    return np.sort(1.0 / curv[::-1])


def design_rows_three_tables(rows, grid, L):
    """The value, h11 - h22 and 2 h12 rows of a ``zonoid._DesignRows``, of
    all its kept nodes at once and transposed as its writers write them,
    by per-node arithmetic on the three theta tables Q, Q' and Q'' of all
    the grid's rings (``theta_tables``):

        h11 - h22 = Q'' T - (cot Q' - m^2 Q / sin^2) T,
        2 h12 = 2 T' (Q' - cot Q) / sin,

    with T the longitude factor of the column times the node's square-root
    weight and T' its phi-derivative.  Checks the design's own ring tables
    H and K, and the value rows' gather."""
    P, dP, d2P = theta_tables(L, grid.cos_theta)
    cosm, sinm = harmonics._phi_tables(L, grid.phi)
    ring, lon = np.divmod(rows.nodes, grid.n_phi)
    aniso = np.isin(rows.which, (0, 1))  # U and V
    ra, la, swa = ring[aniso], lon[aniso], rows.sw[aniso]
    st = np.sqrt(1.0 - grid.cos_theta[ra] ** 2)
    cot = grid.cos_theta[ra] / st
    ncol, s2 = rows.ls.size, math.sqrt(2.0)
    V = np.zeros((ncol + 1, rows.nodes.size))
    diag = np.zeros((ncol + 1, ra.size))
    off = np.zeros((ncol + 1, ra.size))
    for m in np.unique(rows.ms).tolist():
        cols = np.flatnonzero(rows.ms == m)
        am = abs(m)
        if m == 0:
            trig, dtrig = cosm[0], np.zeros(grid.n_phi)
        elif m > 0:
            trig, dtrig = s2 * cosm[m], -m * s2 * sinm[m]
        else:
            trig, dtrig = s2 * sinm[am], am * s2 * cosm[am]
        lc = rows.ls[cols, None]
        V[cols] = P[lc, am, ring] * (rows.sw * trig[lon])
        Pa, dPa = P[lc, am, ra], dP[lc, am, ra]
        t_a = swa * trig[la]
        diag[cols] = d2P[lc, am, ra] * t_a - (cot * dPa - am * am * Pa / (st * st)) * t_a
        off[cols] = 2.0 * (swa * dtrig[la]) * (dPa - cot * Pa) / st
    V[-1] = rows.sw * rows.target
    return V, diag, off


class QRFoldFactor(zonoid._TriangularFactor):
    """Upper-triangular factor of [A | b], fed like
    ``zonoid._TriangularFactor`` (the same buffer W, which may be a corner of
    a larger one, whose top ncol + 1 rows hold the factor, a zero triangle
    when fresh, and the same fold points) but folded by
    ``np.linalg.qr(mode="r")``, which copies the factor and the new rows
    before factoring them together.  Checks the in-place ``dtpqrt`` folds of
    ``_TriangularFactor`` within rounding; its ``certified_solve`` is the
    production one, so that a design folded here differs only by its
    folds."""

    def _fold_rows(self, r):
        n = self._W.shape[1]
        self._W[:n] = np.linalg.qr(self._W[: n + r], mode="r")


def design_residuals_grid_synthesis(G, grid, nodes, target):
    """The value and Funk residuals of a plateau design at its kept nodes,
    max |G - target| and max |(Laplacian/2 + identity) G - target|, by
    synthesizing G and its Funk-level combination (1 - l(l+1)/2 on degree
    l) on the whole design grid and reading the nodes.  G is the design's
    expansion in the frame it was solved in.  Checks the ring sums of the
    design's value tables (``zonoid._DesignRows.node_values``)."""
    l = G.degrees()
    G_funk = harmonics.HarmonicCoeffs(L=G.L, c=G.c * (1.0 - 0.5 * l * (l + 1.0)))
    return tuple(
        float(np.max(np.abs(harmonics.synthesize_grid(c, grid)[nodes] - target)))
        for c in (G, G_funk)
    )


def orbit_fold_by_group(grid):
    """``zonoid._orbit_fold`` from the whole group of the antipodal map and
    y -> -y: the images of every node under each element, each new
    generator composed with all the elements so far, stacked and reduced by
    one minimum over the stack."""
    images = [np.arange(grid.n_nodes)]
    for g in (grid.antipode_index(), grid.reflection_index()):
        images += [g[p] for p in images]
    rep = np.min(images, axis=0)
    return rep, np.bincount(rep, minlength=grid.n_nodes)
