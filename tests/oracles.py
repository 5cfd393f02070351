"""Independent routes that the tests compare the package against.

Each computes a quantity the package also computes, by a different and
slower method: direct quadrature on the sphere or the circle, the m x m
sin^2 kernel of the circle double integrals, a Gauss rule for the cosine
multipliers, a ring-by-ring average, a weight-expanding isotonic
projection and a support function's grid partials contracted once per
partial, and the order matrices of a coefficient table repacked through
index arrays built anew per call.  None of them is reached from the
package.
"""

import math

import numpy as np

from zonotools import harmonics, sphere, zonoid


def circle_integrate(g, circle):
    """Quadrature of g over a great circle (H^1 line measure)."""
    values = np.asarray(sphere._as_evaluator(g)(circle.nodes), dtype=float)
    return float(circle.weight * np.sum(values))


def funk_transform_at(f, targets, m=256):
    """Funk transform at explicit target directions by circle quadrature."""
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    out = np.empty(targets.shape[0])
    for k, u in enumerate(targets):
        out[k] = circle_integrate(f, sphere.great_circle(u, m))
    return out if out.size > 1 else float(out[0])


def cosine_transform_quadrature(g, targets, n_t=96, n_phi=256):
    """Cosine transform at explicit target directions.

    Integrates in a frame aligned with each target: with Theta the polar
    angle from u, the kernel is |cos Theta| and the integral splits at the
    kink into two halves that are Gauss-Legendre-integrated in Theta and
    trapezoid-integrated in longitude.  Spectrally accurate for smooth g
    (needs an evaluation rule), and independent of the multiplier table.
    """
    eval_g = sphere._as_evaluator(g)
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


def cosine_multiplier_gauss(l):
    """Cosine-kernel multiplier of degree l by a Gauss rule on [0, 1].

    4 pi int_0^1 t P_l(t) dt with l/2 + 2 nodes, exact for the polynomial
    integrand; odd degrees are zero.
    """
    if l % 2 == 1:
        return 0.0
    x, w = np.polynomial.legendre.leggauss(l // 2 + 2)
    x01 = 0.5 * (x + 1.0)
    pl = np.polynomial.legendre.legval(x01, [0.0] * l + [1.0])
    return float(2.0 * math.pi * np.sum(w * x01 * pl))


def inverse_funk_transform(coeffs):
    """Solve R(w) = G for w coefficientwise (even, band-limited G)."""
    return harmonics._spectral_inverse(coeffs, "funk", "inverse Funk transform")


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
    """calibrate_weil_prefactors from the full m x m kernel sum."""
    w = 2.0 * np.pi / m
    raw = float(np.sum(sin2_kernel(m))) * w * w  # double integral for g ≡ 1
    return 2.0 * math.pi / raw, (2.0 * math.pi) ** 2 / raw


def weil_densities_kernel(gvals):
    """(f1, f2) from circle samples through the m x m sin^2 kernel."""
    m = gvals.size
    pref1, pref2 = zonoid.calibrate_weil_prefactors(m)
    w = 2.0 * np.pi / m
    kernel = sin2_kernel(m)
    f1 = pref1 * w * w * float(np.sum(kernel @ np.ones(m) * gvals))
    f2 = pref2 * w * w * float(gvals @ kernel @ gvals)
    return f1, f2


def ring_average_loop(V):
    """Ring averages one ring at a time: a constant ring keeps its value,
    any other ring takes np.mean of its samples."""
    out = np.empty_like(V)
    for i in range(V.shape[0]):
        row = V[i]
        if np.all(row == row[0]):
            out[i] = row[0]
        else:
            out[i] = np.mean(row)
    return out


def pav_decreasing_by_weight(y, w):
    """Weighted non-increasing isotonic projection that expands each pooled
    block back to its samples by accumulating weights up to the block's
    weight, less 1e-12; right only while every weight is well above 1e-12."""
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


def derivative_fields_per_field(coeffs, grid):
    """h and its theta/phi partials on the grid, as
    ``convex.support._derivative_fields`` returns them, with the theta
    table contracted with the coefficients anew for each partial."""
    L = coeffs.L
    Ac, As = coeffs.split_orders()
    P, dP, d2P = harmonics.grid_theta_tables(L, grid)
    cosm, sinm = harmonics.grid_phi_tables(L, grid)
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
