"""Zonoids generated by densities on the sphere.

A nonnegative even density g generates the zonoid whose support function
is the cosine transform of g; its surface-area structure is computable by
circle integrals of g over the orthogonal great circle: with x(alpha) on
the circle through u-perp,

    f1(u) ∝ ∬ sin^2(a - b) g(x(a)) da db
    f2(u) ∝ ∬ sin^2(a - b) g(x(a)) g(x(b)) da db

(the planar determinant of two circle points is sin of their angle
difference).  Rather than trusting transcribed dimension constants, the
prefactors are calibrated once against the unimpeachable oracle g ≡ c,
whose zonoid is the ball of radius 2 pi c; the calibrated values are then
asserted to match the printed constants 1/pi and 2, and f1 = Funk
transform of g (unit proportionality) becomes a checked claim.

The module also houses the constructive counterexample: a density whose
restriction to every great circle orthogonal to a cap of directions is
isotropic although the density itself is far from constant there, and the
local-rigidity verifier that fits the cosine transform on a cap by an
affine function and the Funk transform by a constant.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from zonotools import harmonics, sphere, transforms
from zonotools.convex import support as convex_support

E3 = sphere.E3

#: Printed dimension constants for the circle-integral prefactors at n = 3;
#: calibration must reproduce these to CALIBRATION_TOL.
WEIL_PREFACTOR_1 = 1.0 / math.pi
WEIL_PREFACTOR_2 = 2.0
CALIBRATION_TOL = 1e-10


@lru_cache(maxsize=None)
def calibrate_weil_prefactors(m=256):
    """Prefactors of the one- and two-density circle integrals.

    Solved from the constant-density oracle: g ≡ c generates the ball of
    radius 2 pi c, whose first and second area densities are 2 pi c and
    (2 pi c)^2.  The trapezoid double sum of sin^2(a - b) is exact for
    m >= 8, so the calibrated values agree with the printed constants to
    rounding; the agreement is asserted rather than assumed.
    """
    angles = 2.0 * np.pi * np.arange(m) / m
    w = 2.0 * np.pi / m
    kernel = np.sin(angles[:, None] - angles[None, :]) ** 2
    raw = float(np.sum(kernel)) * w * w  # double integral for g ≡ 1
    pref1 = 2.0 * math.pi / raw
    pref2 = (2.0 * math.pi) ** 2 / raw
    if abs(pref1 - WEIL_PREFACTOR_1) > CALIBRATION_TOL * WEIL_PREFACTOR_1:
        raise AssertionError(
            f"single-density prefactor calibrated to {pref1!r}, "
            f"printed constant {WEIL_PREFACTOR_1!r}"
        )
    if abs(pref2 - WEIL_PREFACTOR_2) > CALIBRATION_TOL * WEIL_PREFACTOR_2:
        raise AssertionError(
            f"double-density prefactor calibrated to {pref2!r}, "
            f"printed constant {WEIL_PREFACTOR_2!r}"
        )
    return pref1, pref2


@dataclass
class ZonoidSpec:
    """A generating density together with its certified zonoid support.

    ``g`` is even and nonnegative (after even-symmetrization); ``h`` is
    the cosine transform of g, computed spectrally on the band-limited
    density and certified as a support function.
    """

    g: transforms.SphericalFunction
    h: convex_support.SupportFunction
    constants: sphere.DimensionConstants


def make_zonoid(g, constants=sphere.DIM3):
    """Build the zonoid generated by the density g.

    g is even-symmetrized (pointwise average with the antipodal map, which
    is the odd-degree cut in coefficient space); values below -1e-10 after
    symmetrization are rejected.  The support function is obtained by the
    exact multiplier action on the band-limited density and must pass the
    convexity certificate, which cannot fail for a genuinely nonnegative
    density unless the resolution is too low.
    """
    if g.coeffs is None:
        raise ValueError("zonoid densities need a harmonic expansion")
    even = g.coeffs.copy()
    odd = even.degrees() % 2 == 1
    even.c[odd] = 0.0
    values = harmonics.synthesize_grid(even, g.grid)
    if float(np.min(values)) < -1e-10:
        raise ValueError(
            f"generating density is negative (min {float(np.min(values)):.3e}) "
            "after even-symmetrization"
        )
    g_even = transforms.SphericalFunction(
        grid=g.grid, values=values, coeffs=even, parity="even"
    )
    h_coeffs = harmonics.cosine_transform_spectral(even)
    h = convex_support.SupportFunction.from_coeffs(g.grid, h_coeffs, recentre=False)
    return ZonoidSpec(g=g_even, h=h, constants=constants)


def weil_density(spec, u, j=1, m=256):
    """Area-measure density of the zonoid at u from circle integrals of g.

    j = 1 uses a single density factor (and equals the Funk transform of
    g by the calibration closure); j = 2 uses two factors.
    """
    pref1, pref2 = calibrate_weil_prefactors(m)
    circle = sphere.great_circle(np.asarray(u, dtype=float), m)
    gvals = np.asarray(spec.g.evaluate(circle.nodes), dtype=float)
    w = circle.weight
    kernel = np.sin(circle.angles[:, None] - circle.angles[None, :]) ** 2
    if j == 1:
        return float(pref1 * w * w * np.sum(kernel @ np.ones(m) * gvals))
    if j == 2:
        return float(pref2 * w * w * gvals @ kernel @ gvals)
    raise ValueError(f"order j must be 1 or 2 at n = 3, got {j}")


def isotropy_gap_report(spec, u, m=256, eps=1e-30):
    """Pointwise witness tying section isotropy to the area-density gap.

    Returns the isotropy deviation of g restricted to the circle u-perp
    and the relative gap |f1^2 - f2| / max(f2, eps); the two vanish
    together, and f1^2 - f2 equals the squared second-order Fourier mass
    of g on the circle.
    """
    dev = transforms.section_isotropy_tensor(spec.g, u, m=m).deviation
    f1 = weil_density(spec, u, 1, m)
    f2 = weil_density(spec, u, 2, m)
    gap = abs(f1 * f1 - f2) / max(f2, eps)
    return {"dev": float(dev), "gap": float(gap), "f1": f1, "f2": f2}


@dataclass(frozen=True)
class RigidityReport:
    """Affine fit of the support on a cap and the Funk constant there."""

    cap: sphere.Cap
    c: float
    a: np.ndarray
    affine_residual: float
    funk_constant: float
    funk_residual: float

    def to_json(self):
        return json.dumps(
            {
                "cap_center": [float(v) for v in self.cap.center],
                "cap_height": self.cap.height,
                "c": self.c,
                "a": [float(v) for v in self.a],
                "affine_residual": self.affine_residual,
                "funk_constant": self.funk_constant,
                "funk_residual": self.funk_residual,
            }
        )


def verify_local_rigidity(spec, cap):
    """Least-squares affine fit of h on the cap nodes plus the Funk fit.

    Rigidity for densities with isotropic sections over the cap predicts
    h = c + <a, u> and a constant Funk transform there; the report carries
    the fitted parameters and both sup-norm residuals.
    """
    grid = spec.g.grid
    mask = grid.cap_mask(cap)
    if not np.any(mask):
        raise ValueError("cap contains no grid nodes")
    nodes = grid.nodes[mask]
    hvals = spec.h.values[mask]
    A = np.hstack([np.ones((nodes.shape[0], 1)), nodes])
    sol, *_ = np.linalg.lstsq(A, hvals, rcond=None)
    c, a = float(sol[0]), sol[1:]
    affine_residual = float(np.max(np.abs(A @ sol - hvals)))
    funk_vals = harmonics.synthesize_points(
        harmonics.funk_transform_spectral(spec.g.coeffs), nodes
    )
    funk_constant = float(np.mean(funk_vals))
    funk_residual = float(np.max(np.abs(funk_vals - funk_constant)))
    return RigidityReport(
        cap=cap,
        c=c,
        a=a,
        affine_residual=affine_residual,
        funk_constant=funk_constant,
        funk_residual=funk_residual,
    )


# ----------------------------------------------------------------------
# Constructive counterexample
# ----------------------------------------------------------------------

@dataclass
class CounterexampleResult:
    g: transforms.SphericalFunction
    w: harmonics.HarmonicCoeffs
    G: harmonics.HarmonicCoeffs
    c0: float
    cap_u: sphere.Cap
    cap_v: sphere.Cap
    diagnostics: dict

    def save(self, outdir):
        """Write the density samples, coefficient tables and diagnostics."""
        import os

        os.makedirs(outdir, exist_ok=True)
        sphere.grid_to_csv(
            os.path.join(outdir, "density.csv"), self.g.grid, self.g.values
        )
        harmonics.coeffs_to_csv(os.path.join(outdir, "density_coeffs.csv"), self.g.coeffs)
        harmonics.coeffs_to_csv(os.path.join(outdir, "w_coeffs.csv"), self.w)
        with open(os.path.join(outdir, "diagnostics.json"), "w", encoding="utf-8") as fh:
            json.dump(self.diagnostics, fh, indent=2, sort_keys=True, allow_nan=False)


def _one_node_per_antipodal_pair(grid):
    """Mask keeping the lower-indexed node of every antipodal node pair."""
    return np.arange(grid.n_nodes) < grid.antipode_index()


def _design_rows(grid, caps, L, anisotropy_caps, ridge):
    """Weighted least-squares system of the plateau design.

    Columns are the even harmonics (l, m), degree-major, as ``ls``/``ms``.
    Rows, each scaled by the square root of its node's quadrature weight,
    are: values on the nodes of the cap pairs; the Funk-level combination
    Laplacian/2 + identity, which is the value times 1 - l(l+1)/2 (the
    transform the rigidity conclusion constrains), on the same nodes; the
    two anisotropic-Hessian components h11 - h22 and 2 h12 (what section
    isotropy constrains) on the nodes of ``anisotropy_caps``; and last the
    ridge rows, sqrt(ridge) / lambda_l on the diagonal, with lambda_l the
    cosine multiplier.

    The rows keep one node of every antipodal pair, with twice its
    weight, and the fold is exact.  Every cap comes with its antipodal
    cap, so the antipode of a selected node is selected too.  An even
    harmonic and its Laplacian take the same value at x and -x, and in the
    (e_theta, e_phi) frame h11 - h22 is the same there while 2 h12 flips
    sign against a zero target.  Each squared residual of -x therefore
    equals that of x, and the objective, hence its minimizer, is unchanged
    with half the node rows.

    The rows are assembled one order m at a time, vectorized over degree,
    from Legendre tables evaluated once per latitude ring.

    Returns (ls, ms, which, sw, A): the columns' degrees and orders, the
    cap index and square-root weight of each kept node, and A (Fortran
    order, the layout the least-squares solver factors).
    """
    evens = np.arange(0, L + 1, 2)
    ls = np.repeat(evens, 2 * evens + 1)
    ms = np.concatenate([np.arange(-l, l + 1) for l in evens])
    sels = [grid.cap_mask(c) | grid.cap_mask(c.antipodal()) for c in caps]
    sel = np.any(sels, axis=0) & _one_node_per_antipodal_pair(grid)
    which = np.zeros(int(np.sum(sel)), dtype=int)
    for k, s in enumerate(sels):
        which[s[sel]] = k
    sw = np.sqrt(2.0 * grid.weights[sel])
    ring, lon = np.divmod(np.flatnonzero(sel), grid.n_phi)
    aniso = np.isin(which, anisotropy_caps)
    ring_a, lon_a, sw_a = ring[aniso], lon[aniso], sw[aniso]
    n, na, ncol = which.size, ring_a.size, ls.size
    P, dP, d2P = harmonics.legendre_theta_tables(L, grid.cos_theta)
    st = np.sqrt(1.0 - grid.cos_theta[ring_a] ** 2)
    cot = grid.cos_theta[ring_a] / st
    orders = np.arange(L + 1)
    cosm = np.cos(np.outer(orders, grid.phi))
    sinm = np.sin(np.outer(orders, grid.phi))
    funk = 1.0 - 0.5 * ls * (ls + 1.0)
    lam = harmonics.multiplier_table("cosine", L).lam
    AT = np.zeros((ncol, 2 * n + 2 * na + ncol))
    AT[np.arange(ncol), 2 * n + 2 * na + np.arange(ncol)] = math.sqrt(ridge) / lam[ls]
    s2 = math.sqrt(2.0)
    for m in range(-L, L + 1):
        cols = np.flatnonzero(ms == m)
        am = abs(m)
        if m == 0:
            trig, dtrig = cosm[0], np.zeros(grid.n_phi)
        elif m > 0:
            trig, dtrig = s2 * cosm[m], -m * s2 * sinm[m]
        else:
            trig, dtrig = s2 * sinm[am], am * s2 * cosm[am]
        Pm, dPm, d2Pm = P[ls[cols], am], dP[ls[cols], am], d2P[ls[cols], am]
        f = Pm[:, ring] * (sw * trig[lon])
        AT[cols, :n] = f
        AT[cols, n : 2 * n] = f * funk[cols, None]
        Pa, dPa = Pm[:, ring_a], dPm[:, ring_a]
        t_a = sw_a * trig[lon_a]
        h11 = d2Pm[:, ring_a] * t_a
        h22 = (cot * dPa - am * am * Pa / (st * st)) * t_a
        AT[cols, 2 * n : 2 * n + na] = h11 - h22
        AT[cols, 2 * n + na : 2 * n + 2 * na] = 2.0 * (sw_a * dtrig[lon_a]) * (dPa - cot * Pa) / st
    return ls, ms, which, sw, AT.T


def design_plateau(
    cap_u,
    cap_v,
    L=48,
    levels=(1.0, 2.0, 3.0),
    design_grid=(128, 256),
    cap_margin=0.01,
    ridge=1e-12,
):
    """Even band-L function flat at three levels on three cap pairs.

    The first two cap pairs are the target plateaus; the third, centered
    on the axis completing the orthogonal frame, carries a decoration
    level whose sole purpose is to keep the inverse-transform density
    visibly non-constant on the great circles through the first cap.
    Flatness is enforced in value, in the Funk-level combination
    (Laplacian/2 + identity) and in the anisotropic Hessian components, on
    caps enlarged by ``cap_margin`` so the nominal caps sit strictly
    inside the designed-flat region.  A small ridge on the inverse-cosine
    image keeps the later inversion tame.

    The least-squares rows sample one node of every antipodal pair of the
    design grid with doubled weight (see ``_design_rows``).  Because every
    cap comes with its antipode and every column is even, this leaves the
    objective and the solution unchanged and halves the node rows.  The
    returned diagnostics carry the residuals and the solve's health: its
    shape, numerical rank and singular-value ratio.
    """
    third_center = np.cross(cap_u.center, cap_v.center)
    nrm = np.linalg.norm(third_center)
    if nrm < 1e-8:
        raise ValueError("cap centers are collinear; no transverse axis exists")
    third = sphere.Cap(center=third_center / nrm, height=cap_u.height)
    caps = [cap_u, cap_v, third]
    big = [sphere.Cap(c.center, max(c.height - cap_margin, 0.5)) for c in caps]
    dg = sphere.build_grid(*design_grid)
    ls, ms, which, sw, A = _design_rows(dg, big, L, anisotropy_caps=(0, 1), ridge=ridge)
    n = which.size
    target = np.asarray(levels, dtype=float)[which]
    b = np.zeros(A.shape[0])
    b[:n] = b[n : 2 * n] = sw * target
    sol, _, rank, sv = np.linalg.lstsq(A, b, rcond=None)
    G = harmonics.HarmonicCoeffs.zeros(L)
    G.c[ls * ls + ls + ms] = sol
    resid_val = float(np.max(np.abs(A[:n] @ sol / sw - target)))
    resid_funk = float(np.max(np.abs(A[n : 2 * n] @ sol / sw - target)))
    return G, {
        "design_value_residual": resid_val,
        "design_funk_residual": resid_funk,
        "design_rows": int(A.shape[0]),
        "design_cols": int(A.shape[1]),
        "design_rank": int(rank),
        "design_sigma_ratio": float(sv[0] / sv[-1]),
    }


def build_counterexample(
    cap_u,
    cap_v,
    grid,
    L=48,
    transition=0.3,
    levels=(1.0, 2.0, 3.0),
):
    """Non-constant density with isotropic sections over a cap.

    Builds an even band-L function G flat at two levels on the cap pairs,
    inverts the cosine transform to w, and shifts by c0 = 1 + max|w| so
    the density g = w + c0 is positive.  Its zonoid has a spherical
    boundary patch over each cap (constant support there), hence equal
    principal radii, hence isotropic sections; yet the Funk transform
    takes different constants on the two caps, so g cannot be constant
    on the circles through the first cap.

    Returns the result object with measured diagnostics; assertions on
    the diagnostics belong to the callers (CLI exit code, test suite).
    """
    harmonics.check_plateau_caps(cap_u, cap_v, transition)
    G, design_info = design_plateau(cap_u, cap_v, L=L, levels=levels)
    w = harmonics.inverse_cosine_transform(G)
    w_values = harmonics.synthesize_grid(w, grid)
    c0 = 1.0 + float(np.max(np.abs(w_values)))
    g_coeffs = w.copy()
    g_coeffs.set(0, 0, g_coeffs.get(0, 0) + c0 * math.sqrt(4.0 * math.pi))
    g = transforms.SphericalFunction(
        grid=grid,
        values=w_values + c0,
        coeffs=g_coeffs,
        parity="even",
    )
    lam = harmonics.multiplier_table("cosine", L).lam
    conditioning = float(np.max(np.abs(lam[0] / lam[lam != 0.0])))
    h_coeffs = harmonics.cosine_transform_spectral(g_coeffs)
    r_coeffs = harmonics.funk_transform_spectral(g_coeffs)
    mask_u = grid.cap_mask(cap_u)
    mask_v = grid.cap_mask(cap_v)
    h_u = harmonics.synthesize_points(h_coeffs, grid.nodes[mask_u])
    r_u = harmonics.synthesize_points(r_coeffs, grid.nodes[mask_u])
    r_v = harmonics.synthesize_points(r_coeffs, grid.nodes[mask_v])
    # circles orthogonal to cap directions sweep the band |<x, center>| < sin(radius)
    band = np.abs(grid.nodes @ cap_u.center) < math.sin(cap_u.radius)
    g_band = g.values[band]
    plateau_residual = float(np.max(np.abs(h_u - (levels[0] + 2.0 * math.pi * c0))))
    diagnostics = {
        "c0": c0,
        "band": L,
        "conditioning": conditioning,
        "plateau_residual": plateau_residual,
        "support_affine_residual": float(np.max(np.abs(h_u - np.mean(h_u)))),
        "funk_residual_U": float(np.max(np.abs(r_u - np.mean(r_u)))),
        "funk_gap_UV": float(np.mean(r_v) - np.mean(r_u)),
        "funk_gap_expected": float(levels[1] - levels[0]),
        "density_band_variance": float(np.var(g_band)),
        "density_band_mean": float(np.mean(g_band)),
        "residual_budget": design_info["design_funk_residual"] * 2.0,
        **design_info,
    }
    return CounterexampleResult(
        g=g,
        w=w,
        G=G,
        c0=c0,
        cap_u=cap_u,
        cap_v=cap_v,
        diagnostics=diagnostics,
    )


def counterexample_assertions(result, rng, n_samples=50, m=256, tolerances=None):
    """Measured pass/fail rows for the three counterexample claims.

    1. isotropy of the sections over the first cap (sampled directions);
    2. the Funk transform gap between the caps equals the plateau gap;
    3. the density is visibly non-constant on the circles through the cap.
    """
    tol = {
        "isotropy_dev": 1e-5,
        "funk_gap": 5e-3,
        "nonconstancy_ratio": 0.1,
    }
    if tolerances:
        tol.update(tolerances)
    spec = make_zonoid(result.g)
    samples = result.cap_u.sample(n_samples, rng)
    devs = [
        transforms.section_isotropy_tensor(spec.g, u, m=m).deviation for u in samples
    ]
    max_dev = float(np.max(devs))
    gap = result.diagnostics["funk_gap_UV"]
    gap_err = abs(gap - result.diagnostics["funk_gap_expected"])
    var = result.diagnostics["density_band_variance"]
    mean = result.diagnostics["density_band_mean"]
    rows = [
        {
            "test_id": "counterexample-isotropy-on-cap",
            "metric": max_dev,
            "tolerance": tol["isotropy_dev"],
            "pass": bool(max_dev < tol["isotropy_dev"]),
        },
        {
            "test_id": "counterexample-funk-gap",
            "metric": gap_err,
            "tolerance": tol["funk_gap"],
            "pass": bool(gap_err < tol["funk_gap"]),
        },
        {
            "test_id": "counterexample-nonconstancy",
            "metric": var / max(mean, 1e-30),
            "tolerance": tol["nonconstancy_ratio"],
            "pass": bool(var > tol["nonconstancy_ratio"] * mean),
        },
    ]
    return rows, {"isotropy_max_dev_on_U": max_dev}
