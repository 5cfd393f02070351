"""Zonoids generated by densities on the sphere.

A nonnegative even density g generates the zonoid whose support function
is the cosine transform of g; its surface-area structure is computable by
circle integrals of g over the orthogonal great circle: with x(alpha) on
the circle through u-perp,

    f1(u) ∝ ∬ sin^2(a - b) g(x(a)) da db
    f2(u) ∝ ∬ sin^2(a - b) g(x(a)) g(x(b)) da db

(the planar determinant of two circle points is sin of their angle
difference).  The prefactors are the printed constants 1/pi and 2, which
the oracle g ≡ c fixes: its zonoid is the ball of radius 2 pi c, whose
first and second area densities are 2 pi c and (2 pi c)^2.  f1 = Funk
transform of g (unit proportionality) is a checked claim.

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

#: Printed dimension constants for the circle-integral prefactors at n = 3.
WEIL_PREFACTOR_1 = 1.0 / math.pi
WEIL_PREFACTOR_2 = 2.0


@lru_cache(maxsize=transforms.CIRCLE_TABLE_CACHE_SIZE)
def _double_angle_tables(m):
    """cos 2a and sin 2a at the m circle angles a = 2 pi k / m, cached per
    m; both arrays are read-only."""
    two_a = 4.0 * np.pi * np.arange(m) / m
    c2, s2 = np.cos(two_a), np.sin(two_a)
    c2.flags.writeable = False
    s2.flags.writeable = False
    return c2, s2


def _circle_double_integrals(vals):
    """Trapezoid sums of the sin^2 kernel on S circles of m >= 8
    equispaced nodes, from their (S, m) samples.

    Returns the (S,) arrays w^2 sum_ab sin^2(a - b) g_a and
    w^2 sum_ab sin^2(a - b) g_a g_b (w = 2 pi / m) in O(m) per circle.
    The kernel has rank 3, sin^2(a - b) = (1 - cos 2a cos 2b - sin 2a sin 2b) / 2,
    so only the order-0 and order-2 moments S0 = sum g, Sc = sum g cos 2a
    and Ss = sum g sin 2a enter.  Each kernel row sums to exactly m / 2,
    which is used as such instead of a computed sum.  Sc and Ss are one
    dot product per circle (a stack of 1 x m matmuls), so a row's sums
    are bitwise the same in any stack.
    """
    m = vals.shape[1]
    w = 2.0 * np.pi / m
    c2, s2 = _double_angle_tables(m)
    s0 = np.sum(vals, axis=1)
    sc = (vals[:, None, :] @ c2)[:, 0]
    ss = (vals[:, None, :] @ s2)[:, 0]
    return w * w * (0.5 * m) * s0, w * w * 0.5 * (s0 * s0 - sc * sc - ss * ss)


def _weil_densities(vals):
    """(f1, f2) of S circles from their (S, m) samples of g, as (S,) arrays."""
    raw1, raw2 = _circle_double_integrals(vals)
    return WEIL_PREFACTOR_1 * raw1, WEIL_PREFACTOR_2 * raw2


@dataclass
class ZonoidSpec:
    """A generating density together with its certified zonoid support.

    ``g`` is even and nonnegative (after even-symmetrization); ``h`` is
    the cosine transform of g, computed spectrally on the band-limited
    density and certified as a support function.
    """

    g: transforms.SphericalFunction
    h: convex_support.SupportFunction


def even_density(g):
    """The even part of the density g, checked to be nonnegative.

    The even part is the pointwise average with the antipodal map, which
    is the odd-degree cut in coefficient space; values below -1e-10 on
    g's grid are rejected.  When g has no odd coefficients its own values
    are the even part's and are kept, so the density is not synthesized
    again.
    """
    if g.coeffs is None:
        raise ValueError("zonoid densities need a harmonic expansion")
    even = g.coeffs.copy()
    odd = even.degrees() % 2 == 1
    values = g.values
    if np.any(even.c[odd]):
        even.c[odd] = 0.0
        values = harmonics.synthesize_grid(even, g.grid)
    if float(np.min(values)) < -1e-10:
        raise ValueError(
            f"generating density is negative (min {float(np.min(values)):.3e}) "
            "after even-symmetrization"
        )
    return transforms.SphericalFunction(grid=g.grid, values=values, coeffs=even)


def make_zonoid(g):
    """Build the zonoid generated by the density g.

    g is even-symmetrized and checked nonnegative (``even_density``).  The
    support function is obtained by the exact multiplier action on the
    band-limited density and must pass the convexity certificate, which
    cannot fail for a genuinely nonnegative density unless the resolution
    is too low.
    """
    g_even = even_density(g)
    lam = harmonics.multiplier_table("cosine", g_even.coeffs.L)
    h = convex_support.SupportFunction.from_coeffs(
        g.grid, harmonics.apply_multipliers(g_even.coeffs, lam)
    )
    return ZonoidSpec(g=g_even, h=h)


def isotropy_gap_stack(values):
    """Pointwise witnesses tying section isotropy to the area-density gap,
    for S circles from their (S, m) samples of the even density g.

    Returns (S,) arrays: the isotropy deviation of g on each circle
    (``transforms.isotropy_tensors``), the zonoid's first and second area
    densities f1 and f2 at its normal from the circle integrals of g (f1
    equals the Funk transform of g there), the relative gap
    |f1^2 - f2| / f2, and ``mass``, the squared second-order Fourier mass
    of g on the circle by the FFT.  The deviation and the gap vanish
    together, and f1^2 - f2 equals the mass; the sums and the FFT are two
    routes.  The gap's denominator is floored at EPS_FLOOR times the
    square of the circle's ``transforms.circle_scale`` (0 where g
    vanishes), so neither measure changes when g is scaled.  Every row is
    computed alone, so it is bitwise the same in any stack.
    """
    m = values.shape[1]
    _, dev = transforms.isotropy_tensors(values)
    f1, f2 = _weil_densities(values)
    # rfft coefficient k equals (m / 2pi) * the integral moments for 0 < k < m/2
    spec = np.fft.rfft(values, axis=1)[:, 2]
    weight = 2.0 * np.pi / m
    a = spec.real * weight
    b = -spec.imag * weight
    floor = np.maximum(f2, transforms.EPS_FLOOR * transforms.circle_scale(values) ** 2)
    gap = np.divide(np.abs(f1 * f1 - f2), floor, out=np.zeros_like(f2), where=floor > 0.0)
    return {"dev": dev, "gap": gap, "f1": f1, "f2": f2, "mass": a * a + b * b}


def isotropy_gap_report(g, u, m=256, values=None):
    """``isotropy_gap_stack`` of the one circle u-perp, as floats.

    ``g`` is the even density (``even_density``), or a zonoid built from
    it, of which only the density is read.  g is sampled on the circle
    once (``transforms.circle_samples``), and every quantity reads those
    samples; ``values`` are those samples when the caller already has
    them (g on the nodes of ``great_circle(u, m)``), and g is then not
    read.
    """
    if isinstance(g, ZonoidSpec):
        g = g.g
    vals = transforms._given_or_sampled(g, u, m, values)
    return {key: float(x[0]) for key, x in isotropy_gap_stack(vals[None]).items()}


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
    funk_vals = transforms.funk_transform(spec.g).values[mask]
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
    c0: float
    cap_u: sphere.Cap
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


def _orbit_fold(grid, reflections=()):
    """One node per orbit of the group that the antipodal map and the given
    coordinate reflections ("x", "y") generate on the grid's nodes.

    Returns (keep, mult): the mask of the lowest-indexed node of every
    orbit, and per node the size of the orbit it represents (meaningful on
    the kept nodes).  With no reflection every orbit is an antipodal pair.
    """
    images = [np.arange(grid.n_nodes)]
    for g in [grid.antipode_index()] + [grid.reflection_index(a) for a in reflections]:
        images += [g[p] for p in images]
    rep = np.min(images, axis=0)
    return rep == images[0], np.bincount(rep, minlength=grid.n_nodes)


def _cap_pair_symmetry(grid, caps):
    """Each cap pair's node set (cap and antipode) on the grid, and the
    coordinate reflections ("x", "y") that map every one onto itself."""
    sels = [grid.cap_mask(c) | grid.cap_mask(c.antipodal()) for c in caps]
    perms = {a: grid.reflection_index(a) for a in ("x", "y")}
    return sels, [a for a, p in perms.items() if all(np.array_equal(s[p], s) for s in sels)]


def _adapted_frame(u, v):
    """Rotation Q, rows the frame's axes, with e_x along u + v and e_y
    along u x v, for unit vectors u and v at an angle a in (0, pi).

    In frame coordinates Q u and Q v lie in the xz-plane at longitude 0,
    at colatitudes pi/2 - a/2 and pi/2 + a/2, and their cross product lies
    along +e_y; the reflection through span(u, v) becomes y -> -y.
    """
    ex = u + v
    ey = np.cross(u, v)
    ex = ex / np.linalg.norm(ex)
    ey = ey / np.linalg.norm(ey)
    return np.array([ex, ey, np.cross(ex, ey)])


def _rotate_expansion(coeffs, frame):
    """Coefficients of x -> f(frame @ x), where f has the given coefficients.

    f is sampled at the images under ``frame`` of the nodes of a grid that
    analyzes its band exactly, and the samples are analyzed there.  Both
    steps are exact for a band-limited f, so the result is f composed
    with the rotation up to rounding, without rotation matrices per degree.
    """
    L = coeffs.L
    grid = sphere.build_grid(L + 2, max(2 * L + 2, 4))
    return harmonics.analyze(
        grid, harmonics.synthesize_points(coeffs, grid.nodes @ frame.T), L
    )


class _DesignRows:
    """Rows of the plateau design's weighted least-squares system, folded
    onto its symmetry group and built for a chunk of nodes at a time.

    Columns are even harmonics (l, m), degree-major, as ``ls``/``ms``.
    Rows, each scaled by the square root of its node's quadrature weight,
    are: values on the nodes of the cap pairs; the Funk-level combination
    Laplacian/2 + identity, which is the value times ``funk`` =
    1 - l(l+1)/2 (the transform the rigidity conclusion constrains), on the
    same nodes; the two anisotropic-Hessian components h11 - h22 and 2 h12
    (what section isotropy constrains) on the nodes of ``anisotropy_caps``;
    and last the ridge rows, sqrt(ridge) / lambda_l on the diagonal, with
    lambda_l the cosine multiplier.  ``value_rows`` and ``anisotropy_rows``
    build the node rows; the Funk rows are the value rows times ``funk``
    column by column, and the ridge rows are diagonal.

    The system is folded onto its symmetry group, and the fold is exact.
    The group is generated by the antipodal map, which fixes every cap
    pair's node set, and by each coordinate reflection x -> -x, y -> -y
    that does too (an exact check on the grid's node permutations).  Each
    group element maps an even harmonic's value and Laplacian, and in the
    (e_theta, e_phi) frame h11 - h22, to their values at the image node;
    2 h12 flips sign there against a zero target.  The objective is
    therefore invariant under the group acting on the coefficients, so its
    unique minimizer lies in the invariant columns: the m >= 0 ones under
    y -> -y, and those with m >= 0 even or m < 0 odd under x -> -x.  On
    those columns every node of an orbit has the squared residual of the
    orbit's kept node, which enters with the orbit's size times its weight.
    With no reflection this keeps one node of every antipodal pair, with
    twice its weight, and all the even columns.  Every cap pair of the
    design is fixed by the reflection through span(U, V); ``design_plateau``
    passes caps that no coordinate reflection fixes in the frame where
    that reflection is y -> -y, so at least one reflection always folds.

    Blocks come transposed, one column per row of the system, assembled
    one order m at a time and vectorized over degree from the grid's cached
    Legendre and longitude tables (``harmonics.grid_theta_tables`` and
    ``grid_phi_tables``).

    Attributes: ``ls``, ``ms`` and ``funk`` of the solved columns; per kept
    node its grid index ``nodes``, cap index ``which`` and square-root
    weight ``sw``; ``n_aniso``, the number of kept nodes with anisotropy
    rows; and the ``reflections`` used.
    """

    def __init__(self, grid, caps, L, anisotropy_caps):
        sels, self.reflections = _cap_pair_symmetry(grid, caps)
        keep, mult = _orbit_fold(grid, self.reflections)
        evens = np.arange(0, L + 1, 2)
        ls = np.repeat(evens, 2 * evens + 1)
        ms = np.concatenate([np.arange(-l, l + 1) for l in evens])
        invariant = np.ones(ls.size, dtype=bool)
        if "y" in self.reflections:
            invariant &= ms >= 0
        if "x" in self.reflections:
            invariant &= (ms >= 0) == (ms % 2 == 0)
        self.ls, self.ms = ls[invariant], ms[invariant]
        self.funk = 1.0 - 0.5 * self.ls * (self.ls + 1.0)
        sel = np.any(sels, axis=0) & keep
        self.nodes = np.flatnonzero(sel)
        self.which = np.zeros(self.nodes.size, dtype=int)
        for k, s in enumerate(sels):
            self.which[s[sel]] = k
        self.sw = np.sqrt(mult[sel] * grid.weights[sel])
        self._ring, self._lon = np.divmod(self.nodes, grid.n_phi)
        self._aniso = np.flatnonzero(np.isin(self.which, anisotropy_caps))
        self.n_aniso = self._aniso.size
        self._cos_theta = grid.cos_theta
        # the degree-by-ring Legendre tables are read in place, per chunk
        self._P, self._dP, self._d2P = harmonics.grid_theta_tables(L, grid)
        cosm, sinm = harmonics.grid_phi_tables(L, grid)
        s2 = math.sqrt(2.0)
        # per order: its columns, |m|, the longitude factor and its phi
        # derivative, and the degrees of its columns as a column vector
        self._orders = []
        for m in np.unique(self.ms).tolist():
            cols = np.flatnonzero(self.ms == m)
            am = abs(m)
            if m == 0:
                trig, dtrig = cosm[0], np.zeros(grid.n_phi)
            elif m > 0:
                trig, dtrig = s2 * cosm[m], -m * s2 * sinm[m]
            else:
                trig, dtrig = s2 * sinm[am], am * s2 * cosm[am]
            self._orders.append((cols, am, trig, dtrig, self.ls[cols, None]))

    def value_rows(self, k):
        """Value rows of the kept nodes ``k`` (a slice), transposed."""
        ring, lon, sw = self._ring[k], self._lon[k], self.sw[k]
        AT = np.empty((self.ls.size, sw.size))
        for cols, am, trig, _, lc in self._orders:
            AT[cols] = self._P[lc, am, ring] * (sw * trig[lon])
        return AT

    def anisotropy_rows(self, k):
        """h11 - h22 rows, then 2 h12 rows, of the anisotropy nodes ``k``
        (a slice of them), transposed."""
        i = self._aniso[k]
        ring, lon, sw = self._ring[i], self._lon[i], self.sw[i]
        na = i.size
        st = np.sqrt(1.0 - self._cos_theta[ring] ** 2)
        cot = self._cos_theta[ring] / st
        AT = np.empty((self.ls.size, 2 * na))
        for cols, am, trig, dtrig, lc in self._orders:
            Pa, dPa = self._P[lc, am, ring], self._dP[lc, am, ring]
            t_a = sw * trig[lon]
            h11 = self._d2P[lc, am, ring] * t_a
            h22 = (cot * dPa - am * am * Pa / (st * st)) * t_a
            AT[cols, :na] = h11 - h22
            AT[cols, na:] = 2.0 * (sw * dtrig[lon]) * (dPa - cot * Pa) / st
        return AT


class _TriangularFactor:
    """Upper-triangular factor of a tall system [A | b], fed in row blocks.

    A least-squares problem min |A x - b| keeps its minimizer, its singular
    values and its residual norm when [A | b] is replaced by the R of its
    QR factorization.  Rows are gathered below the current factor in a
    buffer of ``block`` rows and folded into it by a QR factorization
    whenever the buffer fills, so the memory taken is fixed however many
    rows the system has.
    """

    def __init__(self, ncol, block):
        self._W = np.empty((ncol + 1 + block, ncol + 1), order="F")
        self._top = 0  # rows in use
        self._factor_rows = 0  # of which the current factor

    def add(self, AT, b=None):
        """Append rows of A, given transposed (one column per row), and of b
        (zeros when None)."""
        W = self._W
        done, n = 0, AT.shape[1]
        while done < n:
            k = min(W.shape[0] - self._top, n - done)
            W[self._top : self._top + k, :-1] = AT[:, done : done + k].T
            W[self._top : self._top + k, -1] = 0.0 if b is None else b[done : done + k]
            self._top += k
            done += k
            if self._top == W.shape[0]:
                self._fold()

    def _fold(self):
        if self._top > self._factor_rows:
            R = np.linalg.qr(self._W[: self._top], mode="r")
            self._top = self._factor_rows = R.shape[0]
            self._W[: self._top] = R

    def result(self):
        """The factor of every row added so far (a copy; adding may go on)."""
        self._fold()
        return self._W[: self._top].copy()


#: Rows gathered between two QR folds of the plateau design, and nodes per
#: built chunk of rows.  The buffer is sized once, so it bounds the design's
#: memory whatever its caps.  A drawn cap pair, solved in its adapted frame,
#: keeps 5.0k-8.6k rows at band 48: its 1.3k-2.3k value rows fit in one
#: block, and the rows after them fill the buffer at most once (38 of 100
#: drawn pairs).  Smaller blocks fold more often and cost time.
DESIGN_BLOCK_ROWS = 4096
DESIGN_CHUNK_NODES = 1024

#: Plateau levels of the design's cap pairs: U, V and the third cap.
PLATEAU_LEVELS = (1.0, 2.0, 3.0)

#: Height by which the design enlarges every cap past its nominal one.
CAP_MARGIN = 0.01


def design_plateau(cap_u, cap_v, L=48, design_grid=(128, 256), ridge=1e-12):
    """Even band-L function flat at three levels on three cap pairs.

    The first two cap pairs are the target plateaus; the third, centered
    on the axis completing the orthogonal frame, carries a decoration
    level whose sole purpose is to keep the inverse-transform density
    visibly non-constant on the great circles through the first cap.
    The levels are ``PLATEAU_LEVELS``.  Flatness is enforced in value, in
    the Funk-level combination (Laplacian/2 + identity) and in the
    anisotropic Hessian components, on caps enlarged by ``CAP_MARGIN`` (in
    height) so the nominal caps sit strictly
    inside the designed-flat region.  A small ridge on the inverse-cosine
    image keeps the later inversion tame.

    The least-squares system is folded onto the cap pairs' symmetry group
    (see ``_DesignRows``): one node per orbit of the antipodal map and of
    the coordinate reflections that fix every cap pair, and only the
    columns those reflections fix.  This leaves the objective's minimizer
    unchanged; the other coefficients are exactly zero.  Caps that no
    coordinate reflection of the design grid fixes as given are first
    rotated into their adapted frame (``_adapted_frame``: e_x along U + V,
    e_y along U x V), where U and V lie in the xz-plane and the third cap
    on +-e_y, so y -> -y fixes all three pairs and the system keeps about
    half its rows and columns.  The design is solved on the grid nodes of
    that frame and G is mapped back to the user frame exactly
    (``_rotate_expansion``).  Its objective uses other nodes than a
    user-frame solve would, so the two G differ within the design's
    residual.  Caps that a coordinate reflection fixes, the default ones
    among them, are solved as given.

    The system is never held whole.  Its rows are reduced, a block at a
    time, to the triangular factor of their QR factorization
    (``_TriangularFactor``), and the factor is solved by least squares
    with the rank cutoff the whole system would get.  The value rows go
    first: their factor [R q] also stands for the Funk rows, which have
    the same target and are the value rows times ``funk`` column by
    column, as [R diag(funk) q], and the other rows join the factor
    after those.  The returned diagnostics carry the residuals on the
    kept nodes of the solved frame, the rotation into that frame
    (``design_frame``, rows the frame's axes; the identity when the caps
    are solved as given), the reflections used there and the health of
    the block actually solved: its shape, numerical rank and
    singular-value ratio.
    """
    third_center = np.cross(cap_u.center, cap_v.center)
    nrm = np.linalg.norm(third_center)
    if nrm < 1e-8:
        raise ValueError("cap centers are collinear; no transverse axis exists")
    third = sphere.Cap(center=third_center / nrm, height=cap_u.height)
    caps = [cap_u, cap_v, third]
    big = [sphere.Cap(c.center, max(c.height - CAP_MARGIN, 0.5)) for c in caps]
    dg = sphere.build_grid(*design_grid)
    frame = np.eye(3)
    adapted = not _cap_pair_symmetry(dg, big)[1]
    if adapted:
        frame = _adapted_frame(cap_u.center, cap_v.center)
        big = [sphere.Cap(frame @ c.center, c.height) for c in big]
    rows = _DesignRows(dg, big, L, anisotropy_caps=(0, 1))
    ls, ms, funk = rows.ls, rows.ms, rows.funk
    n, ncol = rows.nodes.size, ls.size
    target = np.asarray(PLATEAU_LEVELS, dtype=float)[rows.which]
    chunk = DESIGN_CHUNK_NODES
    factor = _TriangularFactor(ncol, DESIGN_BLOCK_ROWS)
    for s in range(0, n, chunk):
        k = slice(s, s + chunk)
        factor.add(rows.value_rows(k), rows.sw[k] * target[k])
    Rq = factor.result()[:ncol]
    factor.add((Rq[:, :ncol] * funk).T, Rq[:, ncol])
    del Rq  # not held through the folds below; the last is the memory peak
    for s in range(0, rows.n_aniso, chunk):
        factor.add(rows.anisotropy_rows(slice(s, s + chunk)))
    lam = harmonics.multiplier_table("cosine", L)
    factor.add(np.diag(math.sqrt(ridge) / lam[ls]))
    Rq = factor.result()[:ncol]
    n_rows = 2 * n + 2 * rows.n_aniso + ncol
    sol, _, rank, sv = np.linalg.lstsq(
        Rq[:, :ncol], Rq[:, ncol], rcond=np.finfo(float).eps * max(n_rows, ncol)
    )
    G = harmonics.HarmonicCoeffs.zeros(L)
    idx = ls * ls + ls + ms
    G.c[idx] = sol
    G_funk = harmonics.HarmonicCoeffs.zeros(L)
    G_funk.c[idx] = funk * sol
    values = harmonics.synthesize_grid(G, dg)[rows.nodes]
    funk_values = harmonics.synthesize_grid(G_funk, dg)[rows.nodes]
    if adapted:
        G = _rotate_expansion(G, frame)
        G.c[G.degrees() % 2 == 1] = 0.0  # G is even; these are rounding
    return G, {
        "design_value_residual": float(np.max(np.abs(values - target))),
        "design_funk_residual": float(np.max(np.abs(funk_values - target))),
        "design_rows": int(n_rows),
        "design_cols": int(ncol),
        "design_rank": int(rank),
        "design_sigma_ratio": float(sv[0] / sv[-1]),
        "design_reflections": rows.reflections,
        "design_frame": frame.tolist(),
    }


def build_counterexample(cap_u, cap_v, grid, L=48, transition=0.3):
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
    G, design_info = design_plateau(cap_u, cap_v, L=L)
    w = harmonics.inverse_cosine_transform(G)
    w_values = harmonics.synthesize_grid(w, grid)
    c0 = 1.0 + float(np.max(np.abs(w_values)))
    g_coeffs = w.copy()
    g_coeffs.set(0, 0, g_coeffs.get(0, 0) + c0 * math.sqrt(4.0 * math.pi))
    g = transforms.SphericalFunction(grid=grid, values=w_values + c0, coeffs=g_coeffs)
    lam = harmonics.multiplier_table("cosine", L)
    conditioning = float(np.max(np.abs(lam[0] / lam[lam != 0.0])))
    h_values = transforms.cosine_transform(g).values
    r_values = transforms.funk_transform(g).values
    mask_u = grid.cap_mask(cap_u)
    h_u = h_values[mask_u]
    r_u = r_values[mask_u]
    r_v = r_values[grid.cap_mask(cap_v)]
    # circles orthogonal to cap directions sweep the band |<x, center>| < sin(radius)
    band = np.abs(grid.nodes @ cap_u.center) < math.sin(cap_u.radius)
    g_band = g.values[band]
    plateau_residual = float(np.max(np.abs(h_u - (PLATEAU_LEVELS[0] + 2.0 * math.pi * c0))))
    diagnostics = {
        "c0": c0,
        "band": L,
        "conditioning": conditioning,
        "plateau_residual": plateau_residual,
        "support_affine_residual": float(np.max(np.abs(h_u - np.mean(h_u)))),
        "funk_residual_U": float(np.max(np.abs(r_u - np.mean(r_u)))),
        "funk_gap_UV": float(np.mean(r_v) - np.mean(r_u)),
        "funk_gap_expected": float(PLATEAU_LEVELS[1] - PLATEAU_LEVELS[0]),
        "density_band_variance": float(np.var(g_band)),
        "density_band_mean": float(np.mean(g_band)),
        **design_info,
    }
    return CounterexampleResult(
        g=g,
        w=w,
        c0=c0,
        cap_u=cap_u,
        diagnostics=diagnostics,
    )


#: Cap directions whose circles counterexample_assertions checks.
ISOTROPY_SAMPLES = 50


def counterexample_assertions(result, rng, m=256):
    """Measured metrics of the three counterexample claims, by name:

    1. ``isotropy_max_dev``, the largest isotropy deviation of the sections
       on the circles of ISOTROPY_SAMPLES directions sampled in the first cap;
    2. ``funk_gap_error``, the distance of the Funk transform gap between
       the caps from the plateau gap;
    3. ``band_variance`` and ``band_mean`` of the density on the band that
       the circles through the cap sweep: it is visibly non-constant there.

    Only the first is computed here; the others come from the build's
    diagnostics.
    """
    g = even_density(result.g)
    samples = result.cap_u.sample(ISOTROPY_SAMPLES, rng)
    values = transforms.circle_samples(np.broadcast_to(g.coeffs.c, (ISOTROPY_SAMPLES, g.coeffs.c.size)), samples, m)
    d = result.diagnostics
    return {
        "isotropy_max_dev": float(np.max(transforms.isotropy_tensors(values)[1])),
        "funk_gap_error": abs(d["funk_gap_UV"] - d["funk_gap_expected"]),
        "band_variance": d["density_band_variance"],
        "band_mean": d["density_band_mean"],
    }
