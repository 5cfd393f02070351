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

import ctypes
import json
import math
import mmap
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from zonotools import harmonics, openblas, sphere, transforms
from zonotools.convex import support as convex_support

#: Printed dimension constants for the circle-integral prefactors at n = 3.
WEIL_PREFACTOR_1 = 1.0 / math.pi
WEIL_PREFACTOR_2 = 2.0


def _circle_double_integrals(vals):
    """Trapezoid sums of the sin^2 kernel on S circles of m >= 8
    equispaced nodes, from their (S, m) samples.

    Returns the (S,) arrays w^2 sum_ab sin^2(a - b) g_a and
    w^2 sum_ab sin^2(a - b) g_a g_b (w = 2 pi / m) in O(m) per circle.
    The kernel has rank 3, sin^2(a - b) = (1 - cos 2a cos 2b - sin 2a sin 2b) / 2,
    so only the moments S0, Sc and Ss of ``transforms.circle_moments``
    enter.  Each kernel row sums to exactly m / 2, which is used as such
    instead of a computed sum.
    """
    m = vals.shape[1]
    w = 2.0 * np.pi / m
    s0, sc, ss = transforms.circle_moments(vals)
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


@dataclass(frozen=True)
class RigidityReport:
    """Affine fit of the support on a cap and the Funk constant there."""

    cap: sphere.Cap
    c: float
    a: np.ndarray
    affine_residual: float
    funk_constant: float
    funk_residual: float


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

    #: The files ``save`` writes, in its order.
    FILES = ("density.csv", "density_coeffs.csv", "w_coeffs.csv", "diagnostics.json")

    def save(self, outdir):
        """Write the density samples, coefficient tables and diagnostics."""
        os.makedirs(outdir, exist_ok=True)
        density, density_coeffs, w_coeffs, diagnostics = (os.path.join(outdir, name) for name in self.FILES)
        sphere.grid_to_csv(density, self.g.grid, self.g.values)
        harmonics.coeffs_to_csv(density_coeffs, self.g.coeffs)
        harmonics.coeffs_to_csv(w_coeffs, self.w)
        with open(diagnostics, "w", encoding="utf-8") as fh:
            json.dump(self.diagnostics, fh, indent=2, sort_keys=True, allow_nan=False)


def _orbit_fold(grid):
    """Orbits of the group that the antipodal map and the reflection
    y -> -y generate on the grid's nodes.

    Returns (rep, mult): per node the lowest index in its orbit, which is
    the node kept for the orbit (the nodes with rep equal to their own
    index), and the size of the orbit a node represents (meaningful on the
    kept nodes).  The generators are commuting involutions, so a running
    minimum over each node and its image under each in turn is the orbit's
    minimum.
    """
    rep = np.arange(grid.n_nodes)
    for g in (grid.antipode_index(), grid.reflection_index()):
        np.minimum(rep, rep[g], out=rep)
    return rep, np.bincount(rep, minlength=grid.n_nodes)


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


def _write_gathered(out, cols, table, ring, scale):
    """out[cols] = table[:, ring] * scale, scaled in place in the gather,
    which is the one temporary.  ``ring`` indexes the table's rings by
    construction, so the gather skips numpy's bounds check (mode "clip",
    which never clips here)."""
    rows = np.take(table, ring, axis=1, mode="clip")
    rows *= scale
    out[cols] = rows


class _RowBlock:
    """Rows of the plateau design on some of its columns and kept nodes,
    written for a range of those nodes at a time.

    Every node of the block has its own square-root weight ``sw`` and
    value target ``target``.  ``value_rows`` writes the value rows of its
    nodes, ``anisotropy_rows`` the h11 - h22 or 2 h12 rows of those among
    them with anisotropy rows, both transposed (one column per row: the
    entries on the block's columns, in the block's order, then the
    target) and straight into the caller's buffer.  A row family is one
    gather and one product per order, from the ring tables of
    ``_DesignRows``, which every block of one design shares.  ``cols``
    are the positions of the block's columns among the design's, ``funk``
    their Funk multipliers, and ``n_nodes`` and ``n_aniso`` count the
    block's nodes and those among them with anisotropy rows.
    """

    def __init__(self, orders, cols, funk, ring, lon, sw, target, aniso):
        # per order: its columns' positions in the block, the longitude
        # factor and its phi derivative, and the ring tables Q, H and K
        self._orders = orders
        self.cols, self.funk = cols, funk
        self._ring, self._lon = ring, lon
        self.sw, self.target = sw, target
        self._aniso = aniso
        self.n_nodes, self.n_aniso = sw.size, aniso.size

    def value_rows(self, out, k, funk=False):
        """Write the value rows of the block's nodes ``k`` (a slice) into
        ``out``, transposed: their entries, then their targets.  With
        ``funk``, write their Funk rows: the same times ``funk`` column by
        column, with the same targets."""
        ring, lon, sw = self._ring[k], self._lon[k], self.sw[k]
        for cols, trig, _, Q, _, _ in self._orders:
            _write_gathered(out, cols, Q, ring, sw * trig[lon])
        if funk:
            out[:-1] *= self.funk[:, None]
        out[-1] = sw * self.target[k]

    def anisotropy_rows(self, out, k, offdiagonal=False):
        """Write the h11 - h22 rows (the 2 h12 rows when ``offdiagonal``) of
        the block's anisotropy nodes ``k`` (a slice of them) into ``out``,
        transposed: their entries, then their zero targets."""
        i = self._aniso[k]
        ring, lon, sw = self._ring[i], self._lon[i], self.sw[i]
        for cols, trig, dtrig, _, H, K in self._orders:
            if offdiagonal:
                _write_gathered(out, cols, K, ring, sw * dtrig[lon])
            else:
                _write_gathered(out, cols, H, ring, sw * trig[lon])
        out[-1] = 0.0


class _DesignRows(_RowBlock):
    """Rows of the plateau design's weighted least-squares system, folded
    onto its symmetry group: the block of all its columns and kept nodes.

    Columns are even harmonics (l, m), degree-major, as ``ls``/``ms``.
    Rows, each scaled by the square root of its node's quadrature weight,
    are: values on the nodes of the cap pairs; the Funk-level combination
    Laplacian/2 + identity, which is the value times ``funk`` =
    1 - l(l+1)/2 (the transform the rigidity conclusion constrains), on the
    same nodes; the two anisotropic-Hessian components h11 - h22 and 2 h12
    (what section isotropy constrains) on the nodes of U and V; and last
    the ridge rows, sqrt(RIDGE) / lambda_l on the diagonal, with lambda_l
    the cosine multiplier.  ``value_rows`` and ``anisotropy_rows``
    build the node rows; the Funk rows are the value rows times ``funk``
    column by column, and the ridge rows are diagonal.

    The system is folded onto its symmetry group, and the fold is exact.
    The caps come in the adapted frame of U and V (``_adapted_frame``),
    where U and V lie in the xz-plane and the third cap on the y-axis, so
    the reflection y -> -y through span(U, V) maps every cap pair's node
    set onto itself, as the antipodal map does.  The group those two
    generate folds the system.  Each group element maps an even harmonic's
    value and Laplacian, and in the (e_theta, e_phi) frame h11 - h22, to
    their values at the image node; 2 h12 flips sign there against a zero
    target.  The objective is therefore invariant under the group acting
    on the coefficients, so its unique minimizer lies in the columns that
    y -> -y fixes, the m >= 0 ones.  On those columns every node of an
    orbit has the squared residual of the orbit's kept node, which enters
    with the orbit's size times its weight.

    ``blocks`` gives the row blocks that ``_fold_design`` folds: the rows
    split by the mirror z -> -z, which maps U onto V and the third cap onto
    itself up to their heights and rounding (see ``mirror_roles``).

    The rows are assembled one order m at a time, vectorized over degree,
    from ring tables of the design's own, one row per solved column (' is
    the theta-derivative): Q, the Legendre factor; H, of which h11 - h22
    is the product with the longitude factor; and K, of which 2 h12 is the
    product with the longitude factor's phi-derivative.  H and K are the
    radii matrix's rule (``harmonics._tangential_hessian``, giving q22 and
    twist): the trace h11 + h22 is 2 funk Q, so H = 2 (funk Q - q22), and
    K = 2 twist = 2 (Q' - cot Q) / sin.  The tables hold only the cap
    rings, the rings of the kept nodes (51 of 128 for the default caps at
    band 48): Q and Q' come from ``harmonics.ring_theta_tables`` at those
    rings alone, uncached, and are dropped once the tables are gathered,
    so no table of the design grid enters a per-grid cache.
    ``node_values`` evaluates a solution at the kept nodes from the Q
    tables, for the residuals.

    Attributes: ``ls``, ``ms`` and ``funk`` of the solved columns; per kept
    node its grid index ``nodes``, cap index ``which``, plateau level
    ``target`` and square-root weight ``sw``; ``n_aniso``, the number of
    kept nodes with anisotropy rows; and per kept node its ``partner``.
    """

    def __init__(self, grid, caps, L):
        sels = [grid.cap_mask(c) | grid.cap_mask(c.antipodal()) for c in caps]
        rep, mult = _orbit_fold(grid)
        evens = np.arange(0, L + 1, 2)
        self.ls = np.repeat(evens, evens + 1)
        self.ms = np.concatenate([np.arange(l + 1) for l in evens])
        funk = 1.0 - 0.5 * self.ls * (self.ls + 1.0)
        sel = np.any(sels, axis=0) & (rep == np.arange(grid.n_nodes))
        self.nodes = np.flatnonzero(sel)
        self.which = np.zeros(self.nodes.size, dtype=int)
        for k, s in enumerate(sels):
            self.which[s[sel]] = k
        target = np.asarray(PLATEAU_LEVELS, dtype=float)[self.which]
        sw = np.sqrt(mult[sel] * grid.weights[sel])
        ring, lon = np.divmod(self.nodes, grid.n_phi)
        # the kept node of the orbit of each kept node's z-image, by the
        # node masks: -1 where that orbit holds no cap node
        position = np.full(grid.n_nodes, -1)
        position[self.nodes] = np.arange(self.nodes.size)
        self.partner = position[rep[(grid.n_theta - 1 - ring) * grid.n_phi + lon]]
        # the cap rings, the rings that hold kept nodes, and each node's
        # index among them
        rings, ring = np.unique(ring, return_inverse=True)
        self._is_aniso = self.which < 2  # U and V
        t = grid.cos_theta[rings]
        st = np.sqrt(1.0 - t * t)
        P, dP = harmonics.ring_theta_tables(L, t)
        cosm, sinm = harmonics._phi_tables(L, grid.phi)
        s2 = math.sqrt(2.0)
        orders = []
        for m in sorted(set(self.ms.tolist())):
            cols = np.flatnonzero(self.ms == m)
            if m == 0:
                trig, dtrig = cosm[0].copy(), np.zeros(grid.n_phi)
            else:
                trig, dtrig = s2 * cosm[m], -m * s2 * sinm[m]
            lc = self.ls[cols]
            Q = P[lc, m]
            q22, twist = harmonics._tangential_hessian(m, t, st, Q, dP[lc, m])
            orders.append((cols, trig, dtrig, Q, 2.0 * (funk[cols, None] * Q - q22), 2.0 * twist))
        super().__init__(
            orders, np.arange(self.ls.size), funk, ring, lon, sw, target,
            np.flatnonzero(self._is_aniso),
        )

    def block(self, cols, nodes, sw, target):
        """The rows of the kept nodes ``nodes`` (positions among them) on
        the columns ``cols`` (positions among ``ls``, in the block's order),
        with square-root weights ``sw`` and targets ``target``.  Each order's
        columns are all in ``cols`` or all out of it."""
        local = np.full(self.ls.size, -1)
        local[cols] = np.arange(cols.size)
        orders = [(local[c], *tables) for c, *tables in self._orders if local[c[0]] >= 0]
        return _RowBlock(
            orders, cols, self.funk[cols], self._ring[nodes], self._lon[nodes], sw, target,
            np.flatnonzero(self._is_aniso[nodes]),
        )

    def mirror_roles(self):
        """The kept nodes' roles under the mirror z -> -z: masks
        (paired, lone, rim).

        A node is paired when its ``partner`` is another kept node with the
        same row families, lone when it is its own partner (its z-image is
        in its own orbit: nodes on the planes x = 0 and z = 0) and has no
        anisotropy rows, and in the rim otherwise: the nodes of the larger
        of U and V whose mirror lies outside the smaller one.  A lone node
        with anisotropy rows, which no admissible cap pair has, goes with
        the rim.  The partner map is an involution on the paired nodes,
        since z commutes with the fold group.
        """
        i = np.arange(self.nodes.size)
        p = np.where(self.partner < 0, i, self.partner)
        has = self.partner >= 0
        paired = has & (p != i) & (self._is_aniso == self._is_aniso[p])
        lone = has & (p == i) & ~self._is_aniso
        return paired, lone, ~(paired | lone)

    def blocks(self):
        """The design's row blocks, as ``_fold_design`` folds them:
        (classes, rim).

        The design is split by the mirror z -> -z.  On the solved columns z
        acts by the sign (-1)^m, so they fall in an even class (m even) and
        an odd one (m odd).  A paired node's value, Funk and h11 - h22 rows
        at its partner are its own with the odd columns negated, and its
        2 h12 row there is, up to a sign, its own with the even columns
        negated; its partner's weight is its own.  The two rows of a pair
        are therefore one row per class: the node's row on that class's
        columns, with twice its weight and the target (b + b') / 2 in the
        even class and (b - b') / 2 in the odd one, b' the partner's level
        (zero for the anisotropy rows).  The even class holds the first
        node of every pair, scaled by sqrt(2), and the lone nodes, whose
        value rows vanish on the odd columns in exact arithmetic; the odd
        class holds the pairs; the rim keeps its nodes' full rows on the
        even and then the odd columns.  The transform is orthogonal, so the
        blocks' rows have the singular values of the unsplit rows, up to
        the rounding-level odd part of the lone rows.
        """
        i = np.arange(self.nodes.size)
        paired, lone, rim = self.mirror_roles()
        p = np.where(paired, self.partner, i)
        first = paired & (i < p)
        b, b_other = self.target, self.target[p]
        scale = np.where(first, math.sqrt(2.0), 1.0) * self.sw
        parity = self.ms % 2
        even_cols, odd_cols = np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)
        even = np.flatnonzero(first | lone)
        odd = np.flatnonzero(first)
        rim = np.flatnonzero(rim)
        return [
            self.block(even_cols, even, scale[even], 0.5 * (b + b_other)[even]),
            self.block(odd_cols, odd, scale[odd], 0.5 * (b - b_other)[odd]),
        ], self.block(np.concatenate([even_cols, odd_cols]), rim, self.sw[rim], b[rim])

    def node_values(self):
        """The function x -> the values at the kept nodes of the expansion
        whose solved columns hold x: per order the ring sum x[cols] @ Q,
        gathered by ring and multiplied by the longitude factor.  It reads
        the value tables alone and holds no reference to the rows, so the
        other ring tables go with them."""
        ring, lon = self._ring, self._lon
        tables = [(cols, trig, Q) for cols, trig, _, Q, _, _ in self._orders]

        def values(x):
            out = np.zeros(ring.size)
            for cols, trig, Q in tables:
                out += (x[cols] @ Q)[ring] * trig[lon]
            return out

        return values


def _leading_dimension(W):
    """The distance between the columns of W as LAPACK takes it, for W
    with contiguous columns and any leading dimension, so also a corner of
    a larger Fortran buffer; None for W with other strides."""
    rows, cols = W.shape
    if rows > 1 and W.strides[0] != W.itemsize:
        return None
    return max(W.strides[1] // W.itemsize if cols > 1 else rows, 1)


class _TriangularFactor:
    """Upper-triangular factor of a tall system [A | b], fed in row blocks
    and solved where it sits.

    A least-squares problem min |A x - b| keeps its minimizer, its singular
    values and its residual norm when [A | b] is replaced by the R of its
    QR factorization.  The factor is the top n = ncol + 1 rows of the
    Fortran-strided buffer ``W``, (n + block) x n, always an n-square upper
    triangle: a fresh factor is a zero triangle, the factor of no rows.
    ``W`` may be a corner of a larger buffer, and its top may already hold
    a factor.  Rows are written straight into the ``block`` free rows below
    it and folded into the factor whenever those fill, in place on the
    buffer by LAPACK ``dtpqrt`` (``_fold_rows``), the QR of the triangle
    stacked on the free rows, so its size is fixed however many rows the
    system has; ``folds`` counts the dtpqrt calls.  dtpqrt skips the
    triangle's zeros (2 n^2 r flops for r new rows, however the rows are
    grouped into folds), leaves its reflectors in the free rows and writes
    nothing below the triangle, so the factor's zeros stand.  Its factor
    agrees with that of ``np.linalg.qr(mode="r")`` on the same rows to
    rounding, a small multiple of n eps |[A | b]|_F (Householder QR is
    backward stable).
    ``folded`` gives the factor in place, as a view of the buffer's top
    rows, and ``certified_solve`` solves it there by back substitution,
    under a closed-form certificate that the system has full rank, so that
    its solution is the minimizer ``np.linalg.lstsq`` would give on a copy.
    """

    def __init__(self, W):
        self._W = W
        self._lda = _leading_dimension(W)
        n = W.shape[1]
        self._top = n  # rows in use: the factor's and the rows not yet folded
        self.folds = 0  # dtpqrt calls so far
        self._nb = min(32, n)  # dtpqrt's block size
        self._t, self._work = np.empty(self._nb * n), np.empty(self._nb * n)  # dtpqrt's T and workspace

    def add(self, write, start, stop):
        """Append rows ``start`` to ``stop`` of a family of rows:
        ``write(out, k)`` writes its rows ``k`` (a slice) into ``out``, the
        next free rows of the buffer, transposed: one column per row, A's
        entries and then b's."""
        W = self._W
        while start < stop:
            k = min(W.shape[0] - self._top, stop - start)
            write(W[self._top : self._top + k].T, slice(start, start + k))
            self._top += k
            start += k
            if self._top == W.shape[0]:
                self._fold()

    def _fold(self):
        n = self._W.shape[1]
        if self._top > n:
            self._fold_rows(self._top - n)
            self._top = n
            self.folds += 1

    def _fold_rows(self, r):
        """Replace the top n rows by the factor of them stacked on the next
        r rows, by one dtpqrt in place."""
        W, n = self._W, self._W.shape[1]
        info = openblas.lapack(
            "scipy_dtpqrt_64_", r, n, 0, self._nb, W, self._lda, W[n:], self._lda, self._t, self._nb, self._work,
        )
        if info != 0:
            raise np.linalg.LinAlgError(f"dtpqrt failed with info = {info}")

    def free_rows(self):
        """The buffer's rows below the factor that no added row holds yet:
        ``add`` folds once they fill."""
        return self._W.shape[0] - self._top

    def folded(self):
        """The factor of every row added so far, in place: the buffer's top
        ncol + 1 rows, a view that stays valid until the next fold.  Rows
        that ``add`` writes into the free rows may read it, as long as
        they fit there without a fold."""
        self._fold()
        return self._W[: self._W.shape[1]]

    def certified_solve(self, floor, rcond):
        """(x, ratio, bound, certificate) for min |R x - q|, [R q] the top
        ncol rows of the factor of every row added so far, among which are
        diagonal rows of magnitude at least ``floor``, one per column.

        The solve is back substitution, x = R^-1 q (``_triangular_solve``),
        once R is certified to have full rank with room to spare: then the
        rank cutoff rcond sigma_max(R) of np.linalg.lstsq (LAPACK dgelsd)
        drops no singular value, and the substitution gives its minimizer.
        Two certificates bound sigma_min(R) from below, and the cheaper is
        tried first:

        - ``"ridge"``: the diagonal rows give R^T R >= floor^2 I, so
          sigma_min(R) >= floor, and sigma_max(R) <= |R|_F, so kappa_2(R)
          <= ``bound`` = |R|_F / floor.  The folds factor the rows up to
          their rounding, which moves R's singular values by a small
          multiple of eps |R|_F (Householder QR is backward stable); the
          certificate allows rcond |R|_F for it.  It holds when
          2 rcond |R|_F < floor.
        - ``"frobenius"``, tried only where the ridge certificate fails:
          sigma_min(R) >= 1 / |R^-1|_F, so kappa_2(R) <= ``bound`` = |R|_F
          |R^-1|_F (``_inverse_frobenius_norm``).  It holds when 4 rcond
          ``bound`` < 1: half of 1 / |R^-1|_F is allowed for the rounding
          of the computed inverse (relative error about n eps kappa_2(R) <=
          n eps / (4 rcond) <= 1/4, rcond being at least n eps), and of the
          other half, rcond |R|_F for the folds and rcond |R|_F for the
          cutoff.

        Where neither holds it raises ValueError with both numbers.

        ``ratio`` is a lower bound on kappa_2(R): |R u| |R^-T w| for the
        unit vectors u and w after POWER_STEPS power steps on R^T R and on
        R^-1 R^-T from the same start, each step of the second two
        substitutions.  After the last fold it reads the factor where it
        sits in the buffer and writes nothing there; |R|_F is summed a
        block of columns at a time, since np.linalg.norm would copy the
        strided view."""
        R = self.folded()
        n = R.shape[1] - 1
        R, q = R[:n, :n], R[:n, n]
        squares = 0.0
        for j in range(0, n, SUBSTITUTION_BLOCK):
            block = R[:, j : j + SUBSTITUTION_BLOCK]
            squares += float(np.einsum("ij,ij->", block, block))
        norm = math.sqrt(squares)
        if 2.0 * rcond * norm < floor:
            bound, certificate = norm / floor, "ridge"
        else:
            bound, certificate = norm * _inverse_frobenius_norm(R), "frobenius"
            if not 4.0 * rcond * bound < 1.0:
                raise ValueError(
                    f"the plateau design's factor is not certified full rank: its ridge certificate needs "
                    f"2 rcond |R|_F < min |ridge row|, but 2 * {rcond:.3e} * {norm:.6e} = {2.0 * rcond * norm:.3e} "
                    f"is not below {floor:.3e}, and its Frobenius certificate needs 4 rcond |R|_F |R^-1|_F < 1, "
                    f"but the sigma ratio bound |R|_F |R^-1|_F = {bound:.3e} is not below 1/(4 rcond) = {0.25 / rcond:.3e}"
                )
        x = _triangular_solve(R, q)
        u = w = np.full(n, 1.0 / math.sqrt(n))
        for _ in range(POWER_STEPS):
            u = R.T @ (R @ u)
            u /= np.linalg.norm(u)
            w = _triangular_solve(R, _triangular_solve(R, w, transpose=True))
            w /= np.linalg.norm(w)
        ratio = float(np.linalg.norm(R @ u) * np.linalg.norm(_triangular_solve(R, w, transpose=True)))
        return x, ratio, bound, certificate


#: Columns of R read at a time where a sum over all of R^-1 or R would
#: otherwise allocate an n x n matrix (|R^-1|_F) or copy the strided
#: factor (|R|_F).
SUBSTITUTION_BLOCK = 64

#: Power steps behind the lower end of the design's sigma-ratio bracket.
POWER_STEPS = 4


def _triangular_solve(R, b, transpose=False):
    """x with R x = b (R^T x = b with ``transpose``) for an invertible
    upper-triangular R and b a vector or a matrix of right-hand columns,
    by one LAPACK ``dtrtrs``.  R with contiguous columns, such as the
    factor where it sits in the fold buffer, is read in place through its
    leading dimension; another R is copied first.  An exact zero pivot
    raises LinAlgError.  It allocates x."""
    lda = _leading_dimension(R)
    if lda is None:
        R = np.asfortranarray(R)
        lda = _leading_dimension(R)
    x = np.array(b, dtype=float, order="F")
    n = R.shape[0]
    info = openblas.lapack(
        "scipy_dtrtrs_64_", b"U", b"T" if transpose else b"N", b"N", n, 1 if x.ndim == 1 else x.shape[1],
        R, lda, x, max(n, 1), lengths=(1, 1, 1),
    )
    if info > 0:
        raise np.linalg.LinAlgError(f"singular triangle: R[{info - 1}, {info - 1}] is zero")
    if info < 0:
        raise ValueError(f"dtrtrs failed with info = {info}")
    return x


def _inverse_frobenius_norm(R):
    """|R^-1|_F for an upper-triangular R, a strided view as in
    ``_triangular_solve``, summed over blocks of SUBSTITUTION_BLOCK columns
    of R^-1: those of columns j..j + b are zero below row j + b, so each
    block is one substitution with the leading (j + b)-square of R on the
    matching columns of the identity.  No n x n matrix is formed; inf
    where R has an exact zero pivot."""
    n = R.shape[0]
    squares = 0.0
    for j in range(0, n, SUBSTITUTION_BLOCK):
        top = min(j + SUBSTITUTION_BLOCK, n)
        unit = np.zeros((top, top - j), order="F")
        unit[j:] = np.eye(top - j)
        try:
            block = _triangular_solve(R[:top, :top], unit)
        except np.linalg.LinAlgError:
            return math.inf
        squares += float(np.einsum("ij,ij->", block, block))
    return math.sqrt(squares)


#: Plateau levels of the design's cap pairs: U, V and the third cap.
PLATEAU_LEVELS = (1.0, 2.0, 3.0)

#: Height by which the design enlarges every cap past its nominal one.
CAP_MARGIN = 0.01

#: Least geodesic distance (rad) between any two of the caps U, -U, V and
#: -V of an admissible pair (``check_plateau_caps``).  It bounds
#: r_U + r_V by pi/2 - CAP_SEPARATION, so every admissible cap height is
#: above cos 0.971 = 0.565 and stays above 0.5 once enlarged by CAP_MARGIN.
CAP_SEPARATION = 0.6

#: Weight of the design's ridge on the inverse-cosine image: its rows are
#: sqrt(RIDGE) / lambda_l on the diagonal.
RIDGE = 1e-12

#: The design grid's rule (``design_grid_shape``): n_theta rings, at least
#: DESIGN_MIN_RINGS and DESIGN_RINGS_PER_DEGREE per degree of the band, a
#: ratio of integers (rings, degrees), so that its ceiling is exact.
DESIGN_MIN_RINGS = 32
DESIGN_RINGS_PER_DEGREE = (8, 3)

try:  # glibc's call that hands the heap's free pages back to the system
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
    _MALLOC_TRIM.argtypes, _MALLOC_TRIM.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError, TypeError):  # a C library without it
    _MALLOC_TRIM = None


def check_plateau_caps(cap_u, cap_v):
    """Reject cap pairs that are inadmissible for the plateau build: any
    two of U, -U, V and -V closer than CAP_SEPARATION."""
    caps = [cap_u, cap_u.antipodal(), cap_v, cap_v.antipodal()]
    names = ["U", "-U", "V", "-V"]
    for i in range(4):
        for j in range(i + 1, 4):
            sep = caps[i].separation(caps[j])
            if sep < CAP_SEPARATION:
                raise ValueError(
                    f"caps {names[i]} and {names[j]} are separated by {sep:.4f} rad, "
                    f"need at least {CAP_SEPARATION:.4f}"
                )


def design_grid_shape(L):
    """The (n_theta, n_phi) of the plateau design's grid at band L:
    n_theta = max(DESIGN_MIN_RINGS, ceil(8 L / 3)) and n_phi = 2 n_theta,
    so 32x64 up to band 12, 64x128 at band 24 and 128x256 at band 48.  The
    design's columns grow as L^2, and so must the kept nodes on its caps
    that fit them."""
    rings, degrees = DESIGN_RINGS_PER_DEGREE
    n_theta = max(DESIGN_MIN_RINGS, -(-rings * L // degrees))
    return n_theta, 2 * n_theta


def _design_rows(cap_u, cap_v, L, grid):
    """The plateau design's rows on ``grid`` (``_DesignRows``) for U, V
    and the third cap on U x V, each enlarged by CAP_MARGIN (its height
    lowered by it) and rotated into their adapted frame, and that frame's
    rotation."""
    third_center = np.cross(cap_u.center, cap_v.center)
    nrm = np.linalg.norm(third_center)
    if nrm < 1e-8:
        raise ValueError("cap centers are collinear; no transverse axis exists")
    third = sphere.Cap(center=third_center / nrm, height=cap_u.height)
    frame = _adapted_frame(cap_u.center, cap_v.center)
    big = [sphere.Cap(frame @ c.center, c.height - CAP_MARGIN) for c in (cap_u, cap_v, third)]
    return _DesignRows(grid, big, L), frame


def _add_node_rows(factor, rows, funk_from_values):
    """Add a row block's node rows to its factor, one ``add`` per family:
    value, Funk, h11 - h22 and 2 h12.  The Funk rows are the value rows
    times ``funk`` column by column, with the same targets.  With
    ``funk_from_values``, for a factor of the value rows alone, [R q]
    stands for them as [R diag(funk) q], written from the value factor
    where it sits in the buffer.  A fold would overwrite that factor while
    later Funk rows are read from it, so RuntimeError is raised unless the
    buffer's free rows hold every Funk row without starting one."""
    n, n_aniso, ncol = rows.n_nodes, rows.n_aniso, rows.funk.size
    factor.add(rows.value_rows, 0, n)
    if funk_from_values:
        value_factor = factor.folded()[:ncol]
        if factor.free_rows() <= ncol:
            raise RuntimeError(
                f"the fold buffer has {factor.free_rows()} free rows below a factor of {ncol + 1} rows, "
                f"so its {ncol} Funk rows would start a fold while they are read from it"
            )
        funk_scale = np.append(rows.funk, 1.0)[:, None]  # q is the Funk rows' target too
        factor.add(lambda out, k: np.multiply(value_factor[k].T, funk_scale, out=out), 0, ncol)
        del value_factor  # the folds below overwrite it
    else:
        factor.add(partial(rows.value_rows, funk=True), 0, n)
    factor.add(rows.anisotropy_rows, 0, n_aniso)
    factor.add(partial(rows.anisotropy_rows, offdiagonal=True), 0, n_aniso)


def _ridge_rows(diag):
    """Row writer of the diagonal rows ``diag`` (one per column)."""

    def write(out, k):
        out[...] = 0.0
        j = np.arange(k.stop - k.start)
        out[k.start + j, j] = diag[k]

    return write


def _fold_class(corner, block, ridge_diag):
    """Fold a row class, its node rows and the ridge rows of its columns,
    in ``corner``, a corner of the fold buffer with n + 1 columns (n the
    class's) whose rows below the top n + 1 are its free rows, and leave
    its factor, n + 1 rows with its target in the last column, at the
    corner's top; return its number of folds."""
    n = block.cols.size
    factor = _TriangularFactor(corner)
    _add_node_rows(factor, block, funk_from_values=True)
    factor.add(_ridge_rows(ridge_diag[block.cols]), 0, n)
    factor.folded()
    return factor.folds


def _fold_design(W, classes, rim, ridge_diag):
    """The factor of the design's row blocks (``_DesignRows.blocks``) in
    the fold buffer W, ready to solve, ``cols``, the positions among the
    design's columns of its columns (the classes' in turn), and the number
    of the classes' folds.

    W has ncol + 1 columns and comes in as zeros.  The classes fold one
    after another, each on all the free rows of its corner
    (``_fold_class``): the class of the buffer's columns s..e - 1 (the
    classes' columns in turn, n = e - s of them) folds in
    W[s:, s : e + 1], whose top is a zero triangle, the factor of no rows,
    and whose free rows below its n + 1 triangle rows must hold its n Funk
    rows without starting a fold (``_add_node_rows`` raises otherwise).
    So W needs T = max (s + 2 (n + 1)) rows over the classes:
    max(2 (n0 + 1), ncol + n1 + 2) for the even and odd class of n0 and n1
    columns (``design_plateau`` sizes it so); a class then has n + 1 free
    rows or more.  Its target then moves to column
    ncol, its residual W[e, e] is kept, and W[e:, : e + 1] is cleared, so
    that the next corner starts as a zero triangle.  That leaves the coupled layout
    in W: the factors on the diagonal, the targets in column ncol, zeros
    beside the blocks, and the residuals' root-sum-square as the coupled
    residual.  The rim's rows then join that factor, by dtpqrt folds onto
    it, T - ncol - 1 rows at a time (n1 + 1 or more)."""
    ncol = W.shape[1] - 1
    class_folds, residuals, s = 0, [], 0
    for block in classes:
        e = s + block.cols.size
        class_folds += _fold_class(W[s:, s : e + 1], block, ridge_diag)
        target = W[s:e, e].copy()
        W[s:e, e] = 0.0
        W[s:e, ncol] = target
        residuals.append(W[e, e])
        W[e:, : e + 1] = 0.0
        s = e
    W[ncol, ncol] = math.hypot(*residuals)
    factor = _TriangularFactor(W)
    _add_node_rows(factor, rim, funk_from_values=False)
    return factor, np.concatenate([block.cols for block in classes]), class_folds


def design_plateau(cap_u, cap_v, L=48):
    """Even band-L function flat at three levels on three cap pairs.

    The first two cap pairs are the target plateaus; the third, centered
    on the axis completing the orthogonal frame, carries a decoration
    level whose sole purpose is to keep the inverse-transform density
    visibly non-constant on the great circles through the first cap.
    The levels are ``PLATEAU_LEVELS``.  Flatness is enforced in value, in
    the Funk-level combination (Laplacian/2 + identity) and in the
    anisotropic Hessian components, on caps enlarged by lowering each
    height by ``CAP_MARGIN``, so the nominal caps sit strictly inside the
    designed-flat region.  A small ridge on the inverse-cosine
    image, of weight ``RIDGE``, keeps the later inversion tame.  The design
    is solved on the grid of ``design_grid_shape(L)``, so its quadrature
    follows the band.

    The caps are first rotated into their adapted frame
    (``_adapted_frame``: e_x along U + V, e_y along U x V), where U and V
    lie in the xz-plane and the third cap on +-e_y, so the reflection
    y -> -y fixes all three cap pairs.  The least-squares system is folded
    onto the cap pairs' symmetry group there (see ``_DesignRows``): one
    node per orbit of the antipodal map and of y -> -y, and only the
    columns y -> -y fixes, the m >= 0 ones.  This leaves the objective's
    minimizer unchanged; the other coefficients are exactly zero.  The
    design is solved on the grid nodes of that frame and G is mapped back
    to the user frame exactly (``harmonics.rotate_rows``).

    The system is never held whole.  Its rows are written into one fold
    buffer of zeros, T x (ncol + 1), and reduced, a block at a time, to
    the triangular factor of their QR factorization (``_TriangularFactor``:
    every fold is LAPACK dtpqrt onto the standing triangle, which starts
    as zeros).  Each class of rows (below) folds in its own corner of the
    buffer, from the row s of its first column on: its n + 1 triangle rows
    and n + 1 free rows below them, the fewest that hold its n Funk rows,
    written from its value factor, without starting a fold.  So T is the
    largest s + 2 (n + 1) over the classes (``_fold_design``):
    max(2 (n0 + 1), ncol + n1 + 2) for the even and odd class of n0 and n1
    columns, and the rim then folds through the T - ncol - 1 rows left
    below the coupled factor.  A fold costs the same flops however the rows
    are grouped, so more free rows would buy memory and no speed.  The
    buffer is the design's one large allocation (``design_buffer_bytes``):
    at band 48 it is 4.6 MB for every cap pair (625 columns in classes of
    325 and 300, so 927 rows), and 11.0 MB at band 60.  It is an
    anonymous mapping of its own (``mmap.mmap(-1, nbytes)``, zeros as
    mapped on every platform), whose one owner is the buffer's base, so it
    is unmapped when the design drops the buffer, before the rotation
    back, and no design leaves it resident.  A buffer from the C heap
    would not be: once a process has freed one buffer, glibc raises its
    mmap threshold to that size and serves every later one from the heap,
    which keeps it resident.  So only a process that builds more than one
    design gains, such as one that runs several jobs through ``cli.main``
    (the benchmark's worker); a single-design command's one buffer was
    mapped by glibc anyway.  The mapping is never closed explicitly: a
    close under a live view of it would leave the view on unmapped pages.
    Just before the buffer is mapped, the C heap's free pages are handed
    back to the system (glibc's ``malloc_trim``; nothing under a C library
    without it): the row setup has just dropped the design grid and its
    theta tables, whose pages would otherwise stay resident beside the
    mapping.
    The default caps' rows take 19 folds.  Over 40 cap pairs drawn with seed 77, the even class
    folds 5 or 6 times, the odd class 9 to 12 times and the rim 1 to 6
    times (no coupled fold in the one pair with an empty rim);
    ``design_folds`` counts them all.  The
    factor is solved where it sits in the buffer by back substitution, one
    dtrtrs (``_TriangularFactor.certified_solve``).  The ridge rows certify in
    closed form that the rank cutoff the whole system would get in
    ``np.linalg.lstsq`` drops nothing, so the substitution gives lstsq's
    minimizer; where that bound is too loose (high bands), the Frobenius
    bound |R|_F |R^-1|_F certifies it instead, and a design that neither
    covers raises ValueError, as does a design grid too coarse for the
    band, where a class of rows has fewer kept nodes than columns.  Every
    design is folded by one recipe (``_fold_design``) over the row blocks
    of ``_DesignRows.blocks``: each class of rows is folded in its own
    corner of the buffer, one class after the other, value rows first,
    then the Funk rows from their factor, the anisotropy rows and the ridge
    rows, and coupled folds add the full rows of the rim.  In the adapted
    frame the mirror z -> -z maps U onto V and the third cap onto itself,
    so the rows are split by it: the mirrored pairs of nodes become one row
    in each of two classes of about half the columns (m even, m odd), and
    the rim is the nodes of the larger of U and V outside the mirror of the
    smaller.  The
    split is orthogonal, so it keeps the minimizer, the rank and the
    singular values.  The design grid is dropped once the rows are set up,
    and the ring tables of the rows before the last fold; only the small
    Q tables stay, for the residuals.  The returned diagnostics carry the
    residuals on the kept nodes of the solved frame
    (``_DesignRows.node_values``), the rotation into that frame
    (``design_frame``, rows the frame's axes), the number of rim nodes
    (``design_rim_nodes``, 0 for the default caps) and the health of the
    block actually solved: its shape, its certified rank
    (``design_rank``, all its columns) and a bracket of its
    singular-value ratio, ``design_sigma_ratio`` below (power steps) and
    ``design_sigma_ratio_bound`` above (the bound of the certificate
    named in ``design_certificate``: ``"ridge"``, |R|_F over the smallest
    ridge row, or ``"frobenius"``, |R|_F |R^-1|_F), and the cost of its
    folds: ``design_folds``, the dtpqrt calls of its classes and its
    coupled factor, and ``design_buffer_bytes``, the fold buffer's size.

    The design runs at one thread of numpy's bundled OpenBLAS, restored
    afterwards, so its rounding, and every report digit downstream, is the
    same at any thread count.  A numpy whose bundled OpenBLAS lacks a
    routine the design calls raises ImportError naming it
    (``openblas.library``).
    """
    with openblas.one_thread():
        shape = design_grid_shape(L)
        # the rows hold what they read of the design grid, which is dropped
        rows, frame = _design_rows(cap_u, cap_v, L, sphere.build_grid(*shape))
        ls, ms, funk, target = rows.ls, rows.ms, rows.funk, rows.target
        n, n_aniso, ncol = rows.n_nodes, rows.n_aniso, ls.size
        node_values = rows.node_values()
        ridge_diag = math.sqrt(RIDGE) / harmonics.multiplier_table("cosine", L)[ls]
        classes, rim = rows.blocks()
        for name, block in zip(("even", "odd"), classes):
            if block.n_nodes < block.cols.size:
                raise ValueError(
                    f"the plateau design's {name} row class has {block.n_nodes} kept nodes for "
                    f"{block.cols.size} columns at band {L} on the {shape[0]}x{shape[1]} "
                    "design grid; each class needs at least as many value rows as columns"
                )
        n_rim = rim.n_nodes
        starts = np.cumsum([0] + [block.cols.size for block in classes])
        n_buffer = max(s + 2 * (block.cols.size + 1) for s, block in zip(starts, classes))
        if _MALLOC_TRIM is not None:
            _MALLOC_TRIM(0)  # the row setup's transients just dropped do not stay resident
        # zeros in their own mapping, owned by W's base alone, so unmapped with W; never
        # closed, since a close under a live view would leave W on unmapped pages
        W = np.ndarray((n_buffer, ncol + 1), order="F", buffer=mmap.mmap(-1, n_buffer * (ncol + 1) * 8))
        factor, cols, folds = _fold_design(W, classes, rim, ridge_diag)
        del rows, classes, rim  # their ring tables are not held through the last fold
        n_rows = 2 * n + 2 * n_aniso + ncol
        rcond = np.finfo(float).eps * max(n_rows, ncol)
        sol, ratio, bound, certificate = factor.certified_solve(float(np.min(np.abs(ridge_diag))), rcond)
        folds += factor.folds
        buffer_bytes = W.nbytes
        del factor, W  # the fold buffer is unmapped here, not held through the rotation
        x = np.empty(ncol)
        x[cols] = sol
        c = np.zeros(harmonics.coeff_count(L))
        c[ls * ls + ls + ms] = x
        values = node_values(x)
        funk_values = node_values(funk * x)
        G = harmonics.HarmonicCoeffs(L=L, c=harmonics.rotate_rows(c, frame))  # odd degrees stay exactly zero
    return G, {
        "design_value_residual": float(np.max(np.abs(values - target))),
        "design_funk_residual": float(np.max(np.abs(funk_values - target))),
        "design_rows": int(n_rows),
        "design_cols": int(ncol),
        "design_rank": int(ncol),
        "design_sigma_ratio": ratio,
        "design_sigma_ratio_bound": float(bound),
        "design_certificate": certificate,
        "design_frame": frame.tolist(),
        "design_rim_nodes": int(n_rim),
        "design_folds": folds,
        "design_buffer_bytes": buffer_bytes,
    }


def build_counterexample(cap_u, cap_v, grid, L=48):
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
    A cap that holds no node of ``grid`` has nothing to measure on: it
    raises ValueError naming the cap and the grid, before the design, as
    does a band above the inverse transform's limit
    (``harmonics.check_inversion_band``).
    """
    harmonics.check_inversion_band(L)
    check_plateau_caps(cap_u, cap_v)
    mask_u, mask_v = grid.cap_mask(cap_u), grid.cap_mask(cap_v)
    for name, mask in (("U", mask_u), ("V", mask_v)):
        if not np.any(mask):
            raise ValueError(f"cap {name} holds no node of the {grid.n_theta}x{grid.n_phi} grid; choose a finer grid")
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
    h_u = h_values[mask_u]
    r_u = r_values[mask_u]
    r_v = r_values[mask_v]
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


#: Cap directions whose circles counterexample_assertions checks: the
#: first cap's equal-area golden-angle spiral (``sphere.Cap.spiral``) of
#: this many points, the same on every run.
ISOTROPY_SAMPLES = 50


def counterexample_assertions(result, m=256):
    """Measured metrics of the three counterexample claims, by name:

    1. ``isotropy_max_dev``, the largest isotropy deviation of the sections
       on the circles, of m nodes each, orthogonal to the ISOTROPY_SAMPLES
       points of the first cap's spiral (``sphere.Cap.spiral``), and
       ``isotropy_worst_direction``, the spiral point of that circle;
    2. ``funk_gap_error``, the distance of the Funk transform gap between
       the caps from the plateau gap;
    3. ``band_variance`` and ``band_mean`` of the density on the band that
       the circles through the cap sweep: it is visibly non-constant there.

    Only the first is computed here; the others come from the build's
    diagnostics.  No metric depends on a seed.
    """
    g = even_density(result.g)
    directions = result.cap_u.spiral(ISOTROPY_SAMPLES)
    values = transforms.circle_samples(np.broadcast_to(g.coeffs.c, (ISOTROPY_SAMPLES, g.coeffs.c.size)), directions, m)
    dev = transforms.isotropy_tensors(values)[1]
    worst = int(np.argmax(dev))
    d = result.diagnostics
    return {
        "isotropy_max_dev": float(dev[worst]),
        "isotropy_worst_direction": directions[worst].tolist(),
        "funk_gap_error": abs(d["funk_gap_UV"] - d["funk_gap_expected"]),
        "band_variance": d["density_band_variance"],
        "band_mean": d["density_band_mean"],
    }
