"""Convex bodies of revolution: sampled concave profiles, zonal surface
area measures, support values and the Minkowski solve for cap-restricted
measures.

A body is the even completion of the region swept by rotating the region
under a concave non-increasing half-height profile z = phi(rho),
rho in [0, d], about the vertical axis:

    K = { (y, z) : |y| <= d, |z| <= phi(|y|) }.

If phi(d) > 0 the boundary contains a cylindrical wall, contributing a
singular atom at t = 0 of the zonal surface-area measure; flat or conical
profile runs contribute atoms at their common normal latitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Slack of the concavity and monotonicity checks, in units of each chord
#: slope's own rounding eps * max|z| / drho_i.
SLOPE_ROUNDING_SLACK = 16.0

#: Rounding floor of the heights, as a fraction of the body's scale
#: max(d, z[0]): a height down to -this fraction counts as zero, and so does
#: an end height up to +this fraction (no wall).
MONOTONE_TOL = 1e-12

#: Entries of each temporary that ``RevolutionBody.support_values`` forms:
#: its latitudes go in blocks of max(1, this // samples), so an 8193-sample
#: profile takes 7 latitudes at a time (0.46 MB) whatever their number.
SUPPORT_BLOCK_ELEMENTS = 65536


def _pav_decreasing(y, w):
    """Weighted isotonic projection onto non-increasing sequences.

    Each pooled block keeps its weighted mean, its weight and its sample
    count; the counts expand the blocks back to the samples, so no weight
    threshold enters and the result does not depend on the weights' scale.
    A sequence with no rising neighbours is its own projection.
    """
    y = np.asarray(y, dtype=float)
    if not np.any(y[1:] > y[:-1]):
        return y.copy()
    vals, wts, counts = [], [], []
    for yi, wi in zip(y, np.asarray(w, dtype=float)):
        vals.append(yi)
        wts.append(wi)
        counts.append(1)
        while len(vals) > 1 and vals[-2] < vals[-1]:
            v, wt, n = vals.pop(), wts.pop(), counts.pop()
            vals[-1] = (v * wt + vals[-1] * wts[-1]) / (wt + wts[-1])
            wts[-1] = wt + wts[-1]
            counts[-1] += n
    return np.repeat(vals, counts)


@dataclass
class RevolutionBody:
    """Sampled concave non-increasing half-height profile of a convex body
    of revolution (even about the equator).

    ``slopes`` are optional per-sample derivative hints used by the measure
    estimator; when absent they are estimated from neighbouring chords.

    The checks allow each chord slope s_i = (z_{i+1} - z_i) / drho_i its own
    rounding.  Every height is known to about eps * max|z|, the profile's
    scale: from_function forms them as z[0] plus a running sum of chord
    rises, and a low height is no better known than that.  So with
    tol_i = SLOPE_ROUNDING_SLACK * eps * max|z| / drho_i, the profile is
    concave when s_{i+1} - s_i <= tol_i + tol_{i+1} and non-increasing when
    s_i <= tol_i.  Near the axis or the rim of a fine profile drho_i is tiny
    and the rounding large; scaling (rho, z) leaves every tol_i unchanged.
    Heights must be at least -MONOTONE_TOL * max(d, z[0]).
    """

    rho: np.ndarray
    z: np.ndarray
    slopes: np.ndarray | None = None

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        self.z = np.asarray(self.z, dtype=float)
        if self.rho.ndim != 1 or self.rho.shape != self.z.shape or self.rho.size < 2:
            raise ValueError("profile needs matching rho/z sample arrays (>= 2 points)")
        if self.rho[0] != 0.0:
            raise ValueError("profile must start on the axis (rho[0] = 0)")
        drho = np.diff(self.rho)
        if np.any(drho <= 0):
            raise ValueError("profile radii must be strictly increasing")
        if np.any(self.z < -MONOTONE_TOL * max(self.rho[-1], self.z[0])):
            raise ValueError("profile heights must be nonnegative")
        s = np.diff(self.z) / drho
        tol = SLOPE_ROUNDING_SLACK * np.finfo(float).eps * np.max(np.abs(self.z)) / drho
        if np.any(np.diff(s) > tol[:-1] + tol[1:]):
            raise ValueError("profile is not concave (second differences positive)")
        if np.any(s > tol):
            raise ValueError("profile is not non-increasing")
        if self.slopes is not None:
            self.slopes = np.asarray(self.slopes, dtype=float)
            if self.slopes.shape != self.rho.shape:
                raise ValueError("slope hints must match the sample count")

    @property
    def d(self):
        return float(self.rho[-1])

    @property
    def end_height(self):
        """phi(d); a positive value means the body has a cylindrical wall."""
        return float(self.z[-1])

    @classmethod
    def from_function(cls, fn, d, n=4097):
        """Sample a concave non-increasing profile at Chebyshev radii.

        Rounding can break discrete concavity of an analytically concave
        profile, so chord slopes are projected (pool-adjacent-violators,
        then clipped to <= 0) before the samples are rebuilt.
        """
        k = np.arange(n)
        rho = 0.5 * d * (1.0 - np.cos(np.pi * k / (n - 1)))
        rho[0], rho[-1] = 0.0, d
        z = np.asarray(fn(rho), dtype=float)
        drho = np.diff(rho)
        s = np.diff(z) / drho
        s = np.minimum(_pav_decreasing(s, drho), 0.0)
        z_fixed = z[0] + np.concatenate([[0.0], np.cumsum(s * drho)])
        z_fixed = np.maximum(z_fixed, 0.0)
        return cls(rho=rho, z=z_fixed)

    def support_values(self, t):
        """Support function at latitudes t (exact for the sampled body).

        h(t) = max_k [ rho_k sqrt(1 - t^2) + z_k |t| ]: the discrete
        Legendre transform over the profile samples (with the even
        completion folded into |t|).  Latitudes go in blocks sized by
        SUPPORT_BLOCK_ELEMENTS; each value is a max over the same sums in
        any block.
        """
        t = np.asarray(t, dtype=float)
        single = t.ndim == 0
        tt = np.atleast_1d(t)
        st = np.sqrt(np.maximum(0.0, 1.0 - tt * tt))
        out = np.empty(tt.size)
        rows = max(1, SUPPORT_BLOCK_ELEMENTS // self.rho.size)
        for start in range(0, tt.size, rows):
            sl = slice(start, start + rows)
            vals = np.outer(st[sl], self.rho) + np.outer(np.abs(tt[sl]), self.z)
            out[sl] = vals.max(axis=1)
        return float(out[0]) if single else out

    def chord_normal_latitudes(self):
        """Exact outer-normal latitude of each chord: t = 1/sqrt(1+s^2)."""
        s = np.diff(self.z) / np.diff(self.rho)
        return 1.0 / np.sqrt(1.0 + s * s)

    def nodal_normal_latitudes(self):
        """Outer-normal latitude t = 1/sqrt(1 + slope^2) at each sample.

        Uses stored slope hints when present.  Otherwise nodal values are
        midpoint averages of the exact chord latitudes in index space,
        which stays second-order accurate through the vertical-tangent end
        of profiles like the ball (where t is smooth in the sample index
        but not in rho).  Monotonicity in the sample index is enforced,
        as concavity demands.
        """
        if self.slopes is not None:
            s = self.slopes
            t = 1.0 / np.sqrt(1.0 + s * s)
        else:
            tc = self.chord_normal_latitudes()
            t = np.empty(self.rho.size)
            if tc.size == 1:
                t[:] = tc[0]
            else:
                t[1:-1] = 0.5 * (tc[:-1] + tc[1:])
                t[0] = 1.5 * tc[0] - 0.5 * tc[1]
                t[-1] = 1.5 * tc[-1] - 0.5 * tc[-2]
        t = np.clip(t, 0.0, 1.0)
        return np.minimum.accumulate(t)


@dataclass
class ZonalMeasure:
    """Banded zonal measure on [-1, 1]: absolutely continuous band masses
    plus singular atoms (t, mass)."""

    edges: np.ndarray
    masses: np.ndarray
    atoms: list

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=float)
        self.masses = np.asarray(self.masses, dtype=float)
        if self.edges.ndim != 1 or self.edges.size != self.masses.size + 1:
            raise ValueError("need len(edges) = len(masses) + 1")
        if np.any(np.diff(self.edges) <= 0):
            raise ValueError("band edges must be increasing")
        # masses are areas: the rounding floor scales with the measure's size
        if np.any(self.masses < -1e-12 * np.sum(np.abs(self.masses))):
            raise ValueError("band masses must be nonnegative")

    def total_mass(self):
        return float(np.sum(self.masses) + sum(m for _, m in self.atoms))

    def mass_in(self, lo, hi, include_atoms=True):
        """Mass of [lo, hi]; bands partially covered contribute their
        overlap fraction (band mass is spread uniformly within a band)."""
        lo_e, hi_e = self.edges[:-1], self.edges[1:]
        overlap = np.maximum(
            0.0, np.minimum(hi, hi_e) - np.maximum(lo, lo_e)
        ) / (hi_e - lo_e)
        total = float(np.sum(overlap * self.masses))
        if include_atoms:
            total += sum(m for t, m in self.atoms if lo <= t <= hi)
        return total


#: Spread intervals narrower than this count as singular (conical facets,
#: flat caps) and their chord mass becomes an atom.
ATOM_WIDTH = 1e-12

#: Degenerate-width chords below this mass are rounding artifacts of the
#: near-axis samples, not geometric features; they are folded into the
#: band containing their latitude instead of being reported as atoms.  The
#: floor is relative: it is scaled by the body's total surface mass over
#: 4 pi, the unit sphere's, so a body splits the same way at every size.
ATOM_MASS_FLOOR = 1e-9


def _chord_spreads(body):
    """Per-chord masses, spread intervals and facet flags (upper half).

    Chord k carries the exact lateral cone-strip area
    2 pi * mean(rho) * chord length and is spread uniformly over the
    latitudes [t_{k+1}, t_k] of the nodal outer normals.  Chords that are
    exactly flat (disks) or belong to an exact equal-slope run (conical
    facets, as pool-adjacent-violators projection produces for genuinely
    straight profile stretches) concentrate at a single latitude instead.
    """
    rho, z = body.rho, body.z
    t_nodes = body.nodal_normal_latitudes()
    drho = np.diff(rho)
    dz = np.diff(z)
    slopes = dz / drho
    length = np.hypot(drho, dz)
    mass = 2.0 * math.pi * 0.5 * (rho[:-1] + rho[1:]) * length
    hi = t_nodes[:-1]
    lo = t_nodes[1:]
    facet = slopes == 0.0
    if slopes.size > 1:
        run = np.zeros(slopes.size, bool)
        tie = slopes[1:] == slopes[:-1]
        run[1:] |= tie
        run[:-1] |= tie
        facet = facet | run
    facet_t = body.chord_normal_latitudes()
    return mass, lo, hi, facet, facet_t


def surface_area_measure_zonal(body, edges):
    """Zonal surface-area measure of the body over the given band edges.

    Band masses collect the absolutely continuous part (cone strips of the
    sampled profile, upper half mirrored to the lower); degenerate-width
    normal runs become atoms, as does the cylindrical wall when the
    profile ends at positive height.
    """
    edges = np.asarray(edges, dtype=float)
    # edges are latitudes, dimensionless and bounded by 1: an absolute floor
    if edges[0] < -1.0 - 1e-12 or edges[-1] > 1.0 + 1e-12:
        raise ValueError("band edges must lie in [-1, 1]")
    mass, lo, hi, facet, facet_t = _chord_spreads(body)
    wall = 0.0
    if body.end_height > MONOTONE_TOL * max(body.d, float(body.z[0])):  # lower is rounding
        wall = 2.0 * math.pi * body.d * 2.0 * body.end_height
    floor = ATOM_MASS_FLOOR * (2.0 * float(np.sum(mass)) + wall) / (4.0 * math.pi)
    width = hi - lo
    singular = (facet | (width <= ATOM_WIDTH)) & (mass > floor)
    atoms = {}

    def add_atom(t, m):
        if m > 0.0:
            atoms[t] = atoms.get(t, 0.0) + m

    at = np.where(facet, facet_t, 0.5 * (lo + hi))
    for sgn in (1.0, -1.0):
        for m, tt in zip(mass[singular], at[singular]):
            add_atom(sgn * tt, m)
    add_atom(0.0, wall)

    reg_mass = mass[~singular]
    reg_lo = lo[~singular]
    reg_hi = np.maximum(hi[~singular], reg_lo + ATOM_WIDTH)
    band_mass = np.zeros(edges.size - 1)
    for j, (e0, e1) in enumerate(zip(edges[:-1], edges[1:])):
        for sgn_lo, sgn_hi in (((reg_lo, reg_hi)), ((-reg_hi, -reg_lo))):
            overlap = np.maximum(
                0.0, np.minimum(e1, sgn_hi) - np.maximum(e0, sgn_lo)
            )
            band_mass[j] += float(
                np.sum(reg_mass * overlap / (reg_hi - reg_lo))
            )
    return ZonalMeasure(
        edges=edges,
        masses=band_mass,
        atoms=sorted(atoms.items()),
    )


def prescribed_cap_measure(source, cap_height, edges):
    """The even cap-restricted measure mu built from a source body.

    mu(band) = S(K, band ∩ U) + S(K, (-band) ∩ U) with U the polar cap
    {t > cap_height}: mass of the source above the cap height, copied to
    the mirror band below.
    """
    full = surface_area_measure_zonal(source, edges)
    a = cap_height
    masses = np.zeros_like(full.masses)
    atoms = {}
    for j, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        masses[j] += full.mass_in(max(lo, a), max(hi, a), include_atoms=False)
        masses[j] += full.mass_in(max(-hi, a), max(-lo, a), include_atoms=False)
    for t, m in full.atoms:
        if t > a:
            atoms[t] = atoms.get(t, 0.0) + m
            atoms[-t] = atoms.get(-t, 0.0) + m
    return ZonalMeasure(edges=edges, masses=masses, atoms=sorted(atoms.items()))


def _flat_on_arc(body, keep):
    s = np.diff(body.z[: keep + 1]) / np.diff(body.rho[: keep + 1])
    return np.all(np.abs(s) <= 1e-9)


def minkowski_solve_revolution(mu, source, cap, rel_tol=1e-6, outside_tol=1e-8):
    """Body of revolution realizing the cap-restricted measure mu.

    The profile arc of the source whose outer normals lie in the polar cap
    is cut exactly at the latitude boundary (a partial final chord keeps
    the measure bookkeeping bit-consistent), translated to end at height
    zero and completed evenly.  The result is certified: its band masses
    over the cap must match mu to ``rel_tol`` relative, and the mass it
    carries outside the cap pair must stay below ``outside_tol`` times the
    largest prescribed band mass, so neither test depends on the body's
    scale.

    Raises if the source is a cylinder over the cap (the prescribed
    measure would concentrate on the poles) or if certification fails.
    """
    center = np.asarray(cap.center, dtype=float)
    if not np.allclose(center, [0.0, 0.0, 1.0], atol=1e-12):
        raise ValueError("revolution solve needs a cap centered on the axis e3")
    a = cap.height
    t_nodes = source.nodal_normal_latitudes()
    if t_nodes[-1] > a:
        if _flat_on_arc(source, source.rho.size - 1):
            raise ValueError(
                "source is a cylinder over the cap: measure concentrated on "
                "the poles, Minkowski problem has no solution"
            )
        raise ValueError(
            "cap captures the whole profile; nothing to cut (enlarge the body "
            "or shrink the cap)"
        )
    keep = int(np.searchsorted(-t_nodes, -a, side="left")) - 1
    if keep < 1:
        raise ValueError("cap contains no profile normals; cap too small")
    if _flat_on_arc(source, keep):
        raise ValueError(
            "source is a cylinder over the cap: measure concentrated on the "
            "poles, Minkowski problem has no solution"
        )
    # cut chord `keep` (from node keep to keep+1) at the mass fraction
    # matching the uniform-in-latitude spread above the cap boundary
    t_hi, t_lo = t_nodes[keep], t_nodes[keep + 1]
    frac = (t_hi - a) / (t_hi - t_lo)
    r0, r1 = source.rho[keep], source.rho[keep + 1]
    z0, z1 = source.z[keep], source.z[keep + 1]
    drho = r1 - r0
    if drho > 0:
        lam = (-r0 + math.sqrt(r0 * r0 + drho * frac * (r0 + r1))) / drho
    else:
        lam = frac
    rho_c = r0 + lam * drho
    z_c = z0 + lam * (z1 - z0)
    rho = np.concatenate([source.rho[: keep + 1], [rho_c]])
    z = np.concatenate([source.z[: keep + 1], [z_c]])
    z = z - z_c
    slopes = np.concatenate(
        [
            -np.sqrt(1.0 / t_nodes[: keep + 1] ** 2 - 1.0),
            [-math.sqrt(1.0 - a * a) / a],
        ]
    )
    solved = RevolutionBody(rho=rho, z=np.maximum(z, 0.0), slopes=slopes)

    band_err, outside_rel = cap_measure_errors(solved, mu, a)
    if band_err > rel_tol:
        raise ValueError(
            f"solved body misses the prescribed cap bands: relative error "
            f"{band_err:.3e} exceeds {rel_tol:.0e}"
        )
    if outside_rel > outside_tol:
        raise ValueError(
            f"solved body carries {outside_rel:.3e} of the largest band mass "
            f"outside the cap pair, above {outside_tol:.0e}"
        )
    return solved


def cap_measure_errors(body, mu, height):
    """How far the body's surface area measure is from the cap-restricted
    measure ``mu`` on the cap pair |t| >= height: the largest error of the
    bands over the cap pair and the absolute mass outside it, both relative
    to the largest prescribed band mass there, so that neither depends on
    the body's scale.  Returns (band_err, outside_rel)."""
    got = surface_area_measure_zonal(body, mu.edges)
    inside = (mu.edges[:-1] >= height) | (mu.edges[1:] <= -height)
    scale = max(float(np.max(mu.masses[inside], initial=0.0)), 1e-30)
    band_err = float(np.max(np.abs(got.masses[inside] - mu.masses[inside]))) / scale
    outside = got.total_mass() - got.mass_in(height, 1.0) - got.mass_in(-1.0, -height)
    return band_err, abs(outside) / scale
