"""Batch front-end: transforms over CSV grids, counterexample builds and
the verification suites, with machine-readable JSON reports.

Exit codes: 0 all assertions pass, 2 assertion failure, 3 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import types
from dataclasses import dataclass

import numpy as np

from zonotools import __version__, harmonics, sphere, transforms, zonoid
from zonotools import convex
from zonotools.convex import fixtures

SUITES = (
    "newton",
    "af",
    "sr",
    "isotropy-gap",
    "rigidity",
    "minkowski-rev",
    "umbilic",
    "all",
)

#: The tolerances of the report rows and the isotropy-gap suite's
#: classification thresholds (gap_iso, dev_iso), fixed and read-only; the
#: acceptance gate pins every row's tolerance (tests/test_acceptance.PINNED).
TOLERANCES = types.MappingProxyType({
    "sr_l1": 1e-10,
    "sr_identity": 1e-6,
    "sr_identity_closed": 1e-12,
    "sr_convergence": 1e-6,
    "gap_iso": 1e-8,
    "dev_iso": 1e-4,
    "gap_oracle": 1e-6,
    "isotropy_dev": 1e-5,
    "funk_gap": 5e-3,
    "affine_residual": 1e-4,
    "funk_residual": 1e-4,
    "a_ratio": 1e-6,
    "newton_slack": 1e-10,
    "af_slack": 1e-9,
    "mink_band": 1e-6,
    "mink_outside": 1e-8,
    "umbilic_ball": 1e-10,
    "umbilic_zonoid": 1e-4,
    "umbilic_fail_floor": 1e-2,
    "nonconstancy_ratio": 0.1,
})


@dataclass
class RunConfig:
    n_theta: int = 64
    n_phi: int = 128
    band: int = 48
    circle_m: int = 256
    cap_u_center: tuple = (0.0, 0.0, 1.0)
    cap_u_height: float = 0.9
    cap_v_center: tuple = (1.0, 0.0, 0.0)
    cap_v_height: float = 0.9
    transition: float = 0.3
    seed: int = 1234
    out: str = "zonotools_out"

    def cap_u(self):
        return _cap("cap_u_center", self.cap_u_center, self.cap_u_height)

    def cap_v(self):
        return _cap("cap_v_center", self.cap_v_center, self.cap_v_height)

    def check(self):
        """Reject values that no command can use, where they enter."""
        if self.band < 0:
            raise ValueError(f"band must be >= 0, got {self.band}")
        if self.circle_m < 8:
            raise ValueError(f"circle_m must be >= 8, got {self.circle_m}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.transition < math.inf:
            raise ValueError(f"transition must be positive and finite, got {self.transition}")
        self.cap_u(), self.cap_v()

    def echo(self):
        return {
            "grid": [self.n_theta, self.n_phi],
            "band": self.band,
            "circle_m": self.circle_m,
            "cap_u_center": list(self.cap_u_center),
            "cap_u_height": self.cap_u_height,
            "cap_v_center": list(self.cap_v_center),
            "cap_v_height": self.cap_v_height,
            "transition": self.transition,
            "seed": self.seed,
        }


def _cap(name, center, height):
    c = np.asarray(center, dtype=float)
    if c.shape != (3,) or not np.all(np.isfinite(c)) or not np.any(c):
        raise ValueError(f"{name} must be three finite numbers, not all zero; got {tuple(center)!r}")
    return sphere.Cap(center=c / np.linalg.norm(c), height=height)


class ConfigError(ValueError):
    pass


class InputError(ValueError):
    """An input the command rejects: exit code 3 and one line on stderr."""


def parse_config_file(path):
    """Plain UTF-8 key=value config; unknown keys are errors (fail loud)."""
    cfg = RunConfig()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            try:
                if key == "grid":
                    t, p = value.split(",")
                    cfg.n_theta, cfg.n_phi = int(t), int(p)
                elif key == "band":
                    cfg.band = int(value)
                elif key == "circle_m":
                    cfg.circle_m = int(value)
                elif key == "cap_u_center":
                    cfg.cap_u_center = tuple(float(v) for v in value.split(","))
                elif key == "cap_u_height":
                    cfg.cap_u_height = float(value)
                elif key == "cap_v_center":
                    cfg.cap_v_center = tuple(float(v) for v in value.split(","))
                elif key == "cap_v_height":
                    cfg.cap_v_height = float(value)
                elif key == "transition":
                    cfg.transition = float(value)
                elif key == "seed":
                    cfg.seed = int(value)
                elif key == "out":
                    cfg.out = value
                else:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return cfg


def _apply_flags(cfg, args):
    if args.grid is not None:
        t, p = args.grid.split(",")
        cfg.n_theta, cfg.n_phi = int(t), int(p)
    if args.band is not None:
        cfg.band = args.band
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out = args.out
    return cfg


class RunContext:
    """Caches the grid and the counterexample build across suites.

    Both are built from the configuration alone, so a ValueError while
    building them is an input error.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self._grid = None
        self._counterexample = None

    @property
    def grid(self):
        if self._grid is None:
            try:
                self._grid = sphere.build_grid(self.cfg.n_theta, self.cfg.n_phi)
            except ValueError as exc:
                raise InputError(str(exc)) from None
        return self._grid

    @property
    def counterexample(self):
        if self._counterexample is None:
            grid = self.grid
            try:
                self._counterexample = zonoid.build_counterexample(
                    self.cfg.cap_u(),
                    self.cfg.cap_v(),
                    grid,
                    L=self.cfg.band,
                    transition=self.cfg.transition,
                )
            except ValueError as exc:
                raise InputError(str(exc)) from None
        return self._counterexample

    def rng(self, salt=0):
        return np.random.default_rng(self.cfg.seed + salt)


def _row(test_id, anchor, metric, tolerance, ok, reason=None):
    """One report row.  Reports are strict JSON, so a metric that is not a
    finite number is written as null, with a reason saying why."""
    row = {
        "test_id": test_id,
        "paper_anchor": anchor,
        "metric": float(metric),
        "tolerance": float(tolerance),
        "pass": bool(ok),
    }
    if not math.isfinite(row["metric"]):
        row["reason"] = reason or f"metric is {row['metric']}"
        row["metric"] = None
    return row


def _metric_text(row, spec):
    return "n/a" if row["metric"] is None else format(row["metric"], spec)


def _write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, allow_nan=False)


# ----------------------------------------------------------------------
# Verification suites
# ----------------------------------------------------------------------

def suite_newton(ctx):
    grid = ctx.grid
    tol = TOLERANCES["newton_slack"]
    rng = ctx.rng(1)
    worst = np.inf
    equality_violations = 0
    for _ in range(50):
        h = convex.random_support_function(grid, rng)
        rep = convex.newton_report(h)
        worst = min(worst, rep["min_gap"])
        if rep["equality"].all():
            equality_violations += 1  # a random perturbation must not look umbilic
    ball = convex.SupportFunction.ball(grid, 1.0)
    ball_gap = float(np.max(np.abs(convex.newton_report(ball)["gap"])))
    return [
        _row("newton-nonnegative-gap", "newton-inequality", worst, -tol, worst >= -tol),
        _row("newton-ball-equality", "newton-inequality-equality-case", ball_gap, tol, ball_gap <= tol),
        _row(
            "newton-random-strict",
            "newton-inequality-equality-case",
            equality_violations,
            0.5,
            equality_violations == 0,
        ),
    ]


def suite_af(ctx):
    grid = ctx.grid
    tol = TOLERANCES["af_slack"]
    rng = ctx.rng(2)
    ball = convex.SupportFunction.ball(grid, 1.0)
    worst = np.inf
    flagged = 0
    for _ in range(100):
        K = convex.random_support_function(grid, rng, band=6)
        Lb = convex.random_support_function(grid, rng, band=6)
        vkl = convex.mixed_volume(K, Lb, ball)
        vkk = convex.mixed_volume(K, K, ball)
        vll = convex.mixed_volume(Lb, Lb, ball)
        slack = (vkl * vkl - vkk * vll) / (vkl * vkl)
        worst = min(worst, slack)
        if slack < tol:
            flagged += 1
    # the homothetic pair: equality must be flagged
    ball2 = convex.SupportFunction.ball(grid, 1.7)
    veq = convex.mixed_volume(ball, ball2, ball)
    eq_slack = abs(
        veq * veq - convex.mixed_volume(ball, ball, ball) * convex.mixed_volume(ball2, ball2, ball)
    ) / (veq * veq)
    return [
        _row("af-inequality-random-pairs", "alexandrov-fenchel", worst, -tol, worst >= -tol),
        _row("af-equality-flags-ball-only", "alexandrov-fenchel-equality", flagged, 0.5, flagged == 0),
        _row("af-ball-pair-equality", "alexandrov-fenchel-equality", eq_slack, tol, eq_slack <= tol),
    ]


def _lifted(grid, c, floor=0.1, onto_floor=False):
    """The function of coefficients c raised by |min| + floor on the grid,
    or with ``onto_floor`` by floor - min, which puts its minimum at floor.

    The constant enters c00 in place (times sqrt(4 pi), since Y00 is
    1/sqrt(4 pi)) and the synthesized values directly, so the body is
    synthesized once.
    """
    values = harmonics.synthesize_grid(c, grid)
    low = float(np.min(values))
    shift = floor - low if onto_floor else abs(low) + floor
    c.set(0, 0, c.get(0, 0) + shift * math.sqrt(4.0 * math.pi))
    return transforms.SphericalFunction(grid=grid, values=values + shift, coeffs=c)


def suite_sr(ctx):
    grid = ctx.grid
    rng = ctx.rng(3)
    rows = []
    worst_l1, worst_l2, worst_l3, worst_jensen = 0.0, 0.0, 0.0, 0.0
    for _ in range(100):
        c = harmonics.HarmonicCoeffs.zeros(24)
        c.c = rng.normal(size=c.c.size)
        f = _lifted(grid, c)
        sr = transforms.radial_symmetrize(f)
        l1f = transforms.lp_norm(f, 1)
        worst_l1 = max(worst_l1, abs(l1f - transforms.lp_norm(sr, 1)) / l1f)
        worst_l2 = max(worst_l2, transforms.lp_norm(sr, 2) - transforms.lp_norm(f, 2))
        worst_l3 = max(worst_l3, transforms.lp_norm(sr, 3) - transforms.lp_norm(f, 3))
        f2 = transforms.SphericalFunction(grid=grid, values=f.values**2)
        sr2 = transforms.radial_symmetrize(f2)
        worst_jensen = max(
            worst_jensen, float(np.max(sr.values - np.sqrt(np.maximum(sr2.values, 0.0))))
        )
    rows.append(_row("sr-l1-preserved", "radial-symmetrization-l1", worst_l1, TOLERANCES["sr_l1"], worst_l1 <= TOLERANCES["sr_l1"]))
    rows.append(_row("sr-l2-contraction", "radial-symmetrization-lp-contraction", worst_l2, 1e-12, worst_l2 <= 1e-12))
    rows.append(_row("sr-l3-contraction", "radial-symmetrization-lp-contraction", worst_l3, 1e-12, worst_l3 <= 1e-12))
    rows.append(_row("sr-jensen-pointwise", "symmetrization-power-mean", worst_jensen, 1e-12, worst_jensen <= 1e-12))

    one = transforms.SphericalFunction(grid=grid, values=np.ones(grid.n_nodes)).with_coeffs(4)
    lhs, rhs = transforms.sr_profile_l1_identity(one)
    closed = abs(rhs - 4.0 * math.pi)
    rows.append(
        _row("sr-slicing-identity-constant", "polar-slicing-identity", closed, TOLERANCES["sr_identity_closed"], closed <= TOLERANCES["sr_identity_closed"])
    )
    c = harmonics.HarmonicCoeffs.zeros(24)
    c.c = ctx.rng(4).normal(size=c.c.size)
    f = _lifted(grid, c)
    lhs, rhs = transforms.sr_profile_l1_identity(f)
    ident = abs(lhs - rhs) / lhs
    rows.append(_row("sr-slicing-identity-general", "polar-slicing-identity", ident, TOLERANCES["sr_identity"], ident <= TOLERANCES["sr_identity"]))

    sr = transforms.radial_symmetrize(f)
    sr2 = transforms.radial_symmetrize(sr)
    idem = 0.0 if np.array_equal(sr.values, sr2.values) else 1.0
    rows.append(_row("sr-idempotent-bitwise", "symmetrization-idempotence", idem, 0.5, idem == 0.0))

    c16 = harmonics.HarmonicCoeffs.zeros(16)
    c16.c = ctx.rng(5).normal(size=c16.c.size)
    f16 = transforms.SphericalFunction.from_coeffs(grid, c16)
    target = transforms.radial_symmetrize(f16)
    dists = []
    for mrot in (1, 2, 4, 8, 16, 32, 64):
        avg = transforms.finite_average(f16, [2.0 * math.pi * k / mrot for k in range(mrot)])
        dists.append(transforms.l2_distance(avg, target))
    monotone = all(dists[i + 1] <= dists[i] + 1e-12 for i in range(len(dists) - 1))
    rows.append(
        _row("sr-rotation-average-converges", "rotation-average-convergence", dists[-1], TOLERANCES["sr_convergence"], dists[-1] <= TOLERANCES["sr_convergence"] and monotone)
    )
    return rows


def _isotropy_corpus(ctx, n_cases=200):
    """Mixed corpus of (density, direction) cases with known character, as
    stacks: the (n_cases, 169) band-12 coefficient rows of the densities,
    their (n_cases, 3) directions, their minima on the grid and the flags
    of the isotropic cases.

    The first half are zonal densities sum_l z_l P_l(<x, a>) over the even
    degrees l <= 12 about a random axis a, probed along a: the orthogonal
    circle is a latitude circle about a, so the section is constant, hence
    isotropic.  Their coefficients come from the addition theorem
    (``harmonics.zonal_expansions``) and have exact zeros on odd degrees.
    The second half are random even expansions, probed along a random
    direction.  All cases are synthesized on the grid in one stacked pass
    (``harmonics.grid_minima``), and each is shifted in coefficient space
    so that its minimum there is 0.2 (zonal) or raised by |min| + 0.2
    (random).
    """
    grid = ctx.grid
    rng = ctx.rng(6)
    L = 12
    n_zonal = n_cases // 2
    even = harmonics.HarmonicCoeffs.zeros(L).degrees() % 2 == 0
    n_even = int(np.sum(even))
    # per zonal case: its axis, then its seven even-degree weights; per
    # random case: its even coefficients, then its direction
    draws = rng.normal(size=(n_zonal, 10))
    more = rng.normal(size=(n_cases - n_zonal, n_even + 3))
    directions = np.concatenate([draws[:, :3], more[:, n_even:]])
    # each row over its norm, formed as np.linalg.norm forms one vector's:
    # the square root of its dot product with itself
    directions /= np.sqrt(directions[:, None, :] @ directions[:, :, None])[:, 0]
    z = np.zeros((n_zonal, L + 1))
    z[:, 0::2] = draws[:, 3:]
    rows = np.zeros((n_cases, harmonics.coeff_count(L)))
    rows[:n_zonal] = [c.c for c in harmonics.zonal_expansions(z, directions[:n_zonal])]
    rows[n_zonal:, even] = more[:, :n_even]
    isotropic = np.arange(n_cases) < n_zonal
    low = harmonics.grid_minima(rows, grid)
    shift = np.where(isotropic, 0.2 - low, np.abs(low) + 0.2)
    # Y00 is 1/sqrt(4 pi), so the constant enters c00 times sqrt(4 pi)
    rows[:, 0] += shift * math.sqrt(4.0 * math.pi)
    return rows, directions, low + shift, isotropic


def suite_isotropy_gap(ctx):
    rows, directions, _, isotropic = _isotropy_corpus(ctx)
    rep = zonoid.isotropy_gap_stack(
        transforms.circle_samples(rows, directions, ctx.cfg.circle_m)
    )
    small_gap = rep["gap"] < TOLERANCES["gap_iso"]
    small_dev = rep["dev"] < TOLERANCES["dev_iso"]
    # the isotropic cases, and only they, have a small gap and a small deviation
    equiv_ok = bool(np.all(small_gap == isotropic) and np.all(small_dev == isotropic))
    raw_gap = rep["f1"] ** 2 - rep["f2"]
    mass = rep["mass"]
    # raw_gap is a difference of O(f2)-sized quantities, so below
    # ~eps*f2 it is cancellation noise; the identity is measured
    # relative to the larger of the two sides with that floor.
    scale = np.maximum(np.maximum(np.abs(raw_gap), np.abs(mass)), TOLERANCES["gap_oracle"] * rep["f2"])
    oracle_worst = float(np.max(np.abs(raw_gap - mass) / scale, initial=0.0))
    return [
        _row("isotropy-gap-equivalence", "isotropic-sections-iff-density-gap", 0.0 if equiv_ok else 1.0, 0.5, equiv_ok),
        _row("gap-equals-circle-fourier-mass", "density-gap-fourier-oracle", oracle_worst, TOLERANCES["gap_oracle"], oracle_worst <= TOLERANCES["gap_oracle"]),
    ]


def suite_rigidity(ctx):
    grid = ctx.grid
    rows = []
    # ball: exact rigidity
    c = harmonics.HarmonicCoeffs.zeros(8)
    c.set(0, 0, (1.0 / (2.0 * math.pi)) * math.sqrt(4.0 * math.pi))
    ball_spec = zonoid.make_zonoid(transforms.SphericalFunction.from_coeffs(grid, c))
    rep = zonoid.verify_local_rigidity(ball_spec, ctx.cfg.cap_u())
    rows.append(_row("rigidity-ball-affine", "local-rigidity-affine-support", rep.affine_residual, 1e-10, rep.affine_residual <= 1e-10))
    rows.append(_row("rigidity-ball-funk", "local-rigidity-funk-constant", rep.funk_residual, 1e-10, rep.funk_residual <= 1e-10))
    # constructed counterexample
    res = ctx.counterexample
    spec = zonoid.make_zonoid(res.g)
    rep = zonoid.verify_local_rigidity(spec, ctx.cfg.cap_u())
    a_ratio = float(np.linalg.norm(rep.a)) / rep.c
    rows.append(
        _row("rigidity-counterexample-affine", "local-rigidity-affine-support", rep.affine_residual, TOLERANCES["affine_residual"], rep.affine_residual < TOLERANCES["affine_residual"])
    )
    rows.append(
        _row("rigidity-counterexample-funk", "local-rigidity-funk-constant", rep.funk_residual, TOLERANCES["funk_residual"], rep.funk_residual < TOLERANCES["funk_residual"])
    )
    rows.append(_row("rigidity-even-density-zero-drift", "even-density-affine-term", a_ratio, TOLERANCES["a_ratio"], a_ratio < TOLERANCES["a_ratio"]))
    # negative control: anisotropic density must fail the fits
    cneg = harmonics.HarmonicCoeffs.zeros(8)
    cneg.set(0, 0, math.sqrt(4.0 * math.pi))
    cneg.set(2, 0, 0.35 * math.sqrt(4.0 * math.pi))  # 1 + 0.35 sqrt(5) P_2 >= 0.61
    neg_spec = zonoid.make_zonoid(transforms.SphericalFunction.from_coeffs(grid, cneg))
    rep = zonoid.verify_local_rigidity(neg_spec, ctx.cfg.cap_v())
    neg_resid = min(rep.affine_residual, rep.funk_residual)
    rows.append(
        _row("rigidity-negative-control", "local-rigidity-affine-support", neg_resid, TOLERANCES["affine_residual"], neg_resid > TOLERANCES["affine_residual"])
    )
    return rows


def suite_minkowski_rev(ctx):
    return _minkowski_round_trip()


def _minkowski_round_trip(radius=1.0):
    """The minkowski-rev rows for the round trip of the ball of the given
    radius.  Every metric is relative to the body's size: band errors and
    the mass outside the cap pair to the largest in-cap band mass, the
    support error to the radius."""
    rows = []
    source = fixtures.Ball(radius).body(8193)
    cap = sphere.Cap(np.array([0.0, 0.0, 1.0]), 0.5)
    edges = np.concatenate(
        [[-1.0], np.linspace(-0.95, -0.5, 6), [0.0], np.linspace(0.5, 0.95, 6), [1.0]]
    )
    mu = convex.prescribed_cap_measure(source, cap.height, edges)
    try:
        solved = convex.minkowski_solve_revolution(
            mu, source, cap, rel_tol=TOLERANCES["mink_band"], outside_tol=TOLERANCES["mink_outside"]
        )
    except ValueError as exc:
        rows.append(_row("minkowski-roundtrip", "minkowski-existence-revolution", math.inf, TOLERANCES["mink_band"], False, reason=f"solver failed: {exc}"))
        return rows
    got = convex.surface_area_measure_zonal(solved, edges)
    inside = (edges[:-1] >= cap.height) | (edges[1:] <= -cap.height)
    scale = max(float(np.max(mu.masses[inside])), 1e-30)
    band_err = float(np.max(np.abs(got.masses[inside] - mu.masses[inside]))) / scale
    outside = got.total_mass() - got.mass_in(cap.height, 1.0) - got.mass_in(-1.0, -cap.height)
    outside_rel = abs(outside) / scale
    rows.append(_row("minkowski-roundtrip-bands", "minkowski-existence-revolution", band_err, TOLERANCES["mink_band"], band_err <= TOLERANCES["mink_band"]))
    rows.append(_row("minkowski-no-mass-outside", "cap-restricted-measure-support", outside_rel, TOLERANCES["mink_outside"], outside_rel <= TOLERANCES["mink_outside"]))
    lens = fixtures.Lens(r=radius, c=0.5 * radius)
    ts = np.linspace(-1.0, 1.0, 81)
    support_err = float(np.max(np.abs(solved.support_values(ts) - lens.support(ts)))) / radius
    rows.append(_row("minkowski-solution-is-lens", "two-ball-intersection-witness", support_err, 1e-6, support_err <= 1e-6))
    return rows


def _no_sphere_fit(rep):
    return f"no sphere fitted: the patch is not umbilic (radii split {rep.max_radii_split:.3e})"


def suite_umbilic(ctx):
    grid = ctx.grid
    rows = []
    ball = convex.SupportFunction.ball(grid, 1.0)
    rep = convex.umbilic_sphere_check(ball, ctx.cfg.cap_u(), tol=1e-6)
    rows.append(
        _row("umbilic-ball-fit", "umbilic-cap-implies-sphere", rep.residual if rep.residual is not None else math.inf, TOLERANCES["umbilic_ball"], rep.is_umbilic and rep.residual <= TOLERANCES["umbilic_ball"], reason=_no_sphere_fit(rep))
    )
    # counterexample zonoid: spherical patch over the cap
    spec = zonoid.make_zonoid(ctx.counterexample.g)
    rep = convex.umbilic_sphere_check(spec.h, ctx.cfg.cap_u(), tol=1e-3)
    ok = rep.is_umbilic and rep.residual <= TOLERANCES["umbilic_zonoid"]
    rows.append(
        _row("umbilic-counterexample-zonoid", "umbilic-cap-implies-sphere", rep.residual if rep.residual is not None else math.inf, TOLERANCES["umbilic_zonoid"], ok, reason=_no_sphere_fit(rep))
    )
    # spherocylinder over an equator-crossing cap: radii look umbilic but
    # one sphere cannot fit (singular equator part of the first area measure)
    sc = fixtures.Spherocylinder(1.0, 0.6)
    cap = sphere.Cap(np.array([1.0, 0.0, 0.0]), 0.5)
    mask = grid.cap_mask(cap)
    t = grid.nodes[mask][:, 2]
    r1, r2 = sc.radii(t)
    pts = sc.boundary_points(grid.nodes[mask])
    screp = convex.umbilic_sphere_check_data(r1, r2, pts, tol=1e-6)
    ok = screp.is_umbilic and screp.residual > TOLERANCES["umbilic_fail_floor"]
    rows.append(
        _row("umbilic-spherocylinder-fit-fails", "umbilic-needs-absolutely-continuous-measure", screp.residual if screp.residual is not None else 0.0, TOLERANCES["umbilic_fail_floor"], ok)
    )
    # lens: equal curvatures on each smooth piece, radii split on the fan
    lens = fixtures.Lens()
    fan_cap = sphere.Cap(np.array([1.0, 0.0, 0.0]), 0.7)
    mask = grid.cap_mask(fan_cap)
    t = grid.nodes[mask][:, 2]
    r1, r2 = lens.radii(t)
    pts = lens.boundary_points(grid.nodes[mask])
    lrep = convex.umbilic_sphere_check_data(r1, r2, pts, tol=1e-6)
    cap_zone = np.abs(t) >= lens.t_edge
    curv_equal = bool(np.all(np.abs(r1[cap_zone] - r2[cap_zone]) <= 1e-12))
    rows.append(
        _row("lens-smooth-pieces-equal-curvatures", "equal-curvatures-insufficient", 0.0 if curv_equal else 1.0, 0.5, curv_equal)
    )
    rows.append(
        _row("lens-radii-split-on-fan", "equal-curvatures-insufficient", lrep.max_radii_split, 0.5, (not lrep.is_umbilic) and lrep.max_radii_split > 0.5)
    )
    return rows


def suite_counterexample(ctx):
    got = zonoid.counterexample_assertions(ctx.counterexample, ctx.rng(7), m=ctx.cfg.circle_m)
    anchor = "isotropic-sections-counterexample"
    dev, gap = got["isotropy_max_dev"], got["funk_gap_error"]
    var, mean = got["band_variance"], got["band_mean"]
    ratio = TOLERANCES["nonconstancy_ratio"]
    return [
        _row("counterexample-isotropy-on-cap", anchor, dev, TOLERANCES["isotropy_dev"], dev < TOLERANCES["isotropy_dev"]),
        _row("counterexample-funk-gap", anchor, gap, TOLERANCES["funk_gap"], gap < TOLERANCES["funk_gap"]),
        _row("counterexample-nonconstancy", anchor, var / max(mean, 1e-30), ratio, var > ratio * mean),
    ]


SUITE_RUNNERS = {
    "newton": suite_newton,
    "af": suite_af,
    "sr": suite_sr,
    "isotropy-gap": suite_isotropy_gap,
    "rigidity": suite_rigidity,
    "minkowski-rev": suite_minkowski_rev,
    "umbilic": suite_umbilic,
}


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def cmd_transform(cfg, which, input_path, output_path):
    try:
        grid = sphere.build_grid(cfg.n_theta, cfg.n_phi)
        f = transforms.SphericalFunction(
            grid=grid, values=sphere.grid_from_csv(input_path, grid)
        )
        if which in ("cosine", "funk"):
            f = f.with_coeffs(cfg.band)
    except (ValueError, OSError) as exc:
        raise InputError(str(exc)) from None
    if which == "cosine":
        out = transforms.cosine_transform(f)
    elif which == "funk":
        out = transforms.funk_transform(f)
    elif which == "symmetrize":
        out = transforms.radial_symmetrize(f)
    else:
        raise InputError(f"unknown transform {which!r}")
    sphere.grid_to_csv(output_path, grid, out.values)
    return 0


def cmd_counterexample(cfg):
    ctx = RunContext(cfg)
    res = ctx.counterexample
    rows = suite_counterexample(ctx)
    res.diagnostics["isotropy_max_dev_on_U"] = rows[0]["metric"]
    res.diagnostics["funk_gap_UV_error"] = rows[1]["metric"]
    res.save(cfg.out)
    report = {
        "version": __version__,
        "config_echo": cfg.echo(),
        "results": rows,
    }
    _write_json(os.path.join(cfg.out, "report.json"), report)
    for r in rows:
        status = "PASS" if r["pass"] else "FAIL"
        print(
            f"[{status}] {r['test_id']}: metric {_metric_text(r, '.3e')} vs tolerance "
            f"{r['tolerance']:.3e}"
        )
    return 0 if all(r["pass"] for r in rows) else 2


def cmd_verify(cfg, suite):
    if suite not in SUITES:
        raise InputError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    ctx = RunContext(cfg)
    names = list(SUITE_RUNNERS) if suite == "all" else [suite]
    results = []
    for name in names:
        results.extend(SUITE_RUNNERS[name](ctx))
    report = {
        "version": __version__,
        "config_echo": cfg.echo(),
        "results": results,
    }
    os.makedirs(cfg.out, exist_ok=True)
    out_path = os.path.join(cfg.out, f"verify_{suite}.json")
    _write_json(out_path, report)
    for r in results:
        status = "PASS" if r["pass"] else "FAIL"
        print(f"[{status}] {r['test_id']}: {_metric_text(r, '.6e')} vs {r['tolerance']:.1e}")
    print(f"report written to {out_path}")
    return 0 if all(r["pass"] for r in results) else 2


class _Parser(argparse.ArgumentParser):
    """A malformed command line is an input error: exit 3, one stderr line."""

    def error(self, message):
        # the message may quote arguments that hold line breaks
        self.exit(3, f"usage error: {' '.join(message.splitlines())}\n")


def build_parser():
    parser = _Parser(
        prog="zonotools",
        description="Sphere transforms, convex-body checks and zonoid verification suites",
    )
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--grid", help="n_theta,n_phi")
    parser.add_argument("--band", type=int, help="harmonic band limit")
    parser.add_argument("--seed", type=int, help="RNG seed")
    parser.add_argument("--out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    p_tr = sub.add_parser("transform", help="transform a grid CSV")
    p_tr.add_argument("--which", required=True, choices=["cosine", "funk", "symmetrize"])
    p_tr.add_argument("--input", required=True)
    p_tr.add_argument("--output", required=True)
    sub.add_parser("counterexample", help="build and check the counterexample density")
    p_vf = sub.add_parser("verify", help="run a verification suite")
    p_vf.add_argument("--suite", required=True)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = parse_config_file(args.config) if args.config else RunConfig()
        cfg = _apply_flags(cfg, args)
        cfg.check()
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    try:
        if args.command == "transform":
            return cmd_transform(cfg, args.which, args.input, args.output)
        if args.command == "counterexample":
            return cmd_counterexample(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, args.suite)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    parser.error(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
