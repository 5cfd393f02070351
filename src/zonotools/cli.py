"""Batch front-end: transforms over CSV grids, counterexample builds and
the verification suites, with machine-readable JSON reports.

Exit codes: 0 all assertions pass, 2 assertion failure, 3 input error.

Each command checks its inputs once, before any work, against one input
contract: the least report grid of each command and suite (``NEEDS``),
the counterexample build for those that read it, and one rule for the
paths they write (``_writable``).  An unmet need exits 3 with one stderr
line that names the grid, the suite, the caps or the path.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import types
from dataclasses import dataclass, fields

import numpy as np

from zonotools import __version__, harmonics, sphere, transforms, zonoid
from zonotools import convex
from zonotools.convex import fixtures

#: The tolerances of the report rows and the isotropy-gap suite's
#: classification thresholds (gap_iso, dev_iso), fixed and read-only; the
#: acceptance gate pins every row's tolerance (tests/test_acceptance.PINNED).
TOLERANCES = types.MappingProxyType({
    "sr_l1": 1e-10,
    "sr_contraction": 1e-12,
    "sr_jensen": 1e-12,
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
    "rigidity_ball": 1e-10,
    "mink_band": 1e-6,
    "mink_outside": 1e-8,
    "mink_lens": 1e-6,
    "umbilic_ball": 1e-10,
    "umbilic_zonoid": 1e-4,
    "umbilic_fail_floor": 1e-2,
    "nonconstancy_ratio": 0.1,
    "lens_radii_split": 0.5,
    # a flag or a count, which passes at 0 and fails from 1 on
    "flag": 0.5,
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
        if self.seed >= 2**63:
            raise ValueError(f"seed must be < 2**63, got {self.seed}")
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


def _grid(value):
    """The grid's n_theta,n_phi as two integers, from a flag or a file."""
    try:
        t, p = value.split(",")
        return int(t), int(p)
    except ValueError:
        raise ValueError(f"grid must be n_theta,n_phi (two integers), got {value!r}") from None


#: The config keys besides ``grid``, which sets n_theta and n_phi: the
#: other RunConfig fields, each read by ``_field_value``.
CONFIG_KEYS = tuple(f.name for f in fields(RunConfig) if f.name not in ("n_theta", "n_phi"))


def _field_value(like, text):
    """A config value read as the type of its field's value ``like``; a
    vector as floats."""
    if isinstance(like, tuple):
        return tuple(float(v) for v in text.split(","))
    return type(like)(text)


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
                    cfg.n_theta, cfg.n_phi = _grid(value)
                elif key in CONFIG_KEYS:
                    setattr(cfg, key, _field_value(getattr(cfg, key), value))
                else:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return cfg


def _apply_flags(cfg, args):
    if args.grid is not None:
        cfg.n_theta, cfg.n_phi = _grid(args.grid)
    if args.band is not None:
        cfg.band = args.band
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out = args.out
    return cfg


def _splitmix(z):
    """SplitMix64's output mix of the uint64 array z, in place, mod 2**64."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


class Normals:
    """The seeded Gaussian stream of the random bodies and densities.

    Draw k is the Box-Muller cosine branch sqrt(-2 ln u) cos(2 pi v) of
    outputs 2k and 2k + 1 of SplitMix64 started at the seed's own mix (so
    nearby seeds do not give overlapping streams); output i is the mix of
    the state advanced i + 1 steps, and is mapped to ((z >> 11) + 1) 2**-53
    in (0, 1], so log never sees 0.  Draw k depends only on the seed and
    k: one draw of n values equals n draws of one.  ``normal`` is called
    as numpy's Generator's is.  Draws are computed BLOCK at a time, so a
    small draw costs a slice.
    """

    BLOCK = 4096
    _GAMMA = np.uint64(0x9E3779B97F4A7C15)

    def __init__(self, seed):
        self._state = _splitmix(np.array([seed], dtype=np.uint64))
        self._computed = 0
        self._ahead = np.empty(0)  # the computed draws not yet handed out

    def normal(self, size=None):
        """A float for size None, else an array of shape size."""
        shape = () if size is None else size
        n = math.prod(shape) if isinstance(shape, tuple) else int(shape)
        if n > self._ahead.size:
            self._ahead = np.concatenate([self._ahead, self._draws(max(n - self._ahead.size, self.BLOCK))])
        x, self._ahead = self._ahead[:n], self._ahead[n:]
        return float(x[0]) if size is None else x.reshape(shape)

    def _draws(self, count):
        """The next count draws after those computed, in place where it can."""
        k = self._computed
        self._computed += count
        z = np.empty((2, count), dtype=np.uint64)
        z[0] = np.arange(2 * k + 1, 2 * (k + count) + 1, 2, dtype=np.uint64)
        np.add(z[0], np.uint64(1), out=z[1])
        z *= self._GAMMA
        z += self._state
        _splitmix(z)
        z >>= np.uint64(11)
        z += np.uint64(1)
        r, v = z.astype(np.float64) * 2.0**-53
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        v *= 2.0 * math.pi
        np.cos(v, out=v)
        r *= v
        return r


class RunContext:
    """The report grid, built when a suite first reads it, and for the
    suites and commands that read it the counterexample build, shared
    across suites; ``_context`` makes it once the configuration meets
    their needs."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.counterexample = None

    @functools.cached_property
    def grid(self):
        return sphere.build_grid(self.cfg.n_theta, self.cfg.n_phi)

    def rng(self, salt=0):
        return Normals(self.cfg.seed + salt)


def _row(test_id, anchor, metric, tolerance, bound="upper", reason=None):
    """One report row, which passes when its metric is strictly inside its
    bound: below the tolerance for an "upper" bound, above it for a
    "lower" one.  A metric that is not a finite number fails; reports are
    strict JSON, so it is written as null, with a reason saying why."""
    metric, tolerance = float(metric), float(tolerance)
    inside = {"upper": metric < tolerance, "lower": metric > tolerance}[bound]
    row = {
        "test_id": test_id,
        "paper_anchor": anchor,
        "metric": metric,
        "tolerance": tolerance,
        "bound": bound,
        "pass": inside and math.isfinite(metric),
    }
    if not math.isfinite(metric):
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
        _row("newton-nonnegative-gap", "newton-inequality", worst, -tol, "lower"),
        _row("newton-ball-equality", "newton-inequality-equality-case", ball_gap, tol),
        _row("newton-random-strict", "newton-inequality-equality-case", equality_violations, TOLERANCES["flag"]),
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
        _row("af-inequality-random-pairs", "alexandrov-fenchel", worst, -tol, "lower"),
        _row("af-equality-flags-ball-only", "alexandrov-fenchel-equality", flagged, TOLERANCES["flag"]),
        _row("af-ball-pair-equality", "alexandrov-fenchel-equality", eq_slack, tol),
    ]


def _lifted(grid, c, floor=0.1):
    """The function of coefficients c raised by |min| + floor on the grid.

    The constant enters c00 in place (times sqrt(4 pi), since Y00 is
    1/sqrt(4 pi)) and the synthesized values directly, so the body is
    synthesized once.
    """
    values = harmonics.synthesize_grid(c, grid)
    low = float(np.min(values))
    shift = abs(low) + floor
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
    rows.append(_row("sr-l1-preserved", "radial-symmetrization-l1", worst_l1, TOLERANCES["sr_l1"]))
    rows.append(_row("sr-l2-contraction", "radial-symmetrization-lp-contraction", worst_l2, TOLERANCES["sr_contraction"]))
    rows.append(_row("sr-l3-contraction", "radial-symmetrization-lp-contraction", worst_l3, TOLERANCES["sr_contraction"]))
    rows.append(_row("sr-jensen-pointwise", "symmetrization-power-mean", worst_jensen, TOLERANCES["sr_jensen"]))

    one = transforms.SphericalFunction(grid=grid, values=np.ones(grid.n_nodes)).with_coeffs(4)
    lhs, rhs = transforms.sr_profile_l1_identity(one)
    closed = abs(rhs - 4.0 * math.pi)
    rows.append(_row("sr-slicing-identity-constant", "polar-slicing-identity", closed, TOLERANCES["sr_identity_closed"]))
    c = harmonics.HarmonicCoeffs.zeros(24)
    c.c = ctx.rng(4).normal(size=c.c.size)
    f = _lifted(grid, c)
    lhs, rhs = transforms.sr_profile_l1_identity(f)
    ident = abs(lhs - rhs) / lhs
    rows.append(_row("sr-slicing-identity-general", "polar-slicing-identity", ident, TOLERANCES["sr_identity"]))

    sr = transforms.radial_symmetrize(f)
    sr2 = transforms.radial_symmetrize(sr)
    idem = 0.0 if np.array_equal(sr.values, sr2.values) else 1.0
    rows.append(_row("sr-idempotent-bitwise", "symmetrization-idempotence", idem, TOLERANCES["flag"]))

    c16 = harmonics.HarmonicCoeffs.zeros(16)
    c16.c = ctx.rng(5).normal(size=c16.c.size)
    f16 = transforms.SphericalFunction.from_coeffs(grid, c16)
    target = transforms.radial_symmetrize(f16)
    counts = (1, 2, 4, 8, 16, 32, 64)
    dists = []
    for mrot in counts:
        avg = transforms.finite_average(f16, [2.0 * math.pi * k / mrot for k in range(mrot)])
        dists.append(transforms.l2_distance(avg, target))
    # the distances must not grow with the rotation count; if they do, the
    # metric is undefined and its reason names the first count where they grew
    grew = next((m for m, a, b in zip(counts[1:], dists, dists[1:]) if not b <= a + 1e-12), None)
    converged, reason = (dists[-1], None) if grew is None else (math.inf, f"the distance grew at {grew} rotations")
    rows.append(
        _row("sr-rotation-average-converges", "rotation-average-convergence", converged, TOLERANCES["sr_convergence"], reason=reason)
    )
    return rows


#: The band of the isotropy-gap suite's densities.
ISOTROPY_CORPUS_BAND = 12


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
    L = ISOTROPY_CORPUS_BAND
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
        _row("isotropy-gap-equivalence", "isotropic-sections-iff-density-gap", 0.0 if equiv_ok else 1.0, TOLERANCES["flag"]),
        _row("gap-equals-circle-fourier-mass", "density-gap-fourier-oracle", oracle_worst, TOLERANCES["gap_oracle"]),
    ]


def suite_rigidity(ctx):
    grid = ctx.grid
    rows = []
    # ball: exact rigidity
    c = harmonics.HarmonicCoeffs.zeros(8)
    c.set(0, 0, (1.0 / (2.0 * math.pi)) * math.sqrt(4.0 * math.pi))
    ball_spec = zonoid.make_zonoid(transforms.SphericalFunction.from_coeffs(grid, c))
    rep = zonoid.verify_local_rigidity(ball_spec, ctx.cfg.cap_u())
    rows.append(_row("rigidity-ball-affine", "local-rigidity-affine-support", rep.affine_residual, TOLERANCES["rigidity_ball"]))
    rows.append(_row("rigidity-ball-funk", "local-rigidity-funk-constant", rep.funk_residual, TOLERANCES["rigidity_ball"]))
    # constructed counterexample
    spec = zonoid.make_zonoid(ctx.counterexample.g)
    rep = zonoid.verify_local_rigidity(spec, ctx.cfg.cap_u())
    a_ratio = float(np.linalg.norm(rep.a)) / rep.c
    rows.append(_row("rigidity-counterexample-affine", "local-rigidity-affine-support", rep.affine_residual, TOLERANCES["affine_residual"]))
    rows.append(_row("rigidity-counterexample-funk", "local-rigidity-funk-constant", rep.funk_residual, TOLERANCES["funk_residual"]))
    rows.append(_row("rigidity-even-density-zero-drift", "even-density-affine-term", a_ratio, TOLERANCES["a_ratio"]))
    # negative control: anisotropic density must fail the fits
    cneg = harmonics.HarmonicCoeffs.zeros(8)
    cneg.set(0, 0, math.sqrt(4.0 * math.pi))
    cneg.set(2, 0, 0.35 * math.sqrt(4.0 * math.pi))  # 1 + 0.35 sqrt(5) P_2 >= 0.61
    neg_spec = zonoid.make_zonoid(transforms.SphericalFunction.from_coeffs(grid, cneg))
    rep = zonoid.verify_local_rigidity(neg_spec, ctx.cfg.cap_v())
    neg_resid = min(rep.affine_residual, rep.funk_residual)
    rows.append(_row("rigidity-negative-control", "local-rigidity-affine-support", neg_resid, TOLERANCES["affine_residual"], "lower"))
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
        rows.append(_row("minkowski-roundtrip", "minkowski-existence-revolution", math.inf, TOLERANCES["mink_band"], reason=f"solver failed: {exc}"))
        return rows
    band_err, outside_rel = convex.cap_measure_errors(solved, mu, cap.height)
    rows.append(_row("minkowski-roundtrip-bands", "minkowski-existence-revolution", band_err, TOLERANCES["mink_band"]))
    rows.append(_row("minkowski-no-mass-outside", "cap-restricted-measure-support", outside_rel, TOLERANCES["mink_outside"]))
    lens = fixtures.Lens(r=radius, c=0.5 * radius)
    ts = np.linspace(-1.0, 1.0, 81)
    support_err = float(np.max(np.abs(solved.support_values(ts) - lens.support(ts)))) / radius
    rows.append(_row("minkowski-solution-is-lens", "two-ball-intersection-witness", support_err, TOLERANCES["mink_lens"]))
    return rows


def _no_sphere_fit(rep):
    return f"no sphere fitted: the patch is not umbilic (radii split {rep.max_radii_split:.3e})"


def suite_umbilic(ctx):
    grid = ctx.grid
    rows = []
    ball = convex.SupportFunction.ball(grid, 1.0)
    rep = convex.umbilic_sphere_check(ball, ctx.cfg.cap_u(), tol=1e-6)
    rows.append(
        _row("umbilic-ball-fit", "umbilic-cap-implies-sphere", rep.residual if rep.residual is not None else math.inf, TOLERANCES["umbilic_ball"], reason=_no_sphere_fit(rep))
    )
    # counterexample zonoid: spherical patch over the cap
    spec = zonoid.make_zonoid(ctx.counterexample.g)
    rep = convex.umbilic_sphere_check(spec.h, ctx.cfg.cap_u(), tol=1e-3)
    rows.append(
        _row("umbilic-counterexample-zonoid", "umbilic-cap-implies-sphere", rep.residual if rep.residual is not None else math.inf, TOLERANCES["umbilic_zonoid"], reason=_no_sphere_fit(rep))
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
    rows.append(
        _row("umbilic-spherocylinder-fit-fails", "umbilic-needs-absolutely-continuous-measure", screp.residual if screp.residual is not None else 0.0, TOLERANCES["umbilic_fail_floor"], "lower")
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
    curv_equal = bool(np.all(np.abs(r1[cap_zone] - r2[cap_zone]) <= 1e-12 * lens.r))
    rows.append(_row("lens-smooth-pieces-equal-curvatures", "equal-curvatures-insufficient", 0.0 if curv_equal else 1.0, TOLERANCES["flag"]))
    rows.append(_row("lens-radii-split-on-fan", "equal-curvatures-insufficient", lrep.max_radii_split, TOLERANCES["lens_radii_split"], "lower"))
    return rows


def counterexample_rows(got):
    """The counterexample's report rows from the metrics of
    ``zonoid.counterexample_assertions``."""
    anchor = "isotropic-sections-counterexample"
    dev, gap = got["isotropy_max_dev"], got["funk_gap_error"]
    var, mean = got["band_variance"], got["band_mean"]
    return [
        _row("counterexample-isotropy-on-cap", anchor, dev, TOLERANCES["isotropy_dev"]),
        _row("counterexample-funk-gap", anchor, gap, TOLERANCES["funk_gap"]),
        _row("counterexample-nonconstancy", anchor, var / max(mean, 1e-30), TOLERANCES["nonconstancy_ratio"], "lower"),
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

SUITES = (*SUITE_RUNNERS, "all")

TRANSFORMS = {
    "cosine": transforms.cosine_transform,
    "funk": transforms.funk_transform,
    "symmetrize": transforms.radial_symmetrize,
}

#: What each suite and command needs, read once before any work
#: (``_context``): the degree its report grid must integrate exactly, whose
#: least grid is sphere.exact_grid(degree); whether it reads the
#: counterexample build, whose caps must be admissible and hold nodes of
#: the grid; and the least circle_m of the great circles it samples (0
#: where it samples none).  A degree or a circle_m may be a function of
#: the configured band.  newton and af draw corpus noise of bands 8 and 6
#: (convex.random_support_function); sr lifts test functions of band 24,
#: which coarser grids do not resolve, and cosine and funk analyze the
#: configured band, which integrates products of twice that degree.  On a
#: great circle a band-L density is a trigonometric polynomial of degree
#: <= L, and the sums over m equispaced nodes of its moments of orders 0
#: and 2 (transforms.circle_moments) are exact when no frequency aliases
#: onto those orders, |m - 2| > L: so m >= L + 3.  The counterexample's
#: isotropy row reads these moments of its band-L density; isotropy-gap
#: reads them, in the double integrals of zonoid._circle_double_integrals
#: and as the FFT's order-2 mass, of densities of band ISOTROPY_CORPUS_BAND.
NEEDS = {
    "newton": (8, False, 0),
    "af": (6, False, 0),
    "sr": (24, False, 0),
    "isotropy-gap": (0, False, ISOTROPY_CORPUS_BAND + 3),
    "rigidity": (0, True, 0),
    "minkowski-rev": (0, False, 0),
    "umbilic": (0, True, 0),
    "counterexample": (0, True, lambda band: band + 3),
    "cosine": (lambda band: 2 * band, False, 0),
    "funk": (lambda band: 2 * band, False, 0),
    "symmetrize": (0, False, 0),
}


def _need(value, band):
    """A need of NEEDS for the configured band."""
    return value(band) if callable(value) else value


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def _context(cfg, names, path, files=()):
    """The input contract of a command and its suites ``names``, checked
    before any work: each one's need in NEEDS, then the paths it writes
    (``_writable``).  The first unmet need raises InputError naming it.
    Returns the RunContext, with the counterexample built when one of them
    reads it; the build's ValueError, inadmissible caps or a cap that
    holds no node of the grid, is an input error."""
    for name in names:
        degree, _, circle_m = NEEDS[name]
        t, p = sphere.exact_grid(_need(degree, cfg.band))
        if cfg.n_theta < t or cfg.n_phi < p:
            raise InputError(f"grid ({cfg.n_theta}, {cfg.n_phi}) too coarse for {name}; needs n_theta >= {t} and n_phi >= {p}")
        least = _need(circle_m, cfg.band)
        if cfg.circle_m < least:
            raise InputError(f"circle_m {cfg.circle_m} too small for {name}; needs circle_m >= {least}")
    _writable(path, files)
    ctx = RunContext(cfg)
    if any(NEEDS[name][1] for name in names):
        try:
            ctx.counterexample = zonoid.build_counterexample(cfg.cap_u(), cfg.cap_v(), ctx.grid, L=cfg.band)
        except ValueError as exc:
            raise InputError(str(exc)) from None
    return ctx


def _writable(path, files=()):
    """The one rule for the paths a command writes, the --out directory
    ``path`` and the ``files`` it writes there, or with no ``files`` the
    --output file ``path``: a missing directory is created; a file where
    a directory is needed, or a directory where a file is needed, is an
    input error that names the path."""
    parent = path if files else os.path.dirname(path) or os.curdir
    try:
        os.makedirs(parent, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create directory {parent!r}: {exc.strerror}") from None
    for target in [os.path.join(path, name) for name in files] or [path]:
        if os.path.isdir(target) or not os.path.basename(target):
            raise InputError(f"output {target!r} names a directory, not a file")


def _report(cfg, name, rows, detail):
    """Write the rows' report as cfg.out/name, print one status line per
    row, ending in detail(row), and return the exit code: 0 when every
    row passes, else 2."""
    _write_json(
        os.path.join(cfg.out, name),
        {"version": __version__, "config_echo": cfg.echo(), "results": rows},
    )
    for r in rows:
        print(f"[{'PASS' if r['pass'] else 'FAIL'}] {r['test_id']}: {detail(r)}")
    return 0 if all(r["pass"] for r in rows) else 2


def cmd_transform(cfg, which, input_path, output_path):
    grid = _context(cfg, [which], output_path).grid
    try:
        f = transforms.SphericalFunction(grid=grid, values=sphere.grid_from_csv(input_path, grid))
    except (ValueError, OSError) as exc:
        raise InputError(str(exc)) from None
    if which in ("cosine", "funk"):
        f = f.with_coeffs(cfg.band)
    sphere.grid_to_csv(output_path, grid, TRANSFORMS[which](f).values)
    return 0


def cmd_counterexample(cfg):
    ctx = _context(cfg, ["counterexample"], cfg.out, ("report.json", *zonoid.CounterexampleResult.FILES))
    res = ctx.counterexample
    got = zonoid.counterexample_assertions(res, m=cfg.circle_m)
    rows = counterexample_rows(got)
    res.diagnostics["isotropy_max_dev_on_U"] = rows[0]["metric"]
    res.diagnostics["isotropy_worst_direction_on_U"] = got["isotropy_worst_direction"]
    res.diagnostics["funk_gap_UV_error"] = rows[1]["metric"]
    res.save(cfg.out)
    return _report(
        cfg, "report.json", rows,
        lambda r: f"metric {_metric_text(r, '.3e')} vs tolerance {r['tolerance']:.3e}",
    )


def cmd_verify(cfg, suite):
    names = list(SUITE_RUNNERS) if suite == "all" else [suite]
    report = f"verify_{suite}.json"
    ctx = _context(cfg, names, cfg.out, [report])
    results = []
    for name in names:
        results.extend(SUITE_RUNNERS[name](ctx))
    code = _report(cfg, report, results, lambda r: f"{_metric_text(r, '.6e')} vs {r['tolerance']:.1e}")
    print(f"report written to {os.path.join(cfg.out, report)}")
    return code


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
    parser.add_argument("--seed", type=int, help="seed, 0 <= seed < 2**63, of the Gaussian stream "
                        "(SplitMix64, Box-Muller) of the random bodies and densities that verify --suite "
                        "newton, af, sr and isotropy-gap draw; no other command reads it")
    parser.add_argument("--out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    p_tr = sub.add_parser("transform", help="transform a grid CSV")
    p_tr.add_argument("--which", required=True, choices=TRANSFORMS)
    p_tr.add_argument("--input", required=True)
    p_tr.add_argument("--output", required=True)
    sub.add_parser("counterexample", help="build and check the counterexample density")
    p_vf = sub.add_parser("verify", help="run a verification suite")
    p_vf.add_argument("--suite", required=True, choices=SUITES)
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
        return cmd_verify(cfg, args.suite)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except ImportError as exc:  # a numpy without the LAPACK routines of the plateau design
        print(f"environment error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
