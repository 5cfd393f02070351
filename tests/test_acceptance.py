"""Acceptance gate: every criterion at its pinned tolerance, one printed
pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import eval_legendre

from zonotools import convex, harmonics, sphere, transforms, zonoid
from zonotools.convex import fixtures

import oracles
from conftest import random_density, random_function, random_unit

E3 = np.array([0.0, 0.0, 1.0])


def report(name, metric, tolerance, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {metric:.3e} vs {tolerance:.1e} {detail}")
    assert ok, f"{name}: {metric} vs tolerance {tolerance}"


def gauss_abs_kernel_multiplier(l):
    """Independent 1-D Gauss oracle for the |t| kernel multiplier."""
    x, w = np.polynomial.legendre.leggauss(l + 8)
    x01 = 0.5 * (x + 1.0)
    return 2.0 * math.pi * 2.0 * 0.5 * float(np.sum(w * x01 * eval_legendre(l, x01)))


class TestCriterion1Multipliers:
    def test_multiplier_table(self):
        worst = 0.0
        for l, expect in [(0, 2 * math.pi), (2, math.pi / 2), (4, -math.pi / 12)]:
            got = harmonics.funk_hecke_multiplier("cosine", l)
            worst = max(worst, abs(got - expect) / abs(expect))
        for l in range(0, 65, 2):
            got = harmonics.funk_hecke_multiplier("cosine", l)
            oracle = gauss_abs_kernel_multiplier(l)
            worst = max(worst, abs(got - oracle) / max(abs(oracle), 1e-30))
            funk = harmonics.funk_hecke_multiplier("funk", l)
            worst = max(
                worst,
                abs(funk - 2 * math.pi * eval_legendre(l, 0.0)) / abs(funk),
            )
        odd_exact = all(
            harmonics.funk_hecke_multiplier(k, l) == 0.0
            for k in ("cosine", "funk")
            for l in range(1, 64, 2)
        )
        report("criterion-1 multiplier-table", worst, 1e-10, worst < 1e-10 and odd_exact,
               f"(odd degrees exact zero: {odd_exact})")


class TestCriterion2Calibration:
    def test_first_density_closure_and_dual_route(self, grid):
        rng = np.random.default_rng(2024)
        worst_funk = 0.0
        worst_area = 0.0
        for seed in range(20):
            g = random_density(grid, 16, np.random.default_rng(seed))
            spec = zonoid.make_zonoid(g)
            targets = random_unit(rng, 20)
            for u in targets:
                f1 = zonoid.weil_density(spec, u, 1)
                funk = oracles.funk_transform_at(spec.g, u)
                worst_funk = max(worst_funk, abs(f1 - funk))
            for u in targets[:3]:
                worst_area = max(
                    worst_area,
                    abs(zonoid.weil_density(spec, u, 1) - convex.area_density(spec.h, u, 1)),
                    abs(zonoid.weil_density(spec, u, 2) - convex.area_density(spec.h, u, 2)),
                )
        report("criterion-2a first-density-is-funk-transform", worst_funk, 1e-7, worst_funk < 1e-7)
        report("criterion-2b circle-route-vs-support-route", worst_area, 1e-6, worst_area < 1e-6)


class TestCriterion3Symmetrization:
    def test_symmetrization_suite(self, grid):
        worst_l1, worst_l2 = 0.0, 0.0
        for seed in range(20):
            f = random_function(grid, 24, np.random.default_rng(seed), nonnegative=True)
            sr = transforms.radial_symmetrize(f)
            l1 = transforms.lp_norm(f, 1)
            worst_l1 = max(worst_l1, abs(l1 - transforms.lp_norm(sr, 1)) / l1)
            worst_l2 = max(worst_l2, transforms.lp_norm(sr, 2) - transforms.lp_norm(f, 2))
        report("criterion-3a l1-preserved", worst_l1, 1e-10, worst_l1 < 1e-10)
        report("criterion-3b l2-contraction", worst_l2, 1e-12, worst_l2 <= 1e-12)

        one = transforms.SphericalFunction(grid=grid, values=np.ones(grid.n_nodes)).with_coeffs(4)
        lhs, rhs = transforms.sr_profile_l1_identity(one)
        closed = abs(rhs - 4 * math.pi)
        report("criterion-3c slicing-identity-constant", closed, 1e-12, closed < 1e-12,
               "(8 pi * 1/2 = 4 pi)")
        f = random_function(grid, 24, np.random.default_rng(77), nonnegative=True)
        lhs, rhs = transforms.sr_profile_l1_identity(f)
        general = abs(lhs - rhs) / lhs
        report("criterion-3d slicing-identity-general", general, 1e-6, general < 1e-6)

        sr = transforms.radial_symmetrize(f)
        idem = np.array_equal(sr.values, transforms.radial_symmetrize(sr).values)
        report("criterion-3e idempotent-bitwise", 0.0 if idem else 1.0, 0.5, idem)

        f16 = random_function(grid, 16, np.random.default_rng(78))
        target = transforms.radial_symmetrize(f16)
        avg = transforms.finite_average(f16, [2 * math.pi * k / 64 for k in range(64)])
        dist = transforms.l2_distance(avg, target)
        report("criterion-3f rotation-average-converges", dist, 1e-6, dist < 1e-6)


class TestCriterion4GapEquivalence:
    def test_corpus_equivalence_and_oracle(self, grid):
        rng = np.random.default_rng(4)
        n_iso, n_aniso = 100, 100
        equiv = True
        oracle_worst = 0.0
        cases = []
        for _ in range(n_iso):
            axis = random_unit(rng)
            zl = rng.normal(size=7)
            tt = grid.nodes @ axis
            vals = np.zeros(grid.n_nodes)
            for i, l in enumerate(range(0, 13, 2)):
                vals += zl[i] * np.polynomial.legendre.legval(tt, [0.0] * l + [1.0])
            vals = vals - vals.min() + 0.2
            cases.append((transforms.SphericalFunction(grid=grid, values=vals).with_coeffs(12), axis, True))
        for _ in range(n_aniso):
            cases.append((random_density(grid, 12, rng), random_unit(rng), False))
        for f, u, isotropic in cases:
            spec = zonoid.make_zonoid(f)
            rep = zonoid.isotropy_gap_report(spec, u)
            small_gap = rep["gap"] < 1e-8
            small_dev = rep["dev"] < 1e-4
            if small_gap != small_dev or small_gap != isotropic:
                equiv = False
            raw = rep["f1"] ** 2 - rep["f2"]
            mass = transforms.circle_fourier_mass(spec.g, u, degree=2)
            scale = max(abs(raw), abs(mass), 1e-6 * rep["f2"])
            oracle_worst = max(oracle_worst, abs(raw - mass) / scale)
        report("criterion-4a gap-deviation-equivalence", 0.0 if equiv else 1.0, 0.5, equiv,
               f"({n_iso} isotropic + {n_aniso} anisotropic cases)")
        report("criterion-4b gap-equals-degree-2-fourier-mass", oracle_worst, 1e-6,
               oracle_worst < 1e-6)


class TestCriterion5CounterexampleEndToEnd:
    def test_assertions(self, counterexample, counterexample_spec):
        rng = np.random.default_rng(1234)
        devs = [
            transforms.section_isotropy_tensor(counterexample_spec.g, u).deviation
            for u in counterexample.cap_u.sample(50, rng)
        ]
        max_dev = max(devs)
        report("criterion-5a isotropy-deviation-on-cap", max_dev, 1e-5, max_dev < 1e-5,
               "(50 sampled directions)")
        gap_err = abs(counterexample.diagnostics["funk_gap_UV"] - 1.0)
        report("criterion-5b funk-gap-between-caps", gap_err, 5e-3, gap_err < 5e-3)
        d = counterexample.diagnostics
        ratio = d["density_band_variance"] / d["density_band_mean"]
        report("criterion-5c nonconstancy-variance-ratio", ratio, 0.1, ratio > 0.1)

    def test_cli_exit_code(self, tmp_path):
        r = subprocess.run(
            [sys.executable, "-m", "zonotools.cli", "--out", str(tmp_path), "counterexample"],
            capture_output=True,
            text=True,
        )
        report("criterion-5d builder-exit-code", float(r.returncode), 0.5, r.returncode == 0)
        assert (tmp_path / "diagnostics.json").exists()


class TestCriterion6LocalRigidity:
    def test_rigidity_on_constructed_density(self, counterexample, counterexample_spec):
        rep = zonoid.verify_local_rigidity(counterexample_spec, counterexample.cap_u)
        report("criterion-6a support-affine-residual", rep.affine_residual, 1e-4,
               rep.affine_residual < 1e-4)
        report("criterion-6b funk-residual", rep.funk_residual, 1e-4, rep.funk_residual < 1e-4)
        a_ratio = float(np.linalg.norm(rep.a)) / rep.c
        report("criterion-6c drift-vector-ratio", a_ratio, 1e-6, a_ratio < 1e-6)


class TestCriterion7NewtonAf:
    def test_newton_and_af(self, grid):
        rng = np.random.default_rng(7)
        worst_gap = np.inf
        for _ in range(50):
            h = convex.random_support_function(grid, rng)
            worst_gap = min(worst_gap, convex.newton_report(h)["min_gap"])
        report("criterion-7a newton-gap-nonnegative", worst_gap, -1e-10, worst_gap >= -1e-10,
               "(50 random support functions)")
        ball = convex.SupportFunction.ball(grid, 1.0)
        worst_af = np.inf
        equality_flags = 0
        for _ in range(100):
            K = convex.random_support_function(grid, rng, band=6)
            L = convex.random_support_function(grid, rng, band=6)
            vkl = convex.mixed_volume(K, L, ball)
            slack = (vkl**2 - convex.mixed_volume(K, K, ball) * convex.mixed_volume(L, L, ball)) / vkl**2
            worst_af = min(worst_af, slack)
            if slack < 1e-9:
                equality_flags += 1
        report("criterion-7b alexandrov-fenchel-slack", worst_af, -1e-9, worst_af >= -1e-9,
               "(100 random pairs)")
        ball2 = convex.SupportFunction.ball(grid, 1.4)
        veq = convex.mixed_volume(ball, ball2, ball)
        eq = abs(veq**2 - convex.mixed_volume(ball, ball, ball) * convex.mixed_volume(ball2, ball2, ball)) / veq**2
        only_ball = equality_flags == 0 and eq < 1e-9
        report("criterion-7c equality-flags-exactly-ball", eq, 1e-9, only_ball)


class TestCriterion8MinkowskiRoundtrip:
    def test_roundtrip(self):
        source = fixtures.Ball(1.0).body(8193)
        cap = sphere.Cap(E3, 0.5)
        edges = np.concatenate(
            [[-1.0], np.linspace(-0.95, -0.5, 7), [0.0], np.linspace(0.5, 0.95, 7), [1.0]]
        )
        mu = convex.prescribed_cap_measure(source, cap.height, edges)
        solved = convex.minkowski_solve_revolution(mu, source, cap)
        lens = fixtures.Lens()
        ts = np.linspace(-1, 1, 81)
        shape_err = float(np.max(np.abs(convex.profile_to_support(solved).at(ts) - lens.support(ts))))
        report("criterion-8a solved-body-is-two-ball-lens", shape_err, 1e-6, shape_err < 1e-6)
        got = convex.surface_area_measure_zonal(solved, edges)
        inside = (edges[:-1] >= 0.5) | (edges[1:] <= -0.5)
        scale = float(np.max(mu.masses[inside]))
        band_err = float(np.max(np.abs(got.masses[inside] - mu.masses[inside]))) / scale
        report("criterion-8b band-masses-match-prescription", band_err, 1e-6, band_err < 1e-6)
        outside = got.total_mass() - got.mass_in(0.5, 1.0) - got.mass_in(-1.0, -0.5)
        report("criterion-8c no-mass-outside-cap-pair", abs(outside), 1e-8, abs(outside) < 1e-8)


class TestCriterion9UmbilicChecks:
    def test_ball_and_zonoid_fit(self, grid, counterexample, counterexample_spec):
        ball = convex.SupportFunction.ball(grid, 1.0)
        rep = convex.umbilic_sphere_check(ball, sphere.Cap(E3, 0.6), tol=1e-8)
        report("criterion-9a ball-sphere-fit", rep.residual, 1e-10,
               rep.is_umbilic and rep.residual < 1e-10)
        zrep = convex.umbilic_sphere_check(counterexample_spec.h, counterexample.cap_u, tol=1e-3)
        report("criterion-9b counterexample-zonoid-cap-fit", zrep.residual, 1e-4,
               zrep.is_umbilic and zrep.residual < 1e-4)

    def test_spherocylinder_fails_single_sphere(self, grid):
        # umbilic radii almost everywhere, singular equator measure: the
        # boundary over an equator-crossing cap is on two different spheres
        sc = fixtures.Spherocylinder(1.0, 0.6)
        cap = sphere.Cap(np.array([1.0, 0.0, 0.0]), 0.5)
        mask = grid.cap_mask(cap)
        t = grid.nodes[mask][:, 2]
        r1, r2 = sc.radii(t)
        rep = convex.umbilic_sphere_check_data(r1, r2, sc.boundary_points(grid.nodes[mask]), tol=1e-6)
        ok = rep.is_umbilic and rep.residual > 1e-2
        report("criterion-9c spherocylinder-fit-fails", rep.residual, 1e-2, ok,
               "(umbilic pointwise yet no single sphere)")


class TestCriterion10LensFixture:
    def test_lens_radii_vs_curvatures(self, grid):
        lens = fixtures.Lens()
        cap = sphere.Cap(np.array([1.0, 0.0, 0.0]), 0.7)  # spans the edge fan
        mask = grid.cap_mask(cap)
        t = grid.nodes[mask][:, 2]
        r1, r2 = lens.radii(t)
        smooth = np.abs(t) >= lens.t_edge
        curv_equal = float(np.max(np.abs(r1[smooth] - r2[smooth])))
        report("criterion-10a equal-curvatures-on-smooth-pieces", curv_equal, 1e-12,
               curv_equal <= 1e-12)
        rep = convex.umbilic_sphere_check_data(r1, r2, lens.boundary_points(grid.nodes[mask]), tol=1e-6)
        report("criterion-10b radii-split-flags-non-umbilic", rep.max_radii_split, 0.5,
               (not rep.is_umbilic) and rep.max_radii_split > 0.5,
               "(normal-parametrization radii are the right hypothesis)")
