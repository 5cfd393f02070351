import collections
import ctypes
import gc
import importlib.util
import math
import mmap
import os
import platform
import re
import subprocess
import sys
import tracemalloc
import types
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zonotools import cli, convex, harmonics, openblas, sphere, transforms, zonoid

import oracles
from conftest import random_density, random_even_coeffs, random_unit
from test_reach import BAND_64_CAPS, OFF_PLANE_CAPS

E3 = np.array([0.0, 0.0, 1.0])


def _gap_report(spec, u, m=256):
    """``zonoid.isotropy_gap_stack`` of the one circle u-perp, as floats, on
    the even density of the zonoid ``spec`` sampled by
    ``transforms.circle_samples``."""
    values = transforms.circle_samples(spec.g.coeffs.c, u, m)
    return {key: float(x[0]) for key, x in zonoid.isotropy_gap_stack(values[None]).items()}


def _off_plane_caps(tmp_path, text=OFF_PLANE_CAPS):
    """The cap pair of OFF_PLANE_CAPS (or of ``text``), read as the command
    line reads it."""
    path = tmp_path / "caps.cfg"
    path.write_text(text)
    cfg = cli.parse_config_file(str(path))
    return cfg.cap_u(), cfg.cap_v()


def _oracle_design_rows(grid, caps, L):
    """Unfolded, per-column design rows: every cap node, both antipodes,
    and the Funk rows by the Hessian route (trace of the radii matrix);
    the anisotropy rows on the first two caps."""
    even_lm = [(l, m) for l in range(0, L + 1, 2) for m in range(-l, l + 1)]
    sels = [grid.cap_mask(c) | grid.cap_mask(c.antipodal()) for c in caps]
    sel = np.any(sels, axis=0)
    which = np.zeros(int(np.sum(sel)), dtype=int)
    for k, s in enumerate(sels):
        which[s[sel]] = k
    nodes = grid.nodes[sel]
    wts = grid.weights[sel]
    t = np.clip(nodes[:, 2], -1.0, 1.0)
    st_ = np.sqrt(1.0 - t * t)
    phi = np.arctan2(nodes[:, 1], nodes[:, 0])
    P, dP, d2P = oracles.theta_tables(L, t)
    ms = np.arange(L + 1)
    cosm = np.cos(np.outer(ms, phi))
    sinm = np.sin(np.outer(ms, phi))
    n = nodes.shape[0]
    ncol = len(even_lm)
    Bval = np.empty((n, ncol))
    Bfunk = np.empty((n, ncol))
    Ban1 = np.empty((n, ncol))
    Ban2 = np.empty((n, ncol))
    s2 = math.sqrt(2.0)
    cot = t / st_
    for jcol, (l, m) in enumerate(even_lm):
        am = abs(m)
        if m == 0:
            trig, dtrig, scale = cosm[0], np.zeros_like(cosm[0]), 1.0
        elif m > 0:
            trig, dtrig, scale = cosm[m], -m * sinm[m], s2
        else:
            trig, dtrig, scale = sinm[am], am * cosm[am], s2
        f = scale * P[l, am] * trig
        ft = scale * dP[l, am] * trig
        ftt = scale * d2P[l, am] * trig
        fp = scale * P[l, am] * dtrig
        fpp = -am * am * f
        ftp = scale * dP[l, am] * dtrig
        h11 = ftt
        h22 = fpp / (st_ * st_) + cot * ft
        h12 = (ftp - cot * fp) / st_
        Bval[:, jcol] = f
        Bfunk[:, jcol] = 0.5 * (h11 + h22) + f
        Ban1[:, jcol] = h11 - h22
        Ban2[:, jcol] = 2.0 * h12
    aniso_mask = np.isin(which, (0, 1))
    return even_lm, which, wts, Bval, Bfunk, Ban1[aniso_mask], Ban2[aniso_mask], aniso_mask


def _oracle_design_plateau(cap_u, cap_v, L, design_grid, levels=(1.0, 2.0, 3.0),
                           cap_margin=0.01, ridge=1e-12):
    """design_plateau's least-squares problem on the unfolded oracle rows."""
    third_center = np.cross(cap_u.center, cap_v.center)
    third = sphere.Cap(third_center / np.linalg.norm(third_center), cap_u.height)
    big = [sphere.Cap(c.center, max(c.height - cap_margin, 0.5)) for c in (cap_u, cap_v, third)]
    even_lm, which, wts, Bval, Bfunk, Ban1, Ban2, aniso_mask = _oracle_design_rows(
        sphere.build_grid(*design_grid), big, L
    )
    target = np.asarray(levels)[which]
    sw = np.sqrt(wts)
    ls = np.array([l for l, _ in even_lm])
    lam = harmonics.multiplier_table("cosine", L)
    A = np.vstack([
        sw[:, None] * Bval,
        sw[:, None] * Bfunk,
        sw[aniso_mask, None] * Ban1,
        sw[aniso_mask, None] * Ban2,
        math.sqrt(ridge) * np.diag(1.0 / lam[ls]),
    ])
    b = np.concatenate(
        [sw * target, sw * target, np.zeros(2 * int(np.sum(aniso_mask)) + len(even_lm))]
    )
    sol, _, rank, sv = np.linalg.lstsq(A, b, rcond=None)
    G = harmonics.HarmonicCoeffs.zeros(L)
    for jcol, (l, m) in enumerate(even_lm):
        G.set(l, m, sol[jcol])
    return G, A.shape, sv


class TestCalibration:
    def test_prefactors_match_printed_constants(self):
        assert zonoid.WEIL_PREFACTOR_1 == 1.0 / math.pi
        assert zonoid.WEIL_PREFACTOR_2 == 2.0

    def test_prefactors_independent_of_node_count(self):
        # g ≡ c generates the ball of radius 2 pi c, whose first and second
        # area densities are 2 pi c and (2 pi c)^2 at every node count
        c = 0.7
        for m in (8, 64, 97, 128, 512):
            f1, f2 = zonoid._weil_densities(np.full((1, m), c))
            assert abs(f1[0] - 2.0 * math.pi * c) < 1e-13 * (2.0 * math.pi * c)
            assert abs(f2[0] - (2.0 * math.pi * c) ** 2) < 1e-13 * (2.0 * math.pi * c) ** 2

    def test_double_angle_tables_cached_and_read_only(self, monkeypatch):
        # the densities' moments read the stored longitude table of band 2,
        # built once
        builds = []
        real = harmonics._longitude_tables
        monkeypatch.setattr(harmonics, "_longitude_tables", lambda L, m: (builds.append((L, m)), real(L, m))[1])
        monkeypatch.setattr(harmonics, "_GRID_TABLES", collections.OrderedDict())
        for _ in range(2):
            zonoid._weil_densities(np.ones((2, 64)))
        assert builds == [(2, 64)]
        cs = harmonics.longitude_table(2, 64)
        assert not cs.flags.writeable
        two_a = 4.0 * np.pi * np.arange(64) / 64
        assert np.array_equal(cs[2], np.cos(two_a)) and np.array_equal(cs[5], np.sin(two_a))

    @pytest.mark.parametrize("m", [8, 64, 256, 512])
    def test_closed_form_matches_kernel_sum(self, m):
        p1, p2 = zonoid.WEIL_PREFACTOR_1, zonoid.WEIL_PREFACTOR_2
        q1, q2 = oracles.weil_prefactors_kernel(m)
        assert abs(p1 - q1) < 1e-13 * q1
        assert abs(p2 - q2) < 1e-13 * q2


class TestMakeZonoid:
    def test_reference_density_gives_unit_ball(self, grid):
        c = harmonics.HarmonicCoeffs.zeros(8)
        c.set(0, 0, 1.0 / (2.0 * math.pi) * math.sqrt(4 * math.pi))
        g = transforms.SphericalFunction.from_coeffs(grid, c)
        spec = zonoid.make_zonoid(g)
        assert np.max(np.abs(spec.h.values - 1.0)) < 1e-12
        assert spec.h.min_radius > 0.99

    def test_even_symmetrization(self, grid):
        c = harmonics.HarmonicCoeffs.zeros(4)
        c.set(0, 0, math.sqrt(4 * math.pi))
        c.set(1, 0, 0.4)  # odd part is discarded by symmetrization
        g = transforms.SphericalFunction.from_coeffs(grid, c)
        spec = zonoid.make_zonoid(g)
        assert spec.g.coeffs.get(1, 0) == 0.0

    def test_even_density_synthesizes_only_to_drop_odd_content(self, grid):
        g = random_density(grid, 6, np.random.default_rng(3))
        even = zonoid.even_density(g)
        assert even.values is g.values
        c = g.coeffs.copy()
        c.set(3, 1, 0.2)
        odd = transforms.SphericalFunction.from_coeffs(grid, c)
        even = zonoid.even_density(odd)
        assert even.coeffs.get(3, 1) == 0.0
        assert np.max(np.abs(even.values - g.values)) < 1e-12

    def test_negative_density_rejected(self, grid):
        c = harmonics.HarmonicCoeffs.zeros(4)
        c.set(2, 0, 1.0)  # sign-changing
        g = transforms.SphericalFunction.from_coeffs(grid, c)
        with pytest.raises(ValueError, match="negative"):
            zonoid.make_zonoid(g)

    def test_h_matches_accurate_quadrature_route(self, grid):
        g = random_density(grid, 12, np.random.default_rng(0))
        spec = zonoid.make_zonoid(g)
        targets = random_unit(np.random.default_rng(1), 8)
        quad = oracles.cosine_transform_quadrature(spec.g, targets)
        stored = oracles.synthesize_points(spec.h.coeffs, targets)
        assert np.max(np.abs(quad - stored)) < 1e-9


class TestWeilDensity:
    def test_constant_density_values(self, grid):
        c = harmonics.HarmonicCoeffs.zeros(4)
        c.set(0, 0, 0.7 * math.sqrt(4 * math.pi))
        spec = zonoid.make_zonoid(
            transforms.SphericalFunction.from_coeffs(grid, c)
        )
        u = random_unit(np.random.default_rng(2))
        # g ≡ c generates the ball of radius 2 pi c
        rep = _gap_report(spec, u)
        assert abs(rep["f1"] - 2 * math.pi * 0.7) < 1e-12
        assert abs(rep["f2"] - (2 * math.pi * 0.7) ** 2) < 1e-10

    def test_first_density_equals_funk_transform(self, grid):
        # unit proportionality between the one-factor density and the
        # circle integral of g
        rng = np.random.default_rng(3)
        worst = 0.0
        for seed in range(5):
            g = random_density(grid, 16, np.random.default_rng(seed))
            spec = zonoid.make_zonoid(g)
            for u in random_unit(rng, 5):
                f1 = _gap_report(spec, u)["f1"]
                funk = oracles.funk_transform_at(spec.g, u)
                worst = max(worst, abs(f1 - funk))
        assert worst < 1e-7

    def test_matches_support_function_route(self, grid):
        rng = np.random.default_rng(4)
        worst = 0.0
        for seed in range(5):
            g = random_density(grid, 16, np.random.default_rng(100 + seed))
            spec = zonoid.make_zonoid(g)
            for u in random_unit(rng, 4):
                rep = _gap_report(spec, u)
                worst = max(
                    worst,
                    abs(rep["f1"] - oracles.area_density(spec.h, u, 1)),
                    abs(rep["f2"] - oracles.area_density(spec.h, u, 2)),
                )
        assert worst < 1e-6


@settings(max_examples=30, deadline=None)
@given(
    L=st.integers(0, 12),
    m=st.sampled_from([8, 64, 256]),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_form_densities_match_kernel_oracle(small_grid, L, m, seed):
    rng = np.random.default_rng(seed)
    spec = zonoid.make_zonoid(random_density(small_grid, L, rng))
    u = random_unit(rng)
    rep = _gap_report(spec, u, m=m)
    f1, f2 = rep["f1"], rep["f2"]
    o1, o2 = oracles.weil_densities_kernel(
        oracles.synthesize_points(spec.g.coeffs, oracles.circle_nodes(sphere.great_circle(u, m)))
    )
    assert abs(f1 - o1) <= 1e-12 * abs(o1)
    assert abs(f2 - o2) <= 1e-12 * abs(o2)


class TestIsotropyGapReport:
    def test_ball_has_no_gap(self, grid):
        c = harmonics.HarmonicCoeffs.zeros(4)
        c.set(0, 0, math.sqrt(4 * math.pi))
        spec = zonoid.make_zonoid(
            transforms.SphericalFunction.from_coeffs(grid, c)
        )
        rep = _gap_report(spec, random_unit(np.random.default_rng(6)))
        assert rep["dev"] < 1e-14
        assert rep["gap"] < 1e-13

    def test_gap_equals_squared_degree_two_mass(self, grid):
        g = random_density(grid, 12, np.random.default_rng(7))
        spec = zonoid.make_zonoid(g)
        u = random_unit(np.random.default_rng(8))
        rep = _gap_report(spec, u)
        raw = rep["f1"] ** 2 - rep["f2"]
        mass = oracles.circle_fourier_mass(spec.g, u, degree=2)
        assert abs(raw - mass) < 1e-6 * max(abs(raw), abs(mass))

    def test_anisotropic_case_flagged_both_ways(self, grid):
        c = harmonics.HarmonicCoeffs.zeros(4)
        c.set(0, 0, 2.0 * math.sqrt(4 * math.pi))
        c.set(2, 2, 1.0)
        spec = zonoid.make_zonoid(
            transforms.SphericalFunction.from_coeffs(grid, c)
        )
        rep = _gap_report(spec, E3)
        assert rep["dev"] > 1e-3
        assert rep["gap"] > 1e-6

    def test_reads_one_circle_sample(self, grid):
        g = random_density(grid, 12, np.random.default_rng(9))
        spec = zonoid.make_zonoid(g)
        u = random_unit(np.random.default_rng(10))
        # every quantity of the report reads the one sample of the circle
        rep = _gap_report(spec, u, m=128)
        given = transforms.circle_samples(spec.g.coeffs.c, u, 128)
        assert rep["dev"] == transforms.isotropy_tensors(given[None])[1][0]
        f1, f2 = zonoid._weil_densities(given[None])
        assert rep["f1"] == f1[0] and rep["f2"] == f2[0]
        mass = oracles.circle_fourier_mass(spec.g, u, degree=2, m=128)
        assert rep["mass"] == pytest.approx(mass, rel=1e-12, abs=0.0)

    @pytest.fixture(scope="class")
    def suite_calls(self):
        # one default suite run, counting the analyses, Legendre series and
        # support builds, and the rows of every call into the ring route:
        # the expansions sampled on the grid's rings, and those rotated
        # onto their circles
        calls = {"grid_rows": 0, "analyze": 0, "legval": 0, "from_coeffs": 0,
                 "rotated_rows": []}

        def counting(name, real):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapped

        def rings(real):
            def wrapped(C, frames, t, m, derivatives=False):
                if frames is None:
                    calls["grid_rows"] += len(np.atleast_2d(C))
                else:
                    calls["rotated_rows"].append(len(C))
                return real(C, frames, t, m, derivatives)
            return wrapped

        ctx = cli.RunContext(cli.RunConfig())
        ctx.grid  # built before counting: its Gauss rule calls legval
        with pytest.MonkeyPatch.context() as mp:
            for owner, name in [
                (harmonics, "analyze"),
                (np.polynomial.legendre, "legval"),
                (convex.SupportFunction, "from_coeffs"),
            ]:
                mp.setattr(owner, name, counting(name, getattr(owner, name)))
            mp.setattr(harmonics, "ring_samples", rings(harmonics.ring_samples))
            rows = cli.suite_isotropy_gap(ctx)
        return rows, calls

    def test_suite_synthesizes_each_circle_once(self, suite_calls):
        # each case's circle and grid values are synthesized once: the 200
        # circles are rotated onto the equator in one stack
        rows, calls = suite_calls
        assert all(row["pass"] for row in rows)
        assert calls["rotated_rows"] == [200]
        assert calls["grid_rows"] == 200

    def test_suite_builds_no_support_function(self, suite_calls):
        # the suite reads only the even density: no zonoid support is built,
        # and each case's density is synthesized on the grid once
        rows, calls = suite_calls
        assert all(row["pass"] for row in rows)
        assert calls["from_coeffs"] == 0
        assert calls["grid_rows"] == 200

    def test_suite_builds_its_corpus_in_coefficient_space(self, suite_calls):
        # no case is evaluated by a Legendre series on the grid or analyzed
        # back to coefficients (the 200 grid syntheses are counted above)
        rows, calls = suite_calls
        assert all(row["pass"] for row in rows)
        assert calls["legval"] == 0
        assert calls["analyze"] == 0

    def test_suite_rows_match_per_case_reports(self, suite_calls):
        # the stacked suite against a one-circle isotropy_gap_stack per
        # case, read as the suite read them before it worked on stacks
        rows, _ = suite_calls
        ctx = cli.RunContext(cli.RunConfig())
        coeffs, directions, _, isotropic = cli._isotropy_corpus(ctx)
        tols = cli.TOLERANCES
        equiv_ok, worst = True, 0.0
        for c, u, iso in zip(coeffs, directions, isotropic):
            stack = zonoid.isotropy_gap_stack(transforms.circle_samples(c, u, 256)[None])
            rep = {key: float(x[0]) for key, x in stack.items()}
            small_gap, small_dev = rep["gap"] < tols["gap_iso"], rep["dev"] < tols["dev_iso"]
            equiv_ok &= small_gap == small_dev == iso
            raw = rep["f1"] ** 2 - rep["f2"]
            scale = max(abs(raw), abs(rep["mass"]), tols["gap_oracle"] * rep["f2"])
            worst = max(worst, abs(raw - rep["mass"]) / scale)
        assert equiv_ok and rows[0]["pass"]
        assert rows[1]["metric"] == pytest.approx(worst, rel=1e-12, abs=0.0)


class TestIsotropyCorpus:
    """cli._isotropy_corpus against oracles.isotropy_corpus_legval, the
    route that evaluated each zonal case by numpy's Legendre series on the
    grid and analyzed it back to band 12, and drew and lifted each random
    case on its own."""

    @pytest.fixture(scope="class")
    def corpora(self):
        ctx = cli.RunContext(cli.RunConfig())
        return cli._isotropy_corpus(ctx), list(oracles.isotropy_corpus_legval(ctx)), ctx.grid

    def test_zonal_values_match_legval_oracle(self, corpora):
        (coeffs, directions, minima, isotropic), old, grid = corpora
        assert isotropic.tolist() == [True] * 100 + [False] * 100
        for c, axis, low, (g, axis_old, _) in zip(coeffs[:100], directions, minima, old[:100]):
            assert np.array_equal(axis, axis_old)
            values = harmonics.synthesize_grid(harmonics.HarmonicCoeffs(12, c), grid)
            scale = np.max(np.abs(g.values))
            assert np.max(np.abs(values - g.values)) <= 1e-12 * scale
            assert np.max(np.abs(c - g.coeffs.c)) <= 1e-12 * np.max(np.abs(g.coeffs.c))
            assert low == pytest.approx(0.2, abs=1e-14)
            assert low == pytest.approx(np.min(values), abs=1e-14)

    def test_zonal_cases_are_exactly_even(self, corpora):
        # no odd coefficient at all, so even_density keeps the grid values
        (coeffs, _, _, _), _, grid = corpora
        odd = harmonics.HarmonicCoeffs.zeros(12).degrees() % 2 == 1
        assert not np.any(coeffs[:, odd])
        for c in coeffs[:100]:
            f = transforms.SphericalFunction.from_coeffs(grid, harmonics.HarmonicCoeffs(12, c))
            assert zonoid.even_density(f).values is f.values

    def test_zonal_case_constant_on_its_axis_circle(self, corpora):
        (coeffs, directions, _, _), _, _ = corpora
        values = transforms.circle_samples(coeffs[:100], directions[:100], 64)
        spread = np.ptp(values, axis=1) / np.max(np.abs(values), axis=1)
        assert np.max(spread) <= 1e-12

    def test_random_half_bitwise_equal_to_scalar_draws(self, corpora):
        (coeffs, directions, minima, _), old, _ = corpora
        assert len(old) == 200
        for c, u, low, (g, u_old, _) in zip(coeffs[100:], directions[100:], minima[100:], old[100:]):
            assert np.array_equal(u, u_old)
            assert c.tobytes() == g.coeffs.c.tobytes()
            # the minimum of the lifted grid values, which cli._lifted forms
            assert low == np.min(g.values)


class TestCounterexample:
    def test_diagnostics_within_budget(self, counterexample):
        d = counterexample.diagnostics
        assert d["support_affine_residual"] < 1e-4
        assert d["funk_residual_U"] < 1e-4
        assert abs(d["funk_gap_UV"] - d["funk_gap_expected"]) < 5e-3
        assert d["c0"] == 1.0 + float(
            np.max(np.abs(harmonics.synthesize_grid(counterexample.w, counterexample.g.grid)))
        )

    def test_density_positive(self, counterexample):
        assert np.min(counterexample.g.values) > 0

    def test_gap_report_on_cap_directions(self, counterexample, counterexample_spec):
        rng = np.random.default_rng(5)
        for u in counterexample.cap_u.sample(10, rng):
            rep = _gap_report(counterexample_spec, u)
            assert rep["dev"] < 1e-6
            assert rep["gap"] < 1e-6

    def test_zonoid_cap_patch_radius_matches_support_constant(
        self, counterexample, counterexample_spec
    ):
        # the fitted sphere radius over the cap carries the additive shift
        # 2 pi c0 of the density lift, matching the affine-fit constant
        urep = convex.umbilic_sphere_check(
            counterexample_spec.h, counterexample.cap_u, tol=1e-3
        )
        rrep = zonoid.verify_local_rigidity(counterexample_spec, counterexample.cap_u)
        assert urep.is_umbilic
        assert abs(urep.radius - rrep.c) < 1e-6 * rrep.c
        expected = 1.0 + 2.0 * math.pi * counterexample.c0
        assert abs(urep.radius - expected) < 1e-4

    def test_inadmissible_caps_rejected(self, grid):
        u = sphere.Cap(E3, 0.6)
        v = sphere.Cap(np.array([1.0, 0.0, 0.0]), 0.6)
        with pytest.raises(ValueError, match="separated"):
            zonoid.build_counterexample(u, v, grid, L=16, transition=0.4)

    def test_assertion_rows(self, counterexample):
        got = zonoid.counterexample_assertions(counterexample, np.random.default_rng(1234))
        tols = cli.TOLERANCES
        d = counterexample.diagnostics
        assert got == {
            "isotropy_max_dev": got["isotropy_max_dev"],
            "funk_gap_error": abs(d["funk_gap_UV"] - d["funk_gap_expected"]),
            "band_variance": d["density_band_variance"],
            "band_mean": d["density_band_mean"],
        }
        assert got["isotropy_max_dev"] < tols["isotropy_dev"] == 1e-5
        assert got["funk_gap_error"] < tols["funk_gap"]
        assert got["band_variance"] > tols["nonconstancy_ratio"] * got["band_mean"]
        # one synthesis of all circles gives each circle's own samples
        g = zonoid.even_density(counterexample.g)
        samples = counterexample.cap_u.sample(50, np.random.default_rng(1234))
        per_circle = max(
            transforms.isotropy_tensors(transforms.circle_samples(g.coeffs.c, u, 256)[None])[1][0]
            for u in samples
        )
        assert got["isotropy_max_dev"] == pytest.approx(per_circle, rel=1e-12, abs=0.0)

    def test_grid_values_come_from_grid_synthesis(self, grid, cap_u, cap_v, monkeypatch):
        # the cap values of C(g) and R(g), in the build and in the rigidity
        # fit, are read off the grid synthesis: no value off the grid at all,
        # and the one rotation is G's, from the adapted frame the design was
        # solved in back to the user frame
        calls = []
        real = harmonics.rotate_rows
        monkeypatch.setattr(harmonics, "rotate_rows", lambda *args: (calls.append(args[1]), real(*args))[1])
        res = zonoid.build_counterexample(cap_u, cap_v, grid, L=48, transition=0.3)
        zonoid.verify_local_rigidity(zonoid.make_zonoid(res.g), cap_u)
        assert len(calls) == 1
        assert np.array_equal(calls[0], zonoid._adapted_frame(cap_u.center, cap_v.center))

    def test_funk_residual_is_the_rigidity_row(self, counterexample, counterexample_spec):
        # the build's diagnostic and the rigidity verifier read one route
        rep = zonoid.verify_local_rigidity(counterexample_spec, counterexample.cap_u)
        got = counterexample.diagnostics["funk_residual_U"]
        assert np.float64(got).tobytes() == np.float64(rep.funk_residual).tobytes()

    def test_save_artifacts(self, counterexample, tmp_path):
        outdir = tmp_path / "artifact"
        counterexample.save(outdir)
        assert (outdir / "density.csv").exists()
        assert (outdir / "density_coeffs.csv").exists()
        assert (outdir / "w_coeffs.csv").exists()
        assert (outdir / "diagnostics.json").exists()


class TestPlateauDesign:
    """The folded design against the unfolded, per-column oracle."""

    # GRID is the design grid of every band up to 12 (design_grid_shape),
    # on which the oracles rebuild the design's rows
    L, GRID = 12, (32, 64)
    ANGLE = 1.55  # inside the admissible window for heights 0.9 and transition 0.3

    @pytest.mark.parametrize(
        "L,shape",
        [(0, (32, 64)), (2, (32, 64)), (8, (32, 64)), (12, (32, 64)), (24, (64, 128)),
         (48, (128, 256)), (60, (160, 320)), (64, (171, 342))],
    )
    def test_design_grid_follows_the_band(self, L, shape):
        # n_theta = max(32, ceil(8 L / 3)) rings and twice as many longitudes
        assert zonoid.design_grid_shape(L) == shape

    # every pair is solved in its adapted frame, where the reflection
    # through span(U, V) is y -> -y and the solved columns are the m >= 0
    # ones: 49 of the 91 even columns at L = 12
    N_INVARIANT = 49

    # heights of the rotated pairs: unequal heights leave a rim of nodes of
    # the larger of U and V that the mirror z -> -z of the adapted frame
    # does not pair (U the smaller cap, hu > hv, or V the smaller one)
    HEIGHTS = {"rotated": (0.9, 0.9), "small-u": (0.95, 0.9), "small-v": (0.9, 0.94)}

    @classmethod
    def _pair(cls, name, cap_u, cap_v):
        a = cls.ANGLE
        if name == "default":
            return cap_u, cap_v
        if name == "xz":
            return sphere.Cap(E3, 0.9), sphere.Cap(np.array([math.sin(a), 0.0, math.cos(a)]), 0.9)
        if name == "yz":
            return sphere.Cap(E3, 0.9), sphere.Cap(np.array([0.0, math.sin(a), math.cos(a)]), 0.9)
        if name == "diagonal":
            return (
                sphere.Cap(np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0), 0.9),
                sphere.Cap(np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0), 0.9),
            )
        q, r = np.linalg.qr(np.random.default_rng(11).normal(size=(3, 3)))
        q = q * np.sign(np.diag(r))
        hu, hv = cls.HEIGHTS[name]
        return (
            sphere.Cap(q @ E3, hu),
            sphere.Cap(q @ np.array([math.sin(a), 0.0, math.cos(a)]), hv),
        )

    def _oracle_in_design_frame(self, u, v, info, ridge=1e-12, L=None):
        """The unfolded oracle on the caps rotated into the frame the design
        solved in, its G mapped back to the user frame the same way, its
        singular values, and the rotated caps; at band L, self.L if None."""
        Q = np.array(info["design_frame"])
        fu, fv = (sphere.Cap(Q @ c.center, c.height) for c in (u, v))
        G_ref, _, sv = _oracle_design_plateau(fu, fv, self.L if L is None else L, self.GRID, ridge=ridge)
        return zonoid._rotate_expansion(G_ref, Q), sv, fu, fv

    def _solved_block_singular_values(self, u, v, ridge):
        # u and v are in the frame the design solved in, so their adapted
        # frame is the identity up to rounding, and the rows are the whole
        # folded block
        rows, _ = zonoid._design_rows(u, v, self.L, sphere.build_grid(*self.GRID))
        ncol, n, na = rows.ls.size, rows.nodes.size, rows.n_aniso
        V = np.empty((ncol + 1, n))
        rows.value_rows(V, slice(0, n))
        aniso = np.empty((ncol + 1, 2 * na))
        rows.anisotropy_rows(aniso[:, :na], slice(0, na))
        rows.anisotropy_rows(aniso[:, na:], slice(0, na), offdiagonal=True)
        lam = harmonics.multiplier_table("cosine", self.L)
        AT = np.hstack([
            V[:-1],
            V[:-1] * rows.funk[:, None],
            aniso[:-1],
            np.diag(math.sqrt(ridge) / lam[rows.ls]),
        ])
        return np.linalg.svd(AT, compute_uv=False)

    # A ridge far above the default one weighs the node rows against the
    # ridge rows, which the orbit weights of the kept nodes must preserve.
    @pytest.mark.parametrize(
        "pair,ridge",
        [
            ("default", 1e-12),
            ("rotated", 1e-12),
            ("default", 1e-4),
            ("xz", 1e-12),
            ("yz", 1e-12),
            ("diagonal", 1e-12),
            ("small-u", 1e-12),
            ("small-v", 1e-12),
        ],
    )
    def test_matches_unfolded_oracle(self, cap_u, cap_v, pair, ridge, monkeypatch):
        u, v = self._pair(pair, cap_u, cap_v)
        harmonics.check_plateau_caps(u, v, 0.3)
        monkeypatch.setattr(zonoid, "RIDGE", ridge)
        G, info = zonoid.design_plateau(u, v, L=self.L)
        G_ref, sv, fu, fv = self._oracle_in_design_frame(u, v, info, ridge=ridge)
        assert np.max(np.abs(G.c - G_ref.c)) <= 1e-9 * np.max(np.abs(G_ref.c))
        assert info["design_cols"] == self.N_INVARIANT == info["design_rank"]
        assert (info["design_rim_nodes"] > 0) == pair.startswith("small")
        # the solved block is the invariant block of the unfolded system
        for s in self._solved_block_singular_values(fu, fv, ridge):
            assert np.min(np.abs(sv - s)) <= 1e-9 * s

    @staticmethod
    def _counting(base, factors):
        """``base`` counting its dtpqrt folds: each factor made appends
        itself to ``factors``, the classes' first and the coupled one last."""

        class Factor(base):
            def __init__(self, W):
                super().__init__(W)
                self.dtpqrt_calls = 0
                factors.append(self)

            def _fold_rows(self, r):
                self.dtpqrt_calls += 1
                super()._fold_rows(r)

        return Factor

    @staticmethod
    def _buffer_rows(ncol, class_cols):
        """T, the fold buffer's rows: a class needs its n + 1 triangle rows
        and n + 1 free rows below them for its n Funk rows, so the even
        class needs 2 (n0 + 1) from the top and the odd one, from row n0
        on, n0 + 2 (n1 + 1) = ncol + n1 + 2."""
        n0, n1 = class_cols
        return max(2 * (n0 + 1), ncol + n1 + 2)

    @staticmethod
    def _assert_many_folds(factors, pair):
        # every class folds at least twice in any buffer, before its Funk
        # rows and at the end; with n + 1 free rows or more, fewer than
        # every class's value rows at L = 12, its value rows fold on their
        # own too, and a rim of more rows than the coupled factor's free
        # rows takes two coupled folds or more
        *classes, coupled = (f.dtpqrt_calls for f in factors)
        assert min(classes) >= 3
        assert coupled >= (2 if pair.startswith("small") else 0)

    @pytest.mark.parametrize("pair", ["default", "rotated", "small-u", "small-v"])
    def test_small_blocks_match_unfolded_oracle(self, cap_u, cap_v, pair, monkeypatch):
        # the production buffer at L = 12 has 22 to 43 free rows in its
        # classes' corners, so the rows pass through many QR folds and the value rows' factor is
        # split; the diagnostics count those folds and the buffer's bytes
        factors = []
        monkeypatch.setattr(zonoid, "_TriangularFactor", self._counting(zonoid._TriangularFactor, factors))
        u, v = self._pair(pair, cap_u, cap_v)
        G, info = zonoid.design_plateau(u, v, L=self.L)
        self._assert_many_folds(factors, pair)
        assert info["design_folds"] == sum(f.dtpqrt_calls for f in factors)
        buffer = factors[0]._W if factors[0]._W.base is None else factors[0]._W.base
        ncol = info["design_cols"]
        rows = self._buffer_rows(ncol, [f._W.shape[1] - 1 for f in factors[:-1]])
        assert info["design_buffer_bytes"] == buffer.nbytes == rows * (ncol + 1) * 8
        G_ref, sv, fu, fv = self._oracle_in_design_frame(u, v, info)
        assert np.max(np.abs(G.c - G_ref.c)) <= 1e-9 * np.max(np.abs(G_ref.c))
        assert info["design_rank"] == info["design_cols"]
        for s in self._solved_block_singular_values(fu, fv, 1e-12)[[0, -1]]:
            assert np.min(np.abs(sv - s)) <= 1e-9 * s

    @pytest.mark.parametrize("pair", ["rotated", "small-u", "small-v"])
    def test_classes_fold_into_the_coupled_factor(self, cap_u, cap_v, pair, monkeypatch):
        # the two classes fold one after the other, each in its corner of
        # the one buffer of ncol + 1 columns, and before any rim row the
        # buffer's top is the coupled factor: the class factors on the
        # diagonal, exact zeros below it and in the block between them, the
        # targets in column ncol and the classes' residuals' root-sum-square
        # as its residual
        factors = []

        class Factor(zonoid._TriangularFactor):
            def __init__(self, W):
                super().__init__(W)
                self.start = W[: W.shape[1]].copy()
                factors.append(self)

            def folded(self):
                R = super().folded()
                self.last = R.copy()
                return R

        monkeypatch.setattr(zonoid, "_TriangularFactor", Factor)
        _, info = zonoid.design_plateau(*self._pair(pair, cap_u, cap_v), L=self.L)
        even, odd, coupled = factors
        ncol = info["design_cols"]
        assert not np.any(even.start) and not np.any(odd.start)
        n0, n1 = even.start.shape[1] - 1, odd.start.shape[1] - 1
        assert n0 + n1 == ncol
        assert info["design_buffer_bytes"] == self._buffer_rows(ncol, (n0, n1)) * (ncol + 1) * 8
        R = coupled.start
        assert R.shape == (ncol + 1, ncol + 1)
        assert not np.any(np.tril(R, -1)) and not np.any(R[:n0, n0:ncol])
        expected = np.zeros_like(R)
        expected[:n0, :n0], expected[:n0, ncol] = even.last[:n0, :n0], even.last[:n0, n0]
        expected[n0:ncol, n0:ncol], expected[n0:ncol, ncol] = odd.last[:n1, :n1], odd.last[:n1, n1]
        expected[ncol, ncol] = math.hypot(even.last[n0, n0], odd.last[n1, n1])
        assert abs(R[ncol, ncol]) == expected[ncol, ncol]
        R[ncol, ncol] = expected[ncol, ncol]
        assert np.array_equal(R, expected)

    @pytest.mark.parametrize("L", [2, 4, 6, 8, 12])
    @pytest.mark.parametrize("pair", ["rotated", "small-u", "small-v"])
    def test_funk_rows_fit_below_the_value_factor(self, cap_u, cap_v, pair, L, monkeypatch):
        # each class writes its Funk rows from its value factor where it
        # sits, so no fold may overwrite that factor while they are read:
        # the buffer's free rows below it hold them, both at bands where the
        # even class sets the buffer's rows (L <= 4) and where the odd one
        # does.  A class adds its value, Funk, h11 - h22, 2 h12 and ridge
        # rows, in that order
        factors = []

        class Factor(zonoid._TriangularFactor):
            def __init__(self, W):
                super().__init__(W)
                self.adds = []
                factors.append(self)

            def add(self, write, start, stop):
                before = self.folds
                super().add(write, start, stop)
                self.adds.append((before, self.folds))

        monkeypatch.setattr(zonoid, "_TriangularFactor", Factor)
        u, v = self._pair(pair, cap_u, cap_v)
        G, info = zonoid.design_plateau(u, v, L=L)
        *classes, _ = factors
        assert len(classes) == 2
        for factor in classes:
            assert len(factor.adds) == 5
            before, after = factor.adds[1]
            assert before == after
        G_ref, *_ = self._oracle_in_design_frame(u, v, info, L=L)
        assert np.max(np.abs(G.c - G_ref.c)) <= 1e-9 * np.max(np.abs(G_ref.c))

    def test_funk_fit_guard_trips_on_an_undersized_buffer(self, cap_u, cap_v):
        # at L = 2 a split design has classes of 3 and 1 columns: (ncol + 1)
        # + (n1 + 1) = 7 rows hold the odd class's Funk rows but leave the
        # even class 3 free rows for its 3, which would start a fold while
        # they are read from its factor; the buffer needs 2 (n0 + 1) = 8
        rows, _ = zonoid._design_rows(*self._pair("rotated", cap_u, cap_v), 2, sphere.build_grid(*self.GRID))
        classes, rim = rows.blocks()
        n0, n1 = (block.cols.size for block in classes)
        assert (n0, n1) == (3, 1) and self._buffer_rows(n0 + n1, (n0, n1)) == 8
        W = np.zeros((n0 + n1 + n1 + 2, n0 + n1 + 1), order="F")
        with pytest.raises(RuntimeError, match="3 free rows below a factor of 4 rows, so its 3 Funk rows"):
            zonoid._fold_design(W, classes, rim, np.ones(n0 + n1))

    def test_longitude_factors_own_their_rows(self, cap_u, cap_v):
        # every order's longitude factor and its phi derivative is one row
        # of n_phi values that holds no larger table alive, such as the
        # (L + 1) x n_phi cosine table it is read from
        grid = sphere.build_grid(*self.GRID)
        for pair in ("default", "rotated"):
            rows = self._design_rows(*self._pair(pair, cap_u, cap_v), self.L, grid)
            for _, trig, dtrig, *_ in rows._orders:
                for a in (trig, dtrig):
                    assert a.shape == (grid.n_phi,)
                    assert a.base is None or a.base.nbytes <= a.nbytes

    @pytest.mark.parametrize("small", [False, True])
    @pytest.mark.parametrize("pair", ["default", "rotated", "small-v"])
    def test_factor_is_the_qr_fold(self, cap_u, cap_v, pair, small, monkeypatch):
        # the in-place dtpqrt folds against np.linalg.qr's at the same fold
        # points, both onto a factor that starts as a zero triangle.
        # Both are Householder QR, backward stable, so the solved [R q]
        # agree within n eps |[R q]|_F, n its columns.  x = R^-1 q then
        # moves by |R^-1|_2 |[dR dq]|_F |(x, -1)| to first order, with
        # |R^-1|_2 <= kappa / |R|_F for kappa the certified sigma-ratio
        # bound, and each substitution adds its own n eps kappa |x|; the
        # rotation into the user frame keeps the norm.  The production
        # buffer at L = 12 already folds many times, so the small cases run
        # the same designs as the others and also assert those folds
        u, v = self._pair(pair, cap_u, cap_v)
        solved = []

        def recording(base, factors):
            counting = self._counting(base, factors)

            class Factor(counting):
                def certified_solve(self, floor, rcond):
                    solved.append(self.folded()[:-1].copy())
                    return super().certified_solve(floor, rcond)

            return Factor

        runs = []
        for base in (zonoid._TriangularFactor, oracles.QRFoldFactor):
            factors = []
            monkeypatch.setattr(zonoid, "_TriangularFactor", recording(base, factors))
            runs.append(zonoid.design_plateau(u, v, L=self.L))
            if small:
                self._assert_many_folds(factors, pair)
        (G, info), (G_ref, info_ref) = runs
        F, F_ref = solved
        n = F.shape[1]
        eps = np.finfo(float).eps
        assert np.linalg.norm(F - F_ref) <= n * eps * np.linalg.norm(F_ref)
        kappa, x_norm = info["design_sigma_ratio_bound"], np.linalg.norm(G_ref.c)
        scale = np.linalg.norm(F_ref) / np.linalg.norm(F_ref[:, :-1])
        bound = n * eps * kappa * (scale * math.sqrt(1.0 + x_norm**2) + 2.0 * x_norm)
        assert np.linalg.norm(G.c - G_ref.c) <= bound
        exact = {k: value for k, value in info.items() if not isinstance(value, float)}
        assert exact == {k: value for k, value in info_ref.items() if not isinstance(value, float)}

    @staticmethod
    def _recording_mappings(monkeypatch, at_map=None):
        """(length, weak reference) of every mapping made while the test
        runs, by a wrapper of ``mmap.mmap`` that first calls ``at_map``."""
        made, real = [], mmap.mmap

        def recording(*args, **kwargs):
            if at_map is not None:
                at_map()
            mapping = real(*args, **kwargs)
            made.append((len(mapping), weakref.ref(mapping)))
            return mapping

        monkeypatch.setattr(mmap, "mmap", recording)
        return made

    @pytest.mark.parametrize("pair", ["rotated", "off-plane", "small-v"])
    def test_fold_buffer_is_the_one_large_allocation(self, cap_u, cap_v, pair, tmp_path, monkeypatch):
        # drawn-like pairs at the production band and grid, solved in their
        # adapted frame (625 columns in classes of 325 and 300, so a buffer
        # of max(2 * 326, 625 + 302) = 927 rows, 4.6 MB), with and without
        # a rim; both classes and the coupled fold work in the one buffer,
        # one after another.  The buffer is the one mapping the design
        # makes, and an array over a mapping allocates nothing tracemalloc
        # traces.  The quarter-turn tables are built by a first call; the
        # second call's traced peak is taken in two parts, split at the
        # mapping.  Up to it, the row setup: the design grid (its nodes
        # and weights, four floats a grid node), the orbit fold's rep and
        # mult, the partner lookup's position and the caps' masks (three
        # ints and three bytes a grid node), Q and Q' on the cap rings
        # ((L + 1)^2 floats a ring each), the longitude tables and the
        # rows' tables (5.30 to 5.32 MB measured).  From it on, the folds
        # and the solve: the rows' tables, Q, H and K on the cap rings and
        # each order's longitude factor and its phi derivative; dtpqrt's T
        # and workspace of one factor at a time, at most the coupled one's
        # ncol + 1 columns; one order's gathered ring table, at most
        # L / 2 + 1 columns on the buffer's rows; and the node arrays,
        # the rows' eight a kept node (nodes, which, target, sw, partner,
        # ring, lon and the anisotropy flags) and the blocks' five a block
        # row (ring, lon, sw, target and the anisotropy index), one block
        # row a kept node at most (1.71 to 1.84 MB measured)
        if pair == "off-plane":
            u, v = _off_plane_caps(tmp_path)
        else:
            u, v = self._pair(pair, cap_u, cap_v)
        zonoid.design_plateau(u, v)
        setup_peaks = []

        def at_map():
            setup_peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()

        made = self._recording_mappings(monkeypatch, at_map=at_map)
        tracemalloc.start()
        try:
            _, info = zonoid.design_plateau(u, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        L, ncol = 48, info["design_cols"]
        assert ncol == 625
        grid = sphere.build_grid(128, 256)
        rows, _ = zonoid._design_rows(u, v, L, grid)
        rings, orders = rows._ring.max() + 1, len(rows._orders)
        class_cols = [block.cols.size for block in rows.blocks()[0]]
        assert class_cols == [325, 300]
        n_buffer = self._buffer_rows(ncol, class_cols)
        buffer_bytes = n_buffer * (ncol + 1) * 8
        assert info["design_buffer_bytes"] == buffer_bytes == 927 * 626 * 8
        assert [length for length, _ in made] == [buffer_bytes]
        tables = 3 * ncol * rings * 8 + 2 * orders * grid.n_phi * 8
        setup = (
            grid.n_nodes * (4 * 8 + 3 * 8 + 3)
            + 2 * (L + 1) ** 2 * rings * 8
            + 2 * (L + 1) * grid.n_phi * 8
            + tables
        )
        [setup_peak] = setup_peaks
        assert setup_peak < 1.25 * setup
        workspaces = 2 * 32 * (ncol + 1) * 8
        gather = (L // 2 + 1) * n_buffer * 8
        node_arrays = (8 + 5) * rows.n_nodes * 8
        assert peak < 1.25 * (tables + workspaces + gather + node_arrays)

    @pytest.mark.parametrize("pair", ["default", "small-v"])
    def test_fold_mapping_does_not_outlive_the_design(self, cap_u, cap_v, pair, monkeypatch):
        # the buffer's mapping is owned by the buffer alone, so it is
        # unmapped once the design drops the buffer, before its rotation
        # back, with or without a rim
        made, at_rotation = self._recording_mappings(monkeypatch), []
        rotate = zonoid._rotate_expansion

        def recording_rotation(G, frame):
            at_rotation.extend(ref() for _, ref in made)
            return rotate(G, frame)

        monkeypatch.setattr(zonoid, "_rotate_expansion", recording_rotation)
        _, info = zonoid.design_plateau(*self._pair(pair, cap_u, cap_v), L=self.L)
        [(length, ref)] = made
        assert length == info["design_buffer_bytes"]
        assert at_rotation == [None] and ref() is None

    def test_free_heap_pages_go_back_before_the_buffer(self, cap_u, cap_v, monkeypatch):
        # under glibc the design hands the heap's free pages back once per
        # design, after its rows are set up and before its fold buffer is
        # allocated; the call moves no number, and without it (another C
        # library) the design is the same
        if platform.libc_ver()[0] == "glibc":
            assert zonoid._MALLOC_TRIM is not None
        events = []

        class Factor(zonoid._TriangularFactor):
            def __init__(self, W):
                events.append("factor")
                super().__init__(W)

        monkeypatch.setattr(zonoid, "_TriangularFactor", Factor)
        monkeypatch.setattr(zonoid, "_MALLOC_TRIM", lambda pad: events.append(("trim", pad)))
        u, v = self._pair("small-v", cap_u, cap_v)
        G, info = zonoid.design_plateau(u, v, L=self.L)
        assert events[0] == ("trim", 0) and events.count(("trim", 0)) == 1
        monkeypatch.setattr(zonoid, "_MALLOC_TRIM", None)
        G_untrimmed, info_untrimmed = zonoid.design_plateau(u, v, L=self.L)
        assert np.array_equal(G.c, G_untrimmed.c) and info == info_untrimmed

    def test_rotation_peak(self, tmp_path):
        # once the quarter-turn tables of the band are built, a rotation holds
        # its result and a few degree-sized temporaries (30 kB measured)
        u, v = _off_plane_caps(tmp_path)
        G, info = zonoid.design_plateau(u, v)
        frame = np.array(info["design_frame"])
        zonoid._rotate_expansion(G, frame)  # the tables are built by now
        tracemalloc.start()
        try:
            zonoid._rotate_expansion(G, frame)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * G.c.nbytes

    def test_row_tables_are_dropped_before_the_last_fold(self, cap_u, cap_v, monkeypatch):
        # the last fold and the solve (of the coupled fold, after the rim's
        # rows, if any) do not run beside the ring tables
        live, at_solve = weakref.WeakSet(), []

        class Rows(zonoid._DesignRows):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                live.add(self)

        class Factor(zonoid._TriangularFactor):
            def certified_solve(self, floor, rcond):
                at_solve.append(len(live))
                return super().certified_solve(floor, rcond)

        monkeypatch.setattr(zonoid, "_DesignRows", Rows)
        monkeypatch.setattr(zonoid, "_TriangularFactor", Factor)
        for pair in ("rotated", "small-u"):
            zonoid.design_plateau(*self._pair(pair, cap_u, cap_v), L=self.L)
        assert at_solve == [0, 0]

    @pytest.mark.parametrize("pair", ["default", "off-plane"])
    def test_design_caches_no_table_of_its_grid(self, cap_u, cap_v, pair, tmp_path, monkeypatch):
        # the design builds its theta tables on its cap rings, uncached, and
        # reads no per-grid cache, neither for its grid nor for its rotation
        u, v = _off_plane_caps(tmp_path) if pair == "off-plane" else (cap_u, cap_v)
        keys = []
        for name in ("_ring_legendre", "_ring_theta_derivative", "_longitude_tables"):
            real = getattr(harmonics, name)
            monkeypatch.setattr(
                harmonics, name, lambda L, key, real=real: (keys.append(key), real(L, key))[1]
            )
        zonoid.design_plateau(u, v)
        assert keys == []

    @pytest.mark.parametrize(
        "pair,L,message",
        [
            ("default", 12, "even row class has 15 kept nodes for 28 columns at band 12 on the 32x64 design grid"),
            ("rotated", 24, "even row class has 57 kept nodes for 91 columns at band 24 on the 64x128 design grid"),
        ],
        ids=["default", "rotated"],
    )
    def test_design_grid_too_coarse_for_its_band(self, cap_u, cap_v, pair, L, message):
        # caps of height 0.99 hold too few nodes of the band's design grid:
        # a row class with fewer value rows than columns cannot fold its
        # Funk rows from a square value factor, so it is named, with its
        # counts, the band and the derived design grid, before any fold
        tiny = [sphere.Cap(c.center, 0.99) for c in self._pair(pair, cap_u, cap_v)]
        with pytest.raises(ValueError, match=message):
            zonoid.design_plateau(*tiny, L=L)

    @pytest.mark.parametrize("pair", ["default", "off-plane", "band-64"])
    def test_design_solve_is_lstsq_on_a_copy_of_the_factor(self, cap_u, cap_v, pair, tmp_path, monkeypatch):
        # the substitution gives lstsq's minimizer within its conditioning,
        # lstsq's cutoff drops nothing, and the reported bracket holds the
        # SVD's singular-value ratio; at band 64 the ridge bound is too
        # loose and the Frobenius bound certifies the full-rank factor
        solves = []

        class Factor(zonoid._TriangularFactor):
            def certified_solve(self, floor, rcond):
                F = self.folded().copy()
                n = F.shape[1] - 1
                x_ref, _, rank_ref, sv = np.linalg.lstsq(F[:n, :n], F[:n, n], rcond=rcond)
                got = super().certified_solve(floor, rcond)
                solves.append((x_ref, rank_ref, sv[0] / sv[-1], got[0]))
                return got

        monkeypatch.setattr(zonoid, "_TriangularFactor", Factor)
        texts = {"off-plane": OFF_PLANE_CAPS, "band-64": BAND_64_CAPS}
        u, v = _off_plane_caps(tmp_path, texts[pair]) if pair in texts else (cap_u, cap_v)
        _, info = zonoid.design_plateau(u, v, L=64 if pair == "band-64" else 48)
        assert info["design_certificate"] == ("frobenius" if pair == "band-64" else "ridge")
        [(x_ref, rank_ref, kappa, x)] = solves
        eps = np.finfo(float).eps
        assert np.linalg.norm(x - x_ref) <= 10.0 * (kappa + x.size) * eps * np.linalg.norm(x_ref)
        assert rank_ref == info["design_rank"] == info["design_cols"]
        # the lower end is a Rayleigh quotient, exact up to the rounding of
        # sigma_min, which the SVD shares
        assert info["design_sigma_ratio"] <= kappa * (1.0 + 10.0 * kappa * eps)
        assert kappa <= info["design_sigma_ratio_bound"]

    @pytest.mark.parametrize("pair", ["default", "off-plane"])
    def test_ridge_certificate_has_headroom(self, cap_u, cap_v, pair, tmp_path):
        # min |ridge row| / (rcond |R|_F) is 4.2 for both: the off-plane
        # caps are orthogonal and of equal heights, as the default ones, so
        # their adapted frame holds the same design up to rounding; the
        # certificate needs 2, and this asks for twice that
        u, v = _off_plane_caps(tmp_path) if pair == "off-plane" else (cap_u, cap_v)
        _, info = zonoid.design_plateau(u, v)
        rcond = np.finfo(float).eps * max(info["design_rows"], info["design_cols"])
        assert info["design_certificate"] == "ridge"
        assert 1.0 / (rcond * info["design_sigma_ratio_bound"]) >= 2.0 * 2.0

    def test_uncertified_design_raises_and_restores_the_thread_count(self, cap_u, cap_v, monkeypatch):
        # a ridge far too small for the ridge certificate, and a factor
        # taken as singular (an exact zero pivot reads as |R^-1|_F = inf):
        # the design stops with both certificates' numbers, an input error
        # to the CLI; the exception's frames hold the fold buffer, whose
        # mapping goes once the exception is dropped
        get = openblas.library().scipy_openblas_get_num_threads64_
        monkeypatch.setattr(zonoid, "RIDGE", 1e-40)
        monkeypatch.setattr(zonoid, "_inverse_frobenius_norm", lambda R: math.inf)
        made = self._recording_mappings(monkeypatch)
        before = get()
        with pytest.raises(ValueError, match=r"not certified full rank: its ridge certificate .* its Frobenius certificate .* = inf is not below 1/\(4 rcond\)") as raised:
            zonoid.design_plateau(cap_u, cap_v, L=self.L)
        assert get() == before
        [(_, ref)] = made
        assert ref() is not None
        del raised
        gc.collect()
        assert ref() is None

    def test_design_runs_at_one_blas_thread(self, cap_u, cap_v, monkeypatch):
        library = openblas.library()
        get, set_count = library.scipy_openblas_get_num_threads64_, library.scipy_openblas_set_num_threads64_
        inside = []

        class Factor(zonoid._TriangularFactor):
            def certified_solve(self, floor, rcond):
                inside.append(get())
                return super().certified_solve(floor, rcond)

        monkeypatch.setattr(zonoid, "_TriangularFactor", Factor)
        before = get()
        set_count(2)  # where the library has a second thread
        try:
            outer = get()
            zonoid.design_plateau(cap_u, cap_v, L=self.L)
            assert get() == outer
        finally:
            set_count(before)
        assert inside == [1]

    @pytest.mark.parametrize("L,grid_shape", [(12, (32, 64)), (48, (128, 256))])
    @pytest.mark.parametrize("pair", ["default", "off-plane"])
    def test_residuals_match_grid_synthesis(
        self, cap_u, cap_v, pair, L, grid_shape, tmp_path, monkeypatch
    ):
        # the residuals from the ring sums of the value tables against G
        # synthesized on the whole design grid, in the frame it was solved
        # in; the two routes sum in other orders, so they agree to rounding
        # of the values, relative to the plateau levels
        u, v = _off_plane_caps(tmp_path) if pair == "off-plane" else (cap_u, cap_v)
        solved = []
        real = zonoid._rotate_expansion
        monkeypatch.setattr(zonoid, "_rotate_expansion", lambda G, Q: (solved.append(G), real(G, Q))[1])
        assert zonoid.design_grid_shape(L) == grid_shape
        G, info = zonoid.design_plateau(u, v, L=L)
        [G_solved] = solved
        grid = sphere.build_grid(*grid_shape)
        rows = self._design_rows(u, v, L, grid)
        ref = oracles.design_residuals_grid_synthesis(G_solved, grid, rows.nodes, rows.target)
        for key, r in zip(("design_value_residual", "design_funk_residual"), ref):
            assert abs(info[key] - r) <= 1e-12 * np.max(rows.target)

    @staticmethod
    def _design_rows(u, v, L, grid):
        """The rows design_plateau writes for the pair, in the frame it
        solves in."""
        return zonoid._design_rows(u, v, L, grid)[0]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([(32, 64), (33, 64), (64, 128), (128, 256)]))
    def test_mirror_pairing(self, seed, grid_shape):
        # admissible pairs of random heights, angle and frame, in their
        # adapted frame (an odd ring count puts a ring on z = 0)
        rng = np.random.default_rng(seed)
        hu, hv = rng.uniform(0.9, 0.95, size=2)
        ru, rv = math.acos(hu), math.acos(hv)
        a = rng.uniform(ru + rv + 0.6, math.pi - ru - rv - 0.6)
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q = q * np.sign(np.diag(r))
        u = sphere.Cap(q @ E3, hu)
        v = sphere.Cap(q @ np.array([math.sin(a), 0.0, math.cos(a)]), hv)
        harmonics.check_plateau_caps(u, v, 0.3)
        grid = sphere.build_grid(*grid_shape)
        rows = self._design_rows(u, v, 4, grid)
        paired, lone, rim = rows.mirror_roles()
        assert not np.any(paired & lone)
        p, i = rows.partner, np.flatnonzero(paired)
        # an involution without fixed points on the paired nodes
        assert np.all(p[i] != i) and np.array_equal(p[p[i]], i)
        # partners have equal weights and the same row families
        assert rows.sw[p[i]].tobytes() == rows.sw[i].tobytes()
        aniso = np.isin(rows.which, (0, 1))
        assert np.array_equal(aniso[p[i]], aniso[i])
        # the partner is the z-image of the node up to the fold group:
        # (x, y, z) -> (e x, d y, -e z) with e, d = +-1
        x, y = grid.nodes[rows.nodes[i]], grid.nodes[rows.nodes[p[i]]]
        assert np.max(np.abs(np.abs(y) - np.abs(x))) < 1e-15
        assert np.max(np.abs(y[:, 0] * y[:, 2] + x[:, 0] * x[:, 2])) < 1e-15
        # lone nodes are their own partners, on the plane x = 0 or z = 0
        lone_nodes = grid.nodes[rows.nodes[lone]]
        assert np.array_equal(p[lone], np.flatnonzero(lone))
        assert np.all(np.min(np.abs(lone_nodes[:, [0, 2]]), axis=1) < 1e-15)
        # the rim lies in U and V alone
        assert set(rows.which[rim].tolist()) <= {0, 1}

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(0.89, 0.97),
        st.floats(0.89, 0.97),
        st.floats(0.01, 0.99),
        st.one_of(st.none(), st.integers(0, 2**32 - 1)),
        st.sampled_from([(32, 64), (33, 64), (64, 128), (128, 256)]),
    )
    def test_adapted_frame_caps_are_fixed_by_y_alone(self, hu, hv, where, seed, grid_shape):
        # the design folds every pair by y -> -y with no check: in the
        # adapted frame each cap pair's node set is fixed by it, and x -> -x,
        # which maps U onto -V there, never fixes the pairs of U and V.
        # Admissible pairs of any angle, in a random frame or (seed None)
        # in the xz-plane, as the default caps are
        ru, rv = math.acos(hu), math.acos(hv)
        lo, hi = ru + rv + 0.6, math.pi - ru - rv - 0.6
        a = lo + where * (hi - lo)
        q = np.eye(3)
        if seed is not None:
            q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
            q = q * np.sign(np.diag(r))
        u = sphere.Cap(q @ E3, hu)
        v = sphere.Cap(q @ np.array([math.sin(a), 0.0, math.cos(a)]), hv)
        harmonics.check_plateau_caps(u, v, 0.3)
        grid = sphere.build_grid(*grid_shape)
        caps = []  # the caps the rows are built on, in the adapted frame
        with mock.patch.object(zonoid, "_DesignRows", lambda grid, big, L: caps.extend(big)):
            zonoid._design_rows(u, v, 4, grid)
        y = grid.reflection_index()
        lon = (grid.n_phi // 2 - np.arange(grid.n_phi)) % grid.n_phi
        x = (np.arange(grid.n_theta)[:, None] * grid.n_phi + lon).reshape(-1)
        for perm, signs in ((y, [1.0, -1.0, 1.0]), (x, [-1.0, 1.0, 1.0])):
            assert np.max(np.abs(grid.nodes[perm] - grid.nodes * signs)) < 1e-14
        masks = [grid.cap_mask(c) | grid.cap_mask(c.antipodal()) for c in caps]
        assert all(np.any(mask) for mask in masks)
        assert all(np.array_equal(mask[y], mask) for mask in masks)
        assert not any(np.array_equal(mask[x], mask) for mask in masks[:2])

    @pytest.mark.parametrize("pair", ["default", "rotated", "small-u", "small-v"])
    def test_mirror_blocks_keep_the_normal_equations(self, cap_u, cap_v, pair):
        # the blocks' rows, each class's on the columns it stands for, have
        # the Gram matrix [A b]^T [A b] of the unsplit value and anisotropy
        # rows (and so of the Funk rows, the value rows times funk), to
        # rounding; caps of equal heights leave no rim
        grid = sphere.build_grid(*self.GRID)
        rows = self._design_rows(*self._pair(pair, cap_u, cap_v), self.L, grid)
        ncol = rows.ls.size

        def stacked(block):
            n, na = block.n_nodes, block.n_aniso
            local = np.empty((block.cols.size + 1, n + 2 * na))
            block.value_rows(local[:, :n], slice(0, n))
            block.anisotropy_rows(local[:, n : n + na], slice(0, na))
            block.anisotropy_rows(local[:, n + na :], slice(0, na), offdiagonal=True)
            out = np.zeros((ncol + 1, local.shape[1]))
            out[block.cols], out[-1] = local[:-1], local[-1]
            return out

        classes, rim = rows.blocks()
        assert len(classes) == 2
        assert sorted(np.concatenate([c.cols for c in classes]).tolist()) == list(range(ncol))
        assert (rim.n_nodes > 0) == pair.startswith("small")
        split = np.hstack([stacked(b) for b in (*classes, rim)])
        whole = stacked(rows)
        ref = whole @ whole.T
        assert np.max(np.abs(split @ split.T - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("L,grid_shape", [(12, (32, 64)), (48, (128, 256))])
    @pytest.mark.parametrize("pair", ["default", "rotated"])
    def test_rows_match_three_table_oracle(self, cap_u, cap_v, pair, L, grid_shape):
        # value rows bitwise the gather of the cached Legendre table; the
        # anisotropy rows from the ring tables H and K within rounding of
        # the per-node arithmetic on Q, Q' and Q'', row by row
        grid = sphere.build_grid(*grid_shape)
        rows = self._design_rows(*self._pair(pair, cap_u, cap_v), L, grid)
        V_ref, diag_ref, off_ref = oracles.design_rows_three_tables(rows, grid, L)
        ncol, n, na = rows.ls.size, rows.nodes.size, rows.n_aniso
        V = np.empty((ncol + 1, n))
        rows.value_rows(V, slice(0, n))
        assert V.tobytes() == V_ref.tobytes()
        for offdiagonal, ref in ((False, diag_ref), (True, off_ref)):
            got = np.empty((ncol + 1, na))
            rows.anisotropy_rows(got, slice(0, na), offdiagonal=offdiagonal)
            assert not np.any(got[-1])
            # rows that vanish (2 h12 on the phi = 0 meridian) vanish exactly
            scale = np.max(np.abs(ref), axis=0)
            assert np.all(np.max(np.abs(got - ref), axis=0) <= 1e-13 * scale)

    @pytest.mark.parametrize("pair", ["default", "xz", "yz", "rotated", "diagonal"])
    def test_design_frame(self, cap_u, cap_v, pair):
        # every pair is solved in its adapted frame, also the pairs that a
        # coordinate reflection fixes as given
        u, v = self._pair(pair, cap_u, cap_v)
        G, info = zonoid.design_plateau(u, v, L=self.L)
        assert np.array_equal(np.array(info["design_frame"]), zonoid._adapted_frame(u.center, v.center))
        assert not np.any(G.c[G.degrees() % 2 == 1])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.05, math.pi - 0.05))
    def test_adapted_frame(self, seed, a):
        rng = np.random.default_rng(seed)
        u = random_unit(rng)
        w = np.cross(u, random_unit(rng))
        w /= np.linalg.norm(w)
        v = math.cos(a) * u + math.sin(a) * w
        Q = zonoid._adapted_frame(u, v)
        assert np.max(np.abs(Q @ Q.T - np.eye(3))) < 1e-14
        assert abs(np.linalg.det(Q) - 1.0) < 1e-14
        # U and V in the xz-plane at longitude 0, colatitudes pi/2 -+ a/2
        for x, colat in ((Q @ u, math.pi / 2 - a / 2), (Q @ v, math.pi / 2 + a / 2)):
            assert abs(x[1]) < 1e-14 and x[0] > 0.0
            assert abs(math.atan2(math.hypot(x[0], x[1]), x[2]) - colat) < 1e-12
        n = np.cross(u, v)
        assert np.max(np.abs(Q @ (n / np.linalg.norm(n)) - [0.0, 1.0, 0.0])) < 1e-14

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 16), st.integers(0, 2**32 - 1))
    def test_rotated_expansion_is_exact(self, L, seed):
        # G_user(x) = G_frame(Q x) at arbitrary points, for every degree
        rng = np.random.default_rng(seed)
        G = harmonics.HarmonicCoeffs.zeros(L)
        G.c = rng.normal(size=G.c.size)
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        Q = q * np.sign(np.diag(r)) * np.sign(np.linalg.det(q * np.sign(np.diag(r))))
        x = random_unit(rng, 200)
        ref = oracles.synthesize_points(G, x @ Q.T)
        got = oracles.synthesize_points(zonoid._rotate_expansion(G, Q), x)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 40), st.integers(2, 40))
    def test_fold_keeps_one_node_of_every_antipodal_pair(self, n_theta, half_phi):
        # at most one node of every antipodal pair, and one node of every
        # pair or of its mirror image under y -> -y
        grid = sphere.build_grid(n_theta, 2 * half_phi)
        rep, _ = zonoid._orbit_fold(grid)
        keep = rep == np.arange(grid.n_nodes)
        anti = grid.antipode_index()
        assert np.array_equal(np.sort(anti), np.arange(grid.n_nodes))
        assert np.max(np.abs(grid.nodes + grid.nodes[anti])) < 1e-15
        pair = keep | keep[anti]
        assert not np.any(keep & keep[anti])
        assert np.all(pair | pair[grid.reflection_index()])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 40), st.integers(2, 40))
    def test_orbit_fold_keeps_one_node_per_orbit(self, n_theta, half_phi):
        grid = sphere.build_grid(n_theta, 2 * half_phi)
        rep, mult = zonoid._orbit_fold(grid)
        keep = rep == np.arange(grid.n_nodes)
        maps = [
            (grid.antipode_index(), np.array([-1.0, -1.0, -1.0])),
            (grid.reflection_index(), np.array([1.0, -1.0, 1.0])),
        ]
        # each node map is the coordinate sign change it stands for
        for perm, signs in maps:
            assert np.array_equal(np.sort(perm), np.arange(grid.n_nodes))
            assert np.max(np.abs(grid.nodes[perm] - grid.nodes * signs)) < 1e-14
        images = [np.arange(grid.n_nodes)]
        for perm, _ in maps:
            images += [perm[p] for p in images]
        orbits = np.sort(np.array(images), axis=0)
        distinct = np.vstack([np.ones(grid.n_nodes, bool), orbits[1:] != orbits[:-1]])
        assert np.all(np.sum(keep[orbits] & distinct, axis=0) == 1)
        assert np.array_equal(rep, orbits[0])  # the lowest index of the orbit
        assert np.array_equal(mult[keep], np.sum(distinct, axis=0)[keep])
        assert int(np.sum(mult[keep])) == grid.n_nodes

    @pytest.mark.parametrize("shape", [(32, 64), (128, 256), (7, 10)])
    def test_running_minimum_is_the_whole_group_fold(self, shape):
        """The running minimum over the generators gives bitwise the orbit
        representatives and sizes of the whole group's stacked images."""
        grid = sphere.build_grid(*shape)
        got = zonoid._orbit_fold(grid)
        ref = oracles.orbit_fold_by_group(grid)
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_default_build_health(self, counterexample):
        # the default caps are solved in their adapted frame, as every pair
        # is: the solved block is the m >= 0 class of the band-48 even
        # columns, split by the mirror z -> -z into classes of 325 and 300
        d = counterexample.diagnostics
        assert "design_reflections" not in d
        assert d["design_cols"] == 625
        assert d["design_rank"] == 625
        assert d["design_rows"] == 8851
        assert d["design_rim_nodes"] == 0  # U and V have equal heights
        assert 1.0 < d["design_sigma_ratio"] < d["design_sigma_ratio_bound"] < math.inf
        assert d["design_certificate"] == "ridge"
        # its rows pass through the T = 625 + 300 + 2 = 927 row buffer in 19 folds
        assert d["design_folds"] == 19
        assert d["design_buffer_bytes"] == 927 * 626 * 8 == 4642416


def test_design_imports_no_masked_arrays():
    # numpy.ma takes 14-16 ms to import, which np.unique pays on first use;
    # a design, split or not, leaves it unimported in a fresh process
    code = (
        "import sys, numpy as np; from zonotools import sphere, zonoid\n"
        "e = np.eye(3); off = sphere.Cap(np.array([0.3, 0.4, 0.866]) / np.linalg.norm([0.3, 0.4, 0.866]), 0.9)\n"
        "for u, v in ((sphere.Cap(e[2], 0.9), sphere.Cap(e[0], 0.9)), (off, sphere.Cap(e[1], 0.92))):\n"
        "    zonoid.design_plateau(u, v, L=8)\n"
        "print('numpy.ma' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


def _fold_buffer(ncol, block):
    """A fold buffer of ``block`` free rows below an ncol + 1 column factor,
    which starts as a zero triangle."""
    return np.zeros((ncol + 1 + block, ncol + 1), order="F")


def _signed_rows(R):
    """R with each row's sign set so that its diagonal has no sign bit.  QR
    factors of the same rows that differ in a diagonal's sign are the same
    factor.  dtpqrt and np.linalg.qr pick opposite signs for a row whose
    diagonal enters a fold as an exact zero in one and as a rounding-level
    negative number in the other: after three rows on four columns,
    dtpqrt's last diagonal is 0.0 and np.linalg.qr's -9.4e-17."""
    return R * np.where(np.signbit(np.diag(R)), -1.0, 1.0)[:, None]


def _rows_of(Ab):
    """Row writer for ``_TriangularFactor.add``: rows of the array [A | b]."""
    def write(out, k):
        out[...] = Ab[k].T
    return write


class TestTriangularFactor:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(1, 200),
        st.integers(1, 60),
        st.lists(st.integers(1, 80), min_size=1, max_size=6),
        st.integers(0, 2**32 - 1),
    )
    def test_blocks_keep_the_least_squares_problem(self, ncol, n_rows, block, cuts, seed):
        rng = np.random.default_rng(seed)
        Ab = rng.normal(size=(n_rows + ncol, ncol + 1))
        factor = zonoid._TriangularFactor(_fold_buffer(ncol, block))
        oracle = oracles.QRFoldFactor(_fold_buffer(ncol, block))
        edges = np.unique(np.concatenate([[0], np.cumsum(cuts) % Ab.shape[0], [Ab.shape[0]]]))
        for s, e in zip(edges[:-1], edges[1:]):
            factor.add(_rows_of(Ab), s, e)
            oracle.add(_rows_of(Ab), s, e)
        Rq = factor.folded().copy()
        # the QR folds of np.linalg.qr, within Householder QR's backward
        # error: n eps |[A | b]|_F, n the columns, up to row signs
        eps = np.finfo(float).eps
        assert np.linalg.norm(_signed_rows(Rq) - _signed_rows(oracle.folded())) <= (ncol + 1) * eps * np.linalg.norm(Ab)
        assert Rq.shape == (ncol + 1, ncol + 1)
        assert np.allclose(np.triu(Rq), Rq, rtol=0.0, atol=0.0)
        # [A | b] and its factor have the same Gram matrix, hence the same
        # minimizer, singular values and residual norm
        assert np.allclose(Rq.T @ Rq, Ab.T @ Ab, rtol=1e-12, atol=1e-10 * np.sum(Ab * Ab))
        x = np.linalg.lstsq(Rq[:ncol, :ncol], Rq[:ncol, ncol], rcond=None)[0]
        x_ref = np.linalg.lstsq(Ab[:, :ncol], Ab[:, ncol], rcond=None)[0]
        assert np.allclose(x, x_ref, rtol=1e-9, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 90),
        st.integers(0, 200),
        st.integers(1, 100),
        st.floats(-6.0, 1.0),
        st.sampled_from(["ridge", "frobenius", "singular"]),
        st.integers(0, 2**32 - 1),
    )
    def test_solve_is_lstsq_on_a_copy_of_the_factor(self, ncol, n_rows, block, log_floor, case, seed):
        # random rows [B | b] stacked on a random diagonal D, the ridge rows'
        # shape, folded in blocks; over 64 columns the substitution runs in
        # more than one block.  "ridge": D certifies the factor.  Otherwise
        # D is scaled to max |d| = rcond |B|_F / 2, below the ridge
        # certificate's allowance: a tall B ("frobenius") is certified by
        # |R|_F |R^-1|_F, and a B of rank below ncol ("singular") leaves
        # sigma_min(R) <= max |d|, so |R|_F |R^-1|_F >= 2 / rcond, eight
        # times the Frobenius certificate's limit, and the solve raises
        rng = np.random.default_rng(seed)
        eps = np.finfo(float).eps
        if case == "frobenius":
            n_rows += ncol + 2
        if case == "singular":
            rank = min(ncol - 1, n_rows)
            B = rng.normal(size=(n_rows, rank)) @ rng.normal(size=(rank, ncol))
        else:
            B = rng.normal(size=(n_rows, ncol))
        Ab = np.column_stack([B, rng.normal(size=n_rows)])
        d = rng.choice([-1.0, 1.0], size=ncol) * 10.0 ** rng.uniform(log_floor, 1.0, size=ncol)
        rcond = eps * max(n_rows + ncol, ncol)
        if case != "ridge":
            d *= 0.5 * rcond * np.linalg.norm(B) / np.max(np.abs(d))
        diag = np.column_stack([np.diag(d), np.zeros(ncol)])
        factor = zonoid._TriangularFactor(_fold_buffer(ncol, block))
        factor.add(_rows_of(np.vstack([Ab, diag])), 0, n_rows + ncol)
        F = factor.folded().copy()
        floor = float(np.min(np.abs(d)))
        if case == "singular":
            with pytest.raises(ValueError, match=r"not certified full rank: its ridge certificate needs 2 rcond \|R\|_F < min \|ridge row\|.* its Frobenius certificate needs 4 rcond \|R\|_F \|R\^-1\|_F < 1"):
                factor.certified_solve(floor, rcond)
            return
        x, ratio, bound, certificate = factor.certified_solve(floor, rcond)
        assert certificate == case
        assert factor.folded().tobytes() == F.tobytes()  # read where it sits, not written
        R, q = F[:ncol, :ncol], F[:ncol, ncol]
        sv = np.linalg.svd(R, compute_uv=False)
        kappa = sv[0] / sv[-1]
        x_ref, _, rank_ref, _ = np.linalg.lstsq(R, q, rcond=rcond)
        assert rank_ref == ncol  # the cutoff drops nothing
        # the same minimizer within 10 kappa eps, plus 10 eps per column for
        # lstsq's own rounding, which dominates near kappa = 1 (38 eps at
        # kappa 1.4 in 3000 draws; in one draw at kappa 1.03 lstsq was 32 eps
        # and the substitution 0.3 eps from the exact rational solution)
        tol = 10.0 * (kappa + ncol) * eps
        assert np.linalg.norm(x - x_ref) <= tol * np.linalg.norm(x_ref)
        # the forward substitution with R^T, which the power steps use
        y, y_ref = zonoid._triangular_solve(R, q, transpose=True), np.linalg.solve(R.T, q)
        assert np.linalg.norm(y - y_ref) <= tol * np.linalg.norm(y_ref)
        # the bracket holds the SVD's ratio, to the rounding of sigma_min
        # (and, for |R|_F |R^-1|_F, which is kappa itself at one column, of
        # the inverse)
        assert ratio <= kappa * (1.0 + 10.0 * kappa * eps) and kappa <= bound * (1.0 + 10.0 * ncol * eps)
        if case == "frobenius":
            R_inv = np.linalg.inv(R)
            assert bound == pytest.approx(np.linalg.norm(R) * np.linalg.norm(R_inv), rel=1e-6)

    # (rows per add call, results taken after these calls): one fold of a
    # part-full buffer; several folds of a full one, with a result taken
    # between them; a fold of fewer than ncol + 1 rows, and then more rows
    # folded onto it; two folds that together stay short of ncol + 1 rows.
    # Every fold is dtpqrt's onto the standing triangle, a zero one at
    # first, and its result is the (ncol + 1)-square factor, exactly zero
    # below its diagonal; it agrees with np.linalg.qr's at the same fold
    # points, up to row signs, within Householder QR's backward error,
    # n eps |[A | b]|_F of the rows so far (at most 0.03 of it observed).
    # The factor of r < ncol + 1 rows has rank r, so its rows from r on are
    # zero but for rounding: dtpqrt's reflectors of the columns from r on
    # act on what rounding leaves of the new rows.  That rounding grows
    # with the conditioning of the rows; for these Gaussian ones (sigma
    # ratio at most 2.6) it is within the same bound (0.06 of it observed).
    @pytest.mark.parametrize(
        "adds,results",
        [
            ([300], ()),
            ([700, 900, 260], (1,)),
            ([25], (0,)),
            ([25, 10, 2000], (0, 1)),
            ([1, 24], (0,)),
        ],
        ids=["one-fold", "several-folds", "short-fold", "short-then-more", "short-twice"],
    )
    def test_matches_the_qr_fold_bitwise(self, adds, results):
        ncol, block = 160, 256
        Ab = np.random.default_rng(5).normal(size=(sum(adds), ncol + 1))
        factor = zonoid._TriangularFactor(_fold_buffer(ncol, block))
        oracle = oracles.QRFoldFactor(_fold_buffer(ncol, block))
        eps = np.finfo(float).eps

        def check(rows):
            got, ref = factor.folded(), oracle.folded()
            tol = (ncol + 1) * eps * np.linalg.norm(Ab[:rows])
            assert got.shape == (ncol + 1, ncol + 1)
            assert not np.any(np.tril(got, -1))
            assert np.linalg.norm(got[rows:]) <= tol
            assert np.linalg.norm(_signed_rows(got) - _signed_rows(ref)) <= tol

        start = 0
        for i, n in enumerate(adds):
            factor.add(_rows_of(Ab), start, start + n)
            oracle.add(_rows_of(Ab), start, start + n)
            start += n
            if i in results:
                check(start)
        check(start)

    def test_corner_of_a_larger_buffer(self):
        # a factor in a corner of a larger Fortran buffer, whose leading
        # dimension exceeds its rows, folds and solves bitwise as in a
        # buffer of its own and writes nothing outside its corner, whose
        # top ncol + 1 rows start as a zero triangle
        ncol, block, k = 160, 256, 37
        rows = np.random.default_rng(7).normal(size=(700, ncol + 1))
        Ab = np.vstack([rows, np.column_stack([0.1 * np.eye(ncol), np.zeros(ncol)])])
        big = np.full((ncol + 1 + block + k, ncol + 1 + k), 7.0, order="F")
        big[k : k + ncol + 1, k:] = 0.0
        factors = [zonoid._TriangularFactor(big[k:, k:]), zonoid._TriangularFactor(_fold_buffer(ncol, block))]
        for factor in factors:
            factor.add(_rows_of(Ab), 0, Ab.shape[0])
        assert factors[0].folded().tobytes() == factors[1].folded().tobytes()
        # by either certificate: a floor of 1e-20 leaves it to |R|_F |R^-1|_F
        for floor in (0.1, 1e-20):
            got, ref = (f.certified_solve(floor, 1e-12) for f in factors)
            assert got[0].tobytes() == ref[0].tobytes() and got[1:] == ref[1:]
            assert got[3] == ("ridge" if floor == 0.1 else "frobenius")
        assert np.all(big[:k] == 7.0) and np.all(big[:, :k] == 7.0)

    OPENBLAS_SYMBOLS = {
        "dtpqrt": "scipy_dtpqrt_64_",
        "dtrtrs": "scipy_dtrtrs_64_",
        "get-threads": "scipy_openblas_get_num_threads64_",
        "set-threads": "scipy_openblas_set_num_threads64_",
    }

    @pytest.mark.parametrize("missing", list(OPENBLAS_SYMBOLS.values()), ids=list(OPENBLAS_SYMBOLS))
    def test_import_names_a_missing_lapack_routine(self, missing, cap_u, cap_v, monkeypatch):
        # against a library with every symbol the design calls but one,
        # the OpenBLAS module, loaded afresh as a module of its own, imports,
        # and the first design through it names the missing symbol
        real = ctypes.CDLL(np._core._multiarray_umath.__file__)
        stub = types.SimpleNamespace(
            **{name: real[name] for name in self.OPENBLAS_SYMBOLS.values() if name != missing}
        )
        monkeypatch.setattr(ctypes, "CDLL", lambda path: stub)
        spec = importlib.util.find_spec("zonotools.openblas")
        fresh = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fresh)
        monkeypatch.setattr(zonoid, "openblas", fresh)
        with pytest.raises(ImportError, match=rf"needs {missing} from the OpenBLAS that numpy bundles, which numpy {re.escape(np.__version__)} "):
            zonoid.design_plateau(cap_u, cap_v, L=12)


class TestRigidity:
    def test_ball(self, grid, cap_u):
        c = harmonics.HarmonicCoeffs.zeros(4)
        c.set(0, 0, 1.3 * math.sqrt(4 * math.pi))
        spec = zonoid.make_zonoid(
            transforms.SphericalFunction.from_coeffs(grid, c)
        )
        rep = zonoid.verify_local_rigidity(spec, cap_u)
        assert abs(rep.c - 2 * math.pi * 1.3) < 1e-10
        assert np.linalg.norm(rep.a) < 1e-10
        assert rep.affine_residual < 1e-10
        assert rep.funk_residual < 1e-10

    def test_anisotropic_density_fails_fit(self, grid, cap_v):
        c = harmonics.HarmonicCoeffs.zeros(8)
        c.set(0, 0, math.sqrt(4 * math.pi))
        c.set(2, 0, 0.3 * math.sqrt(4 * math.pi))
        vals = harmonics.synthesize_grid(c, grid)
        if vals.min() <= 0:
            c.set(0, 0, c.get(0, 0) + (abs(vals.min()) + 0.1) * math.sqrt(4 * math.pi))
        spec = zonoid.make_zonoid(
            transforms.SphericalFunction.from_coeffs(grid, c)
        )
        rep = zonoid.verify_local_rigidity(spec, cap_v)
        assert rep.affine_residual > 1e-4
        assert rep.funk_residual > 1e-4

    @settings(max_examples=40, deadline=None)
    @given(
        L=st.integers(0, 24),
        height=st.floats(0.05, 0.95),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_funk_fit_matches_point_route(self, small_grid, L, height, seed):
        """The Funk constant and residual on a cap, from the grid synthesis
        of R(g), match R(g) synthesized point by point at the cap's nodes."""
        rng = np.random.default_rng(seed)
        cap = sphere.Cap(random_unit(rng), height)
        mask = small_grid.cap_mask(cap)
        assume(np.any(mask))
        c = random_even_coeffs(L, rng)
        # |Y_l part| <= sqrt((2l+1)/(4 pi)) |c_l| (addition theorem), so
        # this constant keeps g >= 1 everywhere, between the nodes too
        bound = sum(
            math.sqrt((2 * l + 1) / (4 * math.pi)) * np.linalg.norm(c.degree_slice(l))
            for l in range(2, L + 1, 2)
        )
        c.set(0, 0, (1.0 + bound) * math.sqrt(4 * math.pi))
        spec = zonoid.make_zonoid(transforms.SphericalFunction.from_coeffs(small_grid, c))
        rep = zonoid.verify_local_rigidity(spec, cap)
        lam = harmonics.multiplier_table("funk", L)
        r = oracles.synthesize_points(harmonics.apply_multipliers(c, lam), small_grid.nodes)
        scale = float(np.max(np.abs(r)))
        r_cap = r[mask]
        assert abs(rep.funk_constant - np.mean(r_cap)) <= 1e-13 * scale
        assert abs(rep.funk_residual - np.max(np.abs(r_cap - np.mean(r_cap)))) <= 1e-13 * scale


def _circle_stack(rng, S, m):
    """(S, m) circle samples: positive rows, sign-changing rows and, now
    and then, a row that vanishes."""
    values = rng.normal(size=(S, m)) + rng.choice([0.0, 4.0], size=(S, 1))
    if rng.random() < 0.2:
        values[int(rng.integers(0, S))] = 0.0
    return values


@settings(max_examples=60, deadline=None)
@given(
    S=st.integers(1, 8),
    m=st.sampled_from([8, 64, 97, 256]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_reports_match_one_circle_reports(S, m, seed):
    """Every row of isotropy_gap_stack and transforms.isotropy_tensors is
    bitwise its one-circle report (a stack of one row), whose sums are the
    stack's row by row; f1, f2 and the mass match their oracles."""
    rng = np.random.default_rng(seed)
    values = _circle_stack(rng, S, m)
    normals = random_unit(rng, S).reshape(S, 3)
    stack = zonoid.isotropy_gap_stack(values)
    T, dev = transforms.isotropy_tensors(values)
    assert np.array_equal(dev, stack["dev"])
    for s in range(S):
        one = zonoid.isotropy_gap_stack(values[s : s + 1])
        rep = {key: float(x[0]) for key, x in one.items()}
        assert rep == {key: float(x[s]) for key, x in stack.items()}
        T1, dev1 = transforms.isotropy_tensors(values[s : s + 1])
        assert T1[0].tobytes() == T[s].tobytes() and dev1[0] == dev[s]
        o1, o2 = oracles.weil_densities_kernel(values[s])
        scale = (2.0 * np.pi / m * np.sum(np.abs(values[s]))) ** 2
        assert abs(rep["f1"] ** 2 - o1**2) <= 1e-13 * scale
        assert abs(rep["f2"] - o2) <= 1e-13 * scale
        mass = oracles.circle_fourier_mass(None, normals[s], m=m, values=values[s])
        assert abs(rep["mass"] - mass) <= 1e-13 * scale
    assert np.all(stack["dev"][~np.any(values, axis=1)] == 0.0)
    assert np.all(stack["gap"][~np.any(values, axis=1)] == 0.0)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(-20, 20),
    m=st.sampled_from([64, 97, 256]),
    seed=st.integers(0, 2**32 - 1),
)
def test_isotropy_measures_are_scale_free(k, m, seed):
    """The deviation and the gap of a positive circle density with order-2
    content do not change when the density is scaled by 10^k."""
    rng = np.random.default_rng(seed)
    a = 2.0 * np.pi * np.arange(m) / m
    g = 2.0 + rng.uniform(0.5, 1.5) * np.cos(2.0 * a + rng.uniform(0, 2 * np.pi))
    for order in (1, 3, 4):
        g += 0.1 * rng.normal() * np.cos(order * a + rng.uniform(0, 2 * np.pi))
    ref = zonoid.isotropy_gap_stack(g[None])
    got = zonoid.isotropy_gap_stack(10.0**k * g[None])
    for key in ("dev", "gap"):
        assert abs(got[key][0] - ref[key][0]) <= 1e-12 * ref[key][0]
