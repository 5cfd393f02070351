import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zonotools import cli, convex, harmonics, sphere, transforms, zonoid

import oracles
from conftest import random_density, random_even_coeffs, random_unit

E3 = np.array([0.0, 0.0, 1.0])


def _oracle_design_rows(grid, caps, L, anisotropy_caps):
    """Unfolded, per-column design rows: every cap node, both antipodes,
    and the Funk rows by the Hessian route (trace of the radii matrix)."""
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
    P, dP, d2P = oracles.legendre_theta_tables(L, t)
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
    aniso_mask = np.isin(which, anisotropy_caps)
    return even_lm, which, wts, Bval, Bfunk, Ban1[aniso_mask], Ban2[aniso_mask], aniso_mask


def _oracle_design_plateau(cap_u, cap_v, L, design_grid, levels=(1.0, 2.0, 3.0),
                           cap_margin=0.01, ridge=1e-12):
    """design_plateau's least-squares problem on the unfolded oracle rows."""
    third_center = np.cross(cap_u.center, cap_v.center)
    third = sphere.Cap(third_center / np.linalg.norm(third_center), cap_u.height)
    big = [sphere.Cap(c.center, max(c.height - cap_margin, 0.5)) for c in (cap_u, cap_v, third)]
    even_lm, which, wts, Bval, Bfunk, Ban1, Ban2, aniso_mask = _oracle_design_rows(
        sphere.build_grid(*design_grid), big, L, anisotropy_caps=(0, 1)
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

    def test_double_angle_tables_cached_and_read_only(self):
        c2, s2 = zonoid._double_angle_tables(64)
        assert zonoid._double_angle_tables(64)[0] is c2
        for arr in (c2, s2):
            assert not arr.flags.writeable
        two_a = 4.0 * np.pi * np.arange(64) / 64
        assert np.array_equal(c2, np.cos(two_a)) and np.array_equal(s2, np.sin(two_a))

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
        stored = harmonics.synthesize_points(spec.h.coeffs, targets)
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
        rep = zonoid.isotropy_gap_report(spec, u)
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
                f1 = zonoid.isotropy_gap_report(spec, u)["f1"]
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
                rep = zonoid.isotropy_gap_report(spec, u)
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
    rep = zonoid.isotropy_gap_report(spec, u, m=m)
    f1, f2 = rep["f1"], rep["f2"]
    o1, o2 = oracles.weil_densities_kernel(
        harmonics.synthesize_points(spec.g.coeffs, sphere.great_circle(u, m).nodes)
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
        rep = zonoid.isotropy_gap_report(spec, random_unit(np.random.default_rng(6)))
        assert rep["dev"] < 1e-14
        assert rep["gap"] < 1e-13

    def test_gap_equals_squared_degree_two_mass(self, grid):
        g = random_density(grid, 12, np.random.default_rng(7))
        spec = zonoid.make_zonoid(g)
        u = random_unit(np.random.default_rng(8))
        rep = zonoid.isotropy_gap_report(spec, u)
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
        rep = zonoid.isotropy_gap_report(spec, E3)
        assert rep["dev"] > 1e-3
        assert rep["gap"] > 1e-6

    def test_reads_one_circle_sample(self, grid):
        g = random_density(grid, 12, np.random.default_rng(9))
        spec = zonoid.make_zonoid(g)
        u = random_unit(np.random.default_rng(10))
        rep = zonoid.isotropy_gap_report(spec, u, m=128)
        assert rep["dev"] == transforms.section_isotropy_tensor(spec.g, u, m=128).deviation
        given = transforms.circle_samples(spec.g.coeffs.c, u, 128)
        f1, f2 = zonoid._weil_densities(given[None])
        assert rep["f1"] == f1[0] and rep["f2"] == f2[0]
        mass = oracles.circle_fourier_mass(spec.g, u, degree=2, m=128)
        assert rep["mass"] == pytest.approx(mass, rel=1e-12, abs=0.0)
        assert zonoid.isotropy_gap_report(None, u, m=128, values=given) == rep
        with pytest.raises(ValueError, match="128 circle samples"):
            zonoid.isotropy_gap_report(None, u, m=128, values=given[:-1])

    @pytest.fixture(scope="class")
    def suite_calls(self):
        # one default suite run, counting the expansions synthesized on the
        # grid, the analyses, Legendre series and support builds, and the
        # points of every call into the point-synthesis kernel
        calls = {"grid_rows": 0, "analyze": 0, "legval": 0, "from_coeffs": 0,
                 "kernel_points": []}

        def counting(name, real):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapped

        def grid_rows(real):
            def wrapped(Ac, As, grid, work=None):
                calls["grid_rows"] += Ac.shape[0]
                return real(Ac, As, grid, work)
            return wrapped

        def kernel(real):
            def wrapped(Ac, As, t, phi):
                calls["kernel_points"].append(t.size)
                return real(Ac, As, t, phi)
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
            mp.setattr(harmonics, "_synthesize_grid_rows", grid_rows(harmonics._synthesize_grid_rows))
            mp.setattr(harmonics, "_synthesize_on", kernel(harmonics._synthesize_on))
            rows = cli.suite_isotropy_gap(ctx)
        return rows, calls

    def test_suite_synthesizes_each_circle_once(self, suite_calls):
        # each case's circle and grid values are synthesized once: 200
        # circles of 2L + 2 = 26 nodes, which fix a band-12 circle, reach the
        # kernel in batches of whole circles, and are resampled to m nodes
        rows, calls = suite_calls
        assert cli.RunConfig().circle_m > 26
        assert all(row["pass"] for row in rows)
        assert sum(calls["kernel_points"]) == 200 * 26
        assert all(n % 26 == 0 for n in calls["kernel_points"])
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
        # the stacked suite against one isotropy_gap_report per case, read
        # as the suite read them before it worked on stacks
        rows, _ = suite_calls
        ctx = cli.RunContext(cli.RunConfig())
        coeffs, directions, _, isotropic = cli._isotropy_corpus(ctx)
        tols = cli.TOLERANCES
        equiv_ok, worst = True, 0.0
        for c, u, iso in zip(coeffs, directions, isotropic):
            rep = zonoid.isotropy_gap_report(
                None, u, m=256, values=transforms.circle_samples(c, u, 256)
            )
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
        circles = sphere.great_circle(directions[:100], 64)
        values = harmonics.synthesize_stacked(coeffs[:100], circles.nodes)
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
            rep = zonoid.isotropy_gap_report(counterexample_spec, u)
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
        per_circle = max(transforms.section_isotropy_tensor(g, u).deviation for u in samples)
        assert got["isotropy_max_dev"] == pytest.approx(per_circle, rel=1e-12, abs=0.0)

    def test_grid_values_come_from_grid_synthesis(self, grid, cap_u, cap_v, monkeypatch):
        # the cap values of C(g) and R(g), in the build and in the rigidity
        # fit, are read off the grid synthesis: no point synthesis at all
        calls = []

        def counting(real):
            def wrapped(*args, **kwargs):
                calls.append(real.__name__)
                return real(*args, **kwargs)
            return wrapped

        for name in ("synthesize_points", "synthesize_stacked", "_synthesize_on"):
            monkeypatch.setattr(harmonics, name, counting(getattr(harmonics, name)))
        res = zonoid.build_counterexample(cap_u, cap_v, grid, L=48, transition=0.3)
        zonoid.verify_local_rigidity(zonoid.make_zonoid(res.g), cap_u)
        assert calls == []

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

    L, GRID = 12, (32, 64)
    ANGLE = 1.55  # inside the admissible window for heights 0.9 and transition 0.3

    # reflections the fold may use, and the size of the invariant column class
    # at L = 12 (91 even columns in all)
    SYMMETRY = {
        "default": (["x", "y"], 28),
        "xz": (["y"], 49),
        "yz": (["x"], 49),
        # no coordinate reflection fixes these pairs as given (for the
        # diagonal one, x -> -x maps U onto -V and y -> -y maps U onto V,
        # swapping cap pairs with different levels), so they are solved in
        # their adapted frame, where the reflection through span(U, V) is
        # y -> -y
        "rotated": (["y"], 49),
        "diagonal": (["y"], 49),
    }

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
        return (
            sphere.Cap(q @ E3, 0.9),
            sphere.Cap(q @ np.array([math.sin(a), 0.0, math.cos(a)]), 0.9),
        )

    def _oracle_in_design_frame(self, u, v, info, ridge=1e-12):
        """The unfolded oracle on the caps rotated into the frame the design
        solved in, its G mapped back to the user frame the same way, its
        singular values, and the rotated caps."""
        Q = np.array(info["design_frame"])
        fu, fv = (sphere.Cap(Q @ c.center, c.height) for c in (u, v))
        G_ref, _, sv = _oracle_design_plateau(fu, fv, self.L, self.GRID, ridge=ridge)
        return zonoid._rotate_expansion(G_ref, Q), sv, fu, fv

    def _solved_block_singular_values(self, u, v, ridge):
        third = np.cross(u.center, v.center)
        caps = [u, v, sphere.Cap(third / np.linalg.norm(third), u.height)]
        big = [sphere.Cap(c.center, max(c.height - 0.01, 0.5)) for c in caps]
        rows = zonoid._DesignRows(sphere.build_grid(*self.GRID), big, self.L, anisotropy_caps=(0, 1))
        V = rows.value_rows(slice(None))
        lam = harmonics.multiplier_table("cosine", self.L)
        AT = np.hstack([
            V,
            V * rows.funk[:, None],
            rows.anisotropy_rows(slice(None)),
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
        ],
    )
    def test_matches_unfolded_oracle(self, cap_u, cap_v, pair, ridge):
        u, v = self._pair(pair, cap_u, cap_v)
        harmonics.check_plateau_caps(u, v, 0.3)
        G, info = zonoid.design_plateau(u, v, L=self.L, design_grid=self.GRID, ridge=ridge)
        G_ref, sv, fu, fv = self._oracle_in_design_frame(u, v, info, ridge=ridge)
        assert np.max(np.abs(G.c - G_ref.c)) <= 1e-9 * np.max(np.abs(G_ref.c))
        reflections, n_invariant = self.SYMMETRY[pair]
        assert info["design_reflections"] == reflections
        assert info["design_cols"] == n_invariant == info["design_rank"]
        # the solved block is the invariant block of the unfolded system
        for s in self._solved_block_singular_values(fu, fv, ridge):
            assert np.min(np.abs(sv - s)) <= 1e-9 * s

    @pytest.mark.parametrize("pair", ["default", "rotated"])
    def test_small_blocks_match_unfolded_oracle(self, cap_u, cap_v, pair, monkeypatch):
        # blocks and node chunks far smaller than the system, so the rows
        # pass through many QR folds and the value rows' factor is split
        monkeypatch.setattr(zonoid, "DESIGN_BLOCK_ROWS", 37)
        monkeypatch.setattr(zonoid, "DESIGN_CHUNK_NODES", 50)
        u, v = self._pair(pair, cap_u, cap_v)
        G, info = zonoid.design_plateau(u, v, L=self.L, design_grid=self.GRID)
        G_ref, sv, fu, fv = self._oracle_in_design_frame(u, v, info)
        assert np.max(np.abs(G.c - G_ref.c)) <= 1e-9 * np.max(np.abs(G_ref.c))
        assert info["design_rank"] == info["design_cols"]
        for s in self._solved_block_singular_values(fu, fv, 1e-12)[[0, -1]]:
            assert np.min(np.abs(sv - s)) <= 1e-9 * s

    @pytest.mark.parametrize("pair", ["default", "xz", "yz", "rotated", "diagonal"])
    def test_design_frame(self, cap_u, cap_v, pair):
        u, v = self._pair(pair, cap_u, cap_v)
        G, info = zonoid.design_plateau(u, v, L=self.L, design_grid=self.GRID)
        Q = np.array(info["design_frame"])
        if pair in ("default", "xz", "yz"):
            # a coordinate reflection already fixes the pair as given
            assert np.array_equal(Q, np.eye(3))
        else:
            assert np.array_equal(Q, zonoid._adapted_frame(u.center, v.center))
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
        ref = harmonics.synthesize_points(G, x @ Q.T)
        got = harmonics.synthesize_points(zonoid._rotate_expansion(G, Q), x)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 40), st.integers(2, 40))
    def test_fold_keeps_one_node_of_every_antipodal_pair(self, n_theta, half_phi):
        grid = sphere.build_grid(n_theta, 2 * half_phi)
        keep, _ = zonoid._orbit_fold(grid)
        anti = grid.antipode_index()
        assert np.array_equal(np.sort(anti), np.arange(grid.n_nodes))
        assert np.all(keep != keep[anti])
        assert np.max(np.abs(grid.nodes + grid.nodes[anti])) < 1e-15

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 40),
        st.integers(2, 40),
        st.sets(st.sampled_from(["x", "y"])).map(sorted),
    )
    def test_orbit_fold_keeps_one_node_per_orbit(self, n_theta, half_phi, reflections):
        grid = sphere.build_grid(n_theta, 2 * half_phi)
        keep, mult = zonoid._orbit_fold(grid, reflections)
        maps = [(grid.antipode_index(), np.array([-1.0, -1.0, -1.0]))]
        for a in reflections:
            maps.append((grid.reflection_index(a), np.where(np.array(["x", "y", "z"]) == a, -1.0, 1.0)))
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
        assert np.array_equal(mult[keep], np.sum(distinct, axis=0)[keep])
        assert int(np.sum(mult[keep])) == grid.n_nodes
        if not reflections:
            assert np.array_equal(keep, np.arange(grid.n_nodes) < grid.antipode_index())

    def test_default_build_health(self, counterexample):
        # the default caps are fixed by both coordinate reflections, so the
        # solved block is the (cos, even m) class of the band-48 even columns
        d = counterexample.diagnostics
        assert d["design_reflections"] == ["x", "y"]
        assert d["design_cols"] == 325
        assert d["design_rank"] == 325
        assert d["design_rows"] == 7089
        assert math.isfinite(d["design_sigma_ratio"]) and d["design_sigma_ratio"] > 1.0


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
        A = rng.normal(size=(n_rows + ncol, ncol))
        b = rng.normal(size=A.shape[0])
        factor = zonoid._TriangularFactor(ncol, block)
        edges = np.unique(np.concatenate([[0], np.cumsum(cuts) % A.shape[0], [A.shape[0]]]))
        for s, e in zip(edges[:-1], edges[1:]):
            factor.add(A[s:e].T, b[s:e])
        Rq = factor.result()
        assert Rq.shape == (ncol + 1, ncol + 1)
        assert np.allclose(np.triu(Rq), Rq, rtol=0.0, atol=0.0)
        # [A | b] and its factor have the same Gram matrix, hence the same
        # minimizer, singular values and residual norm
        Ab = np.column_stack([A, b])
        assert np.allclose(Rq.T @ Rq, Ab.T @ Ab, rtol=1e-12, atol=1e-10 * np.sum(Ab * Ab))
        x = np.linalg.lstsq(Rq[:ncol, :ncol], Rq[:ncol, ncol], rcond=None)[0]
        x_ref = np.linalg.lstsq(A, b, rcond=None)[0]
        assert np.allclose(x, x_ref, rtol=1e-9, atol=1e-9)


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
        r = harmonics.synthesize_points(harmonics.apply_multipliers(c, lam), small_grid.nodes)
        scale = float(np.max(np.abs(r)))
        r_cap = r[mask]
        assert abs(rep.funk_constant - np.mean(r_cap)) <= 1e-13 * scale
        assert abs(rep.funk_residual - np.max(np.abs(r_cap - np.mean(r_cap)))) <= 1e-13 * scale

    def test_json_payload(self, grid, cap_u):
        import json

        c = harmonics.HarmonicCoeffs.zeros(2)
        c.set(0, 0, math.sqrt(4 * math.pi))
        spec = zonoid.make_zonoid(
            transforms.SphericalFunction.from_coeffs(grid, c)
        )
        rep = zonoid.verify_local_rigidity(spec, cap_u)
        data = json.loads(rep.to_json())
        assert set(data) >= {"c", "a", "affine_residual", "funk_constant", "funk_residual"}


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
    bitwise its one-circle report, whose sums are the stack's row by row;
    f1, f2 and the mass match their oracles."""
    rng = np.random.default_rng(seed)
    values = _circle_stack(rng, S, m)
    normals = random_unit(rng, S).reshape(S, 3)
    stack = zonoid.isotropy_gap_stack(values)
    T, dev = transforms.isotropy_tensors(values)
    assert np.array_equal(dev, stack["dev"])
    for s in range(S):
        rep = zonoid.isotropy_gap_report(None, normals[s], m=m, values=values[s])
        assert rep == {key: float(x[s]) for key, x in stack.items()}
        iso = transforms.section_isotropy_tensor(None, normals[s], m=m, values=values[s])
        assert iso.T.tobytes() == T[s].tobytes() and iso.deviation == dev[s]
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
