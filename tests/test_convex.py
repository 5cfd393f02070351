import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from zonotools import convex, harmonics, sphere, transforms

import oracles
from conftest import random_unit

E3 = np.array([0.0, 0.0, 1.0])


def first_density(h):
    """First area density (q11 + q22)/2 at every node, from the radii the
    body carries."""
    q11, q22, _, _, _ = h.radii
    return 0.5 * (q11 + q22)


def ellipsoid_support_function(grid, axes=(1.0, 1.0, 2.0), L=48):
    h = oracles.ellipsoid_support(list(axes))
    return convex.SupportFunction.from_coeffs(grid, harmonics.analyze(grid, h(grid.nodes), L))


class TestRadii:
    def test_ball(self, grid):
        ball = convex.SupportFunction.ball(grid, 2.5)
        rm = oracles.radii(ball, E3)
        assert abs(rm.r1 - 2.5) < 1e-12 and abs(rm.r2 - 2.5) < 1e-12
        assert_allclose(rm.Q, 2.5 * np.eye(2), atol=1e-12)

    def test_translate_has_ball_radii(self, grid):
        # linear terms have zero tangential Hessian
        c = harmonics.HarmonicCoeffs.zeros(2)
        c.set(0, 0, math.sqrt(4 * math.pi))
        c.set(1, 0, 0.3 * math.sqrt(4 * math.pi / 3))
        h = convex.SupportFunction.from_coeffs(grid, c)
        for u in (E3, np.array([1.0, 0.0, 0.0]), random_unit(np.random.default_rng(0))):
            rm = oracles.radii(h, u)
            assert abs(rm.r1 - 1.0) < 1e-12 and abs(rm.r2 - 1.0) < 1e-12

    def test_ellipsoid_at_pole_against_curvature_oracle(self, grid):
        ell = ellipsoid_support_function(grid)
        rm = oracles.radii(ell, E3)
        oracle = oracles.ellipsoid_radii_oracle([1.0, 1.0, 2.0], E3)
        # pole of (1,1,2): radii a^2/c = 1/2
        assert_allclose(oracle, [0.5, 0.5], atol=1e-14)
        assert abs(rm.r1 - 0.5) < 1e-6 and abs(rm.r2 - 0.5) < 1e-6

    def test_ellipsoid_generic_direction_oracle(self, grid):
        ell = ellipsoid_support_function(grid)
        u = random_unit(np.random.default_rng(1))
        rm = oracles.radii(ell, u)
        oracle = oracles.ellipsoid_radii_oracle([1.0, 1.0, 2.0], u)
        assert_allclose(sorted([rm.r1, rm.r2]), oracle, atol=1e-6)

    def test_grid_route_matches_point_route(self, grid):
        rng = np.random.default_rng(2)
        h = convex.random_support_function(grid, rng)
        _, _, _, r1, r2 = convex.radii_grid(h.coeffs, grid)
        for idx in (3, 801, 4477, 8001):
            rm = oracles.radii(h, grid.nodes[idx])
            assert abs(min(rm.r1, rm.r2) - r1[idx]) < 1e-10
            assert abs(max(rm.r1, rm.r2) - r2[idx]) < 1e-10

    @pytest.mark.parametrize("L", [6, 8, 24, 48])
    def test_derivative_fields_match_per_field_contraction(self, grid, L):
        """The unrotated ring route's h, ∂θh and ∂φh on the grid's rings, which
        boundary_points_grid reads, against the per-field contraction; the
        two sum in different orders, and at band 48 the partials differ by
        about 3e-13 of max|h|."""
        c = harmonics.HarmonicCoeffs.zeros(L)
        c.c = np.random.default_rng(L).normal(size=c.c.size)
        got = harmonics.ring_samples(c.c, None, grid.cos_theta, grid.n_phi, derivatives=True)
        h, ht, _, hp, _, _ = oracles.derivative_fields_per_field(c, grid)
        for a, b in zip(got, (h, ht, hp)):
            assert a.shape == (1, grid.n_theta, grid.n_phi)
            assert np.max(np.abs(a.reshape(-1) - b)) <= 1e-12 * np.max(np.abs(h))

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from([(2, 4), (5, 7), (64, 128), (128, 256)]),
        L=st.integers(0, 48),
        zeros=st.sampled_from(["none", "odd", "even", "random", "all"]),
        seed=st.integers(0, 2**32 - 1),
    )
    # pure degree 1: every radius is 0, exactly so here and 5.6e-17 in the
    # oracle, so a bound relative to the radii alone would be 0
    @example(shape=(2, 4), L=1, zeros="even", seed=0)
    def test_radii_grid_matches_six_field_route(self, shape, L, zeros, seed):
        """The ring-scaled tables give the six-field route's entries and
        eigenvalues to rounding, with odd, even, scattered or all degrees
        zero.  Rounding is measured against the largest radius, with a floor
        at the coefficients' scale for expansions whose radii (nearly)
        cancel."""
        grid = _cached_grid(*shape)
        rng = np.random.default_rng(seed)
        c = harmonics.HarmonicCoeffs.zeros(L)
        c.c = rng.normal(size=c.c.size)
        deg = c.degrees()
        dropped = {
            "none": np.zeros(L + 1, dtype=bool),
            "odd": np.arange(L + 1) % 2 == 1,
            "even": np.arange(L + 1) % 2 == 0,
            "random": rng.random(L + 1) < 0.5,
            "all": np.ones(L + 1, dtype=bool),
        }[zeros]
        c.c[dropped[deg]] = 0.0
        got = convex.radii_grid(c, grid)
        want = oracles.radii_grid_six_fields(c, grid)
        scale = max(float(np.max(np.abs(want[3]))), float(np.max(np.abs(want[4]))))
        bound = 1e-13 * max(scale, math.sqrt(c.norm2()))
        for a, b in zip(got, want):
            assert a.shape == (grid.n_nodes,)
            assert float(np.max(np.abs(a - b))) <= bound


class TestSupportFunction:
    def test_certificate_values(self, grid):
        ball = convex.SupportFunction.ball(grid, 1.0)
        assert abs(ball.min_radius - 1.0) < 1e-12
        assert abs(ball.max_radius - 1.0) < 1e-12

    def test_nonconvex_rejected(self, grid):
        c = harmonics.HarmonicCoeffs.zeros(4)
        c.set(0, 0, math.sqrt(4 * math.pi))
        c.set(4, 0, 2.0)  # far beyond the convexity margin
        with pytest.raises(ValueError, match="certificate"):
            convex.SupportFunction.from_coeffs(grid, c)

    def test_nonpositive_rejected(self, grid):
        # h = h00 + h10 * z: the unit ball moved by 1.5 along e3, so the
        # origin lies outside it; h = 0; the negated unit ball.  None is
        # translated back, even where that would make h positive.
        for h00, h10 in [(1.0, 1.5), (0.0, 0.0), (-1.0, 0.0)]:
            c = harmonics.HarmonicCoeffs.zeros(2)
            c.set(0, 0, h00 * math.sqrt(4 * math.pi))
            c.set(1, 0, h10 * math.sqrt(4 * math.pi / 3))
            with pytest.raises(ValueError, match="must be positive"):
                convex.SupportFunction.from_coeffs(grid, c)

    def test_random_corpus_is_strictly_convex(self, grid):
        for seed in range(5):
            h = convex.random_support_function(grid, np.random.default_rng(seed))
            assert h.min_radius > 0.01
            assert np.min(h.values) > 0

    def test_random_corpus_sits_at_margin(self, grid):
        # the closed-form scale puts the smallest radius on the margin
        for seed in range(3):
            h = convex.random_support_function(grid, np.random.default_rng(seed), margin=0.2)
            assert abs(h.min_radius - 0.2) < 1e-12

    def test_random_corpus_needs_noise(self, grid):
        with pytest.raises(ValueError, match="band"):
            convex.random_support_function(grid, np.random.default_rng(0), band=1)

    def test_random_corpus_names_a_grid_too_coarse_for_its_band(self):
        # on 2x4, below band 6's least grid 4x7, seed 1's draw has no
        # negative radius at the nodes: its eps would be negative and the
        # body concave, which the certificate reported as a failed body
        with pytest.raises(ValueError, match=r"^band-6 noise has no negative radius on the 2x4 grid "
                                             r"\(min 8\.204e-01\); it needs a grid of at least 4x7$"):
            convex.random_support_function(sphere.build_grid(2, 4), np.random.default_rng(1), band=6)

    @settings(max_examples=60, deadline=None)
    @given(band=st.integers(2, 8), more_rings=st.integers(0, 6), more_longitudes=st.integers(0, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_random_corpus_holds_on_every_grid_its_band_needs(self, band, more_rings, more_longitudes, seed):
        # the noise's radii trace has mean zero, so a rule exact for its
        # band finds a negative radius: no draw raises, and every body
        # sits on its margin
        t, p = sphere.exact_grid(band)
        grid = sphere.build_grid(t + more_rings, p + more_longitudes)
        h = convex.random_support_function(grid, np.random.default_rng(seed), band=band)
        assert abs(h.min_radius - 0.05) < 1e-12


class TestAreaDensity:
    def test_ball_densities(self, grid):
        ball = convex.SupportFunction.ball(grid, 1.3)
        assert abs(oracles.area_density(ball, E3, 1) - 1.3) < 1e-12
        assert abs(oracles.area_density(ball, E3, 2) - 1.3**2) < 1e-12

    def test_first_order_additive(self, grid):
        rng = np.random.default_rng(3)
        hK = convex.random_support_function(grid, rng)
        hL = convex.random_support_function(grid, rng)
        csum = hK.coeffs.copy()
        csum.c = hK.coeffs.c + hL.coeffs.c
        hsum = convex.SupportFunction.from_coeffs(grid, csum)
        total = first_density(hsum)
        parts = first_density(hK) + first_density(hL)
        assert np.max(np.abs(total - parts)) < 1e-10

    def test_hessian_route_matches_laplacian_route(self, grid):
        # pointwise trace of the radii matrix vs the spectral multiplier
        for seed in range(50):
            h = convex.random_support_function(grid, np.random.default_rng(seed), band=8)
            hess = first_density(h)
            spec = oracles.area_density_spectral(h)
            assert np.max(np.abs(hess - spec)) < 1e-8

    def test_bad_order(self, grid):
        ball = convex.SupportFunction.ball(grid, 1.0)
        with pytest.raises(ValueError):
            oracles.area_density(ball, E3, 3)


class TestNewton:
    def test_ball_equality_everywhere(self, grid):
        rep = convex.newton_report(convex.SupportFunction.ball(grid, 1.0))
        assert np.max(np.abs(rep["gap"])) < 1e-12
        assert rep["equality"].all()

    def test_ellipsoid_strict_at_equator(self, grid):
        ell = ellipsoid_support_function(grid)
        rm = oracles.radii(ell, np.array([1.0, 0.0, 0.0]))
        s1 = 0.5 * (rm.r1 + rm.r2)
        s2 = rm.r1 * rm.r2
        assert s1 - math.sqrt(s2) > 0.1

    def test_random_bodies_nonnegative_gap(self, grid):
        for seed in range(10):
            h = convex.random_support_function(grid, np.random.default_rng(100 + seed))
            rep = convex.newton_report(h)
            assert rep["min_gap"] >= -1e-10

    def test_equality_set_matches_umbilic_set(self, grid):
        h = convex.random_support_function(grid, np.random.default_rng(4))
        _, _, _, r1, r2 = convex.radii_grid(h.coeffs, grid)
        rep = convex.newton_report(h, tol=1e-6)
        umbilic = np.abs(r2 - r1) <= 2e-3 * np.maximum(r1, r2)
        # Newton equality at a node forces nearly equal radii there
        assert np.all(umbilic[rep["equality"]])


class TestMixedVolumes:
    def test_mixed_discriminant_diagonal(self, grid):
        h = convex.random_support_function(grid, np.random.default_rng(5))
        u = random_unit(np.random.default_rng(6))
        d = oracles.mixed_area_density(h, h, u)
        assert abs(d - oracles.area_density(h, u, 2)) < 1e-10

    def test_mixed_with_ball_gives_first_density(self, grid):
        h = convex.random_support_function(grid, np.random.default_rng(7))
        ball = convex.SupportFunction.ball(grid, 1.0)
        u = random_unit(np.random.default_rng(8))
        d = oracles.mixed_area_density(h, ball, u)
        assert abs(d - oracles.area_density(h, u, 1)) < 1e-10

    def test_symmetry(self, grid):
        hK = convex.random_support_function(grid, np.random.default_rng(9))
        hL = convex.random_support_function(grid, np.random.default_rng(10))
        u = random_unit(np.random.default_rng(11))
        assert abs(
            oracles.mixed_area_density(hK, hL, u) - oracles.mixed_area_density(hL, hK, u)
        ) < 1e-14

    def test_ball_volume(self, grid):
        ball = convex.SupportFunction.ball(grid, 1.0)
        assert abs(convex.mixed_volume(ball, ball, ball) - 4 * math.pi / 3) < 1e-12

    def test_permutation_invariance(self, grid):
        rng = np.random.default_rng(12)
        h1 = convex.random_support_function(grid, rng)
        h2 = convex.random_support_function(grid, rng)
        h3 = convex.SupportFunction.ball(grid, 1.0)
        vols = [
            convex.mixed_volume(h1, h2, h3),
            convex.mixed_volume(h2, h3, h1),
            convex.mixed_volume(h3, h1, h2),
            convex.mixed_volume(h1, h3, h2),
        ]
        assert max(vols) - min(vols) < 1e-8

    def test_grid_operators_reuse_certificate_radii(self, grid, monkeypatch):
        rng = np.random.default_rng(21)
        K = convex.random_support_function(grid, rng)
        L = convex.random_support_function(grid, rng)
        # a from_coeffs body carries radii_grid's own arrays, so its
        # operators agree bitwise with the radii_grid route
        B = convex.SupportFunction.from_coeffs(grid, K.coeffs)
        fresh = convex.radii_grid(B.coeffs, grid)
        for carried, expect in zip(B.radii, fresh):
            assert carried.tobytes() == expect.tobytes()
        q11, q22, q12, r1, r2 = fresh
        expect_mixed = 0.5 * (q11 * q22 + q22 * q11) - q12 * q12
        expect_gap = 0.5 * (r1 + r2) - np.sqrt(np.maximum(0.0, r1 * r2))
        calls = _counting(monkeypatch, "radii_grid")
        assert np.array_equal(convex.mixed_area_density_grid(B, B), expect_mixed)
        assert np.array_equal(convex.newton_report(B)["gap"], expect_gap)
        # a corpus body's operators read the entries it carries
        a11, a22, a12, r1, r2 = K.radii
        b11, b22, b12, _, _ = L.radii
        assert np.array_equal(
            convex.mixed_area_density_grid(K, L), 0.5 * (a11 * b22 + a22 * b11) - a12 * b12
        )
        assert np.array_equal(
            convex.newton_report(K)["gap"], 0.5 * (r1 + r2) - np.sqrt(np.maximum(0.0, r1 * r2))
        )
        assert len(calls) == 0

    def test_one_radii_pass_per_corpus_body(self, grid, monkeypatch):
        calls = _counting(monkeypatch, "radii_grid")
        eig_calls = _counting(monkeypatch, "_eigs_2x2")
        rng = np.random.default_rng(22)
        for band in (2, 5, 8):
            convex.random_support_function(grid, rng, band=band)
        assert len(calls) == 3
        assert len(eig_calls) == 3

    @settings(max_examples=25, deadline=None)
    @given(
        band=st.integers(2, 12),
        margin=st.floats(0.01, 0.9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_body_eigenvalues_by_linearity_match_eigen_solve(self, grid, band, margin, seed):
        """A corpus body's r1, r2 come from the noise's by eps * r + 1; the
        eigenvalue solve of the body's own entries agrees to rounding."""
        h = convex.random_support_function(
            grid, np.random.default_rng(seed), band=band, margin=margin
        )
        q11, q22, q12, r1, r2 = h.radii
        e1, e2 = convex.support._eigs_2x2(q11, q22, q12)
        bound = 8 * np.finfo(float).eps * float(np.max(r2))
        assert float(np.max(np.abs(r1 - e1))) <= bound
        assert float(np.max(np.abs(r2 - e2))) <= bound
        assert h.min_radius == float(np.min(r1)) and h.max_radius == float(np.max(r2))

    def test_certified_body_operators_skip_radii_and_eigs(self, grid, monkeypatch):
        rng = np.random.default_rng(23)
        K = convex.random_support_function(grid, rng)
        L = convex.random_support_function(grid, rng)
        ball = convex.SupportFunction.ball(grid, 1.0)
        radii_calls = _counting(monkeypatch, "radii_grid")
        eig_calls = _counting(monkeypatch, "_eigs_2x2")
        convex.mixed_volume(K, L, ball)
        convex.mixed_volume(ball, K, K)
        convex.newton_report(K)
        assert radii_calls == [] and eig_calls == []

    @settings(max_examples=25, deadline=None)
    @given(
        band=st.integers(2, 8),
        margin=st.floats(0.05, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reused_radii_match_radii_grid(self, grid, band, margin, seed):
        h = convex.random_support_function(
            grid, np.random.default_rng(seed), band=band, margin=margin
        )
        fresh = convex.radii_grid(h.coeffs, grid)
        bound = 1e-13 * float(np.max(fresh[4]))
        for carried, expect in zip(h.radii, fresh):
            assert float(np.max(np.abs(carried - expect))) <= bound
        assert abs(h.min_radius - margin) <= bound


_cached_grid = functools.lru_cache(maxsize=None)(sphere.build_grid)


def _counting(monkeypatch, name):
    """Replace convex.support.<name> by a wrapper that logs its calls;
    returns the log."""
    calls = []
    real = getattr(convex.support, name)

    def counting(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(convex.support, name, counting)
    return calls


class TestBoundaryPoint:
    def test_ball(self, grid):
        ball = convex.SupportFunction.ball(grid, 2.0)
        u = random_unit(np.random.default_rng(14))
        assert np.linalg.norm(oracles.boundary_point(ball, u) - 2.0 * u) < 1e-12

    def test_translation_shifts_points(self, grid):
        c = harmonics.HarmonicCoeffs.zeros(2)
        c.set(0, 0, math.sqrt(4 * math.pi))
        a = np.array([0.1, -0.2, 0.15])
        norm1 = math.sqrt(4 * math.pi / 3)
        c.set(1, 1, a[0] * norm1)
        c.set(1, -1, a[1] * norm1)
        c.set(1, 0, a[2] * norm1)
        h = convex.SupportFunction.from_coeffs(grid, c)
        u = random_unit(np.random.default_rng(15))
        assert np.linalg.norm(oracles.boundary_point(h, u) - (u + a)) < 1e-10

    def test_ellipsoid_point_on_surface(self, grid):
        ell = ellipsoid_support_function(grid)
        u = random_unit(np.random.default_rng(16))
        x = oracles.boundary_point(ell, u)
        assert abs(x[0] ** 2 + x[1] ** 2 + (x[2] / 2.0) ** 2 - 1.0) < 1e-10
        assert abs(x @ u - oracles.synthesize_points(ell.coeffs, u)) < 1e-10

    def test_degenerate_direction_flagged(self, grid):
        # zonal body with a flat point: 1 + a P2(t) has pole radius 1 - 2a,
        # so a = 1/2 degenerates the Gauss-map inverse at the pole
        c = harmonics.HarmonicCoeffs.zeros(4)
        c.set(0, 0, math.sqrt(4 * math.pi))
        c.set(2, 0, 0.5 * math.sqrt(4 * math.pi / 5))
        h = convex.SupportFunction.from_coeffs(grid, c)
        with pytest.raises(ValueError, match="degenerate"):
            oracles.boundary_point(h, E3)


class TestUmbilic:
    def test_ball_fits_sphere(self, grid):
        ball = convex.SupportFunction.ball(grid, 1.0)
        rep = convex.umbilic_sphere_check(ball, sphere.Cap(E3, 0.6), tol=1e-8)
        assert rep.is_umbilic
        assert rep.residual < 1e-10
        assert abs(rep.radius - 1.0) < 1e-10

    def test_translated_ball_center_found(self, grid):
        c = harmonics.HarmonicCoeffs.zeros(2)
        c.set(0, 0, math.sqrt(4 * math.pi))
        c.set(1, 0, 0.4 * math.sqrt(4 * math.pi / 3))
        h = convex.SupportFunction.from_coeffs(grid, c)
        rep = convex.umbilic_sphere_check(h, sphere.Cap(E3, 0.7), tol=1e-8)
        assert rep.is_umbilic
        assert np.linalg.norm(rep.center - [0.0, 0.0, 0.4]) < 1e-9

    def test_ellipsoid_not_umbilic(self, grid):
        ell = ellipsoid_support_function(grid)
        rep = convex.umbilic_sphere_check(ell, sphere.Cap(np.array([1.0, 0.0, 0.0]), 0.7), tol=1e-4)
        assert not rep.is_umbilic
        assert rep.residual is None

    def test_empty_cap_rejected(self, grid):
        ball = convex.SupportFunction.ball(grid, 1.0)
        with pytest.raises(ValueError, match="no grid nodes"):
            convex.umbilic_sphere_check(ball, sphere.Cap(E3, 0.999999), tol=1e-6)

    def test_sphere_fit_exact_data(self):
        rng = np.random.default_rng(17)
        center = np.array([0.2, -0.1, 0.3])
        pts = center + 1.7 * random_unit(rng, 60)
        c, r, resid = convex.fit_sphere(pts)
        assert np.linalg.norm(c - center) < 1e-12
        assert abs(r - 1.7) < 1e-12
        assert resid < 1e-12


def symmetrize_support(h):
    """Ring average of a support function: its zonal part, certified again."""
    return convex.SupportFunction.from_coeffs(h.grid, h.coeffs.zonal_projected())


class TestSymmetrizeSupport:
    def test_ball_unchanged(self, grid):
        ball = convex.SupportFunction.ball(grid, 1.0)
        out = symmetrize_support(ball)
        assert np.max(np.abs(out.values - ball.values)) < 1e-13

    def test_ellipsoid_stays_convex(self, grid):
        ell = ellipsoid_support_function(grid, (1.0, 2.0, 3.0))
        out = symmetrize_support(ell)
        assert out.min_radius > 0
        # output is zonal
        V = grid.ring_view(out.values)
        assert np.max(np.abs(V - V[:, :1])) < 1e-10

    def test_first_density_commutes_with_symmetrization(self, grid):
        rng = np.random.default_rng(18)
        h = convex.random_support_function(grid, rng)
        mk = symmetrize_support(h)
        f1_of_sym = first_density(mk)
        f1_sym = transforms.radial_symmetrize(
            transforms.SphericalFunction(grid=grid, values=first_density(h))
        ).values
        assert np.max(np.abs(f1_of_sym - f1_sym)) < 1e-6

    def test_sum_of_umbilic_bodies_is_umbilic(self, grid):
        # Hessian additivity: scaled sums preserve equal radii on a cap
        cap = sphere.Cap(E3, 0.8)
        mask = grid.cap_mask(cap)
        b1 = convex.SupportFunction.ball(grid, 1.0)
        b2 = convex.SupportFunction.ball(grid, 2.0)
        for lam in (0.5, 1.0, 2.0):
            c = b1.coeffs.copy()
            c.c = lam * (c.c + b2.coeffs.c)
            h = convex.SupportFunction.from_coeffs(grid, c)
            _, _, _, r1, r2 = convex.radii_grid(h.coeffs, grid)
            assert np.max(np.abs(r2[mask] - r1[mask])) < 1e-10
