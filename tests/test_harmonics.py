import collections
import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import eval_legendre, sph_harm_y

from zonotools import convex, harmonics, sphere, transforms

import oracles
from conftest import random_even_coeffs


class TestLegendreTables:
    def test_against_scipy(self):
        t = np.linspace(-0.97, 0.97, 9)
        theta = np.arccos(t)
        P = harmonics._normalized_legendre(20, t)
        for l in range(21):
            for m in range(l + 1):
                # scipy carries the Condon-Shortley phase; ours does not
                ref = sph_harm_y(l, m, theta, 0.0).real * (-1) ** m
                assert_allclose(P[l, m], ref, atol=2e-14)

    def test_theta_derivatives_match_finite_differences(self):
        t = np.array([0.71, -0.35, 0.02])
        theta = np.arccos(t)
        P, dP, d2P = oracles.theta_tables(12, t)
        h = 1e-5
        Pp = harmonics._normalized_legendre(12, np.cos(theta + h))
        Pm = harmonics._normalized_legendre(12, np.cos(theta - h))
        assert np.max(np.abs((Pp - Pm) / (2 * h) - dP)) < 1e-7
        # second difference: h balances truncation against roundoff
        h = 1e-4
        Pp = harmonics._normalized_legendre(12, np.cos(theta + h))
        Pm = harmonics._normalized_legendre(12, np.cos(theta - h))
        assert np.max(np.abs((Pp - 2 * P + Pm) / h**2 - d2P)) < 1e-5

    @pytest.mark.parametrize("L", [0, 7, 48])
    def test_ode_is_the_per_degree_second_derivative(self, L):
        # the tangential-Hessian rule, linear in Q and Q', gives the radii
        # matrix's q11 = Q'' + Q as (2 - l(l+1)) Q - q22, the design's
        # H = Q'' - cot Q' + m^2 Q / sin^2 as 2 (funk Q - q22) and its
        # K = 2 (Q' - cot Q) / sin as 2 twist, against Q'' of the per-degree
        # ODE, at every (l, m) and every ring of the design grid.  Each entry
        # is within 8 eps of the sum of its terms' magnitudes; entries with
        # m > l are exactly zero.
        t = sphere.build_grid(128, 256).cos_theta
        P, dP, d2P = oracles.theta_tables(L, t)
        s = np.sqrt(1.0 - t * t)
        cot = t / s
        l, m = np.arange(L + 1.0)[:, None, None], np.arange(L + 1.0)[:, None]
        q22, twist = harmonics._tangential_hessian(m, t, s, P, dP)
        funk = 1.0 - 0.5 * l * (l + 1.0)
        size = l * (l + 1.0) * np.abs(P) + 2.0 * m * m / (s * s) * np.abs(P) + 2.0 * np.abs(cot * dP)
        for got, want in (
            ((2.0 - l * (l + 1.0)) * P - q22, d2P + P),
            (2.0 * (funk * P - q22), d2P - cot * dP + m * m * P / (s * s)),
            (2.0 * twist, 2.0 * (dP - cot * P) / s),
        ):
            assert np.all(np.abs(got - want) <= 8.0 * np.finfo(float).eps * size)
            assert not np.any(got[np.arange(L + 1)[:, None] < np.arange(L + 1)])

    def test_pole_rejected(self):
        with pytest.raises(ValueError, match="pole"):
            harmonics.ring_theta_tables(4, np.array([1.0]))
        with pytest.raises(ValueError, match="pole"):
            harmonics.ring_samples(np.zeros(25), None, np.array([0.5, -1.0]), 8, derivatives=True)


class TestAnalysisSynthesis:
    def test_constant_normalization(self, small_grid):
        c = harmonics.analyze(small_grid, np.ones(small_grid.n_nodes), 8)
        assert abs(c.get(0, 0) - math.sqrt(4 * math.pi)) < 1e-13
        assert np.max(np.abs(c.c[1:])) < 1e-13

    def test_x3_is_pure_degree_one(self, small_grid):
        c = harmonics.analyze(small_grid, small_grid.nodes[:, 2], 6)
        expect = math.sqrt(4 * math.pi / 3)
        assert abs(c.get(1, 0) - expect) < 1e-13
        rest = c.c.copy()
        rest[harmonics.coeff_index(1, 0)] = 0.0
        assert np.max(np.abs(rest)) < 1e-13

    def test_coefficient_roundtrip(self, grid):
        rng = np.random.default_rng(10)
        c0 = harmonics.HarmonicCoeffs(L=24, c=rng.normal(size=25 * 25))
        vals = harmonics.synthesize_grid(c0, grid)
        c1 = harmonics.analyze(grid, vals, 24)
        assert np.max(np.abs(c1.c - c0.c)) < 1e-10

    def test_value_roundtrip(self, grid):
        rng = np.random.default_rng(11)
        c0 = harmonics.HarmonicCoeffs(L=16, c=rng.normal(size=17 * 17))
        vals = harmonics.synthesize_grid(c0, grid)
        vals2 = harmonics.synthesize_grid(harmonics.analyze(grid, vals, 16), grid)
        assert np.max(np.abs(vals2 - vals)) < 1e-10

    def test_parseval(self, grid):
        rng = np.random.default_rng(12)
        c = harmonics.HarmonicCoeffs(L=12, c=rng.normal(size=13 * 13))
        vals = harmonics.synthesize_grid(c, grid)
        assert abs(c.norm2() - sphere.integrate(grid, vals**2)) < 1e-10

    def test_even_function_has_no_odd_content(self, grid):
        vals = grid.nodes[:, 0] ** 2 + 0.5 * grid.nodes[:, 2] ** 4
        c = harmonics.analyze(grid, vals, 10)
        assert c.odd_mass_fraction() < 1e-20

    def test_point_synthesis_matches_grid(self, grid):
        rng = np.random.default_rng(13)
        c = harmonics.HarmonicCoeffs(L=20, c=rng.normal(size=21 * 21))
        vals = harmonics.synthesize_grid(c, grid)
        sel = np.arange(0, grid.n_nodes, 311)
        pts = oracles.synthesize_points(c, grid.nodes[sel])
        assert np.max(np.abs(pts - vals[sel])) < 1e-12

    def test_zero_coeffs_synthesize_to_zero(self, small_grid):
        c = harmonics.HarmonicCoeffs.zeros(5)
        assert np.max(np.abs(harmonics.synthesize_grid(c, small_grid))) == 0.0

    def test_zonal_degree_two_shape(self, small_grid):
        c = harmonics.HarmonicCoeffs.zeros(4)
        c.set(2, 0, 1.0)
        vals = harmonics.synthesize_grid(c, small_grid)
        t = small_grid.nodes[:, 2]
        expect = math.sqrt(5.0 / (4 * math.pi)) * 0.5 * (3 * t**2 - 1)
        assert_allclose(vals, expect, atol=1e-14)

    @settings(max_examples=15, deadline=None)
    @given(L=st.integers(0, 24), seed=st.integers(0, 2**32 - 1))
    def test_analysis_inverts_grid_synthesis(self, grid, L, seed):
        c = harmonics.HarmonicCoeffs(L=L, c=np.random.default_rng(seed).normal(size=(L + 1) ** 2))
        c.c /= math.sqrt(c.norm2())
        back = harmonics.analyze(grid, harmonics.synthesize_grid(c, grid), L)
        assert np.max(np.abs(back.c - c.c)) < 1e-12

    @pytest.mark.parametrize("L", [0, 1, 5])
    def test_each_basis_harmonic_points_match_grid(self, small_grid, L):
        # one nonzero coefficient: every other degree, and every cosine or
        # sine table of its own degree, is zero
        for i in range(harmonics.coeff_count(L)):
            c = harmonics.HarmonicCoeffs.zeros(L)
            c.c[i] = 1.0
            got = oracles.synthesize_points(c, small_grid.nodes)
            assert_allclose(got, harmonics.synthesize_grid(c, small_grid), rtol=0, atol=1e-13)

    def test_grid_too_coarse(self, small_grid):
        with pytest.raises(ValueError, match="too coarse"):
            harmonics.analyze(small_grid, np.ones(small_grid.n_nodes), 40)


@settings(max_examples=40, deadline=None)
@given(
    L=st.integers(0, 30),
    n=st.integers(2, 64),
    even=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_point_synthesis_independent_of_its_batch(L, n, even, seed):
    """The point-synthesis oracle gives a point alone (a 1-D call) bitwise
    its value in a whole batch."""
    rng = np.random.default_rng(seed)
    c = harmonics.HarmonicCoeffs(L=L, c=rng.normal(size=(L + 1) ** 2))
    if even:
        c.c[c.degrees() % 2 == 1] = 0.0
    points = rng.normal(size=(n, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    batch = oracles.synthesize_points(c, points)
    for j in range(n):
        single = oracles.synthesize_points(c, points[j])
        assert isinstance(single, float)
        assert np.float64(single).tobytes() == batch[j : j + 1].tobytes()


def test_recurrence_coefficients_cached_and_read_only():
    a, b = harmonics._recurrence_coeffs(12)
    assert harmonics._recurrence_coeffs(12)[0] is a
    for arr in (a, b):
        with pytest.raises(ValueError, match="read-only"):
            arr[3, 1] = 0.0


class TestOrderIndex:
    @pytest.mark.parametrize("L", range(65))
    def test_bitwise_equal_to_tril_route(self, L):
        c = harmonics.HarmonicCoeffs(L=L, c=np.random.default_rng(L).normal(size=(L + 1) ** 2))
        Ac, As = c.split_orders()
        Ac_o, As_o = oracles.split_orders_tril(c)
        assert Ac.tobytes() == Ac_o.tobytes() and As.tobytes() == As_o.tobytes()
        # arbitrary order matrices, upper triangle and sine column 0 included
        rng = np.random.default_rng(1000 + L)
        Bc, Bs = rng.normal(size=(2, L + 1, L + 1))
        back = harmonics.HarmonicCoeffs.from_split_orders(Bc, Bs)
        assert back.c.tobytes() == oracles.from_split_orders_tril(Bc, Bs).c.tobytes()
        back = harmonics.HarmonicCoeffs.from_split_orders(Ac, As)
        assert_allclose(back.c, c.c, rtol=1e-15, atol=0)

    def test_cached_and_read_only(self):
        table = harmonics._order_index(9)
        assert harmonics._order_index(9)[0] is table[0]
        for arr in table:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1


@pytest.mark.parametrize("L, S", [(12, 37), (48, 3), (0, 1)])
def test_grid_minima_are_synthesize_grid_minima(grid, L, S):
    # S = 37 ends in a partial chunk; each minimum is bitwise its own
    rng = np.random.default_rng(L + S)
    C = rng.normal(size=(S, (L + 1) ** 2))
    got = harmonics.grid_minima(C, grid)
    for c, low in zip(C, got):
        assert low == np.min(harmonics.synthesize_grid(harmonics.HarmonicCoeffs(L, c), grid))


def test_coefficient_rows_need_square_column_count():
    assert harmonics._rows_band_limit(np.zeros((2, 25))) == 4
    assert harmonics._rows_band_limit(np.zeros(9)) == 2
    for C in (np.zeros((2, 5)), np.zeros(10)):
        with pytest.raises(ValueError, match=r"\(L\+1\)\^2 columns"):
            harmonics._rows_band_limit(C)


class TestZonalExpansions:
    def test_matches_legendre_series(self):
        rng = np.random.default_rng(11)
        K, L = 6, 14
        z = rng.normal(size=(K, L + 1))
        axes = rng.normal(size=(K, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        points = rng.normal(size=(200, 3))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        coeffs = harmonics.zonal_expansions(z, axes)
        assert len(coeffs) == K and all(c.L == L for c in coeffs)
        for k in range(K):
            t = points @ axes[k]
            want = sum(z[k, l] * eval_legendre(l, t) for l in range(L + 1))
            got = oracles.synthesize_points(coeffs[k], points)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_zero_weights_give_exact_zeros(self):
        rng = np.random.default_rng(12)
        z = np.zeros((4, 13))
        z[:, 0::2] = rng.normal(size=(4, 7))
        axes = rng.normal(size=(4, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        for c in harmonics.zonal_expansions(z, axes):
            assert not np.any(c.c[c.degrees() % 2 == 1])

    def test_polar_axis_is_zonal(self):
        # about e3 only m = 0 remains, with Q_{l,0}(1) 4 pi/(2l+1) = sqrt(4 pi/(2l+1))
        z = np.arange(1.0, 10.0)
        (c,) = harmonics.zonal_expansions(z, [[0.0, 0.0, 1.0]])
        ls = np.arange(9)
        assert_allclose(c.zonal(), z * np.sqrt(4.0 * math.pi / (2.0 * ls + 1.0)), rtol=1e-14)
        assert not np.any(c.c - c.zonal_projected().c)


class TestGridTableCache:
    @pytest.mark.parametrize("L", [0, 8, 24])
    def test_bitwise_equal_to_fresh_builds(self, grid, L):
        P = harmonics.grid_legendre(L, grid)
        assert P.tobytes() == harmonics._normalized_legendre(L, grid.cos_theta).tobytes()
        cs = harmonics.longitude_table(L, grid.n_phi)
        assert cs.tobytes() == np.vstack(harmonics._phi_tables(L, grid.phi)).tobytes()
        assert harmonics.grid_legendre(L, grid) is P
        assert harmonics.longitude_table(L, grid.n_phi) is cs

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 24), st.sampled_from([(8, 16), (33, 66), (64, 128)]), st.data())
    def test_ring_tables_on_any_rings_are_the_grid_tables(self, L, shape, data):
        # on any subset of a grid's rings, in any order, the uncached theta
        # tables are the whole grid's on those rings, and Q and Q' the
        # stored ones
        grid = sphere.build_grid(*shape)
        full = harmonics.ring_theta_tables(L, grid.cos_theta)
        assert full[0].tobytes() == harmonics.grid_legendre(L, grid).tobytes()
        assert full[1].tobytes() == harmonics.grid_theta_derivative(L, grid).tobytes()
        rings = np.array(data.draw(st.lists(
            st.integers(0, grid.n_theta - 1), min_size=1, max_size=grid.n_theta, unique=True
        )))
        for table, part in zip(full, harmonics.ring_theta_tables(L, grid.cos_theta[rings])):
            assert part.shape == (L + 1, L + 1, rings.size)
            assert part.tobytes() == np.ascontiguousarray(table[..., rings]).tobytes()

    @pytest.mark.parametrize("L", [0, 5, 8, 48])
    def test_radii_and_stacked_tables_equal_fresh_builds(self, grid, L):
        # the tables radii_grid reads: Q and Q', each bitwise a fresh build
        # and kept (1.23 MB each at band 48, within the store's budget)
        P, dP = harmonics.ring_theta_tables(L, grid.cos_theta)
        Q = harmonics.grid_legendre(L, grid)
        D = harmonics.grid_theta_derivative(L, grid)
        assert D.shape == Q.shape == (L + 1, L + 1, grid.n_theta)
        assert Q.tobytes() == P.tobytes() and D.tobytes() == dP.tobytes()
        assert D.nbytes <= harmonics.GRID_TABLE_CACHE_BYTES
        assert harmonics.grid_theta_derivative(L, grid) is D
        assert harmonics.grid_legendre(L, grid) is Q
        # the stacked longitude table: cos then sin, the grid's longitudes
        cs = harmonics.longitude_table(L, grid.n_phi)
        assert cs.shape == (2 * (L + 1), grid.n_phi)
        assert cs.tobytes() == np.vstack(harmonics._phi_tables(L, grid.phi)).tobytes()

    def test_tables_are_read_only(self, small_grid):
        tables = (
            harmonics.grid_legendre(6, small_grid),
            harmonics.longitude_table(6, small_grid.n_phi),
            harmonics.grid_theta_derivative(6, small_grid),
        )
        for arr in tables:
            with pytest.raises(ValueError, match="read-only"):
                arr[..., 0] = 1.0

    def test_grids_get_distinct_entries(self):
        L = 10
        grids = [sphere.build_grid(n, 2 * n) for n in (32, 64, 128)]
        seen = []
        for g in grids:
            P = harmonics.grid_legendre(L, g)
            cs = harmonics.longitude_table(L, g.n_phi)
            assert P.shape == (L + 1, L + 1, g.n_theta)
            assert cs.shape == (2 * (L + 1), g.n_phi)
            assert P.tobytes() == harmonics._normalized_legendre(L, g.cos_theta).tobytes()
            seen.append((P, cs))
        assert len({id(t) for pair in seen for t in pair}) == 6
        # the ring key is the grid's contents, not its shape
        shifted = dataclasses.replace(grids[0], cos_theta=0.5 * grids[0].cos_theta)
        P = harmonics.grid_legendre(L, shifted)
        assert P.tobytes() == harmonics._normalized_legendre(L, shifted.cos_theta).tobytes()
        assert P is not seen[0][0]
        # the longitude key is (L, n_phi): every grid build_grid makes with
        # n_phi longitudes has those of the table, whatever its rings
        for n_theta in (2, 17, 64):
            g = sphere.build_grid(n_theta, 128)
            assert harmonics.longitude_table(L, g.n_phi) is seen[1][1]
            assert seen[1][1].tobytes() == np.vstack(harmonics._phi_tables(L, g.phi)).tobytes()

    # (stored table, fresh build) per kind of per-grid table
    STORED_TABLES = {
        "legendre": (harmonics.grid_legendre, lambda L, g: harmonics._normalized_legendre(L, g.cos_theta)),
        "derivative": (harmonics.grid_theta_derivative, lambda L, g: harmonics.ring_theta_tables(L, g.cos_theta)[1]),
        "longitude": (
            lambda L, g: harmonics.longitude_table(L, g.n_phi),
            lambda L, g: np.vstack(harmonics._phi_tables(L, g.phi)),
        ),
    }
    # (20, 66) shares its ring tables with (20, 40) and its longitude
    # tables with (33, 66)
    STORE_GRIDS = {shape: sphere.build_grid(*shape) for shape in [(8, 16), (20, 40), (20, 66), (33, 66), (64, 128)]}

    @staticmethod
    def _store_key(L, shape, kind):
        """The request's key in the store: a ring table's key is the grid's
        rings, which build_grid sets by n_theta alone, and a longitude
        table's is (L, n_phi)."""
        return (L, shape[1] if kind == "longitude" else shape[0], kind)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from([0, 3, 12, 30]), st.sampled_from(sorted(STORE_GRIDS)), st.sampled_from(sorted(STORED_TABLES))),
            min_size=1,
            max_size=25,
        ),
        st.sampled_from([2**14, 2**17, 2**20]),
    )
    def test_store_holds_at_most_its_budget(self, requests, budget):
        """Over any sequence of (band, grid) requests the store holds at most
        its budget, and exactly the tables that a least-recently-used model
        by bytes holds, in its order; a Q' build reads Q from the store
        first; every table is bitwise a fresh build; a table within the
        budget comes back by identity on a repeat, and one over it is not
        kept."""
        model = collections.OrderedDict()  # request -> bytes, least recent first
        returned = {}  # request -> the table returned for it while it is held
        kinds = {
            harmonics._ring_legendre: "legendre",
            harmonics._ring_theta_derivative: "derivative",
            harmonics._longitude_tables: "longitude",
        }

        def read(request, nbytes):
            if request in model:
                model.move_to_end(request)
            elif nbytes <= budget:
                while sum(model.values()) + nbytes > budget:
                    returned.pop(model.popitem(last=False)[0], None)
                model[request] = nbytes

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harmonics, "GRID_TABLE_CACHE_BYTES", budget)
            mp.setattr(harmonics, "_GRID_TABLES", collections.OrderedDict())
            for L, shape, kind in requests:
                request = self._store_key(L, shape, kind)
                stored, fresh = self.STORED_TABLES[kind]
                grid = self.STORE_GRIDS[shape]
                held = request in model
                table = stored(L, grid)
                assert table.tobytes() == fresh(L, grid).tobytes()
                assert not table.flags.writeable
                if held and request in returned:
                    assert returned[request] is table
                if kind == "derivative" and not held:
                    # Q has the shape of Q'
                    legendre = self._store_key(L, shape, "legendre")
                    if legendre not in model:
                        returned.pop(legendre, None)
                    read(legendre, table.nbytes)
                read(request, table.nbytes)
                if request in model:
                    returned[request] = table
                again = stored(L, grid)
                assert (again is table) == (table.nbytes <= budget)
                assert again.tobytes() == table.tobytes()
                assert sum(t.nbytes for t in harmonics._GRID_TABLES.values()) <= budget
                assert [
                    (L_, key if kinds[build] == "longitude" else np.frombuffer(key).size, kinds[build])
                    for build, L_, key in harmonics._GRID_TABLES
                ] == list(model)

    def test_one_table_build_per_grid_and_band(self, monkeypatch):
        """radii_grid, synthesize_grid, analyze and circle_samples build the
        ring Legendre table of a (rings, band) once, however often they
        run: once for the grid's rings, which Q' is built from, and once
        for the great circles' ring t = 0; and each longitude table once
        per (band, longitude count)."""
        legendre, longitude = [], []

        def counting(builds, real, key):
            def wrapped(L, x):
                builds.append(key(L, x))
                return real(L, x)
            return wrapped

        monkeypatch.setattr(harmonics, "_normalized_legendre", counting(legendre, harmonics._normalized_legendre, lambda L, t: L))
        monkeypatch.setattr(harmonics, "_longitude_tables", counting(longitude, harmonics._longitude_tables, lambda L, m: (L, m)))
        harmonics._GRID_TABLES.clear()
        grid = sphere.build_grid(20, 40)
        rng = np.random.default_rng(3)
        c = harmonics.HarmonicCoeffs(L=7, c=rng.normal(size=64))
        values = rng.normal(size=grid.n_nodes)
        normals = rng.normal(size=(3, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        for _ in range(20):
            convex.radii_grid(c, grid)
            harmonics.synthesize_grid(c, grid)
            harmonics.analyze(grid, values, 7)
            for m in (64, grid.n_phi):
                transforms.circle_samples(np.tile(c.c, (3, 1)), normals, m)
        assert legendre == [7, 7]
        assert longitude == [(7, grid.n_phi), (7, 64)]


class TestMultipliers:
    @pytest.mark.parametrize(
        "l,expect",
        [(0, 2 * math.pi), (2, math.pi / 2), (4, -math.pi / 12)],
    )
    def test_cosine_values(self, l, expect):
        assert abs(harmonics.multiplier_table("cosine", l)[l] - expect) < 1e-13

    def test_cosine_matches_legendre_expansion(self):
        # |t| = 1/2 + (5/8) P2 - (3/16) P4 + ...: lambda_l = 4 pi a_l / (2l + 1)
        for l, a in [(0, 0.5), (2, 5.0 / 8.0), (4, -3.0 / 16.0)]:
            lam = harmonics.multiplier_table("cosine", l)[l]
            assert abs(lam - 4 * math.pi * a / (2 * l + 1)) < 1e-13

    @pytest.mark.parametrize("l", [1, 3, 5, 17])
    def test_odd_degrees_exactly_zero(self, l):
        assert harmonics.multiplier_table("cosine", l)[l] == 0.0
        assert harmonics.multiplier_table("funk", l)[l] == 0.0

    def test_funk_values(self):
        assert abs(harmonics.multiplier_table("funk", 2)[2] + math.pi) < 1e-14
        for l in range(0, 20, 2):
            lam = harmonics.multiplier_table("funk", l)[l]
            assert abs(lam - 2 * math.pi * eval_legendre(l, 0.0)) < 1e-12

    def test_cosine_nonzero_through_64(self):
        lam = harmonics.multiplier_table("cosine", 64)
        assert np.all(np.abs(lam[0::2]) > 0)

    def test_unknown_kernel(self):
        with pytest.raises(ValueError, match="kernel"):
            harmonics.multiplier_table("sine", 2)

    def test_cosine_closed_form_matches_gauss_route(self):
        lam = harmonics.multiplier_table("cosine", 64)
        for l in range(65):
            oracle = oracles.cosine_multiplier_gauss(l)
            assert abs(lam[l] - oracle) <= 1e-10 * abs(oracle)

    @pytest.mark.parametrize("kernel", ["cosine", "funk"])
    def test_single_degree_matches_table(self, kernel):
        # each degree's own table ends in the entry that longer tables hold
        lam = harmonics.multiplier_table(kernel, 40)
        assert [harmonics.multiplier_table(kernel, l)[l] for l in range(41)] == list(lam)

    def test_table_cached_and_read_only(self):
        table = harmonics.multiplier_table("cosine", 24)
        assert harmonics.multiplier_table("cosine", 24) is table
        with pytest.raises(ValueError, match="read-only"):
            table[2] = 1.0


def _spectral(kernel, c):
    return harmonics.apply_multipliers(c, harmonics.multiplier_table(kernel, c.L))


class TestSpectralTransforms:
    def test_cosine_constant(self):
        c = harmonics.HarmonicCoeffs.zeros(4)
        c.set(0, 0, 3.0)
        out = _spectral("cosine", c)
        assert abs(out.get(0, 0) - 3.0 * 2 * math.pi) < 1e-13

    def test_cosine_degree_two_scaling(self):
        c = harmonics.HarmonicCoeffs.zeros(4)
        c.set(2, 0, 1.0)
        out = _spectral("cosine", c)
        assert abs(out.get(2, 0) - math.pi / 2) < 1e-13

    def test_funk_degree_two_scaling(self):
        c = harmonics.HarmonicCoeffs.zeros(4)
        c.set(2, 1, 1.0)
        out = _spectral("funk", c)
        assert abs(out.get(2, 1) + math.pi) < 1e-13

    def test_inverse_cosine_constant(self):
        c = harmonics.HarmonicCoeffs.zeros(2)
        c.set(0, 0, 2 * math.pi)
        w = harmonics.inverse_cosine_transform(c)
        assert abs(w.get(0, 0) - 1.0) < 1e-13

    def test_inverse_cosine_roundtrip(self, grid):
        rng = np.random.default_rng(21)
        w0 = random_even_coeffs(16, rng)
        G = _spectral("cosine", w0)
        w = harmonics.inverse_cosine_transform(G)
        assert np.max(np.abs(w.c - w0.c)) < 1e-9

    def test_inverse_funk_roundtrip(self):
        rng = np.random.default_rng(22)
        w0 = random_even_coeffs(16, rng)
        G = _spectral("funk", w0)
        w = oracles.inverse_funk_transform(G)
        assert np.max(np.abs(w.c - w0.c)) < 1e-9

    def test_inverse_rejects_odd_content(self):
        c = harmonics.HarmonicCoeffs.zeros(4)
        c.set(3, 1, 1.0)
        with pytest.raises(ValueError, match="even"):
            harmonics.inverse_cosine_transform(c)

    @settings(max_examples=40, deadline=None)
    @given(L=st.integers(0, harmonics.INVERSION_MAX_DEGREE), seed=st.integers(0, 2**32 - 1))
    def test_inverse_cosine_returns_even_part(self, L, seed):
        c = harmonics.HarmonicCoeffs(L=L, c=np.random.default_rng(seed).normal(size=(L + 1) ** 2))
        even = c.copy()
        even.c[even.degrees() % 2 == 1] = 0.0
        back = harmonics.inverse_cosine_transform(_spectral("cosine", even))
        assert_allclose(back.c, even.c, rtol=1e-15, atol=0.0)
        lam = harmonics.multiplier_table("cosine", L)
        odd_in = harmonics.inverse_cosine_transform(harmonics.apply_multipliers(c, lam))
        assert_allclose(odd_in.c, even.c, rtol=1e-15, atol=0.0)

    def test_inverse_band_ceiling(self):
        # the transform rejects a band by the check the construction calls
        harmonics.check_inversion_band(harmonics.INVERSION_MAX_DEGREE)
        c = harmonics.HarmonicCoeffs.zeros(70)
        c.set(0, 0, 1.0)
        with pytest.raises(ValueError, match=r"^inverse cosine transform limited to band 64, got 70$"):
            harmonics.inverse_cosine_transform(c)

    def test_laplacian_multiplier(self):
        c = harmonics.HarmonicCoeffs.zeros(4)
        c.set(3, -2, 2.0)
        out = oracles.laplacian_spectral(c)
        assert abs(out.get(3, -2) + 2.0 * 12.0) < 1e-13

    def test_funk_is_half_laplacian_plus_identity_of_cosine(self):
        lam_c = harmonics.multiplier_table("cosine", 24)
        lam_f = harmonics.multiplier_table("funk", 24)
        for l in range(0, 25, 2):
            assert abs((1 - l * (l + 1) / 2) * lam_c[l] - lam_f[l]) < 1e-10


class TestPlateauCaps:
    def test_caps_too_close_rejected(self):
        u = sphere.Cap(np.array([0.0, 0.0, 1.0]), 0.6)
        v = sphere.Cap(np.array([1.0, 0.0, 0.0]), 0.6)
        with pytest.raises(ValueError, match="separated"):
            harmonics.check_plateau_caps(u, v, 0.4)


class TestCoeffsCsv:
    def test_dump(self, tmp_path):
        c = harmonics.HarmonicCoeffs.zeros(2)
        c.set(1, -1, 0.25)
        path = tmp_path / "c.csv"
        harmonics.coeffs_to_csv(path, c)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "l,m,value"
        assert len(lines) == 1 + 9
        assert "1,-1,0.25" in lines

    @pytest.mark.parametrize("L", [0, 8, 48])
    def test_matches_per_coefficient_writer(self, tmp_path, L):
        rng = np.random.default_rng(L)
        n = (L + 1) ** 2
        c = harmonics.HarmonicCoeffs(L=L, c=rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n))
        c.c[::7] = 0.0
        c.c[1::11] = -0.0
        c.c[2::13] = 5e-324
        harmonics.coeffs_to_csv(tmp_path / "fast.csv", c)
        oracles.coeffs_csv_by_coefficient(tmp_path / "slow.csv", c)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()


def _turn(axis, angle):
    """The rotation by ``angle`` about coordinate axis ``axis`` (0, 1, 2)."""
    c, s = math.cos(angle), math.sin(angle)
    i, j = [k for k in range(3) if k != axis]
    R = np.eye(3)
    R[i, i], R[i, j], R[j, i], R[j, j] = c, -s, s, c
    if axis == 1:  # R_y(b) sends e_z towards +e_x
        R = R.T
    return R


#: Middle Euler angles at and near the poles, where the frame's last column
#: is e_z or -e_z exactly or within about 1e-9.
POLAR_BETAS = [0.0, math.pi, 1e-9, math.pi - 1e-9, 3e-10]


def _frame(kind, seed):
    """A proper rotation: from the QR of a normal matrix ("random"), by ZYZ
    angles with the middle one at or near a pole ("polar"), or a turn about
    e_z, possibly followed by a half turn about e_x ("exact pole", whose
    last column is e_z or -e_z exactly)."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q = q * np.sign(np.diag(r))
        return q * np.sign(np.linalg.det(q))
    a, g = rng.uniform(-math.pi, math.pi, size=2)
    if kind == "polar":
        return _turn(2, a) @ _turn(1, POLAR_BETAS[seed % len(POLAR_BETAS)]) @ _turn(2, g)
    return _turn(2, a) @ (np.diag([1.0, -1.0, -1.0]) if seed % 2 else np.eye(3))


FRAME_KINDS = st.sampled_from(["random", "polar", "exact pole"])


class TestRotation:
    @settings(max_examples=25, deadline=None)
    @given(L=st.integers(0, 60), kind=FRAME_KINDS, even=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(L=60, kind="polar", even=False, seed=0)  # beta = 0
    @example(L=60, kind="polar", even=False, seed=1)  # beta = pi
    @example(L=48, kind="exact pole", even=True, seed=1)  # last column -e_z
    @example(L=48, kind="random", even=True, seed=5)
    def test_matches_sample_and_analyze_route(self, L, kind, even, seed):
        """The kernel against the old route, which samples f at the rotated
        nodes of a grid and analyzes the samples; that route's own round trip
        with no rotation is off by up to 2e-13 max|c| at bands 48 to 60, so
        the two are compared on the scale of the whole expansion, |c|_2."""
        rng = np.random.default_rng(seed)
        c = harmonics.HarmonicCoeffs(L=L, c=rng.normal(size=(L + 1) ** 2))
        if even:
            c.c[c.degrees() % 2 == 1] = 0.0
        R = _frame(kind, seed)
        got = harmonics.rotate_rows(c.c, R)
        ref = oracles.rotate_by_sampling(c, R).c
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.linalg.norm(c.c)
        if even:
            assert not np.any(got[c.degrees() % 2 == 1])

    @settings(max_examples=40, deadline=None)
    @given(
        L=st.integers(0, 60),
        kinds=st.tuples(FRAME_KINDS, FRAME_KINDS),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(L=60, kinds=("polar", "exact pole"), seed=3)
    def test_keeps_degree_norms_and_composes(self, L, kinds, seed):
        """Each degree's norm is kept to 1e-14 of itself, and turning by R2
        and then by R1 is turning by R2 R1: (f o R2) o R1 = f o (R2 R1)."""
        rng = np.random.default_rng(seed)
        c = rng.normal(size=(L + 1) ** 2)
        R1, R2 = (_frame(kind, seed + i) for i, kind in enumerate(kinds))
        once = harmonics.rotate_rows(c, R2)
        for l in range(L + 1):
            block = slice(l * l, (l + 1) * (l + 1))
            norm = np.linalg.norm(c[block])
            assert abs(np.linalg.norm(once[block]) - norm) <= 1e-14 * norm
        twice = harmonics.rotate_rows(once, R1)
        assert np.max(np.abs(twice - harmonics.rotate_rows(c, R2 @ R1))) <= 1e-13 * np.max(np.abs(c))

    @settings(max_examples=30, deadline=None)
    @given(L=st.integers(0, 30), S=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_row_bitwise_alone_and_in_any_stack(self, L, S, seed):
        rng = np.random.default_rng(seed)
        C = rng.normal(size=(S, (L + 1) ** 2))
        C[rng.random(S) < 0.5, 1:4] = 0.0  # degree 1 zero in some rows
        frames = np.stack([_frame(["random", "polar", "exact pole"][s % 3], seed + s) for s in range(S)])
        got = harmonics.rotate_rows(C, frames)
        for s in range(S):
            assert got[s].tobytes() == harmonics.rotate_rows(C[s], frames[s]).tobytes()

    @pytest.mark.parametrize("beta", POLAR_BETAS + [0.5, 2.0])
    def test_euler_angles_rebuild_the_frame(self, beta):
        R = _turn(2, 0.7) @ _turn(1, beta) @ _turn(2, -2.1)
        a, b, g = harmonics._euler_zyz(R[None])
        back = _turn(2, a[0]) @ _turn(1, b[0]) @ _turn(2, g[0])
        assert np.max(np.abs(back - R)) <= 1e-15
        assert 0.0 <= b[0] <= math.pi

    def test_improper_frames_are_named(self):
        c = np.ones(9)
        R = np.stack([np.eye(3), np.diag([1.0, 1.0, -1.0])])
        with pytest.raises(ValueError, match="rotation frame 1 is not a proper rotation: .* determinant is -1.000"):
            harmonics.rotate_rows(np.stack([c, c]), R)
        for bad, off in [(np.eye(3) * (1.0 + 2e-12), "2.000e-12"), (_skewed(), "1.000e-09"), (np.full((3, 3), np.nan), "nan")]:
            with pytest.raises(ValueError, match=f"rotation frame 0 is not a proper rotation: its columns are {off} from orthonormal"):
                harmonics.rotate_rows(c, bad)
        with pytest.raises(ValueError, match="3x3"):
            harmonics.rotate_rows(c, np.eye(2))
        with pytest.raises(ValueError, match="2 rotation frames for 3 expansions"):
            harmonics.rotate_rows(np.stack([c, c, c]), np.stack([np.eye(3)] * 2))

    def test_quarter_turns_orthogonal_cached_and_read_only(self):
        J = harmonics._quarter_turns(60)
        assert harmonics._quarter_turns(60) is J
        assert len(J) == 61
        for l, table in enumerate(J):
            assert table.shape == (2 * l + 1, 2 * l + 1) and not table.flags.writeable
            assert np.max(np.abs(table @ table.T - np.eye(2 * l + 1))) <= 2e-14
        # degree l of the table is the quarter turn whatever the band
        assert harmonics._quarter_turns(12)[12].tobytes() == J[12].tobytes()
        assert sum(t.nbytes for t in harmonics._quarter_turns(48)) == 8 * 49 * 97 * 99 // 3


class TestRingSamples:
    @settings(max_examples=25, deadline=None)
    @given(
        L=st.integers(0, 24),
        shape=st.tuples(st.integers(2, 12), st.integers(4, 40)),
        kind=FRAME_KINDS,
        seed=st.integers(0, 2**32 - 1),
    )
    @example(L=24, shape=(11, 17), kind="polar", seed=0)  # 2L + 1 > m: the orders alias
    def test_rotated_rings_match_rotated_expansion(self, L, shape, kind, seed):
        """On a grid's rings in a frame R, the samples are the expansion at
        R @ (ring point) by point synthesis, and h, ∂θh and ∂φh are the
        per-field contraction of the expansion turned by sampling and
        analysis; that route is off by up to 2e-13 |c|_2 by itself, so the
        partials are compared on the scale of |c|_2."""
        rng = np.random.default_rng(seed)
        grid = sphere.build_grid(*shape)
        c = harmonics.HarmonicCoeffs(L=L, c=rng.normal(size=(L + 1) ** 2))
        R = _frame(kind, seed)
        got = harmonics.ring_samples(c.c, R[None], grid.cos_theta, grid.n_phi, derivatives=True)
        points = grid.nodes @ R.T
        ref = oracles.synthesize_points(c, points)
        assert np.max(np.abs(got[0].reshape(-1) - ref)) <= 1e-12 * np.max(np.abs(ref))
        h, ht, _, hp, _, _ = oracles.derivative_fields_per_field(oracles.rotate_by_sampling(c, R), grid)
        for a, b in zip(got, (h, ht, hp)):
            assert np.max(np.abs(a.reshape(-1) - b)) <= 2e-12 * np.linalg.norm(c.c)

    @settings(max_examples=30, deadline=None)
    @given(
        L=st.integers(0, 30),
        S=st.integers(1, 6),
        t=st.lists(st.floats(-0.99, 0.99), min_size=1, max_size=4),
        m=st.sampled_from([1, 5, 8, 64, 97]),
        derivatives=st.booleans(),
        rotated=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_row_bitwise_alone_and_in_any_stack(self, L, S, t, m, derivatives, rotated, seed):
        rng = np.random.default_rng(seed)
        C = rng.normal(size=(S, (L + 1) ** 2))
        C[rng.random(S) < 0.5, 1:4] = 0.0  # degree 1 zero in some rows
        frames = np.stack([_frame(["random", "polar", "exact pole"][s % 3], seed + s) for s in range(S)])

        def fields(a, b):
            """Rows a..b-1 as one (fields, b - a, len(t), m) array."""
            out = harmonics.ring_samples(C[a:b], frames[a:b] if rotated else None, t, m, derivatives)
            return np.stack(out) if derivatives else out[None]

        got = fields(0, S)
        assert got.shape == (3 if derivatives else 1, S, len(t), m)
        for s in range(S):
            assert fields(s, s + 1).tobytes() == got[:, s : s + 1].tobytes()
        a = int(rng.integers(0, S))
        b = int(rng.integers(a + 1, S + 1))
        assert fields(a, b).tobytes() == got[:, a:b].tobytes()

    def test_inputs_are_checked(self):
        c = np.ones(9)
        for t in ([np.nan], [1.5], [-np.inf], [[0.0]]):
            for derivatives in (False, True):
                with pytest.raises(ValueError, match="ring cosines"):
                    harmonics.ring_samples(c, None, t, 8, derivatives)
        for m in (0, -3, 2.0):
            with pytest.raises(ValueError, match="positive integer"):
                harmonics.ring_samples(c, None, [0.0], m)
        for pole in (1.0, -1.0):
            with pytest.raises(ValueError, match="pole"):
                harmonics.ring_samples(c, None, [0.3, pole], 8, derivatives=True)
            # the samples alone are defined there: the expansion at +-e_z
            at_pole = harmonics.ring_samples(c, None, [pole], 8)
            assert np.allclose(at_pole, oracles.synthesize_points(harmonics.HarmonicCoeffs(L=2, c=c), np.array([0.0, 0.0, pole])))


def _skewed():
    """A frame whose first two columns are 1e-9 from orthogonal."""
    R = np.eye(3)
    R[0, 1] = 1e-9
    R[:, 1] /= np.linalg.norm(R[:, 1])
    return R


def test_importing_the_cli_builds_no_quarter_turn():
    # the tables are built on first use, so import (setup) time is unchanged
    code = "import zonotools.cli; from zonotools import harmonics; print(harmonics._quarter_turns.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "0"
