import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from zonotools import cli, convex, sphere
from zonotools.convex import fixtures
from zonotools.convex.revolution import RevolutionBody, _pav_decreasing

import oracles

E3 = np.array([0.0, 0.0, 1.0])


class TestRevolutionBody:
    def test_validation(self):
        with pytest.raises(ValueError, match="concave"):
            RevolutionBody(rho=np.array([0.0, 0.5, 1.0]), z=np.array([1.0, 0.5, 0.4]))
        with pytest.raises(ValueError, match="non-increasing"):
            RevolutionBody(rho=np.array([0.0, 0.5, 1.0]), z=np.array([1.0, 1.2, 0.0]))
        with pytest.raises(ValueError, match="axis"):
            RevolutionBody(rho=np.array([0.1, 0.5]), z=np.array([1.0, 0.5]))

    def test_from_function_projects_rounding(self):
        # analytically concave profile survives sampling with invariants intact
        body = fixtures.Ball(1.0).body(2049)
        s = np.diff(body.z) / np.diff(body.rho)
        assert np.all(np.diff(s) <= 1e-10)
        assert np.all(s <= 1e-12)

    def test_nodal_latitudes_monotone(self):
        body = fixtures.Lens().body(513)
        t = body.nodal_normal_latitudes()
        assert np.all(np.diff(t) <= 0)
        assert t[0] <= 1.0 and t[-1] >= 0.0


# weighted sums of these stay clear of underflow for weights down to 1e-3 * 2^-80
PAV_VALUES = st.lists(
    st.floats(-1e3, 1e3).filter(lambda v: v == 0.0 or abs(v) >= 1e-200),
    min_size=1,
    max_size=60,
)


class TestPoolAdjacentViolators:
    @settings(max_examples=200, deadline=None)
    @given(
        y=PAV_VALUES,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_weight_expansion_on_scaled_weights(self, y, seed):
        w = np.random.default_rng(seed).uniform(1e-3, 1.0, size=len(y))
        got = _pav_decreasing(y, w)
        assert got.tobytes() == oracles.pav_decreasing_by_weight(y, w).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        y=PAV_VALUES,
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(-80, 80),
    )
    def test_weight_scale_free(self, y, seed, k):
        """Scaling every weight by a power of two changes no bit of the
        projection, down to weights far below 1e-12."""
        w = np.random.default_rng(seed).uniform(1e-3, 1.0, size=len(y))
        base = _pav_decreasing(y, w)
        assert base.size == len(y) and np.all(np.diff(base) <= 0.0)
        assert _pav_decreasing(y, w * 2.0**k).tobytes() == base.tobytes()

    def test_tiny_end_weights_keep_every_sample(self):
        # Chebyshev chords of a 1e-6 profile weigh about 1.5e-13 at the ends
        w = np.array([1.5e-13, 1.0e-12, 2.0e-12, 1.5e-13])
        y = np.array([-1.0, 0.0, -2.0, -1.0])
        first = -1.5 / 11.5  # pooled (-1, 0) with weights 1.5 : 10
        second = -4.15 / 2.15  # pooled (-2, -1) with weights 20 : 1.5
        assert_allclose(_pav_decreasing(y, w), [first, first, second, second], rtol=1e-14)


MINKOWSKI_CAP = sphere.Cap(E3, 0.5)
MINKOWSKI_EDGES = np.concatenate(
    [[-1.0], np.linspace(-0.95, -0.5, 6), [0.0], np.linspace(0.5, 0.95, 6), [1.0]]
)
SCALES = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)


class TestScaleFree:
    """Bodies and the Minkowski round trip of ROADMAP F at radii 1e-6..1e6."""

    @settings(max_examples=25, deadline=None)
    @given(r=SCALES)
    def test_fixture_bodies_build(self, r):
        ball = fixtures.Ball(r).body()
        lens = fixtures.Lens(r, 0.5 * r).body()
        assert ball.d == r and lens.d == pytest.approx(r * math.sqrt(0.75), rel=1e-15)
        assert ball.z[0] == pytest.approx(r, rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(r=SCALES)
    def test_ball_has_no_atoms(self, r):
        """The atom floor scales with the body's surface mass, so rounding
        near the axis splits no atom off the ball at any radius."""
        body = fixtures.Ball(r).body(8193)
        assert convex.surface_area_measure_zonal(body, MINKOWSKI_EDGES).atoms == []

    def test_ball_at_one_micron(self):
        assert fixtures.Ball(1e-6).body().rho.size == 4097

    @settings(max_examples=20, deadline=None)
    @given(r=SCALES)
    def test_ball_minkowski_round_trip(self, r):
        """The minkowski-rev suite's round trip, scaled: bands to their
        relative tolerance, and no mass outside the cap pair relative to the
        largest band mass."""
        tols = cli.TOLERANCES
        cap, edges = MINKOWSKI_CAP, MINKOWSKI_EDGES
        source = fixtures.Ball(r).body(8193)
        mu = convex.prescribed_cap_measure(source, cap.height, edges)
        solved = convex.minkowski_solve_revolution(
            mu, source, cap, rel_tol=tols["mink_band"], outside_tol=tols["mink_outside"]
        )
        got = convex.surface_area_measure_zonal(solved, edges)
        inside = (edges[:-1] >= cap.height) | (edges[1:] <= -cap.height)
        scale = float(np.max(mu.masses[inside]))
        assert scale == pytest.approx(2.0 * math.pi * 0.09 * r * r, rel=1e-6)  # band (0.5, 0.59)
        assert np.max(np.abs(got.masses[inside] - mu.masses[inside])) <= tols["mink_band"] * scale
        outside = got.total_mass() - got.mass_in(cap.height, 1.0) - got.mass_in(-1.0, -cap.height)
        assert abs(outside) <= tols["mink_outside"] * scale
        lens = fixtures.Lens(r=r, c=0.5 * r)
        ts = np.linspace(-1.0, 1.0, 81)
        err = np.max(np.abs(solved.support_values(ts) - lens.support(ts)))
        assert err <= 1e-6 * r

    @settings(max_examples=20, deadline=None)
    @given(r=SCALES)
    def test_suite_rows_are_scale_free(self, r):
        """The minkowski-rev rows of Ball(r) pass at every radius with the
        unit ball's tolerances and metrics: the two mass rows stay at
        rounding level and the lens row at the unit ball's profile error, so
        none reads an absolute mass or length."""
        rows = cli._minkowski_round_trip(radius=r)
        unit = cli._minkowski_round_trip()
        assert [row["test_id"] for row in rows] == [
            "minkowski-roundtrip-bands", "minkowski-no-mass-outside", "minkowski-solution-is-lens",
        ]
        assert all(row["pass"] for row in rows), rows
        assert [row["tolerance"] for row in rows] == [row["tolerance"] for row in unit]
        bands, outside, lens = (row["metric"] for row in rows)
        assert bands < 1e-12 and outside < 1e-12
        assert lens == pytest.approx(unit[2]["metric"], rel=1e-3)


class TestProfileToSupport:
    def test_ball_support_is_constant(self):
        body = fixtures.Ball(1.0).body()
        ts = np.linspace(-1, 1, 33)
        assert np.max(np.abs(body.support_values(ts) - 1.0)) < 1e-7

    def test_lens_support_piecewise(self):
        lens = fixtures.Lens()
        body = lens.body()
        ts = np.linspace(-1, 1, 81)
        assert np.max(np.abs(body.support_values(ts) - lens.support(ts))) < 1e-7
        # cap-supported branch above the edge latitude
        assert abs(body.support_values(0.8) - (1.0 - 0.4)) < 1e-7
        # edge-supported branch below it
        assert abs(body.support_values(0.2) - math.sqrt(3) / 2 * math.sqrt(1 - 0.04)) < 1e-7

    def test_spherocylinder_support_additivity(self):
        sc = fixtures.Spherocylinder(1.0, 0.6)
        body = sc.body()
        ts = np.linspace(-1, 1, 41)
        assert np.max(np.abs(body.support_values(ts) - (1.0 + 0.3 * np.abs(ts)))) < 1e-7


class TestSurfaceAreaMeasure:
    def test_ball_cap_band(self):
        body = fixtures.Ball(1.0).body(8193)
        zm = convex.surface_area_measure_zonal(body, np.array([-1.0, 0.5, 1.0]))
        # spherical cap above t = 1/2 has area 2 pi (1 - 1/2) = pi
        assert abs(zm.masses[1] - math.pi) < 1e-6

    def test_ball_total_mass(self):
        body = fixtures.Ball(1.0).body(8193)
        zm = convex.surface_area_measure_zonal(body, np.array([-1.0, 0.0, 1.0]))
        assert abs(zm.total_mass() - 4 * math.pi) < 1e-6
        assert zm.atoms == []

    def test_ball_fine_bands(self):
        body = fixtures.Ball(1.0).body(8193)
        edges = np.linspace(-1, 1, 21)
        zm = convex.surface_area_measure_zonal(body, edges)
        assert np.max(np.abs(zm.masses - 2 * math.pi * np.diff(edges))) < 1e-6

    def test_spherocylinder_wall_atom(self):
        sc = fixtures.Spherocylinder(1.0, 0.6)
        zm = convex.surface_area_measure_zonal(sc.body(8193), np.array([-1.0, 0.0, 1.0]))
        atoms = dict(zm.atoms)
        assert abs(atoms[0.0] - 2 * math.pi * 1.0 * 0.6) < 1e-12
        assert abs(zm.total_mass() - (4 * math.pi + 2 * math.pi * 0.6)) < 1e-6

    def test_lens_fan_is_massless(self):
        # the edge circle's normal fan covers |t| < 1/2 with zero area
        body = fixtures.Lens().body(8193)
        zm = convex.surface_area_measure_zonal(body, np.array([-0.45, -0.15, 0.15, 0.45]))
        assert np.max(zm.masses) == 0.0
        assert zm.atoms == []

    def test_flat_top_atom(self):
        # truncated cone with a flat disk on top: atom at t = 1
        body = RevolutionBody(
            rho=np.array([0.0, 0.5, 1.0]), z=np.array([1.0, 1.0, 0.0])
        )
        zm = convex.surface_area_measure_zonal(body, np.array([-1.0, 0.0, 1.0]))
        atoms = dict(zm.atoms)
        assert abs(atoms[1.0] - math.pi * 0.5**2) < 1e-12
        assert abs(atoms[-1.0] - math.pi * 0.5**2) < 1e-12


class TestMinkowskiSolve:
    def test_unit_ball_cap_half_gives_lens(self):
        source = fixtures.Ball(1.0).body(8193)
        cap = sphere.Cap(E3, 0.5)
        edges = np.concatenate([[-1.0], np.linspace(-0.9, -0.5, 4), [0.0], np.linspace(0.5, 0.9, 4), [1.0]])
        mu = convex.prescribed_cap_measure(source, cap.height, edges)
        solved = convex.minkowski_solve_revolution(mu, source, cap)
        assert abs(solved.d - math.sqrt(3) / 2) < 1e-4
        assert solved.end_height == 0.0
        lens = fixtures.Lens()
        ts = np.linspace(-1, 1, 61)
        got = solved.support_values(ts)
        assert np.max(np.abs(got - lens.support(ts))) < 1e-6

    def test_band_masses_match_prescription(self):
        source = fixtures.Ball(1.0).body(8193)
        cap = sphere.Cap(E3, 0.5)
        edges = np.concatenate([[-1.0], np.linspace(-0.95, -0.5, 7), [0.0], np.linspace(0.5, 0.95, 7), [1.0]])
        mu = convex.prescribed_cap_measure(source, cap.height, edges)
        solved = convex.minkowski_solve_revolution(mu, source, cap)
        got = convex.surface_area_measure_zonal(solved, edges)
        inside = (edges[:-1] >= 0.5) | (edges[1:] <= -0.5)
        scale = np.max(mu.masses[inside])
        assert np.max(np.abs(got.masses[inside] - mu.masses[inside])) < 1e-6 * scale
        outside = got.total_mass() - got.mass_in(0.5, 1.0) - got.mass_in(-1.0, -0.5)
        assert abs(outside) < 1e-8

    def test_scaled_ball(self):
        source = fixtures.Ball(2.0).body(8193)
        cap = sphere.Cap(E3, 0.5)
        edges = np.array([-1.0, -0.7, -0.5, 0.5, 0.7, 1.0])
        mu = convex.prescribed_cap_measure(source, cap.height, edges)
        solved = convex.minkowski_solve_revolution(mu, source, cap)
        lens = fixtures.Lens(r=2.0, c=1.0)
        ts = np.linspace(-1, 1, 61)
        assert np.max(np.abs(solved.support_values(ts) - lens.support(ts))) < 1e-6

    def test_cylinder_rejected(self):
        cyl = RevolutionBody(rho=np.array([0.0, 0.5, 1.0]), z=np.array([1.0, 1.0, 1.0]))
        cap = sphere.Cap(E3, 0.5)
        mu = convex.prescribed_cap_measure(cyl, cap.height, np.array([-1.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="cylinder"):
            convex.minkowski_solve_revolution(mu, cyl, cap)

    def test_off_axis_cap_rejected(self):
        source = fixtures.Ball(1.0).body(513)
        cap = sphere.Cap(np.array([1.0, 0.0, 0.0]), 0.5)
        mu = convex.prescribed_cap_measure(source, cap.height, np.array([-1.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="axis"):
            convex.minkowski_solve_revolution(mu, source, cap)

    def test_equator_cap_is_unconstructible(self):
        with pytest.raises(ValueError, match="height"):
            sphere.Cap(E3, 0.0)


class TestFixtureGeometry:
    def test_lens_radii_split_on_fan(self):
        lens = fixtures.Lens()
        r1, r2 = lens.radii(np.array([0.2]))
        assert r1[0] == 0.0
        assert abs(r2[0] - lens.d / math.sqrt(1 - 0.04)) < 1e-12

    def test_lens_cap_piece_is_spherical(self):
        lens = fixtures.Lens()
        r1, r2 = lens.radii(np.array([0.7, -0.9]))
        assert np.all(r1 == 1.0) and np.all(r2 == 1.0)
        u = np.array([[0.0, 0.6, 0.8], [0.0, 0.6, -0.8]])
        pts = lens.boundary_points(u)
        # cap points lie on the unit spheres centered at ∓ e3/2
        centers = np.array([[0.0, 0.0, -0.5], [0.0, 0.0, 0.5]])
        assert np.max(np.abs(np.linalg.norm(pts - centers, axis=1) - 1.0)) < 1e-12

    def test_spherocylinder_points_on_two_spheres(self):
        sc = fixtures.Spherocylinder(1.0, 0.6)
        u = np.array([[0.0, 0.6, 0.8], [0.0, 0.6, -0.8]])
        pts = sc.boundary_points(u)
        centers = np.array([[0.0, 0.0, 0.3], [0.0, 0.0, -0.3]])
        assert np.max(np.abs(np.linalg.norm(pts - centers, axis=1) - 1.0)) < 1e-12

    def test_ellipsoid_radii_oracle_sphere(self):
        r = oracles.ellipsoid_radii_oracle([2.0, 2.0, 2.0], np.array([0.0, 0.0, 1.0]))
        assert_allclose(r, [2.0, 2.0], atol=1e-12)
