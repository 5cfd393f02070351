import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from zonotools import cli, convex, harmonics, sphere, transforms

import oracles
from conftest import random_density, random_even_coeffs, random_function, random_unit

E3 = np.array([0.0, 0.0, 1.0])


class TestSphericalFunction:
    def test_shape_checked(self, small_grid):
        with pytest.raises(ValueError):
            transforms.SphericalFunction(grid=small_grid, values=np.ones(5))

    def test_even_parity_defect(self, small_grid):
        # an even function agrees with itself under the antipodal node map
        vals = small_grid.nodes[:, 0] ** 2
        assert np.max(np.abs(vals - vals[small_grid.antipode_index()])) < 1e-15

    def test_evaluate_needs_coeffs(self, small_grid):
        # the multiplier transforms act on the harmonic expansion
        f = transforms.SphericalFunction(grid=small_grid, values=np.ones(small_grid.n_nodes))
        with pytest.raises(ValueError, match="evaluation rule"):
            transforms.funk_transform(f)

    def test_coeff_synthesis_consistency(self, grid):
        f = random_function(grid, 12, np.random.default_rng(0))
        assert np.max(np.abs(oracles.synthesize_points(f.coeffs, grid.nodes) - f.values)) < 1e-10


class TestCosineTransform:
    def test_constant_density(self, grid):
        one = transforms.SphericalFunction(grid=grid, values=np.ones(grid.n_nodes))
        out = transforms.cosine_transform(one.with_coeffs(8))
        assert np.max(np.abs(out.values - 2 * math.pi)) < 1e-12

    def test_odd_input_vanishes(self, grid):
        f = transforms.SphericalFunction(grid=grid, values=grid.nodes[:, 2]).with_coeffs(8)
        out = transforms.cosine_transform(f)
        assert np.max(np.abs(out.values)) < 1e-12

    def test_linearity_exact(self, small_grid):
        rng = np.random.default_rng(1)
        f = rng.normal(size=small_grid.n_nodes)
        g = rng.normal(size=small_grid.n_nodes)

        def cos_t(values):
            fn = transforms.SphericalFunction(grid=small_grid, values=values)
            return transforms.cosine_transform(fn.with_coeffs(16)).values

        Ff, Fg, Ffg = cos_t(f), cos_t(g), cos_t(2.0 * f + 0.5 * g)
        assert np.max(np.abs(Ffg - 2.0 * Ff - 0.5 * Fg)) < 1e-12

    def test_requires_evaluation_rule(self, small_grid):
        f = transforms.SphericalFunction(grid=small_grid, values=np.ones(small_grid.n_nodes))
        with pytest.raises(ValueError, match="evaluation rule"):
            transforms.cosine_transform(f)

    def test_split_quadrature_matches_spectral(self, grid):
        # accurate-quadrature oracle vs the multiplier route: dual check
        rng = np.random.default_rng(2)
        c = random_even_coeffs(24, rng)
        f = transforms.SphericalFunction.from_coeffs(grid, c)
        targets = random_unit(rng, 12)
        quad = oracles.cosine_transform_quadrature(f, targets)
        prod = oracles.synthesize_points(transforms.cosine_transform(f).coeffs, targets)
        assert np.max(np.abs(quad - prod)) < 1e-8


class TestFunkTransform:
    def test_constant(self, small_grid):
        one = transforms.SphericalFunction(
            grid=small_grid, values=np.ones(small_grid.n_nodes)
        ).with_coeffs(8)
        out = transforms.funk_transform(one)
        assert np.max(np.abs(out.values - 2 * math.pi)) < 1e-12

    def test_degree_two_zonal_multiplier(self, small_grid):
        c = harmonics.HarmonicCoeffs.zeros(4)
        c.set(2, 0, 1.0)
        f = transforms.SphericalFunction.from_coeffs(small_grid, c)
        out = transforms.funk_transform(f)
        assert np.max(np.abs(out.values + math.pi * f.values)) < 1e-12

    def test_odd_input_gives_zero(self, small_grid):
        c = harmonics.HarmonicCoeffs.zeros(3)
        c.set(1, 0, 1.0)
        c.set(3, 2, 0.5)
        f = transforms.SphericalFunction.from_coeffs(small_grid, c)
        out = transforms.funk_transform(f)
        assert np.max(np.abs(out.values)) < 1e-13

    def test_requires_evaluation_rule(self, small_grid):
        f = transforms.SphericalFunction(grid=small_grid, values=np.ones(small_grid.n_nodes))
        with pytest.raises(ValueError, match="evaluation rule"):
            transforms.funk_transform(f)

    def test_matches_spectral_route(self, grid):
        rng = np.random.default_rng(4)
        c = random_even_coeffs(24, rng)
        f = transforms.SphericalFunction.from_coeffs(grid, c)
        targets = random_unit(rng, 10)
        quad = oracles.funk_transform_at(f, targets, m=128)
        prod = oracles.synthesize_points(transforms.funk_transform(f).coeffs, targets)
        assert np.max(np.abs(quad - prod)) < 1e-8


@settings(max_examples=12, deadline=None)
@given(L=st.integers(0, 24), seed=st.integers(0, 2**32 - 1))
def test_production_routes_match_oracles(grid, L, seed):
    """Streaming synthesis equals the grid synthesis, and the multiplier
    transforms equal their quadrature oracles, on unit-norm inputs of any
    parity."""
    rng = np.random.default_rng(seed)
    c = harmonics.HarmonicCoeffs(L=L, c=rng.normal(size=(L + 1) ** 2))
    c.c /= math.sqrt(c.norm2())
    on_grid = harmonics.synthesize_grid(c, grid)
    assert np.max(np.abs(oracles.synthesize_points(c, grid.nodes) - on_grid)) < 1e-12
    f = transforms.SphericalFunction(grid=grid, values=on_grid, coeffs=c)
    targets = random_unit(rng, 3)
    funk = oracles.synthesize_points(transforms.funk_transform(f).coeffs, targets)
    assert np.max(np.abs(funk - oracles.funk_transform_at(f, targets))) < 1e-8
    cosine = oracles.synthesize_points(transforms.cosine_transform(f).coeffs, targets)
    assert np.max(np.abs(cosine - oracles.cosine_transform_quadrature(f, targets))) < 1e-8


@settings(max_examples=15, deadline=None)
@given(
    L=st.integers(0, 24),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["x", "y", "rotation"]),
)
def test_spectral_transforms_are_equivariant(grid, L, seed, kind):
    """T(f o R) = T(f) o R for the multiplier Funk and cosine transforms,
    under the coordinate reflections and random rotations R; the plateau
    design's symmetry fold rests on this."""
    rng = np.random.default_rng(seed)
    if kind == "rotation":
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        R = q * np.sign(np.diag(r))
    else:
        R = np.diag(np.where(np.array(["x", "y", "z"]) == kind, -1.0, 1.0))
    c = harmonics.HarmonicCoeffs(L=L, c=rng.normal(size=(L + 1) ** 2))
    c.c /= math.sqrt(c.norm2())
    mapped = grid.nodes @ R.T
    f = transforms.SphericalFunction.from_coeffs(grid, c)
    vals = oracles.synthesize_points(c, mapped)
    f_R = transforms.SphericalFunction(grid=grid, values=vals, coeffs=harmonics.analyze(grid, vals, L))
    for transform in (transforms.funk_transform, transforms.cosine_transform):
        expect = oracles.synthesize_points(transform(f).coeffs, mapped)
        assert np.max(np.abs(transform(f_R).values - expect)) < 1e-10


def _circle_tensor(g, u, m=256):
    """T and the deviation of the callable g on the circle u-perp."""
    T, dev = transforms.isotropy_tensors(g(oracles.circle_nodes(sphere.great_circle(u, m)))[None])
    return T[0], float(dev[0])


class TestSectionIsotropy:
    def test_constant_density_isotropic(self):
        T, dev = _circle_tensor(
            lambda p: np.ones(len(p)), np.array([0.2, -0.3, 0.933]) / np.linalg.norm([0.2, -0.3, 0.933])
        )
        assert_allclose(T, math.pi * np.eye(2), atol=1e-12)
        assert dev < 1e-14

    def test_x1_squared_at_pole(self):
        T, dev = _circle_tensor(lambda p: p[:, 0] ** 2, E3)
        assert_allclose(T, np.diag([3 * math.pi / 4, math.pi / 4]), atol=1e-12)
        assert abs(dev - math.sqrt(2) / 4) < 1e-12
        assert abs(np.trace(T) - math.pi) < 1e-12

    def test_deviation_zero_iff_isotropic(self):
        _, dev = _circle_tensor(lambda p: 2.0 + p[:, 2], E3)
        assert dev < 1e-14  # on the equator the density is constant

    def test_deviation_matches_circle_fourier_mass(self, grid):
        # |T - iso| relates to the order-2 Fourier content on the circle
        f = random_density(grid, 10, np.random.default_rng(5))
        u = random_unit(np.random.default_rng(6))
        T, dev = transforms.isotropy_tensors(transforms.circle_samples(f.coeffs.c, u, 256)[None])
        mass = oracles.circle_fourier_mass(f, u, degree=2)
        assert abs(dev[0] * abs(np.trace(T[0])) - math.sqrt(mass / 2.0)) < 1e-10

    def test_given_samples_match_sampled_route(self, grid):
        # the tensor of the circle_samples route against the tensor of the
        # samples synthesized point by point at the circle's nodes
        f = random_density(grid, 10, np.random.default_rng(7))
        u = random_unit(np.random.default_rng(8))
        T, dev = transforms.isotropy_tensors(transforms.circle_samples(f.coeffs.c, u, 64)[None])
        T_ref, dev_ref = _circle_tensor(lambda p: oracles.synthesize_points(f.coeffs, p), u, 64)
        assert np.max(np.abs(T[0] - T_ref)) <= 1e-13 * np.max(np.abs(T_ref))
        assert abs(dev[0] - dev_ref) <= 1e-12 * dev_ref

    def test_angle_tables_cached_and_read_only(self):
        # the isotropy tensor's circle table, cos 2a and sin 2a, is the
        # order-2 half of the stored longitude table of band 2
        cs = harmonics.longitude_table(2, 64)
        assert harmonics.longitude_table(2, 64) is cs
        assert not cs.flags.writeable
        two_a = 4.0 * np.pi * np.arange(64) / 64
        assert np.array_equal(cs[2], np.cos(two_a)) and np.array_equal(cs[5], np.sin(two_a))

    @pytest.mark.parametrize("m", [8, 64, 97, 256])
    def test_tensor_matches_the_angle_sums(self, m):
        # T from the order-0 and order-2 moments against the direct sums of
        # g cos^2 a, g sin^2 a and g cos a sin a
        rng = np.random.default_rng(m)
        g = rng.uniform(0.5, 2.0, size=(3, m))
        a = 2.0 * np.pi * np.arange(m) / m
        w = 2.0 * np.pi / m
        T, _ = transforms.isotropy_tensors(g)
        for s in range(3):
            ref = w * np.array([
                [np.sum(g[s] * np.cos(a) ** 2), np.sum(g[s] * np.cos(a) * np.sin(a))],
                [np.sum(g[s] * np.cos(a) * np.sin(a)), np.sum(g[s] * np.sin(a) ** 2)],
            ])
            assert np.max(np.abs(T[s] - ref)) <= 1e-14 * np.sum(np.abs(ref))


@settings(max_examples=40, deadline=None)
@given(
    L=st.integers(0, 48),
    m=st.sampled_from([8, 64, 97, 256]),
    S=st.integers(1, 6),
    pole=st.sampled_from([None, 1.0, -1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(L=12, m=256, S=3, pole=None, seed=1)  # the isotropy-gap suite's circles
@example(L=48, m=256, S=2, pole=None, seed=2)  # the counterexample's circles
@example(L=48, m=97, S=2, pole=None, seed=3)  # 2L + 2 >= m: the orders alias
@example(L=48, m=256, S=4, pole=1.0, seed=4)
@example(L=48, m=64, S=4, pole=-1.0, seed=5)
@example(L=28, m=8, S=4, pole=None, seed=0)  # a node 8e-4 from the pole
def test_circle_samples_match_point_synthesis(L, m, S, pole, seed):
    """circle_samples is within 1e-12 max|g| of the oracle synthesize_points
    at the great_circle(u, m) nodes, and gives a circle bitwise the same
    alone and in any stack.  With ``pole``, the first normal is that pole
    of e_z exactly and the second lies within 1e-9 of it."""
    rng = np.random.default_rng(seed)
    coeffs = [harmonics.HarmonicCoeffs(L=L, c=rng.normal(size=(L + 1) ** 2)) for _ in range(S)]
    for c in coeffs:
        if rng.random() < 0.5:  # an even expansion, as the densities are
            c.c[c.degrees() % 2 == 1] = 0.0
    C = np.stack([c.c for c in coeffs])
    normals = rng.normal(size=(S, 3))
    if pole is not None:
        normals[0] = [0.0, 0.0, pole]
        normals[1:2] = [*(1e-9 * rng.uniform(-0.7, 0.7, size=2)), pole]
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    got = transforms.circle_samples(C, normals, m)
    assert got.shape == (S, m)
    nodes = oracles.circle_nodes(sphere.great_circle(normals, m))
    for s in range(S):
        ref = oracles.synthesize_points(coeffs[s], nodes[s])
        assert np.max(np.abs(got[s] - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(transforms.circle_samples(C[s], normals[s], m), got[s])
    a = int(rng.integers(0, S))
    b = int(rng.integers(a + 1, S + 1))
    assert np.array_equal(transforms.circle_samples(C[a:b], normals[a:b], m), got[a:b])


_cached_grid = functools.lru_cache(maxsize=None)(sphere.build_grid)


@settings(max_examples=30, deadline=None)
@given(L=st.integers(0, 16), seed=st.integers(0, 2**32 - 1))
def test_radii_of_the_zonoid_are_twice_the_section_moments(L, seed):
    """The paper's equivalence, pointwise: for h = C(g), the radii-of-curvature
    tensor at x is twice the second-moment tensor of g on the circle x^⊥
    (Schneider's curvature function of a zonoid).  Compared through the
    frame-free invariants at random grid nodes, to 1e-12 of the trace:
    r1 + r2 = 2 (2 pi / m) S0 and |r1 - r2| = 2 (2 pi / m) sqrt(Sc^2 + Ss^2)."""
    rng = np.random.default_rng(seed)
    grid = _cached_grid(32, 64)
    g = random_density(grid, L, rng)
    _, _, _, r1, r2 = convex.radii_grid(transforms.cosine_transform(g).coeffs, grid)
    idx = rng.integers(0, grid.n_nodes, size=8)
    m = 64
    s0, sc, ss = transforms.circle_moments(transforms.circle_samples(np.broadcast_to(g.coeffs.c, (idx.size, g.coeffs.c.size)), grid.nodes[idx], m))
    w = 2.0 * math.pi / m
    trace = r1[idx] + r2[idx]
    assert np.all(np.abs(trace - 2.0 * w * s0) <= 1e-12 * trace)
    assert np.all(np.abs(r2[idx] - r1[idx] - 2.0 * w * np.hypot(sc, ss)) <= 1e-12 * trace)


class TestRadialSymmetrize:
    def test_zonal_fixed_point(self, grid):
        vals = np.repeat(np.cos(grid.theta), grid.n_phi)
        f = transforms.SphericalFunction(grid=grid, values=vals)
        out = transforms.radial_symmetrize(f)
        assert np.array_equal(out.values, vals)

    def test_pure_longitude_harmonic_killed(self, grid):
        f = transforms.SphericalFunction(grid=grid, values=grid.nodes[:, 0])
        out = transforms.radial_symmetrize(f)
        assert np.max(np.abs(out.values)) < 1e-16

    def test_bitwise_idempotent(self, grid):
        f = random_function(grid, 20, np.random.default_rng(7))
        once = transforms.radial_symmetrize(f)
        twice = transforms.radial_symmetrize(once)
        assert np.array_equal(once.values, twice.values)

    def test_l1_preserved_for_nonnegative(self, grid):
        for seed in range(5):
            f = random_function(grid, 24, np.random.default_rng(seed), nonnegative=True)
            sr = transforms.radial_symmetrize(f)
            l1 = transforms.lp_norm(f, 1)
            assert abs(l1 - transforms.lp_norm(sr, 1)) < 1e-12 * l1

    def test_lp_contraction(self, grid):
        for p in (2, 3):
            f = random_function(grid, 24, np.random.default_rng(11), nonnegative=True)
            sr = transforms.radial_symmetrize(f)
            assert transforms.lp_norm(sr, p) <= transforms.lp_norm(f, p) + 1e-12

    def test_jensen_pointwise(self, grid):
        f = random_function(grid, 16, np.random.default_rng(12), nonnegative=True)
        sr = transforms.radial_symmetrize(f)
        f2 = transforms.SphericalFunction(grid=grid, values=f.values**2)
        sr2 = transforms.radial_symmetrize(f2)
        assert np.all(sr.values <= np.sqrt(sr2.values) + 1e-12)

    def test_commutes_with_axis_rotation(self, grid):
        f = random_function(grid, 16, np.random.default_rng(13))
        shift = grid.n_phi // 4  # quarter turn: exact node permutation
        rot_vals = grid.ring_view(f.values)[:, np.roll(np.arange(grid.n_phi), shift)]
        rot = transforms.SphericalFunction(grid=grid, values=rot_vals.reshape(-1))
        a = transforms.radial_symmetrize(rot)
        b = transforms.radial_symmetrize(f)
        # permuted summation order rounds differently; equality up to ulps
        scale = np.max(np.abs(b.values))
        assert np.max(np.abs(a.values - b.values)) < 1e-14 * scale

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from([(2, 4), (5, 7), (8, 16), (16, 129), (12, 300)]),
        seed=st.integers(0, 2**32 - 1),
        kinds=st.lists(st.sampled_from(["random", "constant", "signed-zero"]), min_size=300, max_size=300),
    )
    def test_matches_ring_loop_bitwise(self, shape, seed, kinds):
        """One vectorized pass equals the ring-by-ring loop bit for bit, on
        rings that are constant, zeros of mixed sign, or varying."""
        grid = _cached_grid(*shape)
        rng = np.random.default_rng(seed)
        V = rng.normal(size=(grid.n_theta, grid.n_phi)) * 10.0 ** rng.integers(-5, 6, size=(grid.n_theta, 1))
        for i, kind in zip(range(grid.n_theta), kinds):
            if kind == "constant":
                V[i] = V[i, 0]
            elif kind == "signed-zero":
                V[i] = np.where(rng.random(grid.n_phi) < 0.5, 0.0, -0.0)
        f = transforms.SphericalFunction(grid=grid, values=V.reshape(-1))
        out = transforms.radial_symmetrize(f)
        assert out.values.tobytes() == oracles.ring_average_loop(V).reshape(-1).tobytes()


def _per_map_average(f, angles):
    """Oracle for finite_average: synthesize f at R(nodes) for every
    rotation R about e3."""
    acc = np.zeros(f.grid.n_nodes)
    for a in angles:
        c, s = math.cos(a), math.sin(a)
        R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        acc += oracles.synthesize_points(f.coeffs, f.grid.nodes @ R.T)
    return acc / len(angles)


class TestFiniteAverage:
    def test_identity_rotation(self, grid):
        f = random_function(grid, 12, np.random.default_rng(14))
        out = transforms.finite_average(f, [0.0])
        assert np.max(np.abs(out.values - f.values)) < 1e-10

    def test_zonal_invariant(self, grid):
        c = harmonics.HarmonicCoeffs.zeros(6)
        c.set(4, 0, 1.0)
        f = transforms.SphericalFunction.from_coeffs(grid, c)
        out = transforms.finite_average(f, [0.4, 1.1, 2.9])
        assert np.max(np.abs(out.values - f.values)) < 1e-12

    def test_convergence_to_symmetrization(self, grid):
        f = random_function(grid, 16, np.random.default_rng(15))
        target = transforms.radial_symmetrize(f)
        last = np.inf
        for m in (1, 2, 4, 8, 16, 32, 64):
            avg = transforms.finite_average(f, [2 * math.pi * k / m for k in range(m)])
            dist = transforms.l2_distance(avg, target)
            assert dist <= last + 1e-12
            last = dist
        assert last < 1e-6

    def test_output_carries_averaged_coeffs(self, grid):
        f = random_function(grid, 10, np.random.default_rng(19))
        out = transforms.finite_average(f, [0.3, 2.0])
        assert out.coeffs is not None
        assert np.max(np.abs(harmonics.synthesize_grid(out.coeffs, grid) - out.values)) == 0.0

    def test_matrix_rejected(self, small_grid):
        # a map is given by its angle about e3, not as a matrix
        f = random_function(small_grid, 4, np.random.default_rng(22))
        with pytest.raises(ValueError, match="angles about e3, got a ndarray"):
            transforms.finite_average(f, [0.5, np.eye(3)])

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, small_grid, angle):
        f = random_function(small_grid, 8, np.random.default_rng(20))
        with pytest.raises(ValueError, match=f"finite, got {angle!r}"):
            transforms.finite_average(f, [0.5, angle])

    def test_sr_suite_synthesizes_no_points(self, monkeypatch):
        # no value off the grid: rotate_rows is the package's one route there
        calls = []
        real = harmonics.rotate_rows

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(harmonics, "rotate_rows", counting)
        rows = cli.suite_sr(cli.RunContext(cli.RunConfig()))
        assert all(row["pass"] for row in rows)
        assert len(calls) == 0


@settings(max_examples=25, deadline=None)
@given(
    L=st.integers(0, 16),
    seed=st.integers(0, 2**32 - 1),
    angles=st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=1, max_size=8),
)
def test_finite_average_matches_per_map_synthesis(small_grid, L, seed, angles):
    """The per-order phase average equals the average of the syntheses at
    the rotated nodes, for rotations about e3."""
    c = harmonics.HarmonicCoeffs(L=L, c=np.random.default_rng(seed).normal(size=(L + 1) ** 2))
    f = transforms.SphericalFunction.from_coeffs(small_grid, c)
    out = transforms.finite_average(f, angles)
    expect = _per_map_average(f, angles)
    # an average of resamplings is no larger than f itself
    assert np.max(np.abs(out.values - expect)) <= 1e-12 * np.max(np.abs(f.values))


class TestL2Distance:
    def test_transposed_grid_rejected(self, grid):
        # same node count, different layout
        other = sphere.build_grid(128, 64)
        f = transforms.SphericalFunction(grid=grid, values=np.ones(grid.n_nodes))
        g = transforms.SphericalFunction(grid=other, values=np.ones(other.n_nodes))
        with pytest.raises(ValueError, match="different grids"):
            transforms.l2_distance(f, g)

    def test_equal_layouts_accepted(self, grid):
        other = sphere.build_grid(64, 128)
        f = transforms.SphericalFunction(grid=grid, values=np.ones(grid.n_nodes))
        g = transforms.SphericalFunction(grid=other, values=np.zeros(other.n_nodes))
        assert abs(transforms.l2_distance(f, g) - math.sqrt(4 * math.pi)) < 1e-13


class TestLpNorm:
    def test_constant_l2(self, grid):
        one = transforms.SphericalFunction(grid=grid, values=np.ones(grid.n_nodes))
        assert abs(transforms.lp_norm(one, 2) - math.sqrt(4 * math.pi)) < 1e-13

    def test_p_below_one_rejected(self, grid):
        one = transforms.SphericalFunction(grid=grid, values=np.ones(grid.n_nodes))
        with pytest.raises(ValueError):
            transforms.lp_norm(one, 0.5)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_non_finite_p_rejected(self, p):
        # the sup norm of the constant 5 is 5, which the quadrature cannot
        # give: (integral 5^p)^(1/p) reads 1.0 at p = inf and nan at nan
        grid = sphere.build_grid(16, 32)
        five = transforms.SphericalFunction(grid=grid, values=np.full(grid.n_nodes, 5.0))
        with pytest.raises(ValueError, match=f"got {p}"):
            transforms.lp_norm(five, p)


class TestSlicingIdentity:
    def test_constant_function_closed_form(self, grid):
        # the double integral equals 1/2, so the identity reads 8 pi/2 = 4 pi
        one = transforms.SphericalFunction(grid=grid, values=np.ones(grid.n_nodes)).with_coeffs(4)
        lhs, rhs = transforms.sr_profile_l1_identity(one)
        assert abs(lhs - 4 * math.pi) < 1e-12
        assert abs(rhs - 4 * math.pi) < 1e-12

    def test_general_band_limited(self, grid):
        f = random_function(grid, 24, np.random.default_rng(18), nonnegative=True)
        lhs, rhs = transforms.sr_profile_l1_identity(f)
        assert abs(lhs - rhs) < 1e-6 * lhs

    def test_gauss_nodes_built_once(self, grid, monkeypatch):
        f = random_function(grid, 8, np.random.default_rng(23), nonnegative=True)
        first = transforms.sr_profile_l1_identity(f)
        builds = []
        real = np.polynomial.legendre.leggauss
        monkeypatch.setattr(
            np.polynomial.legendre, "leggauss", lambda n: builds.append(n) or real(n)
        )
        assert transforms.sr_profile_l1_identity(f) == first
        assert builds == []

    @settings(max_examples=30, deadline=None)
    @given(
        L=st.integers(0, 24),
        n_t=st.integers(1, 200),
        n_r=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(L=24, n_t=160, n_r=240, seed=1)  # the suite's default
    @example(L=24, n_t=transforms.SR_IDENTITY_BLOCK - 1, n_r=240, seed=2)  # one short block
    @example(L=8, n_t=2 * transforms.SR_IDENTITY_BLOCK + 5, n_r=7, seed=3)  # a short last block
    @example(L=0, n_t=1, n_r=1, seed=4)
    def test_blocks_match_the_whole_tensor_bitwise(self, grid, L, n_t, n_r, seed):
        f = random_function(grid, L, np.random.default_rng(seed), nonnegative=True)
        got = transforms.sr_profile_l1_identity(f, n_t, n_r)
        assert got == oracles.sr_profile_l1_identity_tensor(f, n_t, n_r)

    def test_traced_peak_is_a_few_blocks(self, grid):
        # each of the ten or so temporaries holds one block of t-nodes
        # (0.32 MB traced at band 24, 2.77 MB with the whole tensor)
        f = random_function(grid, 24, np.random.default_rng(18), nonnegative=True)
        transforms.sr_profile_l1_identity(f)  # the Gauss rules are cached by now
        tracemalloc.start()
        try:
            transforms.sr_profile_l1_identity(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6
