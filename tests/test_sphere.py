import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from zonotools import harmonics, sphere

import oracles

FOUR_PI = 4.0 * math.pi


def sphere_monomial_integral(alpha):
    """Closed-form integral of x^alpha over the unit sphere.

    Vanishes unless all exponents are even; otherwise
    4 pi * prod (a_i - 1)!! / (|a| + 1)!!.
    """
    if any(a % 2 for a in alpha):
        return 0.0
    def dfact(n):
        out = 1
        while n > 1:
            out *= n
            n -= 2
        return out
    num = 1
    for a in alpha:
        num *= dfact(a - 1)
    return FOUR_PI * num / dfact(sum(alpha) + 1)


class TestBuildGrid:
    def test_weights_sum_to_sphere_area(self):
        g = sphere.build_grid(32, 64)
        assert g.n_nodes == 2048
        assert abs(np.sum(g.weights) - FOUR_PI) < 1e-12 * FOUR_PI

    def test_nodes_are_unit(self):
        g = sphere.build_grid(16, 33)
        assert np.max(np.abs(np.linalg.norm(g.nodes, axis=1) - 1.0)) < 1e-14

    def test_rings_share_colatitude_and_weight(self):
        g = sphere.build_grid(8, 17)
        z, w = g.ring_view(g.nodes[:, 2]), g.ring_view(g.weights)
        for i in range(g.n_theta):
            assert_allclose(z[i], g.cos_theta[i], atol=1e-15)
            assert np.all(w[i] == g.ring_weight[i])

    def test_minimal_grid_degree_three_exact(self):
        g = sphere.build_grid(2, 4)
        for alpha in itertools.product(range(4), repeat=3):
            if sum(alpha) > 3:
                continue
            vals = g.nodes[:, 0] ** alpha[0] * g.nodes[:, 1] ** alpha[1] * g.nodes[:, 2] ** alpha[2]
            assert abs(sphere.integrate(g, vals) - sphere_monomial_integral(alpha)) < 1e-13

    @pytest.mark.parametrize("n_theta,n_phi", [(0, 4), (1, 8), (4, 3), (-2, 16)])
    def test_rejects_bad_sizes(self, n_theta, n_phi):
        with pytest.raises(ValueError):
            sphere.build_grid(n_theta, n_phi)


class TestLeggauss:
    @pytest.mark.parametrize("n", [2, 7, 64, 160, 240])
    def test_cached_read_only_and_bitwise_numpy(self, n):
        x, w = sphere.leggauss(n)
        fx, fw = np.polynomial.legendre.leggauss(n)
        assert x.tobytes() == fx.tobytes() and w.tobytes() == fw.tobytes()
        assert sphere.leggauss(n)[0] is x
        for a in (x, w):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0


class TestIntegrate:
    def test_constant(self, small_grid):
        assert abs(sphere.integrate(small_grid, np.ones(small_grid.n_nodes)) - FOUR_PI) < 1e-12

    def test_x3_squared(self, small_grid):
        # 1-D oracle: 2 pi * int t^2 dt = 4 pi / 3
        val = sphere.integrate(small_grid, small_grid.nodes[:, 2] ** 2)
        assert abs(val - FOUR_PI / 3.0) < 1e-13

    def test_odd_function_vanishes(self, small_grid):
        assert abs(sphere.integrate(small_grid, small_grid.nodes[:, 2])) < 1e-14

    def test_monomials_degree_six_on_8_17(self):
        g = sphere.build_grid(8, 17)
        for alpha in itertools.product(range(7), repeat=3):
            if sum(alpha) > 6:
                continue
            vals = g.nodes[:, 0] ** alpha[0] * g.nodes[:, 1] ** alpha[1] * g.nodes[:, 2] ** alpha[2]
            exact = sphere_monomial_integral(alpha)
            assert abs(sphere.integrate(g, vals) - exact) <= 1e-12 * max(1.0, abs(exact))

    def test_ring_average_preserves_integral(self, small_grid):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=small_grid.n_nodes)
        ring_avg = small_grid.ring_view(vals).mean(axis=1)
        averaged = np.repeat(ring_avg, small_grid.n_phi)
        a = sphere.integrate(small_grid, vals)
        b = sphere.integrate(small_grid, averaged)
        assert abs(a - b) < 1e-13

    def test_shape_mismatch(self, small_grid):
        with pytest.raises(ValueError):
            sphere.integrate(small_grid, np.ones(7))


class TestTangentBasis:
    def test_canonical_frame_at_pole(self):
        e1, e2 = sphere.tangent_basis(np.array([0.0, 0.0, 1.0]))
        assert_allclose(e1, [1.0, 0.0, 0.0], atol=1e-15)
        assert_allclose(e2, [0.0, 1.0, 0.0], atol=1e-15)

    def test_frame_at_e1(self):
        u = np.array([1.0, 0.0, 0.0])
        e1, e2 = sphere.tangent_basis(u)
        for v, w in [(e1, e2), (e1, u), (e2, u)]:
            assert abs(np.dot(v, w)) < 1e-14
        assert abs(np.linalg.norm(e1) - 1.0) < 1e-14
        assert abs(np.linalg.norm(e2) - 1.0) < 1e-14

    @settings(max_examples=50, deadline=None)
    @given(st.tuples(*[st.floats(-1, 1) for _ in range(3)]))
    def test_gram_matrix_identity(self, raw):
        v = np.asarray(raw)
        if np.linalg.norm(v) < 1e-3:
            return
        u = v / np.linalg.norm(v)
        e1, e2 = sphere.tangent_basis(u)
        frame = np.stack([e1, e2, u])
        assert np.max(np.abs(frame @ frame.T - np.eye(3))) < 1e-14
        assert np.max(np.abs(np.cross(e1, e2) - u)) < 1e-12  # right-handed

    @pytest.mark.parametrize("bad", [
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 2.0],
        [0.0, 0.0, 1.0 + 1e-9],
        [np.nan, 0.0, 1.0],
        [np.inf, 0.0, 0.0],
        [[0.0, 0.0, 1.0], [0.0, 0.0, 0.5]],
    ])
    def test_rejects_non_unit_input(self, bad):
        with pytest.raises(ValueError):
            sphere.tangent_basis(np.array(bad))

    def test_batched_matches_single(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(40, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        E1, E2 = sphere.tangent_basis(pts)
        for k in (0, 17, 39):
            e1, e2 = sphere.tangent_basis(pts[k])
            assert_allclose(E1[k], e1, atol=1e-15)
            assert_allclose(E2[k], e2, atol=1e-15)


class TestGreatCircle:
    def test_equatorial_circle(self):
        c = sphere.great_circle(np.array([0.0, 0.0, 1.0]), 128)
        assert np.max(np.abs(c.nodes[:, 2])) == 0.0
        assert abs(oracles.circle_integrate(lambda p: np.ones(len(p)), c) - 2 * math.pi) < 1e-14

    def test_nodes_orthogonal_to_normal(self):
        u = np.array([0.3, -0.4, 0.866025])
        u /= np.linalg.norm(u)
        c = sphere.great_circle(u, 64)
        assert np.max(np.abs(c.nodes @ u)) < 1e-15

    def test_x1_squared_integral(self):
        # 1-D oracle: int cos^2 over the period = pi
        c = sphere.great_circle(np.array([0.0, 0.0, 1.0]), 128)
        val = oracles.circle_integrate(lambda p: p[:, 0] ** 2, c)
        assert abs(val - math.pi) < 1e-13

    def test_vanishing_integrand_on_circle(self):
        c = sphere.great_circle(np.array([0.0, 0.0, 1.0]), 64)
        assert abs(oracles.circle_integrate(lambda p: p[:, 2], c)) < 1e-15

    def test_stacked_normals_match_single_circles(self):
        # near-polar normals take the other tangent-frame branch
        rng = np.random.default_rng(4)
        normals = rng.normal(size=(30, 3))
        normals[:5, 2] = 40.0
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        stacked = sphere.great_circle(normals, 64).nodes
        assert stacked.shape == (30, 64, 3)
        angles = 2.0 * np.pi * np.arange(64) / 64
        for k, u in enumerate(normals):
            single = sphere.great_circle(u, 64)
            assert np.array_equal(stacked[k], single.nodes)
            outer = np.outer(np.cos(angles), single.eps1) + np.outer(np.sin(angles), single.eps2)
            assert np.array_equal(single.nodes, outer)

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            sphere.great_circle(np.array([0.0, 0.0, 1.0]), 4)

    def test_non_unit_normal(self):
        with pytest.raises(ValueError):
            sphere.great_circle(np.array([0.0, 0.0, 2.0]), 64)

    def test_samples_only_rejected(self, small_grid):
        from zonotools import transforms

        f = transforms.SphericalFunction(grid=small_grid, values=np.ones(small_grid.n_nodes))
        c = sphere.great_circle(np.array([0.0, 0.0, 1.0]), 16)
        with pytest.raises(ValueError, match="evaluation rule"):
            oracles.circle_integrate(f, c)


class TestCap:
    def test_contains(self):
        cap = sphere.Cap(np.array([0.0, 0.0, 1.0]), 0.5)
        assert cap.contains(np.array([0.0, 0.0, 1.0]))
        assert not cap.contains(np.array([1.0, 0.0, 0.0]))

    def test_height_bounds(self):
        for bad in (0.0, 1.0, -0.3, 1.5):
            with pytest.raises(ValueError):
                sphere.Cap(np.array([0.0, 0.0, 1.0]), bad)

    def test_separation(self):
        u = sphere.Cap(np.array([0.0, 0.0, 1.0]), 0.9)
        v = sphere.Cap(np.array([1.0, 0.0, 0.0]), 0.9)
        expected = math.pi / 2 - 2 * math.acos(0.9)
        assert abs(u.separation(v) - expected) < 1e-12

    def test_sample_inside(self):
        cap = sphere.Cap(np.array([0.0, 1.0, 0.0]), 0.7)
        pts = cap.sample(200, np.random.default_rng(3))
        assert np.all(cap.contains(pts))
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1)) < 1e-12


#: a_3, the constant density whose zonoid is the unit ball: the reciprocal
#: of the sphere integral of |x_1|.
A3 = 1.0 / (2.0 * math.pi)


class TestDimensionConstants:
    def test_a3(self):
        # the cosine transform of the constant a_3 is the unit ball's h = 1
        assert abs(harmonics.multiplier_table("cosine", 0)[0] * A3 - 1.0) < 1e-15

    def test_a3_matches_quadrature(self, small_grid):
        val = sphere.integrate(small_grid, np.abs(small_grid.nodes[:, 0]))
        # the |x1| integrand is kink-limited on the product grid
        assert abs(1.0 / val - A3) < 1e-3 * A3


def _csv_lines(path, grid, values):
    sphere.grid_to_csv(path, grid, values)
    return path.read_text().split("\n")


def _set_cell(lines, line_no, column, text):
    """Replace one cell of a file line (1-based, as the errors count)."""
    cells = lines[line_no - 1].split(",")
    cells[column] = text
    lines[line_no - 1] = ",".join(cells)


def _short_row(lines):
    lines[4] = lines[4].rsplit(",", 1)[0]


def _five_then_three_fields(lines):
    # line 6's first cell ends line 5: the block's cells, read in order,
    # are unchanged, and so is its comma count
    head, rest = lines[5].split(",", 1)
    lines[4] += "," + head
    lines[5] = rest


def _blank_line(lines):
    lines.insert(99, "")
    lines.pop(-2)


def _truncated(lines):
    del lines[3001:]


def _trailing_data(lines):
    lines.insert(-1, "x")


def _trailing_blank_line(lines):
    lines.insert(-1, "")


def _node_then_bad_float(lines):
    _set_cell(lines, 5, 1, "0.5")
    _set_cell(lines, 3000, 3, "abc")


def _bad_float_then_node(lines):
    _set_cell(lines, 5, 3, "abc")
    _set_cell(lines, 3000, 1, "0.5")


class TestCsv:
    def test_roundtrip(self, tmp_path, small_grid):
        rng = np.random.default_rng(7)
        vals = rng.normal(size=small_grid.n_nodes)
        path = tmp_path / "dump.csv"
        sphere.grid_to_csv(path, small_grid, vals)
        back = sphere.grid_from_csv(path, small_grid)
        assert np.array_equal(back, vals)

    @pytest.mark.parametrize("shape", [(64, 128), (2, 4), (5, 7)])
    def test_writer_matches_per_node_oracle(self, tmp_path, shape):
        grid = sphere.build_grid(*shape)
        rng = np.random.default_rng(11)
        vals = rng.normal(size=grid.n_nodes) * 10.0 ** rng.integers(-300, 300, size=grid.n_nodes)
        vals[:6] = [0.0, -0.0, 5e-324, -1.7976931348623157e308, math.nan, math.inf]
        sphere.grid_to_csv(tmp_path / "rings.csv", grid, vals)
        oracles.grid_to_csv_per_node(tmp_path / "nodes.csv", grid, vals)
        assert (tmp_path / "rings.csv").read_bytes() == (tmp_path / "nodes.csv").read_bytes()

    def test_header_checked(self, tmp_path, small_grid):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError, match="line 1"):
            sphere.grid_from_csv(path, small_grid)

    def test_truncated_file(self, tmp_path, small_grid):
        path = tmp_path / "short.csv"
        th, ph = small_grid.theta[0], small_grid.phi[0]
        path.write_text(f"theta,phi,weight,value\n{th:.17g},{ph:.17g},0.3,0.4\n")
        with pytest.raises(ValueError, match="line 3"):
            sphere.grid_from_csv(path, small_grid)

    @pytest.mark.parametrize("edit, message", [
        (_short_row, "line 5: expected 4 columns, got 3"),
        (_five_then_three_fields, "line 5: expected 4 columns, got 5"),
        (lambda lines: _set_cell(lines, 3000, 3, "abc"),
         "line 3000: could not convert string to float: 'abc'"),
        (_blank_line, "line 100: expected 4 columns, got 1"),
        (_truncated, "line 3002: unexpected end of file"),
        (_trailing_data, "line 8194: trailing data after grid rows"),
        (_trailing_blank_line, "line 8194: trailing data after grid rows"),
        # the first offending line wins
        (_node_then_bad_float, "line 5: node does not match the grid layout"),
        (_bad_float_then_node, "line 5: could not convert string to float: 'abc'"),
        (lambda lines: _set_cell(lines, 7, 3, "nan"), "line 7: value is not finite ('nan')"),
        (lambda lines: _set_cell(lines, 2500, 3, "-inf"), "line 2500: value is not finite ('-inf')"),
        (lambda lines: _set_cell(lines, 8193, 2, "inf"), "line 8193: weight is not finite ('inf')"),
        # a NaN node passed the 1e-9 layout compare, which is false for NaN
        (lambda lines: _set_cell(lines, 9, 0, "nan"), "line 9: theta is not finite ('nan')"),
        (lambda lines: _set_cell(lines, 4100, 1, "NaN"), "line 4100: phi is not finite ('NaN')"),
    ])
    def test_malformed_file_names_first_bad_line(self, tmp_path, grid, edit, message):
        path = tmp_path / "bad.csv"
        lines = _csv_lines(path, grid, np.ones(grid.n_nodes))
        edit(lines)
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError) as exc:
            sphere.grid_from_csv(path, grid)
        assert str(exc.value) == message

    @pytest.mark.parametrize("tail, message", [
        ("x\n", "line 37: trailing data after grid rows"),
        ("\n", "line 37: trailing data after grid rows"),
    ])
    def test_trailing_data_after_a_partial_block(self, tmp_path, tail, message):
        # the 35 rows of a 5 x 7 grid, then the tail
        grid = sphere.build_grid(5, 7)
        path = tmp_path / "dump.csv"
        sphere.grid_to_csv(path, grid, np.ones(grid.n_nodes))
        path.write_text(path.read_text() + tail)
        with pytest.raises(ValueError) as exc:
            sphere.grid_from_csv(path, grid)
        assert str(exc.value) == message

    @pytest.mark.parametrize("newline, final", [("\r\n", True), ("\n", False), ("\r\n", False)])
    def test_line_endings_accepted(self, tmp_path, grid, newline, final):
        vals = np.random.default_rng(3).normal(size=grid.n_nodes)
        path = tmp_path / "dump.csv"
        lines = _csv_lines(path, grid, vals)
        assert lines.pop() == ""
        path.write_bytes((newline.join(lines) + (newline if final else "")).encode())
        assert np.array_equal(sphere.grid_from_csv(path, grid), vals)


def _count_numeric_reads(mp):
    """Record the row count of every call of grid_from_csv's numeric check."""
    calls = []
    real = sphere._check_rows

    def counting(rows, grid):
        calls.append(len(rows))
        return real(rows, grid)

    mp.setattr(sphere, "_check_rows", counting)
    return calls


def _savetxt_csv(path, grid, values, fmt="%.17g", moved=0.0):
    """A grid CSV written by np.savetxt from build_grid's nodes, its theta,
    phi and weight columns in ``fmt`` and theta and phi moved by ``moved``."""
    layout = np.column_stack([
        np.repeat(grid.theta, grid.n_phi) + moved,
        np.tile(grid.phi, grid.n_theta) + moved,
        grid.weights,
    ])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(sphere.CSV_HEADER + "\n")
        for row, value in zip(layout, values):
            fh.write(",".join(fmt % x for x in row) + ",%.17g\n" % value)


class TestCsvTextRoute:
    """Files in the grid's own layout text have only their value column
    converted; any other text goes through the numeric check."""

    def test_grid_to_csv_file_skips_the_numeric_check(self, tmp_path, grid):
        vals = np.random.default_rng(21).normal(size=grid.n_nodes)
        path = tmp_path / "dump.csv"
        sphere.grid_to_csv(path, grid, vals)
        with pytest.MonkeyPatch.context() as mp:
            calls = _count_numeric_reads(mp)
            back = sphere.grid_from_csv(path, grid)
        assert calls == []
        assert back.tobytes() == vals.tobytes()

    def test_savetxt_file_skips_the_numeric_check(self, tmp_path, grid):
        vals = np.random.default_rng(22).normal(size=grid.n_nodes)
        path = tmp_path / "savetxt.csv"
        np.savetxt(path, np.column_stack([
            np.repeat(grid.theta, grid.n_phi), np.tile(grid.phi, grid.n_theta), grid.weights, vals,
        ]), fmt="%.17g", delimiter=",", header=sphere.CSV_HEADER, comments="")
        with pytest.MonkeyPatch.context() as mp:
            calls = _count_numeric_reads(mp)
            back = sphere.grid_from_csv(path, grid)
        assert calls == []
        assert back.tobytes() == vals.tobytes()

    @pytest.mark.parametrize("fmt, moved", [("%.16e", 0.0), ("%.17g", 1e-12)])
    def test_other_layout_text_reads_the_same_values(self, tmp_path, grid, fmt, moved):
        vals = np.random.default_rng(23).normal(size=grid.n_nodes)
        path = tmp_path / "other.csv"
        _savetxt_csv(path, grid, vals, fmt=fmt, moved=moved)
        with pytest.MonkeyPatch.context() as mp:
            calls = _count_numeric_reads(mp)
            back = sphere.grid_from_csv(path, grid)
        assert calls == [grid.n_nodes]
        assert back.tobytes() == vals.tobytes()

    def test_layout_is_cached_and_built_on_first_read(self, tmp_path):
        grid = sphere.build_grid(3, 5)
        keys = (grid.theta.tobytes(), grid.ring_weight.tobytes(), grid.phi.tobytes())
        sphere._csv_layout.cache_clear()
        sphere.grid_to_csv(tmp_path / "dump.csv", grid, np.arange(grid.n_nodes))
        assert sphere._csv_layout.cache_info().currsize == 0
        sphere.grid_from_csv(tmp_path / "dump.csv", grid)
        layout = sphere._csv_layout(*keys)
        assert sphere._csv_layout.cache_info().hits == 1
        text = (tmp_path / "dump.csv").read_text().split("\n", 1)[1]
        assert layout % tuple(str(k) for k in range(grid.n_nodes)) + "\n" == text


_SPECIAL_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1.797e308, -1.797e308, 1.7976931348623157e308]


@settings(max_examples=40, deadline=None)
@given(
    n_theta=st.integers(2, 9),
    n_phi=st.integers(4, 17),
    data=st.data(),
)
def test_text_route_reads_back_bitwise(tmp_path_factory, n_theta, n_phi, data):
    """A grid_to_csv file of any grid shape and any finite values, the
    extremes and both zeros included, reads back bitwise by the text route."""
    grid = sphere.build_grid(n_theta, n_phi)
    cell = st.one_of(st.sampled_from(_SPECIAL_VALUES), st.floats(allow_nan=False, allow_infinity=False))
    vals = np.array(data.draw(st.lists(cell, min_size=grid.n_nodes, max_size=grid.n_nodes)))
    path = tmp_path_factory.mktemp("csv") / "dump.csv"
    sphere.grid_to_csv(path, grid, vals)
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_numeric_reads(mp)
        back = sphere.grid_from_csv(path, grid)
    assert calls == []
    assert back.tobytes() == vals.tobytes()
