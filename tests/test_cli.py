import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonotools import cli, sphere, zonoid

from test_reach import OFF_PLANE_CAPS


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "zonotools.cli", *args], capture_output=True, text=True
    )


@pytest.fixture()
def small_cfg(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("grid=32,64\nband=16\ncircle_m=64\nseed=7\nout=" + str(tmp_path / "out") + "\n")
    return path


class TestConfig:
    def test_defaults(self):
        cfg = cli.RunConfig()
        assert (cfg.n_theta, cfg.n_phi) == (64, 128)
        assert cfg.band == 48
        assert cfg.cap_u().height == 0.9

    def test_parse_and_override(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("# comment\ngrid=16,32\nband=8\nseed=3\n")
        cfg = cli.parse_config_file(path)
        assert (cfg.n_theta, cfg.n_phi) == (16, 32)
        assert (cfg.band, cfg.seed) == (8, 3)

    def test_unknown_key_fails_loud(self, tmp_path):
        # row tolerances are fixed, so a tol_<name> line is an unknown key too
        path = tmp_path / "cfg"
        for line in ("bandit=8", "tol_affine_residual=1e-3"):
            path.write_text(line + "\n")
            with pytest.raises(cli.ConfigError, match="unknown key"):
                cli.parse_config_file(path)

    def test_tolerances_are_read_only(self):
        with pytest.raises(TypeError):
            cli.TOLERANCES["funk_residual"] = 1.0
        assert cli.TOLERANCES["funk_residual"] == 1e-4

    @pytest.mark.parametrize("value", ["64", "64,abc", "64,128,1"])
    @pytest.mark.parametrize("as_flag", [True, False])
    def test_malformed_grid_names_the_key(self, tmp_path, value, as_flag):
        cfg = tmp_path / "cfg"
        cfg.write_text("" if as_flag else f"grid={value}\n")
        flags = ["--grid", value] if as_flag else []
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "o"), *flags,
                             "verify", "--suite", "newton"])
        assert code == 3
        assert err.getvalue().count("\n") == 1
        assert "grid must be n_theta,n_phi" in err.getvalue()

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("grid 16,32\n")
        with pytest.raises(cli.ConfigError, match="key=value"):
            cli.parse_config_file(path)


class TestRowVerdict:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False), st.floats(allow_nan=False, allow_infinity=False),
           st.sampled_from(["upper", "lower"]), st.booleans())
    def test_finite_metric_passes_strictly_inside_its_bound(self, metric, tolerance, bound, at_bound):
        metric = tolerance if at_bound else metric
        row = cli._row("t", "a", metric, tolerance, bound)
        assert row["pass"] is (metric < tolerance if bound == "upper" else metric > tolerance)
        assert (row["metric"], row["tolerance"], row["bound"]) == (metric, tolerance, bound)
        assert "reason" not in row

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([math.nan, math.inf, -math.inf]), st.floats(allow_nan=False, allow_infinity=False),
           st.sampled_from(["upper", "lower"]), st.sampled_from([None, "undefined here"]))
    def test_non_finite_metric_fails_and_is_null(self, metric, tolerance, bound, reason):
        row = cli._row("t", "a", metric, tolerance, bound, reason=reason)
        assert row["pass"] is False and row["metric"] is None
        assert row["reason"] == (reason or f"metric is {metric}")
        json.dumps(row, allow_nan=False)


class TestTransformCommand:
    def test_cosine_constant(self, tmp_path, small_cfg):
        g = sphere.build_grid(32, 64)
        src = tmp_path / "in.csv"
        dst = tmp_path / "cos.csv"
        sphere.grid_to_csv(src, g, np.ones(g.n_nodes))
        r = run_cli("--config", str(small_cfg), "transform", "--which", "cosine",
                    "--input", str(src), "--output", str(dst))
        assert r.returncode == 0
        vals = sphere.grid_from_csv(dst, g)
        assert np.max(np.abs(vals - 2 * math.pi)) < 1e-10

    def test_funk_constant(self, tmp_path, small_cfg):
        g = sphere.build_grid(32, 64)
        src = tmp_path / "in.csv"
        dst = tmp_path / "funk.csv"
        sphere.grid_to_csv(src, g, np.ones(g.n_nodes))
        r = run_cli("--config", str(small_cfg), "transform", "--which", "funk",
                    "--input", str(src), "--output", str(dst))
        assert r.returncode == 0
        vals = sphere.grid_from_csv(dst, g)
        assert np.max(np.abs(vals - 2 * math.pi)) < 1e-10

    def test_symmetrize_zonal_fixed_point(self, tmp_path, small_cfg):
        g = sphere.build_grid(32, 64)
        src = tmp_path / "in.csv"
        dst = tmp_path / "sym.csv"
        zonal = np.repeat(g.cos_theta**2, g.n_phi)
        sphere.grid_to_csv(src, g, zonal)
        r = run_cli("--config", str(small_cfg), "transform", "--which", "symmetrize",
                    "--input", str(src), "--output", str(dst))
        assert r.returncode == 0
        assert np.array_equal(sphere.grid_from_csv(dst, g), zonal)

    def test_malformed_csv_exit_code(self, tmp_path, small_cfg):
        bad = tmp_path / "bad.csv"
        bad.write_text("theta,phi,weight,value\n0.1,0.2,0.3\n")
        r = run_cli("--config", str(small_cfg), "transform", "--which", "cosine",
                    "--input", str(bad), "--output", str(tmp_path / "x.csv"))
        assert r.returncode == 3
        assert "line 2" in r.stderr

    @pytest.mark.parametrize("which", ["cosine", "funk", "symmetrize"])
    def test_non_finite_csv_exit_code(self, tmp_path, small_cfg, which):
        # a nan and an inf value used to pass and fill the output with nan
        g = sphere.build_grid(32, 64)
        vals = np.ones(g.n_nodes)
        vals[100], vals[1500] = math.nan, math.inf
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        sphere.grid_to_csv(src, g, vals)
        r = run_cli("--config", str(small_cfg), "transform", "--which", which,
                    "--input", str(src), "--output", str(dst))
        assert r.returncode == 3
        assert r.stderr.strip() == "input error: line 102: value is not finite ('nan')"
        assert not dst.exists()

    @pytest.mark.parametrize("which", ["funk", "cosine"])
    def test_band_too_fine_for_grid_exit_code(self, tmp_path, which):
        # the default band 48 cannot be analyzed on a 32x64 grid
        g = sphere.build_grid(32, 64)
        src = tmp_path / "in.csv"
        sphere.grid_to_csv(src, g, np.ones(g.n_nodes))
        r = run_cli("--grid", "32,64", "transform", "--which", which,
                    "--input", str(src), "--output", str(tmp_path / "x.csv"))
        assert r.returncode == 3
        assert r.stderr.strip().splitlines() == [r.stderr.strip()]
        assert "too coarse" in r.stderr


class TestVerifyCommand:
    def test_unknown_suite(self):
        # --suite takes its choices from cli.SUITES, so argparse names them
        r = run_cli("verify", "--suite", "nope")
        assert r.returncode == 3
        assert r.stderr.startswith("usage error: argument --suite: invalid choice: 'nope' (choose from ")
        assert r.stderr.count("\n") == 1 and all(suite in r.stderr for suite in cli.SUITES)

    def test_sr_suite_passes_and_reports(self, tmp_path):
        r = run_cli("--out", str(tmp_path), "verify", "--suite", "sr")
        assert r.returncode == 0, r.stdout + r.stderr
        report = json.loads((tmp_path / "verify_sr.json").read_text())
        assert report["version"]
        assert report["config_echo"]["grid"] == [64, 128]
        assert set(report["config_echo"]) == CONFIG_KEYS - {"out"}
        assert all(set(row) == {"test_id", "paper_anchor", "metric", "tolerance", "bound", "pass"}
                   for row in report["results"])
        assert all(row["pass"] for row in report["results"])

    def test_deterministic_reports(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            r = run_cli("--out", str(out), "--seed", "99", "verify", "--suite", "newton")
            assert r.returncode == 0
        assert (a / "verify_newton.json").read_bytes() == (b / "verify_newton.json").read_bytes()

    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # the default counterexample and rigidity suite, the off-plane
        # counterexample, whose design folds two mirror classes, and the sr
        # suite, whose slicing check builds 160- and 240-node Gauss rules,
        # each run in its own directory at 1 and at 2 OpenBLAS threads,
        # write the same bytes
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        caps = tmp_path / "caps.cfg"
        caps.write_text(OFF_PLANE_CAPS)
        commands = {
            "counterexample": ["counterexample"],
            "rigidity": ["verify", "--suite", "rigidity"],
            "off-plane": ["--config", str(caps), "counterexample"],
            "sr": ["verify", "--suite", "sr"],
        }
        for threads in ("1", "2"):
            env["OPENBLAS_NUM_THREADS"] = threads
            for name, command in commands.items():
                cwd = tmp_path / threads / name
                cwd.mkdir(parents=True)
                r = subprocess.run(
                    [sys.executable, "-m", "zonotools.cli", "--out", "out", *command],
                    capture_output=True, text=True, env=env, cwd=cwd,
                )
                assert r.returncode == 0, r.stderr
                (cwd / "stdout.txt").write_text(r.stdout)
        files = sorted(p.relative_to(tmp_path / "1") for p in (tmp_path / "1").rglob("*") if p.is_file())
        assert len(files) == 16  # five files per counterexample, two reports, four stdouts
        assert files == sorted(p.relative_to(tmp_path / "2") for p in (tmp_path / "2").rglob("*") if p.is_file())
        for f in files:
            assert (tmp_path / "1" / f).read_bytes() == (tmp_path / "2" / f).read_bytes(), f

    @pytest.mark.parametrize("suite", ["rigidity", "umbilic", "all"])
    def test_inadmissible_caps_exit_code(self, tmp_path, suite):
        cfg = tmp_path / "cfg"
        cfg.write_text("grid=32,64\ncap_v_center=0,0.3,1\n")
        r = run_cli("--config", str(cfg), "--out", str(tmp_path / "o"), "verify", "--suite", suite)
        assert r.returncode == 3
        assert r.stderr.strip().splitlines() == [r.stderr.strip()]
        assert "separated" in r.stderr

    COARSE_GRID_ERRORS = {
        "newton": "input error: grid (4, 8) too coarse for newton; needs n_theta >= 5 and n_phi >= 9\n",
        "sr": "input error: grid (4, 8) too coarse for sr; needs n_theta >= 13 and n_phi >= 25\n",
        "rigidity": "input error: cap U holds no node of the 4x8 grid; choose a finer grid\n",
        "umbilic": "input error: cap U holds no node of the 4x8 grid; choose a finer grid\n",
    }

    @pytest.mark.parametrize("suite", cli.SUITES)
    def test_coarse_grid_keeps_the_exit_code_contract(self, tmp_path, suite):
        # on the 4x8 grid a suite either runs, exit 0 or 2 with nothing on
        # stderr, or names what it rejects in one stderr line, exit 3, and
        # never stops on a traceback: the newton suite's band-8 noise needs
        # a 5x9 grid, the sr suite's band-24 test functions a 13x25 one,
        # and the default cap U holds no node of this one (all stops at
        # newton, the first suite whose need the grid does not meet)
        r = run_cli("--grid", "4,8", "--out", str(tmp_path / "o"), "verify", "--suite", suite)
        expected = self.COARSE_GRID_ERRORS.get("newton" if suite == "all" else suite)
        if expected is None:
            assert r.returncode in (0, 2) and r.stderr == "", r.stderr
        else:
            assert r.returncode == 3
            assert r.stderr == expected

    def test_report_is_strict_json_when_a_metric_is_undefined(self, tmp_path):
        # at band 8 no sphere is fitted to the counterexample zonoid's cap
        r = run_cli("--band", "8", "--out", str(tmp_path), "verify", "--suite", "umbilic")
        assert r.returncode == 2

        def reject(name):
            raise ValueError(f"non-strict JSON constant {name}")

        with open(tmp_path / "verify_umbilic.json", encoding="utf-8") as fh:
            report = json.load(fh, parse_constant=reject)
        undefined = [row for row in report["results"] if row["metric"] is None]
        assert [row["test_id"] for row in undefined] == ["umbilic-counterexample-zonoid"]
        assert not undefined[0]["pass"] and "no sphere fitted" in undefined[0]["reason"]
        assert "[FAIL] umbilic-counterexample-zonoid: n/a vs" in r.stdout

    def test_minkowski_suite(self, tmp_path):
        r = run_cli("--out", str(tmp_path), "verify", "--suite", "minkowski-rev")
        assert r.returncode == 0, r.stdout + r.stderr


class TestCounterexampleCommand:
    def test_rows_compare_as_before(self, monkeypatch):
        # metrics exactly at their tolerance fail: the first two rows pass
        # strictly below it, the non-constancy row strictly above it
        tol = cli.TOLERANCES
        at_bound = {"isotropy_max_dev": tol["isotropy_dev"], "funk_gap_error": tol["funk_gap"],
                    "band_variance": tol["nonconstancy_ratio"] * 4.0, "band_mean": 4.0}
        ctx = cli.RunContext(cli.RunConfig())
        ctx.counterexample = object()
        monkeypatch.setattr(cli.zonoid, "counterexample_assertions", lambda res, rng, m: at_bound)
        rows = cli.suite_counterexample(ctx)
        assert [r["test_id"] for r in rows] == [
            "counterexample-isotropy-on-cap", "counterexample-funk-gap", "counterexample-nonconstancy",
        ]
        assert [r["tolerance"] for r in rows] == [
            tol["isotropy_dev"], tol["funk_gap"], tol["nonconstancy_ratio"],
        ]
        assert [r["metric"] for r in rows] == [tol["isotropy_dev"], tol["funk_gap"], tol["nonconstancy_ratio"]]
        assert not any(r["pass"] for r in rows)

    def test_inadmissible_caps_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("cap_u_height=0.6\ncap_v_height=0.6\ntransition=0.4\n")
        r = run_cli("--config", str(cfg), "--out", str(tmp_path / "o"), "counterexample")
        assert r.returncode == 3
        assert "separated" in r.stderr

    @pytest.mark.parametrize("command", [["counterexample"], ["verify", "--suite", "rigidity"]], ids=["counterexample", "rigidity"])
    def test_cap_without_grid_nodes_exit_code(self, tmp_path, command):
        # the default cap U (height 0.9, 25.8 degrees about the pole) lies
        # inside the 4x8 grid's first ring, at 30.6 degrees: named before
        # the design runs, not a reduction over no nodes
        r = run_cli("--grid", "4,8", "--out", str(tmp_path / "o"), *command)
        assert r.returncode == 3
        assert r.stderr == "input error: cap U holds no node of the 4x8 grid; choose a finer grid\n"

    def test_coarse_band_fails_cleanly(self, tmp_path):
        # band 8 cannot hold the plateau: assertions must fail, not crash
        cfg = tmp_path / "cfg"
        cfg.write_text("band=8\n")
        r = run_cli("--config", str(cfg), "--out", str(tmp_path / "o"), "counterexample")
        assert r.returncode == 2
        assert "FAIL" in r.stdout

    def test_band_sets_the_design_grid(self, tmp_path, cap_u, cap_v):
        # --band 24 designs on the 64x128 grid of zonoid.design_grid_shape:
        # its value and Funk rows on every kept node, its anisotropy rows
        # and one ridge row per column
        code, _, _ = main_in_process("--band", "24", "--out", tmp_path, "counterexample")
        assert code in (0, 2)
        rows, _ = zonoid._design_rows(cap_u, cap_v, 24, sphere.build_grid(64, 128))
        expected = 2 * rows.n_nodes + 2 * rows.n_aniso + rows.ls.size
        diagnostics = json.loads((tmp_path / "diagnostics.json").read_text())
        assert diagnostics["design_rows"] == expected == 2297


CONFIG_KEYS = {"grid", "band", "circle_m", "cap_u_center", "cap_u_height", "cap_v_center",
               "cap_v_height", "transition", "seed", "out"}
ONE_LINE = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"), min_size=1)
NEWTON = ["verify", "--suite", "newton"]


def _bad_cap_inputs():
    center = st.sampled_from(["0,0,0", "1,0", "1,0,0,0", "nan,0,1", "0,inf,1", "x,y,z", ""])
    height = st.floats(allow_nan=True).filter(lambda h: not 0.0 < h < 1.0).map(repr)
    # valid unit centres too close to the default U = e3 for transition 0.3
    close = st.floats(0.0, 0.5).map(lambda t: f"{math.sin(t)!r},0,{math.cos(t)!r}")
    builds = st.sampled_from([["counterexample"], ["verify", "--suite", "rigidity"],
                              ["verify", "--suite", "umbilic"]])
    return st.one_of(
        st.tuples(st.sampled_from(["cap_u_center", "cap_v_center"]), center, st.just(NEWTON)),
        st.tuples(st.sampled_from(["cap_u_height", "cap_v_height"]), height, st.just(NEWTON)),
        st.tuples(st.just("cap_v_center"), close, builds),
    ).map(lambda kvc: ([f"{kvc[0]}={kvc[1]}"], [], kvc[2]))


def _bad_grid_inputs():
    value = st.one_of(
        st.tuples(st.integers(-5, 1), st.integers(4, 64)).map(lambda t: f"{t[0]},{t[1]}"),
        st.tuples(st.integers(2, 64), st.integers(-5, 3)).map(lambda t: f"{t[0]},{t[1]}"),
        st.sampled_from(["", "4", "4,8,16", "a,b", "4.5,8"]),
    )
    return st.tuples(value, st.booleans()).map(
        lambda vf: ([], ["--grid", vf[0]], NEWTON) if vf[1] else ([f"grid={vf[0]}"], [], NEWTON)
    )


def _bad_band_inputs():
    value = st.one_of(st.integers(max_value=-1).map(str), st.sampled_from(["x", "1.5", ""]))
    return st.tuples(value, st.booleans()).map(
        lambda vf: ([], ["--band", vf[0]], NEWTON) if vf[1] else ([f"band={vf[0]}"], [], NEWTON)
    )


def _bad_config_lines():
    no_pair = ONE_LINE.filter(
        lambda t: t.strip() and not t.strip().startswith("#") and "=" not in t
    )
    unknown = ONE_LINE.filter(
        lambda k: "=" not in k and k.strip() and not k.strip().startswith("#")
        and k.strip() not in CONFIG_KEYS
    ).map(lambda k: k + "=1")
    bad_value = st.sampled_from([
        "seed=-1", "seed=x", "circle_m=7", "circle_m=-3", "transition=0", "transition=nan",
        "transition=inf", "tol_funk_residual=1e-3",
    ])
    return st.one_of(no_pair, unknown, bad_value).map(lambda line: ([line], [], NEWTON))


def _bad_suites():
    return ONE_LINE.filter(lambda t: t not in cli.SUITES).map(
        lambda suite: ([], [], ["verify", "--suite", suite])
    )


def _unrecognized_arguments():
    # any text, line breaks included, that argparse cannot read as an option
    extra = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1)
    return extra.filter(lambda t: not t.startswith("-")).map(lambda t: ([], [], NEWTON + [t]))


class TestInputErrorContract:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_bad_cap_inputs(), _bad_grid_inputs(), _bad_band_inputs(),
                     _bad_config_lines(), _bad_suites(), _unrecognized_arguments()))
    def test_every_input_error_exits_3_with_one_stderr_line(self, tmp_path_factory, bad):
        lines, flags, command = bad
        work = tmp_path_factory.mktemp("input-error")
        cfg = work / "cfg"
        cfg.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main(["--config", str(cfg), "--out", str(work / "out"), *flags, *command])
            except SystemExit as exc:
                code = exc.code
        text = err.getvalue()
        assert code == 3
        assert text.endswith("\n") and text.count("\n") == 1 and len(text.splitlines()) == 1


def main_in_process(*argv):
    """cli.main on argv in this process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _csv_on(path, n_theta, n_phi):
    """A positive grid CSV for the n_theta x n_phi grid at path."""
    grid = sphere.build_grid(n_theta, n_phi)
    sphere.grid_to_csv(path, grid, 1.0 + 0.5 * grid.nodes[:, 2] ** 2)
    return path


#: Where a command may be told to write, made on disk by _path_of_kind.
PATH_KINDS = ("fresh", "missing-parent", "file", "under-file", "directory")


def _path_of_kind(work, kind, name):
    (work / "a-file").write_text("not a directory\n")
    (work / "a-dir").mkdir(exist_ok=True)
    return {"fresh": work / name, "missing-parent": work / "missing" / name, "file": work / "a-file",
            "under-file": work / "a-file" / name, "directory": work / "a-dir"}[kind]


class TestEntryContract:
    """Every command checks its grid, caps and output path before any work."""

    def test_out_that_is_a_file(self, tmp_path):
        out = tmp_path / "report"
        out.write_text("")
        code, _, err = main_in_process("--out", out, "verify", "--suite", "minkowski-rev")
        assert code == 3
        assert err == f"input error: cannot create directory {str(out)!r}: File exists\n"

    def test_out_under_a_file(self, tmp_path):
        (tmp_path / "f").write_text("")
        out = tmp_path / "f" / "sub"
        code, _, err = main_in_process("--grid", "16,32", "--band", "8", "--out", out, "counterexample")
        assert code == 3
        assert err == f"input error: cannot create directory {str(out)!r}: Not a directory\n"

    def test_output_that_is_a_directory(self, tmp_path):
        src = _csv_on(tmp_path / "in.csv", 8, 16)
        code, _, err = main_in_process("--grid", "8,16", "transform", "--which", "symmetrize",
                                       "--input", src, "--output", tmp_path)
        assert code == 3
        assert err == f"input error: output {str(tmp_path)!r} names a directory, not a file\n"

    def test_output_with_a_missing_directory_creates_it(self, tmp_path):
        src = _csv_on(tmp_path / "in.csv", 8, 16)
        dst = tmp_path / "missing" / "deeper" / "out.csv"
        code, _, err = main_in_process("--grid", "8,16", "--band", "3", "transform", "--which", "funk",
                                       "--input", src, "--output", dst)
        assert (code, err) == (0, "")
        assert sphere.grid_from_csv(dst, sphere.build_grid(8, 16)).shape == (128,)

    @pytest.mark.parametrize("name,command", [
        ("verify_newton.json", ["verify", "--suite", "newton"]),
        ("density.csv", ["counterexample"]),
    ], ids=["verify", "counterexample"])
    def test_output_name_taken_by_a_directory(self, tmp_path, name, command):
        # a directory under --out that bears the name of a file the
        # command writes is named before any work
        (tmp_path / name).mkdir()
        code, out, err = main_in_process("--out", tmp_path, *command)
        assert (code, out) == (3, "")
        assert err == f"input error: output {str(tmp_path / name)!r} names a directory, not a file\n"
        assert [p.name for p in tmp_path.iterdir()] == [name]

    @pytest.mark.parametrize("grid", ["5,10", "8,16", "12,24"])
    def test_sr_grid_below_its_test_functions(self, tmp_path, grid):
        # sr lifts band-24 test functions, which these grids do not
        # resolve: its slicing identity failed there, so the grid is named
        code, _, err = main_in_process("--grid", grid, "--out", tmp_path, "verify", "--suite", "sr")
        assert code == 3
        assert err == f"input error: grid ({grid.replace(',', ', ')}) too coarse for sr; needs n_theta >= 13 and n_phi >= 25\n"

    @pytest.mark.parametrize("seed", [0, 7, 1234])
    @pytest.mark.parametrize("grid", ["13,25", "16,32"])
    def test_sr_passes_on_its_least_grids(self, tmp_path, grid, seed):
        # sphere.exact_grid(24), 13x25, and the next n x 2n grid pass
        code, out, err = main_in_process("--grid", grid, "--seed", seed, "--out", tmp_path, "verify", "--suite", "sr")
        assert (code, err) == (0, ""), out

    def test_every_suite_checks_the_grid_shape(self, tmp_path):
        # minkowski-rev builds no grid, yet the 1x1 one is rejected
        code, _, err = main_in_process("--grid", "1,1", "--out", tmp_path, "verify", "--suite", "minkowski-rev")
        assert code == 3
        assert err == "input error: grid (1, 1) too coarse for minkowski-rev; needs n_theta >= 2 and n_phi >= 4\n"

    @pytest.mark.parametrize("suite", ["af", "all"])
    def test_corpus_grid_below_its_band(self, tmp_path, suite):
        # the af suite's band-6 noise drew a concave body on 2x4
        code, _, err = main_in_process("--grid", "2,4", "--out", tmp_path, "verify", "--suite", suite)
        assert code == 3
        name, grid = ("af", "4 and n_phi >= 7") if suite == "af" else ("newton", "5 and n_phi >= 9")
        assert err == f"input error: grid (2, 4) too coarse for {name}; needs n_theta >= {grid}\n"
        assert not any(tmp_path.iterdir())  # nothing written

    @pytest.mark.parametrize("command", [["counterexample"], ["verify", "--suite", "rigidity"]],
                             ids=["counterexample", "rigidity"])
    def test_band_above_the_inversion_limit(self, tmp_path, command, monkeypatch):
        # the inverse cosine transform's band limit is checked before the
        # design, which would otherwise be built in full first
        def unreachable(*args, **kwargs):
            raise AssertionError("the plateau design was built")

        monkeypatch.setattr(zonoid, "design_plateau", unreachable)
        code, out, err = main_in_process("--band", "65", "--out", tmp_path, *command)
        assert (code, out) == (3, "")
        assert err == "input error: inverse cosine transform limited to band 64, got 65\n"

    @settings(max_examples=300, deadline=None)
    @given(command=st.sampled_from([["verify", "--suite", s] for s in cli.SUITES] + [["counterexample"]]
                                   + [["transform", "--which", w] for w in ("cosine", "funk", "symmetrize")]),
           n_theta=st.integers(2, 24), n_phi=st.integers(4, 48), band=st.integers(0, 8),
           seed=st.integers(0, 2**31 - 1), kind=st.sampled_from(PATH_KINDS))
    def test_every_run_keeps_the_exit_code_contract(self, tmp_path_factory, command, n_theta, n_phi,
                                                    band, seed, kind):
        # exit 0 or 2 with nothing on stderr and the output written, or
        # exit 3 with one stderr line; a path where the other kind is
        # needed always exits 3, and no run raises
        work = tmp_path_factory.mktemp("surface")
        transform = command[0] == "transform"
        path = _path_of_kind(work, kind, "out.csv" if transform else "out")
        flags = ["--grid", f"{n_theta},{n_phi}", "--band", band, "--seed", seed]
        if transform:
            src = _csv_on(work / "in.csv", n_theta, n_phi)
            argv = [*flags, *command, "--input", src, "--output", path]
            written = path
        else:
            argv = [*flags, "--out", path, *command]
            written = path / ("report.json" if command == ["counterexample"] else f"verify_{command[-1]}.json")
        code, _, err = main_in_process(*argv)
        assert code in (0, 2, 3)
        if code == 3:
            assert err.endswith("\n") and err.count("\n") == 1 and len(err.splitlines()) == 1
        else:
            assert err == "" and written.is_file()
        if kind in (("under-file", "directory") if transform else ("file", "under-file")):
            assert code == 3


def test_only_the_design_needs_the_bundled_openblas(tmp_path, small_cfg):
    # a library without the design's symbols in place of numpy's bundled
    # OpenBLAS: the package imports, the commands that build no design run,
    # and one that builds it exits 3 with one stderr line naming a symbol
    stubbed = (
        "import ctypes, sys, types\n"
        "ctypes.CDLL = lambda path: types.SimpleNamespace()\n"
        "from zonotools import cli\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    g = sphere.build_grid(32, 64)
    src = tmp_path / "in.csv"
    sphere.grid_to_csv(src, g, np.ones(g.n_nodes))
    commands = {
        "funk": (0, ["transform", "--which", "funk", "--input", str(src), "--output", str(tmp_path / "funk.csv")]),
        "newton": (0, NEWTON),
        "counterexample": (3, ["counterexample"]),
    }
    for name, (code, command) in commands.items():
        r = subprocess.run(
            [sys.executable, "-c", stubbed, "--config", str(small_cfg), "--out", str(tmp_path / name), *command],
            capture_output=True, text=True, env=env,
        )
        assert r.returncode == code, (name, r.stderr)
        if code:
            assert r.stderr.count("\n") == 1 and r.stderr.startswith("environment error: the plateau design needs scipy_dtpqrt_64_")
            assert f"numpy {np.__version__} does not provide" in r.stderr
