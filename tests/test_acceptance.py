"""Acceptance gate, one printed pass/fail line per checked row; run with
`pytest tests/test_acceptance.py -v -s` to see them.

Criteria 1 and 2 are computed here.  Criteria 3-10 are the rows of the
default `verify --suite all` and `counterexample` reports, each pinned
with its tolerance and the direction of its bound in PINNED, so a
tolerance loosened or a bound flipped anywhere fails.
"""

import contextlib
import importlib.util
import io
import json
import math
import os

import numpy as np
import pytest
from scipy.special import eval_legendre

from zonotools import cli, harmonics, transforms, zonoid

import oracles
from conftest import random_density, random_unit

#: test_id -> (criterion, tolerance, bound) for every row the two reports carry.
PINNED = {
    "sr-l1-preserved": (3, 1e-10, "upper"),
    "sr-l2-contraction": (3, 1e-12, "upper"),
    "sr-l3-contraction": (3, 1e-12, "upper"),
    "sr-jensen-pointwise": (3, 1e-12, "upper"),
    "sr-slicing-identity-constant": (3, 1e-12, "upper"),
    "sr-slicing-identity-general": (3, 1e-6, "upper"),
    "sr-idempotent-bitwise": (3, 0.5, "upper"),
    "sr-rotation-average-converges": (3, 1e-6, "upper"),
    "isotropy-gap-equivalence": (4, 0.5, "upper"),
    "gap-equals-circle-fourier-mass": (4, 1e-6, "upper"),
    "counterexample-isotropy-on-cap": (5, 1e-5, "upper"),
    "counterexample-funk-gap": (5, 5e-3, "upper"),
    "counterexample-nonconstancy": (5, 0.1, "lower"),
    "rigidity-ball-affine": (6, 1e-10, "upper"),
    "rigidity-ball-funk": (6, 1e-10, "upper"),
    "rigidity-counterexample-affine": (6, 1e-4, "upper"),
    "rigidity-counterexample-funk": (6, 1e-4, "upper"),
    "rigidity-even-density-zero-drift": (6, 1e-6, "upper"),
    "rigidity-negative-control": (6, 1e-4, "lower"),
    "newton-nonnegative-gap": (7, -1e-10, "lower"),
    "newton-ball-equality": (7, 1e-10, "upper"),
    "newton-random-strict": (7, 0.5, "upper"),
    "af-inequality-random-pairs": (7, -1e-9, "lower"),
    "af-equality-flags-ball-only": (7, 0.5, "upper"),
    "af-ball-pair-equality": (7, 1e-9, "upper"),
    "minkowski-roundtrip-bands": (8, 1e-6, "upper"),
    "minkowski-no-mass-outside": (8, 1e-8, "upper"),
    "minkowski-solution-is-lens": (8, 1e-6, "upper"),
    "umbilic-ball-fit": (9, 1e-10, "upper"),
    "umbilic-counterexample-zonoid": (9, 1e-4, "upper"),
    "umbilic-spherocylinder-fit-fails": (9, 1e-2, "lower"),
    "lens-smooth-pieces-equal-curvatures": (10, 0.5, "upper"),
    "lens-radii-split-on-fan": (10, 0.5, "lower"),
}


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
        cosine = harmonics.multiplier_table("cosine", 64)
        funk_table = harmonics.multiplier_table("funk", 64)
        for l, expect in [(0, 2 * math.pi), (2, math.pi / 2), (4, -math.pi / 12)]:
            got = cosine[l]
            worst = max(worst, abs(got - expect) / abs(expect))
        for l in range(0, 65, 2):
            got = cosine[l]
            oracle = gauss_abs_kernel_multiplier(l)
            worst = max(worst, abs(got - oracle) / max(abs(oracle), 1e-30))
            funk = funk_table[l]
            worst = max(
                worst,
                abs(funk - 2 * math.pi * eval_legendre(l, 0.0)) / abs(funk),
            )
        odd_exact = all(
            harmonics.multiplier_table(k, 64)[l] == 0.0
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
            rows = np.broadcast_to(spec.g.coeffs.c, (len(targets), spec.g.coeffs.c.size))
            stack = zonoid.isotropy_gap_stack(transforms.circle_samples(rows, targets, 256))
            reps = [{key: x[k] for key, x in stack.items()} for k in range(len(targets))]
            for u, rep in zip(targets, reps):
                funk = oracles.funk_transform_at(spec.g, u)
                worst_funk = max(worst_funk, abs(rep["f1"] - funk))
            for u, rep in zip(targets[:3], reps):
                worst_area = max(
                    worst_area,
                    abs(rep["f1"] - oracles.area_density(spec.h, u, 1)),
                    abs(rep["f2"] - oracles.area_density(spec.h, u, 2)),
                )
        report("criterion-2a first-density-is-funk-transform", worst_funk, 1e-7, worst_funk < 1e-7)
        report("criterion-2b circle-route-vs-support-route", worst_area, 1e-6, worst_area < 1e-6)


def _reject(name):
    raise ValueError(f"non-strict JSON constant {name}")


@pytest.fixture(scope="module")
def gate(tmp_path_factory):
    """Default `verify --suite all` and `counterexample` runs, in process."""
    out = tmp_path_factory.mktemp("gate")
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [
            cli.main(["--out", str(out), "verify", "--suite", "all"]),
            cli.main(["--out", str(out), "counterexample"]),
        ]
    rows = [
        row
        for name in ("verify_all.json", "report.json")
        for row in json.loads((out / name).read_text(), parse_constant=_reject)["results"]
    ]
    return {"out": out, "codes": codes, "rows": rows}


def check_criterion(gate, criterion, ids=None):
    """Check the pinned rows of one criterion, or only those named in ids."""
    rows = {row["test_id"]: row for row in gate["rows"]}
    for test_id, (crit, pinned, bound) in PINNED.items():
        if crit == criterion and (ids is None or test_id in ids):
            row = rows[test_id]
            metric = math.nan if row["metric"] is None else row["metric"]
            same = row["tolerance"] == pinned and row["bound"] == bound
            report(f"criterion-{crit} {test_id}", metric, row["tolerance"], row["pass"] and same,
                   f"({row['bound']})" if same else f"(pinned at {pinned:.1e}, {bound})")


class TestCriterion3Symmetrization:
    def test_symmetrization_suite(self, gate):
        check_criterion(gate, 3)


class TestCriterion4GapEquivalence:
    def test_corpus_equivalence_and_oracle(self, gate):
        check_criterion(gate, 4)


class TestCriterion5CounterexampleEndToEnd:
    def test_assertions(self, gate):
        check_criterion(gate, 5)

    def test_cli_exit_code(self, gate):
        assert gate["codes"] == [0, 0]
        assert (gate["out"] / "diagnostics.json").exists()


class TestCriterion6LocalRigidity:
    def test_rigidity_on_constructed_density(self, gate):
        check_criterion(gate, 6)


class TestCriterion7NewtonAf:
    def test_newton_and_af(self, gate):
        check_criterion(gate, 7)


class TestCriterion8MinkowskiRoundtrip:
    def test_roundtrip(self, gate):
        check_criterion(gate, 8)


class TestCriterion9UmbilicChecks:
    def test_ball_and_zonoid_fit(self, gate):
        check_criterion(gate, 9, {"umbilic-ball-fit", "umbilic-counterexample-zonoid"})

    def test_spherocylinder_fails_single_sphere(self, gate):
        check_criterion(gate, 9, {"umbilic-spherocylinder-fit-fails"})


class TestCriterion10LensFixture:
    def test_lens_radii_vs_curvatures(self, gate):
        check_criterion(gate, 10)


def test_every_reported_row_is_pinned(gate):
    # a row that disappears fails, and so does a new row with no pin
    assert sorted(row["test_id"] for row in gate["rows"]) == sorted(PINNED)


def test_lower_bound_rows_match_the_benchmarks_copy(gate):
    # bench/oracles.margin reads the rows whose positive tolerance is a
    # lower bound from its own LOWER_BOUND_ROWS; it must name exactly the
    # rows that state that bound
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "oracles.py")
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    bench_oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_oracles)
    lower = {row["test_id"] for row in gate["rows"] if row["bound"] == "lower" and row["tolerance"] > 0}
    assert lower == bench_oracles.LOWER_BOUND_ROWS
