"""Quick, traced runs of the benchmark's three workloads.

The benchmark checks every output without the package: its oracles parse
the grid CSVs that ``transform`` writes and judge them against closed
forms, judge the corpus suites' reports and the counterexample's
artifacts, and its traced run must reproduce each output byte for byte.
So these runs guard the grid CSV reader and writer, the cached grid
tables of the corpus suites and the plateau design's in-place QR folds
against the benchmark's own checks, and the outputs against any
dependence on tracing.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _assert_quick_traced_run_correct(workload, check_failed=True):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "26", "--trace", "1", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    if check_failed:
        assert result["failed"] == 0, proc.stdout
    assert result["attempted"] == 4


def test_quick_traced_transforms_run_is_correct():
    _assert_quick_traced_run_correct("transforms")


def test_quick_traced_corpus_run_is_correct():
    _assert_quick_traced_run_correct("corpus")


def test_quick_traced_counterexample_run_is_correct():
    # band-8 designs miss the pinned tolerances by design (seed 1 fails all
    # four jobs), so only the checks and the traced outputs are asserted
    _assert_quick_traced_run_correct("counterexample", check_failed=False)
