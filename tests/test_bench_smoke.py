"""A quick, traced run of the benchmark's transforms workload.

The benchmark checks every output without the package: its oracles parse
the grid CSVs that ``transform`` writes and judge them against closed
forms, and its traced run must reproduce each output byte for byte.  So
this run guards the grid CSV reader and writer against the benchmark's
own format checks, and the outputs against any dependence on tracing.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_quick_traced_transforms_run_is_correct():
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", "transforms",
         "--seed", "1", "--seconds", "26", "--trace", "1", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout
    assert result["attempted"] == 4
