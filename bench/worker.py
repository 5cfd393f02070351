"""Workload process: feeds a job list to ``zonotools.cli.main`` in a closed loop.

Usage: python worker.py JOBS.json RESULT.json [--trace]

Run with the working directory set to the run's output directory.  Each job
starts only after the previous one has returned.  The result file holds,
per job, the exit code, the wall time and any exception, plus the peak
resident memory of this process and, with --trace, every recorded span.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback


def main(argv):
    jobs_path, result_path = argv[0], argv[1]
    traced = "--trace" in argv[2:]
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)

    from zonotools import cli

    tracer = None
    if traced:
        import tracing  # beside this script, so first on sys.path

        tracer = tracing.Tracer()
        tracer.install()
        run_cli = tracer.wrap("cli.main", cli.main)
    else:
        run_cli = cli.main

    results = []
    start = time.perf_counter()
    for job in jobs:
        os.makedirs(job["id"], exist_ok=True)
        rc, error = None, None
        t0 = time.perf_counter()
        with open(os.path.join(job["id"], "stdout.log"), "w", encoding="utf-8") as log, \
                contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            try:
                rc = run_cli(job["argv"])
            except SystemExit as exc:  # argparse rejects its input this way
                rc = exc.code if isinstance(exc.code, int) else 3
            except Exception:  # a crash is a failed job, not a failed run
                error = traceback.format_exc()
        results.append({"id": job["id"], "rc": rc, "error": error,
                        "seconds": time.perf_counter() - t0})
    wall = time.perf_counter() - start

    out = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": results,
    }
    if tracer is not None:
        out["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
