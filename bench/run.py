"""zonotools benchmark runner.

    python3 bench/run.py --workload {counterexample,corpus,transforms}
                         --seed N --seconds S --trace {0,1} [--quick]

Run from the repository root.  The runner writes the seeded inputs of one
run under .bench_work/, starts one fresh Python process for the workload
(bench/worker.py), which feeds the jobs to ``zonotools.cli.main`` one after
another, then checks every output without the package (bench/oracles.py).

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
the same job list twice, untraced and traced (bench/tracing.py), checks
that both runs wrote byte-identical files, and prints the per-layer
metrics.  The last stdout line is one JSON object: correct, attempted,
failed, metrics.  See bench/NOTES.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import oracles  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 15
SETUP_SNIPPET = (
    "import sys\n"
    "from zonotools import cli, sphere\n"
    "sphere.build_grid(64, 128)\n"
    "sys.stdout.write('ready\\n')\n"
    "sys.stdout.flush()\n"
)


class BenchError(RuntimeError):
    pass


def blas_threads():
    """BLAS threads of every workload process: 2, or fewer if fewer cores.

    Report digits depend on it (the isotropy metric reads 3.630702549e-07
    with 1 thread and 3.630702537e-07 with 2), so it is fixed, not left to
    the library.
    """
    return max(1, min(2, len(os.sched_getaffinity(0))))


def child_env(threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONHASHSEED"] = "0"
    return env


def environment(threads):
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": threads,
    }


def remaining(deadline):
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError("run exceeded its time limit")
    return left


def measure_setup(env, deadline, probes):
    """Fastest time from launching an interpreter to an imported CLI and built grid.

    A probe takes about 0.15 s, and a busy moment of the host adds to a
    probe but never takes away from it.  So the minimum over the probes is
    the set-up cost; their median moved by 40-50% from run to run.
    """
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_SNIPPET], stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=remaining(deadline))
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise BenchError("setup probe failed: zonotools.cli does not import")
        times.append(elapsed)
    return min(times)


def run_worker(jobs, rundir, env, deadline, traced=False):
    os.makedirs(rundir)
    jobs_path = os.path.join(rundir, "jobs.json")
    result_path = os.path.join(rundir, "result.json")
    with open(jobs_path, "w", encoding="utf-8") as fh:
        json.dump(jobs, fh)
    out = os.path.join(rundir, "out")
    os.makedirs(out)
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), jobs_path, result_path]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=out, env=env, timeout=remaining(deadline),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        raise BenchError("workload process exceeded the run's time limit") from None
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        raise BenchError(f"workload process exited {proc.returncode}: {' | '.join(tail)}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["out"] = out
    return result


def check_jobs(jobs, result):
    """Per job: the failure reasons, the contract breaches and the report rows."""
    checked = []
    for job, res in zip(jobs, result["jobs"]):
        failures, breaches, rows = [], [], []
        if res["error"] is not None:
            breaches.append("exception: " + res["error"].strip().splitlines()[-1])
        elif job["kind"] in workloads.TRANSFORM_KINDS:
            if res["rc"] != 0:
                breaches.append(f"exit code {res['rc']}")
            else:
                breaches += oracles.check_transform(job, result["out"])
        else:
            rows, breaches = oracles.check_report(job, result["out"], res["rc"])
            failures += [f"{r['test_id']} fails: {r['metric']} vs {r['tolerance']}"
                         for r in rows if r.get("pass") is not True]
        checked.append({"id": job["id"], "kind": job["kind"], "seconds": res["seconds"],
                        "failures": failures + breaches, "breaches": breaches,
                        "margin": job_margin(rows)})
    return checked


def job_margin(rows):
    """Smallest log10 headroom over a report's rows, or None if no row has one."""
    margins = [m for r in rows if (m := oracles.margin(r)) is not None]
    return min(margins) if margins else None


def min_margin(jobs, checked):
    """Smallest row margin over the jobs that do not build on a drawn cap pair.

    At this commit the rows of drawn cap pairs sit at their tolerance
    (rigidity-counterexample-funk fails on a large share of them), so their
    minimum crosses zero from seed to seed and cannot carry a relative
    bound.  Those jobs still count in ``failed`` and print their margins.
    """
    margins = [c["margin"] for job, c in zip(jobs, checked)
               if "caps" not in job and c["margin"] is not None]
    if not margins:
        raise BenchError("no report row has a positive metric and tolerance")
    return min(margins)


def compare_trees(ref, traced):
    """Files of the untraced run that the traced run did not reproduce byte for byte."""
    def files(top):
        return {os.path.relpath(os.path.join(d, f), top)
                for d, _, names in os.walk(top) for f in names}

    ref_files, traced_files = files(ref), files(traced)
    diffs = sorted(ref_files ^ traced_files)
    for rel in sorted(ref_files & traced_files):
        with open(os.path.join(ref, rel), "rb") as a, open(os.path.join(traced, rel), "rb") as b:
            if a.read() != b.read():
                diffs.append(rel)
    return diffs


def _has_ancestor(spans, i, name):
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, traced_wall, untraced_wall):
    """Per-layer metrics from the spans of one traced worker."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    calls, self_s, incl_s, layer_self = {}, {}, {}, {}
    for i, s in enumerate(spans):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
        incl_s[name] = incl_s.get(name, 0.0) + dur[i]
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + dur[i] - child[i]

    def extra_sum(names, key):
        return sum(s[4][key] for s in spans if s[0] in names and s[4])

    io = ("sphere.grid_to_csv", "sphere.grid_from_csv")
    design = [i for i, s in enumerate(spans)
              if s[0] == "numpy.linalg.lstsq" and _has_ancestor(spans, i, "zonoid.design_plateau")]
    first = spans[design[0]][4] if design else {}
    designs = [dict(spans[i][4], solve_s=dur[i], self_s=dur[spans[i][3]] - child[spans[i][3]],
                    rest_s=dur[spans[i][3]] - dur[i]) for i in design]
    radii_in_bodies = sum(1 for i, s in enumerate(spans) if s[0] == "convex.radii_grid"
                          and _has_ancestor(spans, i, "convex.random_support_function"))
    bodies = calls.get("convex.random_support_function", 0)

    m = {
        "sphere.grid_io.self_s": sum(self_s.get(k, 0.0) for k in io),
        "sphere.grid_io.bytes": extra_sum(io, "bytes"),
        "harmonics.synthesize_points.points": extra_sum({"harmonics.synthesize_points"}, "points"),
        "convex.radii_grid.calls_per_body": radii_in_bodies / bodies if bodies else 0.0,
        "zonoid.build_counterexample.s": incl_s.get("zonoid.build_counterexample", 0.0),
        "zonoid.design.solve_s": sum(dur[i] for i in design),
        "zonoid.design.rows": first.get("rows", 0),
        "zonoid.design.cols": first.get("cols", 0),
        "zonoid.design.bytes": first.get("bytes", 0),
        "zonoid.design.rank": first.get("rank", 0),
        "zonoid.design.sigma_ratio": first.get("sigma_ratio", 0.0),
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "trace.accounted_frac": sum(layer_self.values()) / traced_wall,
        "trace.spans": n,
    }
    for layer in ("sphere", "harmonics", "transforms", "convex", "zonoid", "numpy", "cli"):
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    return m, calls, self_s, designs


def fill_named(metrics, names, calls, self_s):
    """Fill <function>.calls and <function>.self_s for every listed name."""
    for name in names:
        if name in metrics:
            continue
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            metrics[name] = calls.get(base, 0)
        elif stat == "self_s":
            metrics[name] = self_s.get(base, 0.0)


def run(args, spec):
    deadline = time.perf_counter() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "zonotools", "cli.py")):
        raise BenchError(f"no zonotools sources under {SRC}")
    sys.path.insert(0, SRC)
    threads = blas_threads()
    env = child_env(threads)
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        info = environment(threads)
        jobs = workloads.make_jobs(args.workload, args.seed, args.seconds,
                                   os.path.join(work, "inputs"), quick=args.quick)
        notes, problems = [], []
        if args.trace:
            wanted = spec["per_layer"]
            metrics, checked, notes, problems = traced_run(args, jobs, work, env, deadline,
                                                           [m["name"] for m in wanted])
        else:
            setup_s = measure_setup(env, deadline, 3 if args.quick else SETUP_PROBES)
            result = run_worker(jobs, os.path.join(work, "run"), env, deadline)
            checked = check_jobs(jobs, result)
            metrics = {"setup_s": setup_s, "wall_s": result["wall_s"],
                       "peak_rss_mb": result["peak_rss_mb"],
                       "min_margin_dec": min_margin(jobs, checked)}
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    failed = sum(1 for c in checked if c["failures"])
    correct = not problems and not any(c["breaches"] for c in checked)

    print("env " + json.dumps(info, sort_keys=True))
    for c in checked:
        status = "FAIL" if c["failures"] else "ok"
        margin = "" if c["margin"] is None else f"  margin {c['margin']:+.3f} dec"
        print(f"job {c['id']} {c['kind']:<22} {c['seconds']:8.3f} s  {status}{margin}"
              + "".join(f"\n    {f}" for f in c["failures"]))
    for line in notes + problems:
        print(line)
    for m in wanted:
        print(f"{m['name']:<44} {metrics[m['name']]:>16.6g} {m['unit']}")
    print(f"{'fail_frac':<44} {failed / len(checked):>16.6g} ratio ({failed} of {len(checked)} jobs)")
    print(json.dumps({
        "correct": correct,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


def traced_run(args, jobs, work, env, deadline, names):
    """Untraced and traced runs of the same jobs; per-layer metrics of the latter.

    Returns the metrics, the checked jobs of the untraced run, lines that
    describe each design, and every file the traced run did not reproduce.
    """
    ref = run_worker(jobs, os.path.join(work, "ref"), env, deadline)
    traced = run_worker(jobs, os.path.join(work, "traced"), env, deadline, traced=True)
    checked = check_jobs(jobs, ref)
    problems = [f"traced run changed {d}" for d in compare_trees(ref["out"], traced["out"])]
    metrics, calls, self_s, designs = layer_metrics(traced["spans"], traced["wall_s"],
                                                     ref["wall_s"])
    notes = [f"design {d['rows']}x{d['cols']}: solve {d['solve_s']:.3f} s, "
             f"design_plateau self {d['self_s']:.3f} s, all but the solve {d['rest_s']:.3f} s, "
             f"rank {d['rank']}, sigma ratio {d['sigma_ratio']:.3e}" for d in designs]
    solve_1t = 0.0
    if args.workload == "counterexample":
        # The single-threaded baseline: the first (default-cap) design at 1 BLAS thread.
        one = run_worker(jobs[:1], os.path.join(work, "one_thread"), child_env(1), deadline,
                         traced=True)
        solve_1t = layer_metrics(one["spans"], one["wall_s"], one["wall_s"])[0]["zonoid.design.solve_s"]
    metrics["zonoid.design.solve_1t_s"] = solve_1t
    fill_named(metrics, names, calls, self_s)
    return metrics, checked, notes, problems


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="every workload at minimal size, to check the harness and its schema")
    args = parser.parse_args(argv)
    # A terminated run still kills its workload process and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        run(args, load_spec())
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
