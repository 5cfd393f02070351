"""Seeded job lists for the three benchmark workloads.

Every input the program sees is generated here from the benchmark seed:
argv lists, ``key=value`` config files and grid CSVs.  The same seed gives
the same files byte for byte.
"""

from __future__ import annotations

import math
import os

import numpy as np

import oracles

WORKLOADS = ("counterexample", "corpus", "transforms")
TRANSFORM_KINDS = ("symmetrize", "cosine", "funk")

#: Wall time of each job kind on the reference machine (2 cores, numpy 2.4,
#: 2 BLAS threads).  It fixes how many jobs a run of ``--seconds`` holds, so
#: the work in a run is the same on every commit that is compared.
NOMINAL_S = {
    "counterexample-default": 10.0,
    "counterexample": 5.3,
    "rigidity": 5.3,
    "umbilic": 4.5,
    "newton": 2.8,
    "af": 11.0,
    "sr": 3.1,
    "minkowski-rev": 0.03,
    "symmetrize": 0.08,
    "cosine": 0.55,
    "funk": 25.0,
    "isotropy-gap": 3.0,
}

TRANSITION = 0.3  # the CLI default, which the cap pairs must be admissible for
HEIGHTS = (0.9, 0.95)
KAPPAS = (1.5, 4.0)  # bump concentrations of the transform inputs
FLOOR = 0.05  # constant added to every transform input density

# Minimal sizes for --quick: the harness and its schema, not the program's cost.
QUICK = {"band": 8, "grid": (32, 64), "transform_band": 16, "circle_m": 64}


def _write_config(path, entries):
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in entries:
            fh.write(f"{key}={value}\n")


def _vec(v):
    return ",".join(repr(float(x)) for x in v)


def random_rotation(rng):
    """Uniform random rotation (QR of a Gaussian matrix, sign-fixed)."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def draw_cap_pair(rng):
    """A cap pair from the plateau admissibility rule alone.

    Heights are uniform in HEIGHTS.  ``check_plateau_caps`` needs every pair
    among U, -U, V, -V at least 2 * TRANSITION apart, which for the angle a
    between the centres means r_U + r_V + 2T <= a <= pi - r_U - r_V - 2T;
    a is uniform on that interval and the frame is a uniform rotation.
    """
    hu, hv = rng.uniform(*HEIGHTS, size=2)
    ru, rv = math.acos(hu), math.acos(hv)
    lo = ru + rv + 2.0 * TRANSITION
    hi = math.pi - ru - rv - 2.0 * TRANSITION
    a = rng.uniform(lo, hi)
    q = random_rotation(rng)
    u = q @ np.array([0.0, 0.0, 1.0])
    v = q @ np.array([math.sin(a), 0.0, math.cos(a)])
    return {"u": u.tolist(), "hu": float(hu), "v": v.tolist(), "hv": float(hv)}


def draw_density(rng, n_bumps):
    """Positive density FLOOR + sum_k a_k exp(kappa_k (<x, mu_k> - 1))."""
    mu = rng.normal(size=(n_bumps, 3))
    mu /= np.linalg.norm(mu, axis=1, keepdims=True)
    return {
        "floor": FLOOR,
        "amp": rng.uniform(0.5, 2.0, size=n_bumps).tolist(),
        "kappa": rng.uniform(*KAPPAS, size=n_bumps).tolist(),
        "mu": mu.tolist(),
    }


def density_values(density, nodes):
    out = np.full(nodes.shape[0], density["floor"])
    for a, k, mu in zip(density["amp"], density["kappa"], density["mu"]):
        out += a * np.exp(k * (nodes @ np.asarray(mu) - 1.0))
    return out


def write_grid_csv(path, theta, phi, weight, values):
    """A grid CSV in the program's input format, written without the package."""
    np.savetxt(path, np.column_stack([theta, phi, weight, values]), fmt="%.17g", delimiter=",",
               header=oracles.HEADER, comments="")


def counterexample_jobs(rng, seconds, inputs, quick):
    """Default caps first, then a new admissible cap pair for every job.

    Commands cycle through counterexample, verify rigidity and verify
    umbilic, each at least once; each job builds exactly one design and no
    design repeats.
    """
    base = [("band", QUICK["band"])] if quick else []
    path = os.path.join(inputs, "j00.cfg")
    _write_config(path, base)
    jobs = [{"id": "j00", "kind": "counterexample-default",
             "argv": ["--config", path, "--out", "j00", "counterexample"]}]
    kinds = ("counterexample", "rigidity", "umbilic")
    per_job = sum(NOMINAL_S[k] for k in kinds) / len(kinds)
    n = round((seconds - NOMINAL_S["counterexample-default"]) / per_job)
    n = len(kinds) if quick else max(len(kinds), n)  # every command at least once
    for i in range(1, n + 1):
        pair = draw_cap_pair(rng)
        kind = kinds[(i - 1) % len(kinds)]
        jid = f"j{i:02d}"
        path = os.path.join(inputs, f"{jid}.cfg")
        _write_config(path, base + [
            ("cap_u_center", _vec(pair["u"])), ("cap_u_height", repr(pair["hu"])),
            ("cap_v_center", _vec(pair["v"])), ("cap_v_height", repr(pair["hv"])),
        ])
        cmd = ["counterexample"] if kind == "counterexample" else ["verify", "--suite", kind]
        jobs.append({"id": jid, "kind": kind, "argv": ["--config", path, "--out", jid] + cmd,
                     "caps": pair})
    return jobs


def corpus_jobs(rng, seconds, inputs, quick):
    """Passes of the four corpus suites, each suite with a fresh --seed."""
    suites = ("newton", "af", "sr", "minkowski-rev")
    per_pass = sum(NOMINAL_S[s] for s in suites)
    passes = 1 if quick else max(1, round(seconds / per_pass))
    cfg = [("grid", "%d,%d" % QUICK["grid"])] if quick else []
    path = os.path.join(inputs, "corpus.cfg")
    _write_config(path, cfg)
    jobs = []
    for _ in range(passes):
        for s in suites:
            jid = f"j{len(jobs):02d}"
            seed = int(rng.integers(1, 2**31 - 1))
            jobs.append({"id": jid, "kind": s, "argv": ["--config", path, "--seed", str(seed),
                                                         "--out", jid, "verify", "--suite", s]})
    return jobs


def transforms_jobs(rng, seconds, inputs, quick):
    """symmetrize, cosine and funk on seeded bump densities, then isotropy-gap."""
    cfg = [("band", QUICK["transform_band"]), ("circle_m", QUICK["circle_m"])] if quick else []
    path = os.path.join(inputs, "transforms.cfg")
    _write_config(path, cfg)
    theta, phi, weight = oracles.expected_grid(*oracles.GRID)
    nodes = oracles.nodes_of(theta, phi)
    per_pass = sum(NOMINAL_S[k] for k in TRANSFORM_KINDS) + NOMINAL_S["isotropy-gap"]
    passes = 1 if quick else max(1, round(seconds / per_pass))
    jobs = []
    for _ in range(passes):
        for kind in TRANSFORM_KINDS:
            jid = f"j{len(jobs):02d}"
            density = draw_density(rng, int(rng.integers(3, 7)))
            src = os.path.join(inputs, f"{jid}_in.csv")
            write_grid_csv(src, theta, phi, weight, density_values(density, nodes))
            jobs.append({"id": jid, "kind": kind, "density": density, "input": src,
                         "argv": ["--config", path, "--out", jid, "transform", "--which", kind,
                                  "--input", src, "--output", os.path.join(jid, "out.csv")]})
        jid = f"j{len(jobs):02d}"
        seed = int(rng.integers(1, 2**31 - 1))
        jobs.append({"id": jid, "kind": "isotropy-gap",
                     "argv": ["--config", path, "--seed", str(seed), "--out", jid,
                              "verify", "--suite", "isotropy-gap"]})
    return jobs


JOB_LISTS = {
    "counterexample": counterexample_jobs,
    "corpus": corpus_jobs,
    "transforms": transforms_jobs,
}


def make_jobs(workload, seed, seconds, inputs, quick=False):
    """Write the inputs of one run under ``inputs`` and return its job list."""
    os.makedirs(inputs, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return JOB_LISTS[workload](rng, seconds, inputs, quick)
