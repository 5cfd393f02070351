"""Output checks that do not use the package.

Grid CSVs are read with numpy and compared with closed forms computed here:
the Gauss-Legendre grid layout, the Funk transform of an exponential bump,
the cosine transform by a 1-D Funk-Hecke integral in each bump's frame, and
the L1 norm under radial symmetrization.  Reports are checked for strict
JSON, for the exit-code contract and for echoing the generated inputs.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

HEADER = "theta,phi,weight,value"
GRID = (64, 128)

#: Relative tolerances.  The Funk route is exact up to rounding for these
#: bumps; the node-sum cosine transform is documented to "a few times 1e-3"
#: relative, so the check must also pass a later exact spectral route.
FUNK_TOL = 1e-7
COSINE_TOL = 5e-3
L1_TOL = 1e-10
LAYOUT_TOL = 1e-12

#: Report rows whose tolerance is a lower bound on the metric: the row
#: passes only when the metric exceeds it.  ``lens-radii-split-on-fan``
#: (pass iff the split is above 0.5) is one too.
LOWER_BOUND_ROWS = {
    "counterexample-nonconstancy",
    "rigidity-negative-control",
    "umbilic-spherocylinder-fit-fails",
    "lens-radii-split-on-fan",
}


def read_grid_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header != HEADER:
        raise ValueError(f"{path}: header {header!r}")
    return data[:, 0], data[:, 1], data[:, 2], data[:, 3]


def expected_grid(n_theta, n_phi):
    """Nodes and weights of the Gauss-Legendre x uniform product grid."""
    t, w = np.polynomial.legendre.leggauss(n_theta)
    order = np.argsort(-t)
    t, w = t[order], w[order]
    theta = np.repeat(np.arccos(t), n_phi)
    phi = np.tile(2.0 * np.pi * np.arange(n_phi) / n_phi, n_theta)
    weight = np.repeat(w * 2.0 * np.pi / n_phi, n_phi)
    return theta, phi, weight


def nodes_of(theta, phi):
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=1)


def check_layout(theta, phi, weight):
    et, ep, ew = expected_grid(*GRID)
    if theta.shape != et.shape:
        return [f"grid has {theta.size} rows, expected {et.size}"]
    err = max(np.max(np.abs(theta - et)), np.max(np.abs(phi - ep)),
              np.max(np.abs(weight - ew) / ew))
    return [] if err <= LAYOUT_TOL else [f"grid layout differs by {err:.3e}"]


def funk_exact(density, nodes):
    """2 pi floor + sum_k a_k 2 pi e^-kappa I0(kappa sqrt(1 - <u, mu>^2))."""
    out = np.full(nodes.shape[0], 2.0 * math.pi * density["floor"])
    for a, k, mu in zip(density["amp"], density["kappa"], density["mu"]):
        c = np.clip(nodes @ np.asarray(mu), -1.0, 1.0)
        out += a * 2.0 * math.pi * math.exp(-k) * np.i0(k * np.sqrt(1.0 - c * c))
    return out


def _abs_cos_ring(A, B):
    """int_0^2pi |A + B cos psi| dpsi for B >= 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.clip(np.where(B > 0, -A / B, 0.0), -1.0, 1.0)
    psi0 = np.arccos(x)
    inner = 2.0 * A * (2.0 * psi0 - math.pi) + 4.0 * B * np.sqrt(1.0 - x * x)
    return np.where(B <= np.abs(A), 2.0 * math.pi * np.abs(A), inner)


def cosine_exact(density, nodes, n=64):
    """Funk-Hecke: C phi(<., mu>)(u) = int_-1^1 phi(t) K(t, <u, mu>) dt.

    K(t, c) is the ring integral of |<x, u>| at height t in the bump's
    frame; it has kinks at t = +-sqrt(1 - c^2), so Gauss-Legendre runs on
    the three pieces between them.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    out = np.full(nodes.shape[0], 2.0 * math.pi * density["floor"])
    for a, k, mu in zip(density["amp"], density["kappa"], density["mu"]):
        c = np.clip(nodes @ np.asarray(mu), -1.0, 1.0)[:, None]
        s = np.sqrt(1.0 - c * c)
        total = np.zeros(nodes.shape[0])
        for lo, hi in ((-1.0, -s), (-s, s), (s, 1.0)):
            half = 0.5 * (hi - lo)
            t = lo + half * (x + 1.0)
            B = np.sqrt(np.maximum(1.0 - t * t, 0.0)) * s
            total += np.sum(half * w * np.exp(k * (t - 1.0)) * _abs_cos_ring(t * c, B), axis=1)
        out += a * total
    return out


def check_transform(job, outdir):
    """Compare a transform's output CSV with the closed form of its input."""
    path = os.path.join(outdir, job["id"], "out.csv")
    theta, phi, weight, got = read_grid_csv(path)
    problems = check_layout(theta, phi, weight)
    if problems:
        return problems
    nodes = nodes_of(theta, phi)
    kind, density = job["kind"], job["density"]
    if kind == "symmetrize":
        _, _, _, f = read_grid_csv(job["input"])
        l1_in, l1_out = float(np.sum(weight * np.abs(f))), float(np.sum(weight * np.abs(got)))
        err = abs(l1_out - l1_in) / l1_in
        rings = got.reshape(GRID)
        if np.any(rings != rings[:, :1]):
            problems.append("symmetrized output is not constant on every ring")
        tol = L1_TOL
    else:
        want = (funk_exact if kind == "funk" else cosine_exact)(density, nodes)
        err = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        tol = FUNK_TOL if kind == "funk" else COSINE_TOL
    if not err <= tol:
        problems.append(f"{kind} output off by {err:.3e} relative (tolerance {tol:.1e})")
    return problems


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def read_report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def margin(row):
    """log10 headroom of a row to its tolerance, or None if undefined."""
    m, tol = row["metric"], row["tolerance"]
    if not (isinstance(m, (int, float)) and isinstance(tol, (int, float))):
        return None
    if not (0.0 < m < math.inf and 0.0 < tol < math.inf):
        return None
    if row["test_id"] in LOWER_BOUND_ROWS:
        return math.log10(m / tol)
    return math.log10(tol / m)


def check_report(job, outdir, rc):
    """Rows of a suite or counterexample report plus any contract breach."""
    jdir = os.path.join(outdir, job["id"])
    name = "report.json" if "counterexample" in job["kind"] else f"verify_{job['kind']}.json"
    try:
        report = read_report(os.path.join(jdir, name))
    except (OSError, ValueError) as exc:
        return [], [f"report unreadable: {exc}"]
    rows = report.get("results", [])
    problems = []
    if not rows:
        problems.append("report has no rows")
    all_pass = all(r.get("pass") is True for r in rows)
    if rc != (0 if all_pass else 2):
        problems.append(f"exit code {rc} disagrees with the report (all pass: {all_pass})")
    echo = report.get("config_echo", {})
    if "caps" in job:
        caps = job["caps"]
        want = {"cap_u_center": caps["u"], "cap_u_height": caps["hu"],
                "cap_v_center": caps["v"], "cap_v_height": caps["hv"]}
        for key, value in want.items():
            if echo.get(key) != value:
                problems.append(f"config echo {key}={echo.get(key)!r}, sent {value!r}")
    if "--seed" in job["argv"]:
        seed = int(job["argv"][job["argv"].index("--seed") + 1])
        if echo.get("seed") != seed:
            problems.append(f"config echo seed={echo.get('seed')!r}, sent {seed}")
    if "counterexample" in job["kind"]:
        theta, phi, weight, g = read_grid_csv(os.path.join(jdir, "density.csv"))
        problems += check_layout(theta, phi, weight)
        if not np.all(g > 0):
            problems.append("counterexample density is not positive")
    return rows, problems
