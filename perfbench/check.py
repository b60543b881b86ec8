"""Checks on the files the CLI wrote, independent of the library.

The system residual of each reported representative is recomputed from the
written ``x, y`` with the benchmark's own second-difference stencil and
central differences of the workload's integrand, never with the symbolic
derivative trees the solvers use.
"""

import json
import os

import numpy as np

# A verified representative solves the system to this max-norm defect; the
# library verifies at 1e-8 * (1 + 4), and central differences add ~1e-10.
SOLVED = 1e-6
# Agreement between the recomputed and the reported residual.
AGREE_ABS, AGREE_REL = 1e-6, 1e-6


def residual(field, u, x, y):
    """Max-norm defect of ``d2x = F_x``, ``d2y = -F_y`` at the interior nodes."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    k = np.arange(1, x.size - 1, dtype=float)
    xi, yi = x[1:-1], y[1:-1]
    hx = 1e-5 * (1.0 + np.abs(xi))
    hy = 1e-5 * (1.0 + np.abs(yi))
    fx = (field(k, xi + hx, yi, u) - field(k, xi - hx, yi, u)) / (2.0 * hx)
    fy = (field(k, xi, yi + hy, u) - field(k, xi, yi - hy, u)) / (2.0 * hy)
    d2x = x[2:] - 2.0 * xi + x[:-2]
    d2y = y[2:] - 2.0 * yi + y[:-2]
    return float(max(np.max(np.abs(d2x - fx)), np.max(np.abs(d2y + fy))))


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_solve(inst, prefix, code, problems):
    """Returns ``(representatives, unverified)``; appends any defect to ``problems``.

    Every workload is sized so that each start converges and each
    representative verifies, so a solve passes only with exit code 0, at
    least one representative, no failed start and every representative
    verified and re-checked here.
    """
    data = _load(prefix + ".saddle.json")
    if not os.path.exists(prefix + ".trace.csv"):
        problems.append(f"{prefix}: trace.csv missing")
    points = data["saddle_points"]
    if code != 0:
        problems.append(f"{prefix}: exit code {code}")
    if not points:
        problems.append(f"{prefix}: no saddle point found")
    if data["failed_starts"]:
        problems.append(f"{prefix}: {data['failed_starts']} of {data['attempts']} starts failed")
    for i, p in enumerate(points):
        x, y = p["x"], p["y"]
        if len(x) != inst.T + 2 or len(y) != inst.T + 2 or None in x or None in y:
            problems.append(f"{prefix}: representative {i} is not a finite grid function")
            continue
        if x[0] != 0 or x[-1] != 0 or y[0] != 0 or y[-1] != 0:
            problems.append(f"{prefix}: representative {i} breaks the boundary condition")
        r = residual(inst.field, inst.u, x, y)
        reported = p["residual_norm"]
        if reported is None or abs(r - reported) > AGREE_ABS + AGREE_REL * abs(reported):
            problems.append(f"{prefix}: representative {i} residual {r:.3e}, reported {reported}")
        if not p["verified"]:
            problems.append(f"{prefix}: representative {i} is unverified")
        elif not r <= SOLVED:
            problems.append(f"{prefix}: representative {i} verified with residual {r:.3e}")
    unverified = sum(not p["verified"] for p in points)
    # A solve that finds nothing counts as one unverified representative.
    return (len(points), unverified) if points else (1, 1)


def check_check(prefix, code, problems):
    data = _load(prefix + ".check.json")
    verdict = (data["growth"]["passed"] and data["convexity_in_x"]["passed"]
               and data["concavity_in_y"]["passed"])
    if code != 0 or not verdict or not data["ball_radii"]:
        problems.append(f"{prefix}: check verdict failed (exit {code})")


def check_sweep(prefix, code, problems):
    data = _load(prefix + ".sweep.json")
    with open(prefix + ".sweep.csv", encoding="utf-8") as handle:
        rows = [line for line in handle if line[:1].isdigit()]
    if code != 0 or not data["upper_limit_check"]["passed"]:
        problems.append(f"{prefix}: upper-limit check failed (exit {code})")
    if len(rows) != len(data["schedule"]):
        problems.append(f"{prefix}: {len(rows)} sweep rows for {len(data['schedule'])} terms")
