"""Command-line interface: ``saddlebvp solve|check|sweep|constants``.

Structured results go to JSON, per-iteration traces and sweep tables to
CSV.  Numbers are printed with 17 significant digits so doubles round-trip
exactly, every output file embeds a manifest header, and all randomness
flows from the single ``--seed`` flag, so identical invocations produce
byte-identical files.  Wall time is reported on stdout only.

Exit codes: 0 verified/passed, 2 unverified or counterexample found,
1 usage or input error.  Input files are read by ``problem.read_json`` and
parsed beside their types, which reject non-finite numbers; the CLI only
routes arguments and writes outputs.
"""

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .dependence import DependenceError, run_sequence, sequence_from_dict, upper_limit_check
from .grid import GridError, GridFunction, embedding_constant
from .hypotheses import (HypothesisError, ball_radii, certificate_from_dict,
                         check_concavity_y, check_convexity_x, verify_growth)
from .problem import problem_from_dict, read_json
from .solvers import SolverConfig, SolverError, saddle_set, verify_saddle

# Every input error of the library is a ValueError.
USER_ERRORS = (SolverError, OSError, ValueError)


# --- deterministic serialization --------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, (np.floating, float)):
        v = float(v)
        if not math.isfinite(v):
            return "null"
        return format(v, ".17g")
    raise TypeError(f"not a float: {v!r}")


def _json_text(obj, indent=0):
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        if isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
            items = [_fmt(v) for v in obj.tolist()]  # no per-element dispatch
        else:
            items = [_json_text(v, indent + 1) for v in obj]
        if not items:
            return "[]"
        inner = ",\n".join("  " * (indent + 1) + s for s in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        items = [f"{json.dumps(str(k))}: {_json_text(v, indent + 1)}" for k, v in obj.items()]
        if not items:
            return "{}"
        inner = ",\n".join("  " * (indent + 1) + s for s in items)
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(_json_text(obj) + "\n")


def _write_csv(path, manifest, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("# manifest: " + json.dumps(manifest, separators=(",", ":")) + "\n")
        handle.write(",".join(header) + "\n")
        for row in rows:
            cells = [str(int(c)) if isinstance(c, (int, np.integer)) else _fmt(c)
                     for c in row]
            handle.write(",".join(cells) + "\n")


def _manifest(subcommand, problem_path, seed, config):
    return {
        "tool": "saddlebvp",
        "version": __version__,
        "subcommand": subcommand,
        "problem": str(problem_path) if problem_path else None,
        "seed": seed,
        "config": config,
    }


def _out_prefix(args):
    if args.out:
        return args.out
    stem = os.path.splitext(os.path.basename(args.problem))[0]
    return stem


def _candidate_payload(cand, report=None):
    payload = {
        "x": cand.x.values,
        "y": cand.y.values,
        "value": cand.value,
        "grad_norm": cand.grad_norm,
        "residual_norm": cand.residual_norm,
        "method": cand.method,
        "iterations": cand.iterations,
        "converged": cand.converged,
    }
    if report is not None:
        payload["verified"] = report.passed
        payload["verification_failures"] = list(report.failures)
    return payload


def _solver_config(args, record_trace):
    return SolverConfig(method=args.method, tol=args.tol,
                        max_iter=args.max_iter, multistart=args.multistart,
                        seed=args.seed, record_trace=record_trace)


def _certificate(args, data, T):
    """The ``--certificate`` file, else the problem file's certificate, else None."""
    source = read_json(args.certificate) if args.certificate else data.get("certificate")
    return None if source is None else certificate_from_dict(source, T)


def _ball_radii(cert, T):
    return None if cert is None else ball_radii(cert, embedding_constant(2, T), T)


# --- subcommands -------------------------------------------------------------

def cmd_solve(args):
    start = time.perf_counter()
    data = read_json(args.problem)
    spec, u = problem_from_dict(data)
    cfg = _solver_config(args, record_trace=True)
    radii = _ball_radii(_certificate(args, data, spec.T), spec.T)
    sset = saddle_set(spec, u, cfg, radii=radii)
    reports = [verify_saddle(spec, u, cand, radii=radii, seed=args.seed)
               for cand in sset.points]

    config_echo = {"method": args.method, "tol": args.tol, "max_iter": args.max_iter,
                   "multistart": args.multistart}
    manifest = _manifest("solve", args.problem, args.seed, config_echo)
    prefix = _out_prefix(args)
    _write_json(prefix + ".saddle.json", {
        "manifest": manifest,
        "T": spec.T,
        "cluster_radius": sset.cluster_radius,
        "attempts": sset.attempts,
        "failed_starts": sset.failures,
        "saddle_points": [_candidate_payload(c, r) for c, r in zip(sset.points, reports)],
    })
    trace_rows = sset.points[0].trace if sset.points and sset.points[0].trace else []
    _write_csv(prefix + ".trace.csv", manifest,
               ["iter", "grad_norm", "residual", "value"], trace_rows)

    elapsed = time.perf_counter() - start
    verified = bool(sset.points) and all(r.passed for r in reports)
    for cand, rep in zip(sset.points, reports):
        status = "verified" if rep.passed else "UNVERIFIED"
        print(f"saddle value {cand.value:.12g}  residual {cand.residual_norm:.3e}  [{status}]")
    if not sset.points:
        print("no converged saddle point found")
    print(f"wrote {prefix}.saddle.json, {prefix}.trace.csv  (wall time {elapsed:.3f} s)")
    return 0 if verified else 2


def cmd_check(args):
    start = time.perf_counter()
    data = read_json(args.problem)
    spec, u = problem_from_dict(data)
    cert = _certificate(args, data, spec.T)
    if cert is None:
        raise HypothesisError("no certificate: pass --certificate or embed one in the problem file")

    growth = verify_growth(spec, cert, grid_density=args.density)
    anchor_y = cert.anchor_y if cert.anchor_y is not None else GridFunction.zeros(spec.T)
    anchor_x = cert.anchor_x if cert.anchor_x is not None else GridFunction.zeros(spec.T)
    convex = check_convexity_x(spec, u, anchor_y, cert.box_radius, args.density)
    concave = check_concavity_y(spec, u, anchor_x, cert.box_radius, args.density)
    radii = _ball_radii(cert, spec.T) if growth.alpha_ok else None

    manifest = _manifest("check", args.problem, args.seed, {"density": args.density})
    payload = {
        "manifest": manifest,
        "growth": {
            "passed": growth.passed,
            "alpha_ok": growth.alpha_ok,
            "alpha_margins": list(growth.alpha_margins),
            "worst_lower_margin": growth.worst_lower_margin,
            "worst_upper_margin": growth.worst_upper_margin,
            "counterexample": growth.counterexample,
        },
        "convexity_in_x": {"passed": convex.passed, "exact": convex.exact,
                           "worst_margin": convex.worst_margin,
                           "counterexample": convex.counterexample},
        "concavity_in_y": {"passed": concave.passed, "exact": concave.exact,
                           "worst_margin": concave.worst_margin,
                           "counterexample": concave.counterexample},
        "ball_radii": None if radii is None else {
            "r1": radii.r1, "r2": radii.r2,
            "value_lower": radii.value_lower, "value_upper": radii.value_upper,
        },
    }
    prefix = _out_prefix(args)
    _write_json(prefix + ".check.json", payload)
    elapsed = time.perf_counter() - start
    ok = growth.passed and convex.passed and concave.passed
    if growth.counterexample and not growth.alpha_ok:
        print("margin violated: alpha bounds exceed 1/(2 c2)")
    print(f"growth: {'pass' if growth.passed else 'FAIL'}  "
          f"convexity: {'pass' if convex.passed else 'FAIL'}  "
          f"concavity: {'pass' if concave.passed else 'FAIL'}")
    print(f"wrote {prefix}.check.json  (wall time {elapsed:.3f} s)")
    return 0 if ok else 2


def cmd_sweep(args):
    start = time.perf_counter()
    data = read_json(args.problem)
    spec, u = problem_from_dict(data)
    seq_data = read_json(args.sequence) if args.sequence else data.get("sequence")
    if seq_data is None:
        raise DependenceError("no sequence: pass --sequence or embed one in the problem file")
    seq = sequence_from_dict(seq_data, u)
    cfg = _solver_config(args, record_trace=False)  # sweep writes no traces
    radii = _ball_radii(_certificate(args, data, spec.T), spec.T)
    report = run_sequence(spec, seq, cfg, radii=radii, tol_dep=args.tol_dep)
    check = upper_limit_check(report, args.tol_dep)

    config_echo = {"method": args.method, "tol": args.tol, "max_iter": args.max_iter,
                   "multistart": args.multistart, "tol_dep": args.tol_dep,
                   "N": seq.N}
    manifest = _manifest("sweep", args.problem, args.seed, config_echo)
    prefix = _out_prefix(args)
    rows = [(e.n, e.value, e.dist, e.gap) for e in report.entries]
    _write_csv(prefix + ".sweep.csv", manifest, ["n", "a_n", "dist_n", "gap_n"], rows)
    _write_json(prefix + ".sweep.json", {
        "manifest": manifest,
        "a0": report.a0,
        "schedule": list(report.schedule),
        "final_dist": report.final_dist,
        "final_value_gap": report.final_value_gap,
        "all_nonempty": report.all_nonempty,
        "dist_converged": report.dist_converged,
        "values_converged": report.values_converged,
        "partial": report.partial,
        "upper_limit_check": {"passed": check.passed,
                              "limits": list(check.limits),
                              "violations": list(check.violations)},
    })
    elapsed = time.perf_counter() - start
    print(f"a0 = {report.a0:.12g}; final dist {report.final_dist:.3e}; "
          f"upper limit check {'pass' if check.passed else 'FAIL'}")
    print(f"wrote {prefix}.sweep.csv, {prefix}.sweep.json  (wall time {elapsed:.3f} s)")
    return 0 if check.passed else 2


def cmd_constants(args):
    if args.T is not None:
        T_values = [args.T]
    elif args.problem:
        spec, _ = problem_from_dict(read_json(args.problem))
        T_values = [spec.T]
    else:
        raise GridError("constants needs --T or a problem file")
    print(f"{'m':>4} {'T':>6} {'constant':>24}")
    for T in T_values:
        for m in args.m:
            print(f"{m:>4} {T:>6} {embedding_constant(m, T):>24.16g}")
    return 0


@functools.cache
def build_parser():
    """The CLI's argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="saddlebvp",
        description="Saddle-point solvers for second-order discrete boundary value systems")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, with_solver=True):
        p.add_argument("--seed", type=int, default=0, help="seed for all randomness")
        p.add_argument("--out", default=None, help="output file prefix (default: problem stem)")
        if with_solver:
            p.add_argument("--method", default=SolverConfig.method,
                           choices=["extragradient", "newton", "nested"])
            p.add_argument("--tol", type=float, default=SolverConfig.tol,
                           help="gradient and residual tolerance")
            p.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
            p.add_argument("--multistart", type=int, default=SolverConfig.multistart,
                           help="random starts of a saddle-set search; in sweep, of the "
                                "limit's search alone")

    p_solve = sub.add_parser("solve", help="compute and verify the saddle set")
    p_solve.add_argument("problem")
    p_solve.add_argument("--certificate", default=None,
                         help="growth certificate JSON for a priori ball radii")
    add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="verify a growth/convexity certificate")
    p_check.add_argument("problem")
    p_check.add_argument("--certificate", default=None)
    p_check.add_argument("--density", type=int, default=201,
                         help="grid density for the growth bounds and the curvature checks")
    p_check.add_argument("--samples", type=int, default=64,
                         help="ignored; accepted so that older invocations still run")
    add_common(p_check, with_solver=False)
    p_check.set_defaults(func=cmd_check)

    p_sweep = sub.add_parser("sweep", help="solve along a convergent parameter sequence")
    p_sweep.add_argument("problem")
    p_sweep.add_argument("--sequence", default=None, help="sequence spec JSON")
    p_sweep.add_argument("--certificate", default=None)
    p_sweep.add_argument("--tol-dep", type=float, default=1e-4)
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_const = sub.add_parser("constants", help="print embedding constants")
    p_const.add_argument("problem", nargs="?", default=None)
    p_const.add_argument("--T", type=int, default=None)
    p_const.add_argument("-m", "--m", type=int, nargs="+", default=[2])
    p_const.set_defaults(func=cmd_constants)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, which here means "unverified"
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
