"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is stated inline next to its check.
"""

import json
import time

import numpy as np
from scipy.linalg import solveh_banded

from conftest import (central_fd_gradient, dirichlet_matrix, direct_quadratic_solve,
                      nonlinear_instance, quadratic_instance)
from saddlebvp import (GridFunction, ParameterFunction, ParameterSequence,
                       ProblemSpec, SolverConfig, ball_radii, check_concavity_y,
                       check_convexity_x, embedding_constant,
                       fit_growth_certificate, grad, h_norm, run_sequence)
from saddlebvp.cli import main
from saddlebvp.expressions import (Add, Call, Div, Mul, Neg, Num, Pow, Sub, Var,
                                   differentiate, evaluate, parse, to_string)
from saddlebvp.hypotheses import GrowthCertificate
from saddlebvp.solvers import saddle_set, solve, verify_saddle

TIGHT = SolverConfig(tol=1e-12)


def _report(num, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\ncriterion {num:>2} [{label}]: {status}")
    assert not failures, f"criterion {num} ({label}): " + "; ".join(failures)


def _rayleigh_inverse_power(T, iters=60):
    # brute-force Rayleigh maximization of sum x^2 / sum dx^2 through inverse
    # power iteration with a banded solver; independent of the closed form
    L = dirichlet_matrix(T)
    ab = np.zeros((2, T))
    ab[0, 1:] = -1.0
    ab[1, :] = 2.0
    v = np.ones(T)
    for _ in range(iters):
        v = np.linalg.solve(L, v) if T <= 2 else solveh_banded(ab, v)
        v /= np.linalg.norm(v)
    return float((v @ v) / (v @ L @ v))


def test_criterion_1_embedding_constant():
    failures = []
    start = time.perf_counter()
    for T in range(1, 201):
        closed = 1.0 / (4.0 * np.sin(np.pi / (2.0 * (T + 1))) ** 2)
        got = embedding_constant(2, T)
        if abs(got - closed) > 1e-10 * max(1.0, closed):
            failures.append(f"closed form mismatch at T={T}: {got} vs {closed}")
            break
        brute = _rayleigh_inverse_power(T)
        if abs(brute - got) > 1e-7 * max(1.0, got):
            failures.append(f"Rayleigh brute force disagrees at T={T}: {brute} vs {got}")
            break
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f} s exceeds 5 s")
    _report(1, "embedding constant", failures)


def test_criterion_2_gradient_check():
    failures = []
    rng = np.random.default_rng(100)
    for trial in range(100):
        T = int(rng.integers(1, 21))
        if trial % 2 == 0:
            spec, u, _ = quadratic_instance(rng, T)
        else:
            spec, u = nonlinear_instance(rng, T)
        x = GridFunction.from_interior(rng.uniform(-1.5, 1.5, T))
        y = GridFunction.from_interior(rng.uniform(-1.5, 1.5, T))
        gx, gy = grad(spec, u, x, y)
        fx, fy = central_fd_gradient(spec, u, x, y)
        err = max(np.max(np.abs(gx - fx) / (1 + np.abs(fx))),
                  np.max(np.abs(gy - fy) / (1 + np.abs(fy))))
        if err > 1e-6:
            failures.append(f"trial {trial}: relative error {err:.2e} > 1e-6")
    _report(2, "gradient vs finite differences", failures)


def test_criterion_3_critical_point_equivalence():
    failures = []
    rng = np.random.default_rng(101)
    for trial in range(10):
        T = int(rng.integers(1, 13))
        spec, u = nonlinear_instance(rng, T)
        z0 = (GridFunction.from_interior(rng.standard_normal(T)),
              GridFunction.from_interior(rng.standard_normal(T)))
        cand = solve(spec, u, *z0, SolverConfig(tol=1e-13))
        report = verify_saddle(spec, u, cand, probes=32, seed=trial)
        bound = 1e-8 * (1.0 + spec.lap.norm_inf)
        if report.passed and cand.residual_norm > bound:
            failures.append(f"verified candidate with residual {cand.residual_norm:.2e}")
        if cand.residual_norm <= 1e-12:
            gx, gy = grad(spec, u, cand.x, cand.y)
            gn = np.sqrt(gx @ gx + gy @ gy)
            if gn > 1e-10:
                failures.append(f"residual {cand.residual_norm:.2e} but grad {gn:.2e}")
        if not report.passed:
            failures.append(f"trial {trial}: solver output failed verification")
    _report(3, "critical point iff solution", failures)


def test_criterion_4_closed_form_instance():
    failures = []
    spec = ProblemSpec.create(1, 2.0, "x*y + u*(x - y)")
    u = ParameterFunction.constant(1.0, 1, 2.0)
    z0 = (GridFunction.from_interior([0.7]), GridFunction.from_interior([-1.2]))
    for name in ("extragradient", "newton", "nested"):
        cand = solve(spec, u, *z0, SolverConfig(method=name, tol=1e-12))
        if abs(cand.x(1) + 0.2) > 1e-8 or abs(cand.y(1) + 0.6) > 1e-8:
            failures.append(f"{name} point ({cand.x(1)}, {cand.y(1)})")
        if abs(cand.value - 0.2) > 1e-10:
            failures.append(f"{name} value {cand.value}")
    _report(4, "closed-form instance", failures)


def test_criterion_5_linear_quadratic_oracle():
    failures = []
    rng = np.random.default_rng(102)
    for trial in range(20):
        T = int(rng.integers(1, 9))
        spec, u, coeffs = quadratic_instance(rng, T)
        if not check_convexity_x(spec, u, GridFunction.zeros(T), 3.0, 4).passed:
            failures.append(f"trial {trial}: instance not convex")
            continue
        if not check_concavity_y(spec, u, GridFunction.zeros(T), 3.0, 4).passed:
            failures.append(f"trial {trial}: instance not concave")
            continue
        x_ref, y_ref = direct_quadratic_solve(T, u, coeffs)
        ref_x = GridFunction.from_interior(x_ref)
        ref_y = GridFunction.from_interior(y_ref)

        z0 = (GridFunction.from_interior(rng.standard_normal(T)),
              GridFunction.from_interior(rng.standard_normal(T)))
        nt = solve(spec, u, *z0, TIGHT)
        err_nt = np.hypot(h_norm(nt.x - ref_x), h_norm(nt.y - ref_y))
        if err_nt > 1e-8:
            failures.append(f"trial {trial}: newton {err_nt:.2e} > 1e-8")

        eg = solve(spec, u, *z0, SolverConfig(method="extragradient", tol=1e-9, max_iter=200000))
        err_eg = np.hypot(h_norm(eg.x - ref_x), h_norm(eg.y - ref_y))
        if err_eg > 1e-6:
            failures.append(f"trial {trial}: extragradient {err_eg:.2e} > 1e-6")

        ne = solve(spec, u, *z0, SolverConfig(method="nested", tol=1e-12))
        err_ne = np.hypot(h_norm(ne.x - ref_x), h_norm(ne.y - ref_y))
        if err_ne > 1e-6:
            failures.append(f"trial {trial}: nested {err_ne:.2e} > 1e-6")
    _report(5, "linear-quadratic oracle", failures)


def test_criterion_6_minimax_equality():
    failures = []
    rng = np.random.default_rng(103)
    for trial in range(6):
        T = int(rng.integers(1, 7))
        if trial % 2 == 0:
            spec, u, _ = quadratic_instance(rng, T)
        else:
            spec, u = nonlinear_instance(rng, T)
        w0 = GridFunction.from_interior(rng.standard_normal(T))
        maxmin = solve(spec, u, w0, w0, SolverConfig(method="nested", tol=1e-12))
        minmax = solve(spec, u, w0, w0, SolverConfig(method="nested-xfirst", tol=1e-12))
        gap = abs(maxmin.value - minmax.value)
        if not (maxmin.converged and minmax.converged):
            failures.append(f"trial {trial}: nested order failed to converge")
        elif gap > 1e-8:
            failures.append(f"trial {trial}: minimax gap {gap:.2e} > 1e-8")
    _report(6, "minimax equality at solutions", failures)


def test_criterion_7_ball_containment():
    failures = []
    rng = np.random.default_rng(104)
    cfg = SolverConfig(method="newton", multistart=6, tol=1e-12)
    for trial in range(6):
        T = int(rng.integers(1, 7))
        spec, u = nonlinear_instance(rng, T)
        cert = fit_growth_certificate(spec, box_radius=12.0)
        radii = ball_radii(cert, embedding_constant(2, T), T)
        sset = saddle_set(spec, u, cfg, radii=radii)
        if not sset.points:
            failures.append(f"trial {trial}: no saddle found")
            continue
        for cand in sset.points:
            if not verify_saddle(spec, u, cand, probes=32, radii=radii).passed:
                continue
            if h_norm(cand.x) > radii.r1 * (1 + 1e-6):
                failures.append(f"trial {trial}: x escapes ball "
                                f"({h_norm(cand.x):.4f} > {radii.r1:.4f})")
            if h_norm(cand.y) > radii.r2 * (1 + 1e-6):
                failures.append(f"trial {trial}: y escapes ball "
                                f"({h_norm(cand.y):.4f} > {radii.r2:.4f})")
    # the hand-derived certificate of the bilinear instance (r1 = r2 = 4)
    spec = ProblemSpec.create(1, 2.0, "x*y + u*(x - y)")
    u = ParameterFunction.constant(1.0, 1, 2.0)
    cert = GrowthCertificate.constant(1, 0.5, 0, -2.0, 0.5, 0, 2.0, box_radius=6.0,
                                      anchor_y=GridFunction.zeros(1),
                                      anchor_x=GridFunction.zeros(1))
    radii = ball_radii(cert, 0.5, 1)
    cand = solve(spec, u, GridFunction.zeros(1), GridFunction.zeros(1), TIGHT)
    if not radii.contains(cand.x, cand.y, slack=1e-6):
        failures.append("bilinear saddle escapes its hand-derived balls")
    _report(7, "ball containment", failures)


def test_criterion_8_dependence():
    failures = []
    start = time.perf_counter()

    # closed-form family u_n = 1 + 1/n: dist_n = sqrt(4/5)/n, gaps (2/n + 1/n^2)/5
    spec = ProblemSpec.create(1, 2.0, "x*y + u*(x - y)")
    u0 = ParameterFunction.constant(1.0, 1, 2.0)
    seq = ParameterSequence.rule(u0, np.array([1.0]), N=64)
    cfg = SolverConfig(method="newton", tol=1e-12, multistart=4)
    report = run_sequence(spec, seq, cfg, radii=(4.0, 4.0), tol_dep=1e-4)
    for entry in report.entries:
        want_dist = np.sqrt(0.8) / entry.n
        if abs(entry.dist - want_dist) > 1e-6 + cfg.tol:
            failures.append(f"dist at n={entry.n}: {entry.dist} vs {want_dist}")
        want_gap = (2.0 / entry.n + 1.0 / entry.n ** 2) / 5.0
        if abs(abs(entry.value - report.a0) - want_gap) > 1e-8:
            failures.append(f"value gap at n={entry.n}")

    # random certified nonlinear instances, u_n = u0 + v/n
    rng = np.random.default_rng(105)
    for trial in range(5):
        T = int(rng.integers(2, 7))
        spec, u0 = nonlinear_instance(rng, T)
        direction = rng.uniform(-1, 1, T) * 1e-3
        seq = ParameterSequence.rule(u0, direction, N=64)
        cert = fit_growth_certificate(spec, box_radius=12.0)
        radii = ball_radii(cert, embedding_constant(2, T), T)
        rep = run_sequence(spec, seq, cfg, radii=radii, tol_dep=1e-4)
        if rep.final_dist > 1e-4:
            failures.append(f"trial {trial}: dist_N {rep.final_dist:.2e} > 1e-4")
        for entry in rep.entries:
            if abs(entry.value - rep.a0) > entry.gap + 2 * cfg.tol:
                failures.append(f"trial {trial}: a_n not Cauchy at n={entry.n}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f} s exceeds 60 s")
    _report(8, "parameter dependence", failures)


def _random_ast(rng, depth=0):
    leaf_p = 0.35 + 0.17 * depth
    if rng.uniform() < leaf_p or depth > 5:
        if rng.uniform() < 0.45:
            return Num(float(np.round(rng.uniform(-20, 20), 6)))
        return Var(str(rng.choice(["k", "x", "y", "u"])))
    kind = rng.integers(0, 6)
    a = _random_ast(rng, depth + 1)
    b = _random_ast(rng, depth + 1)
    if kind == 0:
        return Add(a, b)
    if kind == 1:
        return Sub(a, b)
    if kind == 2:
        return Mul(a, b)
    if kind == 3:
        return Div(a, b)
    if kind == 4:
        return Pow(a, b)
    if kind == 5 and not isinstance(a, Num):
        return Neg(a)
    return Call(str(rng.choice(["sin", "cos", "exp", "log", "sqrt", "abs", "tanh"])), a)


def test_criterion_9_expression_dsl():
    failures = []
    texts = ["sin(x)*cos(y)", "exp(x*y/4)", "log(2.5 + x^2 + y^2)", "sqrt(1.2 + x^2)",
             "tanh(x - y)", "(1.5 + x^2)^y", "y/(2 + x^2)", "u*x - k*y + x^3"]
    rng = np.random.default_rng(106)
    for text in texts:
        ast = parse(text)
        for var in ("x", "y"):
            d = differentiate(ast, var)
            for _ in range(50):
                env = {"k": float(rng.integers(1, 6)), "x": rng.uniform(-1.5, 1.5),
                       "y": rng.uniform(-1.5, 1.5), "u": rng.uniform(-1, 1)}
                h = 1e-6 * (1.0 + abs(env[var]))
                hi = evaluate(ast, {**env, var: env[var] + h})
                lo = evaluate(ast, {**env, var: env[var] - h})
                fd = (hi - lo) / (2 * h)
                if abs(evaluate(d, env) - fd) > 1e-6 * (1.0 + abs(fd)):
                    failures.append(f"derivative mismatch for {text} in {var}")
                    break

    bad = 0
    for _ in range(1000):
        ast = _random_ast(rng)
        if parse(to_string(ast)) != ast:
            bad += 1
    if bad:
        failures.append(f"{bad} of 1000 round trips failed")
    _report(9, "expression DSL", failures)


def test_criterion_10_determinism(tmp_path):
    failures = []
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({
        "T": 2, "D": 2.0, "F": "x*y + u*(x - y) + 0.1*x^2 - 0.1*y^2", "u": "1",
        "sequence": {"u0": "1", "direction": "1", "N": 8},
    }))
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        code1 = main(["solve", str(problem), "--out", str(tmp_path / d / "r"),
                      "--method", "extragradient", "--seed", "11"])
        code2 = main(["sweep", str(problem), "--out", str(tmp_path / d / "r"),
                      "--seed", "11", "--tol", "1e-11"])
        if code1 != 0 or code2 != 0:
            failures.append(f"run in {d} exited with {code1}/{code2}")
    for name in ("r.saddle.json", "r.trace.csv", "r.sweep.csv", "r.sweep.json"):
        if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes():
            failures.append(f"{name} differs between identical runs")
    _report(10, "determinism", failures)
