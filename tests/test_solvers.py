import hashlib
import json
import math
import os
import random
import tracemalloc

import numpy as np
import pytest

from conftest import (dirichlet_matrix, direct_quadratic_solve, nonlinear_instance,
                      quadratic_instance, reference_extragradient)
from saddlebvp import (GridFunction, ParameterFunction, ProblemSpec, SaddleCandidate,
                       SolverConfig, action, embedding_constant, grad, h_norm, load_problem,
                       product_distance, solvers)
from saddlebvp.hypotheses import ball_radii, certificate_from_dict
from saddlebvp.expressions import ExprError
from saddlebvp.grid import DirichletLaplacian, random_interior, random_interior_rows
from saddlebvp.problem import action_i, block_rows, make_candidates_i, residual_from_grad
from saddlebvp.solvers import SolverError, radii_pair, saddle_set, solve, verify_saddle
from test_golden import regenerate as golden_regenerate

TIGHT = SolverConfig(tol=1e-12)
EG_TIGHT = SolverConfig(method="extragradient", tol=1e-12)
NESTED_TIGHT = SolverConfig(method="nested", tol=1e-12)
EXP_T5 = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "demos", "problems", "exp_t5.json")


def bilinear_spec(u_value=1.0):
    spec = ProblemSpec.create(1, 2.0, "x*y + u*(x - y)")
    return spec, ParameterFunction.constant(u_value, 1, 2.0)


def start(xv, yv):
    return (GridFunction.from_interior(np.atleast_1d(xv)),
            GridFunction.from_interior(np.atleast_1d(yv)))


def zero_problem(T=3):
    return ProblemSpec.create(T, 1.0, "0*x"), ParameterFunction.constant(0.0, T, 1.0)


def log_problem(T=3):
    # newton iterates pass through x < -1.5, where log, and so the action, is
    # undefined while the gradient 2x + 1/(x + 1.5) is not
    return (ProblemSpec.create(T, 1.0, "x^2 - y^2 + log(x + 1.5)"),
            ParameterFunction.constant(0.0, T, 1.0))


# --- extragradient ------------------------------------------------------------

def test_extragradient_zero_field():
    spec, u = zero_problem()
    rng = np.random.default_rng(16)
    z0 = start(rng.standard_normal(3), rng.standard_normal(3))
    cand = solve(spec, u, *z0, EG_TIGHT)
    assert cand.converged
    assert cand.residual_norm <= 1e-10
    assert h_norm(cand.x) <= 1e-10 and h_norm(cand.y) <= 1e-10


def test_extragradient_closed_form():
    spec, u = bilinear_spec(1.0)
    cand = solve(spec, u, *start(0.8, -1.1), EG_TIGHT)
    assert cand.x(1) == pytest.approx(-0.2, abs=1e-8)
    assert cand.y(1) == pytest.approx(-0.6, abs=1e-8)
    assert cand.value == pytest.approx(0.2, abs=1e-10)


def test_extragradient_linear_solve_example():
    # 2x + y + u = 0, x - 2y - u = 0 at u = 0.5 -> (-0.1, -0.3)
    spec, u = bilinear_spec(0.5)
    cand = solve(spec, u, *start(0.0, 0.0), EG_TIGHT)
    assert cand.x(1) == pytest.approx(-0.1, abs=1e-8)
    assert cand.y(1) == pytest.approx(-0.3, abs=1e-8)


def test_extragradient_nonconvergence_flagged():
    spec, u = bilinear_spec(1.0)
    cfg = SolverConfig(method="extragradient", max_iter=3, tol=1e-14)
    cand = solve(spec, u, *start(0.8, -1.1), cfg)
    assert not cand.converged


def test_extragradient_divergence_detector():
    # G(z) = -4 z is not monotone: every accepted step moves away from 0
    spec = ProblemSpec.create(1, 1.0, "-3*x^2 + 3*y^2")
    u = ParameterFunction.constant(0.0, 1, 1.0)
    cfg = SolverConfig(method="extragradient", max_iter=5000, tol=1e-12)
    cand = solve(spec, u, *start(0.5, 0.5), cfg)
    assert not cand.converged
    assert cand.iterations < 5000 - 1  # stopped early, not exhausted


def test_extragradient_stops_at_rounding_floor():
    # tol_grad below what double precision reaches: |G| stalls near 2.5e-16,
    # so no new best norm appears for EG_PATIENCE iterations
    spec, u = bilinear_spec(1.0)
    cfg = SolverConfig(method="extragradient", tol=1e-16, max_iter=100000)
    cand = solve(spec, u, *start(0.8, -1.1), cfg)
    assert not cand.converged
    assert cand.iterations < 500
    assert cand.grad_norm < 1e-14


def test_extragradient_step_floor_on_domain_edge():
    # G_x is about 5e14 at x = 1e-30, so every predictor with a step above the
    # floor lands at x < 0, outside the domain of sqrt
    spec = ProblemSpec.create(1, 1.0, "x*y + sqrt(x) - y^2")
    u = ParameterFunction.constant(0.0, 1, 1.0)
    cand = solve(spec, u, *start(1e-30, 0.0), SolverConfig(method="extragradient"))
    assert not cand.converged and cand.iterations == 0


def test_extragradient_exp_t5_all_starts_converge():
    # exp dominates a global Lipschitz bound on the start ball; the local step
    # converges from every start in about 150 iterations
    spec, u = load_problem(EXP_T5)
    cfg = SolverConfig(method="extragradient", max_iter=300)
    sset = saddle_set(spec, u, cfg)
    assert sset.attempts == 8 and sset.failures == 0
    assert len(sset.points) == 1
    assert all(verify_saddle(spec, u, cand).passed for cand in sset.points)


def test_every_method_finds_the_exp_t5_saddle():
    # every key of solvers.METHODS is a method a SolverConfig accepts, and
    # each finds the one saddle point of exp_t5
    spec, u = load_problem(EXP_T5)
    values = []
    for method in solvers.METHODS:
        sset = saddle_set(spec, u, SolverConfig(method=method, tol=1e-12))
        assert sset.failures == 0 and len(sset.points) == 1
        assert {c.method for c in sset.points} == {method}
        values.append(sset.points[0].value)
    assert max(values) - min(values) <= 1e-10
    with pytest.raises(ValueError, match="unknown method 'solve'; expected one of "
                                         "extragradient, nested, nested-xfirst, newton$"):
        SolverConfig(method="solve")


def test_extragradient_memory_is_linear():
    # 16 lockstep starts, extragradient or newton, run in blocks of
    # block_rows(T) rows, so the peak does not grow with the number of starts
    T = 2000
    spec = ProblemSpec.create(T, 1.0, "x*y + exp(x/2) - exp(y/2)")
    u = ParameterFunction.constant(0.5, T, 1.0)
    z0 = start(np.full(T, 0.1), np.full(T, -0.2))
    tracemalloc.start()
    try:
        solve(spec, u, *z0, SolverConfig(method="extragradient", max_iter=2))
        peak_one = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        sset = saddle_set(spec, u, SolverConfig(method="extragradient", max_iter=2,
                                                multistart=16))
        peak_set = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        newton_set = saddle_set(spec, u, SolverConfig(method="newton", max_iter=2,
                                                      multistart=16))
        peak_newton = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sset.attempts == newton_set.attempts == 16
    assert max(peak_one, peak_set, peak_newton) < 8 * 2 ** 20


def _starts(T, n, seed, radii=(4.0, 4.0)):
    rng = np.random.default_rng(seed)
    return [(_draw(T, radii[0], rng), _draw(T, radii[1], rng)) for _ in range(n)]


def _draw(T, radius, rng):
    return GridFunction.from_interior(random_interior(T, radius, rng))


def _block(starts):
    # the starts' interior values as the (S, 2T) rows z = (x, y) of solvers.runs
    return np.array([np.concatenate((x.interior, y.interior)) for x, y in starts])


def _solo(spec, u, z0, cfg):
    try:
        return solve(spec, u, *z0, cfg)
    except (ExprError, SolverError) as exc:
        return exc


def _assert_same_run(lockstep, solo):
    if isinstance(solo, Exception):
        assert type(lockstep) is type(solo) and str(lockstep) == str(solo)
        return
    assert lockstep.x.values.tobytes() == solo.x.values.tobytes()
    assert lockstep.y.values.tobytes() == solo.y.values.tobytes()
    assert lockstep.value.hex() == solo.value.hex()
    assert (lockstep.iterations, lockstep.converged) == (solo.iterations, solo.converged)
    # the whole trace, value column and its nan rows included, bit for bit
    assert (np.array(lockstep.trace, dtype=float).tobytes()
            == np.array(solo.trace, dtype=float).tobytes())


def _assert_same_as_reference(run, ref):
    # a lockstep run against conftest.reference_extragradient, bit for bit
    if isinstance(ref, Exception):
        assert type(run) is type(ref) and str(run) == str(ref)
        return
    x, y, iterations, converged, trace, _ = ref
    assert run.x.interior.tobytes() == x.tobytes() and run.y.interior.tobytes() == y.tobytes()
    assert (run.iterations, run.converged) == (iterations, converged)
    assert [tuple(map(type, row)) for row in run.trace] == [tuple(map(type, row)) for row in trace]
    assert (np.array(run.trace, dtype=float).tobytes()
            == np.array(trace, dtype=float).tobytes())


def _eg_stiff(T=5):
    # the benchmark's eg-stiff problem: exp_t5 with the exponentials' rate cut to 0.35
    return (ProblemSpec.create(T, 1.0, "x*y + exp(0.35*x) - exp(0.35*y) + u*(x - y)"),
            ParameterFunction.constant(0.5, T, 1.0))


def _count_calls(obj, name, calls):
    """Append the ``x`` points of each call of the kernel ``obj.name`` to ``calls``.

    ``obj`` is a field, a frozen dataclass, so the kernel is set past its guard.
    """
    original = getattr(obj, name)

    def counted(*args):
        calls.append(args[1])
        return original(*args)

    object.__setattr__(obj, name, counted)


def test_extragradient_operator_calls_per_lockstep_iteration(monkeypatch):
    # Each lockstep iteration makes one operator call at the iterates and one
    # per predictor round, as many rounds as its longest search; each call is
    # one gradient-kernel call and one Laplacian product on the (B, 2, T)
    # view.  The candidates add one more operator call.
    spec, u = _eg_stiff()
    starts = _starts(5, 16, 611)
    refs = [reference_extragradient(spec, u, x0, y0, 1e-10, 20000) for x0, y0 in starts]
    kernel_calls, products = [], []
    _count_calls(spec.field, "gradient_kernel", kernel_calls)
    apply = DirichletLaplacian.apply

    def counted(self, v):
        products.append(v.shape)
        return apply(self, v)

    monkeypatch.setattr(DirichletLaplacian, "apply", counted)
    runs = solvers.runs(spec, u, _block(starts),
                        SolverConfig(method="extragradient", record_trace=True))
    assert all(r.converged for r in runs)
    iterations = max(r.iterations for r in runs) + 1
    rounds = [max((ref[5][it] for ref in refs if it < len(ref[5])), default=0)
              for it in range(iterations)]
    assert max(rounds) > 1  # some iterations halve a step
    assert len(kernel_calls) == iterations + sum(rounds) + 1
    assert len(products) == iterations + sum(rounds) + 1
    assert {shape[1:] for shape in products} == {(2, 5)}


def test_trace_actions_are_evaluated_in_block_batches(monkeypatch):
    # a 16-start eg-stiff saddle set with traces: one value-kernel call per
    # block_rows(5) recorded rows, each at most that many rows, and one for
    # the candidates
    spec, u = _eg_stiff()
    value_calls, ends = [], []
    _count_calls(spec.field, "value_kernel", value_calls)
    runs = solvers.runs

    def kept(*args):
        ends.extend(runs(*args))
        return ends

    monkeypatch.setattr(solvers, "runs", kept)
    sset = saddle_set(spec, u, SolverConfig(method="extragradient", multistart=16,
                                            record_trace=True))
    assert sset.failures == 0
    recorded = sum(len(r.trace) for r in ends)
    assert recorded > 2 * block_rows(5)
    assert len(value_calls) <= math.ceil(recorded / block_rows(5)) + 1
    assert max(len(x) for x in value_calls) <= block_rows(5)


def test_trace_iterations_over_half_a_batch_are_evaluated_alone():
    # at T = 800 a batch holds block_rows(800) = 5 rows: each iteration of
    # the 4 newton rows has one value-kernel call of its own, on its live
    # rows, and the candidates one more
    T = 800
    spec = ProblemSpec.create(T, 1.0, "x*y + exp(x) - exp(y) + u*(x - y)")
    u = ParameterFunction(0.5 * np.sin(np.arange(1.0, T + 1)), 1.0)
    value_calls = []
    _count_calls(spec.field, "value_kernel", value_calls)
    runs = solvers.runs(spec, u, _block(_starts(T, 4, 5, radii=(2.0, 2.0))),
                        SolverConfig(method="newton", record_trace=True))
    assert block_rows(T) == 5 and all(r.converged for r in runs)
    live = [sum(len(r.trace) > it for r in runs) for it in range(max(len(r.trace) for r in runs))]
    assert [len(x) for x in value_calls] == live + [4]


def _trace_case(family, T):
    if family == "exp":
        spec = ProblemSpec.create(T, 1.0, "x*y + exp(0.35*x) - exp(0.35*y) + u*(x - y)")
        u = ParameterFunction(0.5 * np.sin(np.arange(1.0, T + 1)), 1.0)
        radius = 2.0
    else:
        # the action is undefined below x = -1.5 and the gradient is not: nan values
        spec, u = log_problem(T)
        radius = 4.0
    n = 16 if T <= 300 else 3
    rng = np.random.default_rng(T)
    X0, Y0 = random_interior_rows(T, [(radius, rng)] * (2 * n)).reshape(2, n, T)
    return spec, u, np.concatenate((X0, Y0), axis=1)


@pytest.mark.parametrize("family, T", [("exp", 1), ("exp", 5), ("exp", 300), ("exp", 5000),
                                       ("log", 1), ("log", 3), ("log", 5)])
@pytest.mark.parametrize("method", list(solvers.METHODS))
def test_batched_traces_equal_one_row_traces(method, family, T, monkeypatch):
    # Every method's traces, recorded for all rows of a block and evaluated in
    # batches of block_rows(T) rows (T = 5: across batches; 300: 13-row
    # batches, and iterations of 7 to 13 rows alone; 5000: one row each),
    # equal those of one-row blocks, where each row is evaluated alone: bit
    # for bit, nan values included.
    spec, u, Z0 = _trace_case(family, T)
    cfg = SolverConfig(method=method, record_trace=True, max_iter=3 if T == 5000 else 20000)
    batched = solvers.runs(spec, u, Z0, cfg)
    monkeypatch.setattr(solvers, "block_rows", lambda T: 1)
    for run, alone in zip(batched, solvers.runs(spec, u, Z0, cfg)):
        _assert_same_run(run, alone)
        if not isinstance(run, Exception):
            assert [tuple(map(type, row)) for row in run.trace] == [(int, float, float, float)] * len(run.trace)
    ends = [r for r in batched if not isinstance(r, Exception)]
    recorded = sum(len(r.trace) for r in ends)
    if (method, family, T) == ("extragradient", "exp", 5):
        assert recorded > 2 * block_rows(5)
    if family == "log" and method in ("newton", "nested-xfirst"):
        assert any(np.isnan(row[3]) for r in ends for row in r.trace)


# SHA-256 of the ends of solvers.runs, per case and method, on the build that
# tests/golden/digests.json records (nested-xfirst has no CLI flag, so no
# golden run reaches it)
METHOD_DIGESTS = {
    "bilinear": {
        "extragradient":
            "880ff7172626d7bcb2e780775097925b3c02cbc90f5fc98e6337b1f6b947f598",
        "newton":
            "abf7151ec24c4f9da4265964011986bab1411ffa910cac673d293b2874a97032",
        "nested":
            "b7b89fff1dd1a3791c46b3442bd2d4958203511a8c48be2f2c9bebfe75bf7828",
        "nested-xfirst":
            "e2e7aedd617f7c9ced03896ded25123caaa00c356651803c68785f93b560106d",
    },
    "study": {
        "extragradient":
            "c81fba4d8188a5a17c77466affebe1fea65748bf0c52e7efacfac0f914e62cdc",
        "newton":
            "3a9edfb174f4e35fb324d7a8b87f8620f806b513a440fcf264b5dff9d50e035b",
        "nested":
            "5f5a883709b121fe2acc831017f2c51e28889d4e8afe14aa4c56a4641075eafe",
        "nested-xfirst":
            "d10f3c63eacc536764250259bf5277d7dd62e21abc68ebcb0019e5bf6a0685de",
    },
    "log": {
        "extragradient":
            "9005aa754f2eb4a9c1faa70203a9ea0e6852c080395cd72631bee9733755755b",
        "newton":
            "c13a2a2004ce13412da354f1bef39741881e38b2b01289e43873925c399a0479",
        "nested":
            "22b59fed69434c453538a77fbb49fb2fc7f3fe0a92a3ec3d697222e5e17794c5",
        "nested-xfirst":
            "7185c900322e8a849bece9f4b7bad570f66f5d18fc061941f49a92faa4d0784f",
    },
}


def _digest_case(case):
    if case == "bilinear":
        (spec, u), radius, n = bilinear_spec(1.0), 2.0, 8
    elif case == "study":
        T = 7
        spec = ProblemSpec.create(T, 1.0, "0.4*x^2 - 0.4*y^2 + 0.2*x*y + 0.25*sin(x)"
                                          " + 0.25*cos(y) + u*(x - y)")
        u = ParameterFunction(0.5 * np.sin(3.0 * np.arange(1.0, T + 1)), 1.0)
        radius, n = 4.0, 8
    else:
        # some starts and iterates leave the domain of log(x + 1.5)
        (spec, u), radius, n = log_problem(3), 4.0, 16
    rng = np.random.default_rng(len(case))
    X0, Y0 = random_interior_rows(spec.T, [(radius, rng)] * (2 * n)).reshape(2, n, spec.T)
    return spec, u, np.concatenate((X0, Y0), axis=1)


def _ends_digest(ends):
    digest = hashlib.sha256()
    for end in ends:
        if isinstance(end, Exception):
            digest.update(f"{type(end).__name__}: {end}".encode())
            continue
        digest.update(end.x.values.tobytes() + end.y.values.tobytes())
        digest.update(np.array([end.value, end.grad_norm, end.residual_norm]).tobytes())
        digest.update(f"{end.method} {end.iterations} {end.converged}".encode())
        digest.update(np.array(end.trace, dtype=float).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case", list(METHOD_DIGESTS))
@pytest.mark.parametrize("method", list(solvers.METHODS))
def test_runs_keep_their_bits(method, case):
    # iterates, counts, flags, traces and exception texts of every method
    here = golden_regenerate.environment()
    with open(golden_regenerate.DIGESTS, encoding="utf-8") as handle:
        recorded = json.load(handle)["environment"]
    if here != recorded:
        pytest.skip("bits not compared: the digests were made on another build")
    spec, u, Z0 = _digest_case(case)
    ends = solvers.runs(spec, u, Z0, SolverConfig(method=method, record_trace=True))
    assert _ends_digest(ends) == METHOD_DIGESTS[case][method]


@pytest.mark.parametrize("case", list(METHOD_DIGESTS))
@pytest.mark.parametrize("method", list(solvers.METHODS))
def test_solve_is_the_one_row_case_of_runs(method, case):
    # solve from each row's start returns the candidate runs gives that row,
    # bit for bit, or raises the exception runs gives it
    spec, u, Z0 = _digest_case(case)
    cfg = SolverConfig(method=method, record_trace=True)
    ends = solvers.runs(spec, u, Z0, cfg)
    for run, z0 in zip(ends, Z0):
        alone = _solo(spec, u, (GridFunction.from_interior(z0[:spec.T]),
                                GridFunction.from_interior(z0[spec.T:])), cfg)
        _assert_same_run(run, alone)
        _assert_same_candidate(run, alone)
    if (method, case) == ("extragradient", "log"):
        assert any(isinstance(end, ExprError) for end in ends)


def _step_floor_batch():
    # the step-floor start of test_extragradient_step_floor_on_domain_edge among
    # starts that leave the domain of sqrt at once or on their way (this F has
    # no saddle point: G = 0 needs 9 x^1.5 = -2)
    spec = ProblemSpec.create(1, 1.0, "x*y + sqrt(x) - y^2")
    starts = _starts(1, 16, 7, radii=(2.0, 2.0))
    starts[5] = start(1e-30, 0.0)
    return spec, ParameterFunction.constant(0.0, 1, 1.0), starts, 5


@pytest.mark.parametrize("case", ["eg-stiff", "eg-stiff-exhausted", "log", "step-floor"])
def test_lockstep_runs_equal_solo_runs(case):
    cfg = SolverConfig(method="extragradient", record_trace=True)
    floor = None
    if case.startswith("eg-stiff"):
        spec = ProblemSpec.create(5, 1.0, "x*y + exp(0.35*x) - exp(0.35*y) + u*(x - y)")
        u = ParameterFunction.constant(0.5, 5, 1.0)
        starts = _starts(5, 16, 611)
        if case == "eg-stiff-exhausted":
            cfg = SolverConfig(method="extragradient", record_trace=True, max_iter=200)
    elif case == "log":
        spec, u = log_problem()
        starts = _starts(3, 16, 3)
    else:
        spec, u, starts, floor = _step_floor_batch()
    runs = solvers.runs(spec, u, _block(starts), cfg)
    solos = [_solo(spec, u, z0, cfg) for z0 in starts]
    for lockstep, solo in zip(runs, solos):
        _assert_same_run(lockstep, solo)
    for lockstep, (x0, y0) in zip(runs, starts):
        _assert_same_as_reference(
            lockstep, reference_extragradient(spec, u, x0, y0, cfg.tol, cfg.max_iter))
    ends = [r for r in runs if not isinstance(r, ExprError)]
    if case.startswith("eg-stiff"):
        # the rows leave the block at different iterations
        assert len(ends) == 16 and len({r.iterations for r in ends}) > 1
    if case == "eg-stiff":
        assert all(r.converged for r in ends)
    if case == "eg-stiff-exhausted":
        assert any(r.converged for r in ends) and any(r.iterations == 200 for r in ends)
    if case == "log":
        failed = [r for r in runs if isinstance(r, ExprError)]
        assert failed and any(r.converged for r in ends)
        assert any(np.isnan(row[3]) for r in ends for row in r.trace)
    if case == "step-floor":
        assert not runs[floor].converged and runs[floor].iterations == 0
        assert ends == [runs[floor]]


def _on_gradient_error(spec, seen):
    """Call ``seen(x, exc)`` on each ``ExprError`` that ``spec``'s gradient kernel raises at ``x``."""
    kernel = spec.field.gradient_kernel

    def counted(k, x, y, u):
        try:
            return kernel(k, x, y, u)
        except ExprError as exc:
            seen(x, exc)
            raise

    object.__setattr__(spec.field, "gradient_kernel", counted)


def _singular_batch():
    # on T = 1 the x-row of the Jacobian is 3x, exactly singular at x = 0:
    # the starts put there fail at once, the others find x = +-sqrt(2/3)
    spec = ProblemSpec.create(1, 1.0, "0.5*x^3 - x^2 - x - y^2")
    starts = _starts(1, 16, 11, radii=(2.0, 2.0))
    for i in (2, 9):
        starts[i] = (GridFunction.zeros(1), starts[i][1])
    return spec, ParameterFunction.constant(0.0, 1, 1.0), starts


@pytest.mark.parametrize("case", ["study", "log", "sqrt", "singular", "T1", "T2", "split"])
def test_newton_lockstep_runs_equal_solo_runs(case):
    cfg = SolverConfig(method="newton", record_trace=True)
    if case == "study":
        spec, u, radii, seed = study_instance_91()
        starts = _starts(100, 16, seed, radii=radii_pair(radii))
    elif case == "log":
        spec, u = log_problem()
        starts = _starts(3, 16, 3)
    elif case == "sqrt":
        spec = ProblemSpec.create(3, 1.0, "x^2 - y^2 + sqrt(x + 2)")
        u = ParameterFunction.constant(0.0, 3, 1.0)
        starts = _starts(3, 16, 0)
    elif case == "singular":
        spec, u, starts = _singular_batch()
    else:
        T = {"T1": 1, "T2": 2, "split": 2000}[case]
        spec = ProblemSpec.create(T, 1.0, "x*y + exp(x/2) - exp(y/2) + u*(x - y)")
        u = ParameterFunction(0.5 * np.sin(np.arange(1.0, T + 1)), 1.0)
        starts = _starts(T, 16, T, radii=(2.0, 2.0))
    outside = []
    _on_gradient_error(spec, lambda x, exc: outside.append(x.ndim))
    runs = solvers.runs(spec, u, _block(starts), cfg)
    solos = [_solo(spec, u, z0, cfg) for z0 in starts]
    for lockstep, solo in zip(runs, solos):
        _assert_same_run(lockstep, solo)
    ends = [r for r in runs if not isinstance(r, Exception)]
    if case == "study":
        # the rows leave the block at different iterations
        assert all(r.converged for r in ends) and len({r.iterations for r in ends}) > 1
    if case == "log":
        # iterates outside the domain of log, where the gradient is defined
        assert not outside and len(ends) == 16 and any(r.converged for r in ends)
        assert any(np.isnan(row[3]) for r in ends for row in r.trace)
    if case == "sqrt":
        # the gradient raises at starts and at trial points outside the domain:
        # a block raises, then its rows are evaluated alone
        assert outside.count(2) > 1 and 1 in outside
        assert any(isinstance(r, ExprError) for r in runs)
        assert sum(r.converged for r in ends) >= 12
    if case == "singular":
        for i in (2, 9):
            assert isinstance(runs[i], SolverError)
            assert str(runs[i]) == "singular Jacobian at iteration 0 (cond estimate inf)"
        assert len(ends) == 14 and all(r.converged for r in ends)
    if case == "split":
        assert block_rows(spec.T) < len(starts)
        assert all(r.converged for r in ends)


def test_damped_newton_ends_a_row_on_an_error_that_is_not_a_domain_error():
    # r(v) = v^3 - 8 and its Newton direction.  Past v = 10 the residual of
    # block row 2 raises SolverError and the others' ExprError: row 0 starts
    # there and ends, row 2's first trial point (11) ends it, and row 3's
    # (also 11) is a rejected step.  The residual tells the rows apart by
    # their block indices, which stop being their positions once row 0 ends.
    def residual(rows, V):
        errors = {i: (SolverError if r == 2 else ExprError)(f"row {r}")
                  for i, (r, v) in enumerate(zip(rows, V[:, 0])) if v > 10.0}
        return V ** 3 - 8.0, errors

    def direction(rows, V, R):
        return -R / (3.0 * V ** 2), {}

    seen = {r: [] for r in range(4)}

    def on_iterate(it, rows, V, R, rn):
        for r, v in zip(rows, V[:, 0]):
            seen[r].append(v)

    V, iterations, converged, errors = solvers._damped_newton(
        residual, direction, [[12.0], [1.0], [0.5], [0.5]], 1e-12, 50, on_iterate)
    assert {r: (type(e), str(e)) for r, e in errors.items()} == {
        0: (ExprError, "row 0"), 2: (SolverError, "row 2")}
    assert converged.tolist() == [False, True, False, True]
    assert V[1, 0] == pytest.approx(2.0) and V[3, 0] == pytest.approx(2.0)
    # row 3 backtracked from t = 1 (v = 11, rejected) to t = 1/8
    assert seen[3][:2] == [0.5, 0.5 + 10.5 / 8] and seen[2] == [0.5]


def test_one_row_block_outside_the_domain_is_evaluated_once():
    # sqrt(x + 2) has no value at x = -3: a one-start newton block raises at
    # its start, and that first gradient call is the row's own
    spec = ProblemSpec.create(3, 1.0, "x^2 - y^2 + sqrt(x + 2)")
    u = ParameterFunction.constant(0.0, 3, 1.0)
    raised = []
    _on_gradient_error(spec, lambda x, exc: raised.append(exc))
    with pytest.raises(ExprError) as info:
        solve(spec, u, *start([-3.0, 0.5, 0.5], [0.0, 0.0, 0.0]), SolverConfig(method="newton"))
    assert raised == [info.value]


def _made_alone(spec, u, x, y, method, iterations, converged):
    # a candidate from its definition, at the point alone
    try:
        gx, gy = grad(spec, u, x, y)
        value = action(spec, u, x, y)
    except ExprError as exc:
        return exc
    return SaddleCandidate(x=x, y=y, value=value, grad_norm=float(np.sqrt(gx @ gx + gy @ gy)),
                           residual_norm=residual_from_grad(gx, gy), method=method,
                           iterations=iterations, converged=converged)


def _assert_same_candidate(block, alone):
    if isinstance(alone, Exception):
        assert type(block) is type(alone) and str(block) == str(alone)
        return
    assert block.x.values.tobytes() == alone.x.values.tobytes()
    assert block.y.values.tobytes() == alone.y.values.tobytes()
    for name in ("value", "grad_norm", "residual_norm"):
        assert getattr(block, name).hex() == getattr(alone, name).hex()
    assert ((block.method, block.iterations, block.converged)
            == (alone.method, alone.iterations, alone.converged))


@pytest.mark.parametrize("method, max_iter", [("newton", 2), ("newton", 50),
                                              ("extragradient", 10), ("extragradient", 180)])
def test_block_built_candidates_equal_one_point_candidates(method, max_iter):
    # every candidate of a lockstep block carries the bits of the point alone:
    # far from the saddle point (the first caps) and at it
    spec, u, radii, seed = study_instance_91()
    starts = _starts(100, 16, seed, radii=radii_pair(radii))
    runs = solvers.runs(spec, u, _block(starts), SolverConfig(method=method, max_iter=max_iter))
    if max_iter == 180:
        # extragradient starts converge in 177-183 iterations: some run out here
        assert len({r.converged for r in runs}) == 2
    for run in runs:
        alone = _made_alone(spec, u, run.x, run.y, method, run.iterations, run.converged)
        _assert_same_candidate(run, alone)


def test_block_built_candidates_with_a_row_outside_the_domain():
    # log(x + 1.5) is undefined at one node of row 2 and its gradient is not: the
    # block's action raises, every row is made alone and only row 2 fails
    spec, u = log_problem()
    X, Y = np.random.default_rng(5).uniform(-1.0, 1.0, (2, 4, 3))
    X[2, 1] = -1.7
    iterations, converged = [7, 8, 9, 10], [True, False, True, False]
    ends = make_candidates_i(spec, u, np.concatenate((X, Y), axis=1), "newton", iterations,
                             converged, [None] * 4)
    assert isinstance(ends[2], ExprError)
    for x, y, it, conv, end in zip(X, Y, iterations, converged, ends):
        _assert_same_candidate(end, _made_alone(spec, u, GridFunction.from_interior(x),
                                                GridFunction.from_interior(y), "newton",
                                                it, conv))


def test_extragradient_gradient_norm_monotone_after_warmup():
    spec = ProblemSpec.create(4, 1.0, "x^2 - y^2 + 0.5*x*y")
    u = ParameterFunction.constant(0.0, 4, 1.0)
    cfg = SolverConfig(method="extragradient", tol=1e-11, record_trace=True)
    z0 = start([1.0, 2.0, -1.0, 0.5], [-2.0, 1.0, 1.0, -0.5])
    cand = solve(spec, u, *z0, cfg)
    norms = [row[1] for row in cand.trace]
    assert cand.converged
    for i in range(11, len(norms)):
        assert norms[i] <= norms[i - 1] * (1 + 1e-12)


def test_extragradient_deterministic_iterates():
    spec, u = bilinear_spec(1.0)
    cfg = SolverConfig(method="extragradient", record_trace=True, seed=4)
    a = solve(spec, u, *start(0.3, 0.4), cfg)
    b = solve(spec, u, *start(0.3, 0.4), cfg)
    assert a.trace == b.trace
    assert np.array_equal(a.x.values, b.x.values)


# --- newton ---------------------------------------------------------------------

def test_newton_zero_field_one_step():
    spec, u = zero_problem()
    cand = solve(spec, u, *start([1.0, -2.0, 0.7], [0.1, 0.2, 0.3]), TIGHT)
    assert cand.converged and cand.iterations == 1
    assert h_norm(cand.x) <= 1e-12 and h_norm(cand.y) <= 1e-12


def test_newton_one_step_on_quadratics():
    rng = np.random.default_rng(17)
    for _ in range(10):
        T = int(rng.integers(1, 9))
        spec, u, coeffs = quadratic_instance(rng, T)
        z0 = start(rng.standard_normal(T) * 3, rng.standard_normal(T) * 3)
        cand = solve(spec, u, *z0, TIGHT)
        assert cand.converged and cand.iterations == 1
        x_ref, y_ref = direct_quadratic_solve(T, u, coeffs)
        assert np.allclose(cand.x.interior, x_ref, atol=1e-10)
        assert np.allclose(cand.y.interior, y_ref, atol=1e-10)


def test_newton_exponential_instance():
    spec = ProblemSpec.create(1, 1.0, "x*y + exp(x) - exp(y)")
    u = ParameterFunction.constant(0.0, 1, 1.0)
    cand = solve(spec, u, *start(0.5, -0.5), TIGHT)
    assert cand.converged
    assert cand.residual_norm <= 1e-12
    assert cand.iterations <= 20
    other = solve(spec, u, *start(0.5, -0.5),
                  SolverConfig(method="extragradient", tol=1e-11, max_iter=100000))
    assert product_distance(cand, other) <= 1e-8


def test_newton_singular_jacobian_reports_condition():
    spec = ProblemSpec.create(1, 1.0, "-x^2")
    u = ParameterFunction.constant(0.0, 1, 1.0)
    with pytest.raises(SolverError) as err:
        solve(spec, u, *start(1.0, 1.0), SolverConfig())
    assert "cond" in str(err.value)


# --- nested minimax ----------------------------------------------------------------

def test_nested_zero_field():
    spec, u = zero_problem()
    cand = solve(spec, u, GridFunction.zeros(3), GridFunction.from_interior([0.4, -0.2, 0.9]),
                 NESTED_TIGHT)
    assert cand.converged
    assert h_norm(cand.x) <= 1e-10 and h_norm(cand.y) <= 1e-10


def test_nested_one_variable_calculus_oracle():
    # reduced function -(y+1)^2/4 - y^2 - y peaks at y = -3/5 with x = -(y+1)/2
    spec = ProblemSpec.create(1, 2.0, "x*y + x - y")
    u = ParameterFunction.constant(0.0, 1, 2.0)
    cand = solve(spec, u, *start(0.0, 1.5), NESTED_TIGHT)
    assert cand.y(1) == pytest.approx(-0.6, abs=1e-10)
    assert cand.x(1) == pytest.approx(-0.2, abs=1e-10)
    assert cand.value == pytest.approx(0.2, abs=1e-12)


def test_nested_agrees_with_extragradient():
    rng = np.random.default_rng(18)
    for _ in range(20):
        T = int(rng.integers(1, 7))
        spec, u, _ = quadratic_instance(rng, T)
        y0 = GridFunction.from_interior(rng.standard_normal(T))
        nested = solve(spec, u, GridFunction.zeros(T), y0, NESTED_TIGHT)
        eg = solve(spec, u, GridFunction.zeros(T), y0,
                   SolverConfig(method="extragradient", tol=1e-11, max_iter=200000))
        assert nested.converged and eg.converged
        assert abs(nested.value - eg.value) <= 1e-8


def test_nested_both_orders_match():
    spec = ProblemSpec.create(3, 1.0, "x*y + exp(x/2) - exp(y/2) + u*x")
    u = ParameterFunction.constant(0.4, 3, 1.0)
    w0 = GridFunction.from_interior([0.3, -0.1, 0.2])
    maxmin = solve(spec, u, w0, w0, NESTED_TIGHT)
    minmax = solve(spec, u, w0, w0, SolverConfig(method="nested-xfirst", tol=1e-12))
    assert maxmin.converged and minmax.converged
    assert abs(maxmin.value - minmax.value) <= 1e-10
    assert product_distance(maxmin, minmax) <= 1e-8


@pytest.mark.parametrize("T", [1, 3, 17])
@pytest.mark.parametrize("method", ["nested", "nested-xfirst"], ids=["y", "x"])  # the outer half
def test_nested_outer_step_is_exact_on_quadratics(T, method):
    # G is affine, so the inner solve is exact and the reduced gradient is
    # affine in w with the Schur complement for its Jacobian: the outer step
    # lands on the saddle from any start
    spec = ProblemSpec.create(T, 1.0, "x^2 - y^2 + 0.3*x*y + u*(x - y)")
    u = ParameterFunction(0.5 * np.sin(np.arange(1.0, T + 1)), 1.0)
    rng = np.random.default_rng(T)
    for _ in range(4):
        w0 = GridFunction.from_interior(rng.uniform(-5.0, 5.0, T))
        cand = solve(spec, u, w0, w0, SolverConfig(method=method))
        assert cand.converged and cand.iterations == 1


@pytest.mark.parametrize("case", ["study", "sqrt", "singular", "T1", "outer-x", "split",
                                  "split-outer-x"])
def test_nested_lockstep_runs_equal_solo_runs(case, monkeypatch):
    outer = "x" if case.endswith("outer-x") else "y"
    cfg = SolverConfig(method="nested-xfirst" if outer == "x" else "nested", tol=1e-12,
                       record_trace=True)
    if case == "study":
        spec, u, radii, seed = study_instance_91()
        starts = _starts(100, 16, seed, radii=radii_pair(radii))
    elif case == "sqrt":
        spec = ProblemSpec.create(3, 1.0, "x^2 - y^2 + sqrt(y + 1)")
        u = ParameterFunction.constant(0.0, 3, 1.0)
        starts = _starts(3, 16, 0)
    elif case == "singular":
        spec, u = singular_inner_problem()
        starts = _starts(2, 16, 2)
    else:
        T = {"T1": 1, "outer-x": 3, "split": 2000, "split-outer-x": 2000}[case]
        spec = ProblemSpec.create(T, 1.0, "x*y + exp(x/2) - exp(y/2) + u*(x - y)")
        u = ParameterFunction(0.5 * np.sin(np.arange(1.0, T + 1)), 1.0)
        starts = _starts(T, 16, T, radii=(2.0, 2.0))
    outside = []
    _on_gradient_error(spec, lambda x, exc: outside.append(x.ndim))
    Z0 = _block(starts)
    W0 = Z0[:, :spec.T] if outer == "x" else Z0[:, spec.T:]
    runs = solvers.runs(spec, u, Z0, cfg)
    failed, raised_alone = sum(isinstance(r, ExprError) for r in runs), outside.count(1)
    # nested reads the outer half of a start alone: the solo starts' inner halves differ
    solos = [_solo(spec, u, (GridFunction.from_interior(w0),) * 2, cfg) for w0 in W0]
    for lockstep, solo in zip(runs, solos):
        _assert_same_run(lockstep, solo)
    ends = [r for r in runs if not isinstance(r, Exception)]
    if case == "study":
        # the rows leave the block at different iterations
        assert all(r.converged for r in ends) and len({r.iterations for r in ends}) > 1
    if case == "sqrt":
        # starts outside the domain of sqrt fail; a row that raises alone and
        # goes on is a trial point outside it, a rejected step
        assert failed and any(r.converged for r in ends)
        assert raised_alone > failed
    if case == "singular":
        assert all(isinstance(r, SolverError) for r in runs)
        assert {str(r) for r in runs} == {"singular Jacobian at iteration 0"}
    if case in ("T1", "outer-x", "split", "split-outer-x"):
        assert len(ends) == 16 and all(r.converged for r in ends)
        assert {r.method for r in ends} == {cfg.method}
    if case.startswith("split"):
        assert block_rows(spec.T) < len(starts)


def study_instance_91():
    """Instance 91 of the benchmark's ``study`` workload at seed 601, rebuilt.

    Same stream and draws as the workload generator: the CLI seed first, then
    ``u`` on 100 nodes; the certificate is the workload's closed form.
    """
    rng = random.Random("study:601:91")
    seed = rng.randrange(2 ** 31)
    T, a, p = 100, 0.4, 0.25
    u = [rng.uniform(-0.5, 0.5) for _ in range(T)]
    spec = ProblemSpec.create(
        T, 1.0, f"{a}*x^2 - {a}*y^2 + 0.2*x*y + {p}*sin(x) + {p}*cos(y) + u*(x - y)")
    cert = certificate_from_dict({
        "alpha1": 0.0, "beta1": 0.0, "gamma1": -(p + 1.0) ** 2 / (4 * a) - p,
        "alpha2": 0.0, "beta2": 0.0, "gamma2": 1.0 / (4 * a) + p,
        "box": 6.0, "anchor_y": [0.0] * T, "anchor_x": [0.0] * T}, T)
    radii = ball_radii(cert, embedding_constant(2, T), T)
    return spec, ParameterFunction(np.array(u), 1.0), radii, seed


def test_nested_converges_where_value_line_searches_stalled(monkeypatch):
    # Armijo tests on action values cannot see progress near the rounding
    # floor on this start; backtracking on the gradient norm can.
    spec, u, radii, seed = study_instance_91()
    gradient_calls, action_calls = [], []
    _count_calls(spec.field, "gradient_kernel", gradient_calls)
    action_i = solvers.action_i

    def counted(*args):
        action_calls.append(args[2])
        return action_i(*args)

    monkeypatch.setattr(solvers, "action_i", counted)
    cfg = SolverConfig(method="nested", multistart=1, max_iter=50, seed=seed)
    sset = saddle_set(spec, u, cfg, radii=radii)
    assert sset.failures == 0 and len(sset.points) == 1
    assert sset.points[0].converged
    assert 0 < len(gradient_calls) <= 200
    assert not action_calls  # no trace: only make_candidates_i, outside this module


def singular_inner_problem():
    # F_xx = -1, so the inner Hessian L - I is singular at every point for T = 2
    return (ProblemSpec.create(2, 1.0, "-0.5*x^2 + x*y - y^2"),
            ParameterFunction.constant(0.0, 2, 1.0))


def test_nested_singular_inner_hessian_fails_every_start():
    spec, u = singular_inner_problem()
    sset = saddle_set(spec, u, SolverConfig(method="nested"))
    assert sset.attempts == 8 and sset.failures == 8
    assert sset.all_failed


def test_nested_start_that_leaves_the_domain_counts_as_failed():
    # sqrt(y + 1) has no value below y = -1, which one of the 8 starts reaches
    spec = ProblemSpec.create(3, 1.0, "x^2 - y^2 + sqrt(y + 1)")
    u = ParameterFunction.constant(0.0, 3, 1.0)
    cfg = SolverConfig(method="nested", multistart=8)
    sset = saddle_set(spec, u, cfg)
    assert sset.attempts == 8 and sset.failures == 1 and len(sset.points) == 1
    errors = 0
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.multistart):
        rng = np.random.default_rng(child)
        random_interior(3, 4.0, rng)  # the start's x draw, which nested does not use
        y0 = GridFunction.from_interior(random_interior(3, 4.0, rng))
        try:
            solve(spec, u, GridFunction.zeros(3), y0, cfg)
        except ExprError:
            errors += 1
    assert errors == 1

# --- verification --------------------------------------------------------------------

def candidate_at(spec, u, x, y):
    # a candidate at the grid functions x, y, built as the solvers build theirs
    (cand,) = make_candidates_i(spec, u, np.concatenate((x.interior, y.interior))[None], "manual",
                                [0], [True], [None])
    return cand


def test_verify_saddle_zero_field():
    spec, u = zero_problem()
    cand = candidate_at(spec, u, GridFunction.zeros(3), GridFunction.zeros(3))
    rep = verify_saddle(spec, u, cand, probes=64, eps=1e-9)
    assert rep.passed
    assert rep.residual_ok and rep.inequalities_ok


def test_verify_saddle_accepts_true_and_rejects_perturbed():
    spec = ProblemSpec.create(1, 2.0, "x*y + x - y")
    u = ParameterFunction.constant(0.0, 1, 2.0)
    good = candidate_at(spec, u, GridFunction.from_interior([-0.2]),
                        GridFunction.from_interior([-0.6]))
    assert verify_saddle(spec, u, good, probes=128, eps=1e-9).passed

    bad = candidate_at(spec, u, GridFunction.from_interior([-0.2]),
                       GridFunction.from_interior([-0.5]))
    rep = verify_saddle(spec, u, bad, probes=512, eps=1e-9, seed=0)
    assert not rep.passed
    assert rep.inequality_gap_y > 1e-9  # probe found the saddle inequality breach


def test_verify_saddle_rejects_stationary_non_saddle():
    spec, u = log_problem()
    sset = saddle_set(spec, u, SolverConfig(method="newton"))
    cand = next(c for c in sset.points if abs(c.value - 1.4687) < 1e-3)
    rep = verify_saddle(spec, u, cand)
    # stationary, and the default probes miss the descent direction in x
    assert rep.residual_ok and rep.inequalities_ok
    xv = cand.x.interior
    expected = np.linalg.eigvalsh(dirichlet_matrix(3) + np.diag(2.0 - 1.0 / (xv + 1.5) ** 2))[0]
    assert rep.curvature_x == pytest.approx(expected, abs=1e-12)
    assert expected < -10.0
    assert not rep.passed
    assert rep.failures == ("x-Hessian eigenvalue -1.044e+01 is negative",)


def _probe_gaps_one_at_a_time(spec, u, cand, probes, radii, seed):
    # verify_saddle's probe loop before batching, the reference for its bits
    rng = np.random.default_rng(seed)
    xv, yv = cand.x.interior, cand.y.interior
    value = action_i(spec, u, xv, yv)
    worst = {1.0: -np.inf, -1.0: -np.inf}
    skipped = 0
    for _ in range(probes):
        py = _draw(spec.T, radii[1], rng)
        px = _draw(spec.T, radii[0], rng)
        for sign, xs, ys in ((1.0, xv, py.interior), (-1.0, px.interior, yv)):
            try:
                gap = sign * (action_i(spec, u, xs, ys) - value)
            except ExprError:
                gap, skipped = -np.inf, skipped + 1
            worst[sign] = max(worst[sign], gap)
    return worst[1.0], worst[-1.0], skipped


@pytest.mark.parametrize("T, source, probes", [
    (3, "x^2 - y^2 + log(x + 1.5)", 64),  # some probes leave the domain
    (100, "0.4*x^2 - 0.4*y^2 + 0.2*x*y + 0.25*sin(x) + 0.25*cos(y) + u*(x - y)", 64),
    (2000, "x*y + exp(x/2) - exp(y/2) + u*(x - y)", 5),  # blocks of 2 rows
])
def test_verify_saddle_probe_blocks_equal_one_probe_at_a_time(T, source, probes):
    spec = ProblemSpec.create(T, 1.0, source)
    u = ParameterFunction(0.5 * np.sin(np.arange(1.0, T + 1)), 1.0)
    rng = np.random.default_rng(T)
    cand = candidate_at(spec, u, GridFunction.from_interior(0.1 * rng.standard_normal(T)),
                        GridFunction.from_interior(0.1 * rng.standard_normal(T)))
    radii = (4.0, 3.0)
    for seed in (0, 5):
        rep = verify_saddle(spec, u, cand, probes=probes, radii=radii, seed=seed)
        gap_y, gap_x, skipped = _probe_gaps_one_at_a_time(spec, u, cand, probes, radii, seed)
        assert np.float64(rep.inequality_gap_y).tobytes() == np.float64(gap_y).tobytes()
        assert np.float64(rep.inequality_gap_x).tobytes() == np.float64(gap_x).tobytes()
        assert (skipped > 0) == (T == 3)


def test_saddle_set_independent_of_trace():
    spec, u = log_problem()
    on = saddle_set(spec, u, SolverConfig(method="newton", record_trace=True))
    off = saddle_set(spec, u, SolverConfig(method="newton"))
    assert on.failures == off.failures == 0
    assert len(on.points) == len(off.points) == 4
    for a, b in zip(on.points, off.points):
        assert np.array_equal(a.x.values, b.x.values)
        assert np.array_equal(a.y.values, b.y.values)
    # trace rows outside the domain hold nan instead of failing the start
    far = solve(spec, u, *start([-1.6, -1.6, -1.6], [0.0, 0.0, 0.0]),
                SolverConfig(record_trace=True))
    assert far.converged and np.isnan(far.trace[0][3])
    assert far.trace[-1][3] == far.value


def test_verify_saddle_residual_tolerance_scaling():
    spec, u = zero_problem(5)
    cand = candidate_at(spec, u, GridFunction.zeros(5), GridFunction.zeros(5))
    rep = verify_saddle(spec, u, cand)
    # default threshold is 1e-8 * (1 + max row sum) = 5e-8 for T >= 3
    assert rep.residual_ok
    assert rep.residual_norm <= 1e-8 * (1 + 4.0)


# --- saddle sets ----------------------------------------------------------------------

def test_saddle_set_unique_under_strict_convexity(monkeypatch):
    spec = ProblemSpec.create(4, 1.0, "x^2 - y^2 + 0.5*x*y")
    u = ParameterFunction.constant(0.0, 4, 1.0)
    monkeypatch.setattr(solvers, "CLUSTER_RADIUS", 1e-6)  # every start ends within 1e-6
    cfg = SolverConfig(method="newton", multistart=32, tol=1e-12)
    sset = saddle_set(spec, u, cfg, radii=(3.0, 3.0))
    assert len(sset.points) == 1
    assert sset.failures == 0
    assert sset.attempts == 32


def test_saddle_set_zero_field_origin():
    spec, u = zero_problem(2)
    sset = saddle_set(spec, u, SolverConfig(method="newton", multistart=8), radii=(2.0, 2.0))
    assert len(sset.points) == 1
    cand = sset.points[0]
    assert h_norm(cand.x) <= 1e-10 and h_norm(cand.y) <= 1e-10


def test_saddle_set_equivalent_expressions_identical():
    u = ParameterFunction.constant(0.0, 2, 1.0)
    cfg = SolverConfig(method="newton", multistart=4, seed=5)
    s1 = saddle_set(ProblemSpec.create(2, 1.0, "0*x"), u, cfg, radii=(2.0, 2.0))
    s2 = saddle_set(ProblemSpec.create(2, 1.0, "0*x*y"), u, cfg, radii=(2.0, 2.0))
    assert len(s1.points) == len(s2.points) == 1
    assert np.array_equal(s1.points[0].x.values, s2.points[0].x.values)
    assert np.array_equal(s1.points[0].y.values, s2.points[0].y.values)


def test_saddle_set_all_starts_fail_is_flagged():
    spec = ProblemSpec.create(1, 1.0, "-x^2")  # singular Jacobian everywhere
    u = ParameterFunction.constant(0.0, 1, 1.0)
    sset = saddle_set(spec, u, SolverConfig(method="newton", multistart=5))
    assert sset.all_failed
    assert sset.failures == 5


def test_saddle_set_representatives_well_separated():
    rng = np.random.default_rng(19)
    spec, u, _ = quadratic_instance(rng, 3)
    cfg = SolverConfig(method="newton", multistart=16)
    sset = saddle_set(spec, u, cfg, radii=(3.0, 3.0))
    assert sset.cluster_radius == solvers.CLUSTER_RADIUS
    for i, a in enumerate(sset.points):
        for b in sset.points[i + 1:]:
            assert product_distance(a, b) > sset.cluster_radius


@pytest.mark.parametrize("case", list(METHOD_DIGESTS))
@pytest.mark.parametrize("method", list(solvers.METHODS))
def test_saddle_set_on_given_starts_is_the_per_row_solves(method, case):
    # every representative is the solve of one row, bit for bit, and every
    # converged row ends in the cluster of a representative
    spec, u, Z0 = _digest_case(case)
    cfg = SolverConfig(method=method)
    sset = saddle_set(spec, u, cfg, starts=Z0)
    alone = [_solo(spec, u, (GridFunction.from_interior(z0[:spec.T]),
                             GridFunction.from_interior(z0[spec.T:])), cfg) for z0 in Z0]
    converged = [c for c in alone if isinstance(c, SaddleCandidate) and c.converged]
    assert sset.attempts == len(Z0)
    assert sset.failures == len(Z0) - len(converged)
    for rep in sset.points:
        same = next(c for c in converged if c.x.values.tobytes() == rep.x.values.tobytes()
                    and c.y.values.tobytes() == rep.y.values.tobytes())
        _assert_same_candidate(rep, same)
    for cand in converged:
        assert min(product_distance(cand, rep) for rep in sset.points) <= sset.cluster_radius
    if (method, case) == ("extragradient", "log"):
        assert sset.failures > 0


def test_all_three_methods_agree_pairwise():
    # certified smooth instances: positions within 1e-6, values within 1e-8
    rng = np.random.default_rng(23)
    for _ in range(5):
        T = int(rng.integers(1, 6))
        spec, u = nonlinear_instance(rng, T)
        z0 = start(rng.standard_normal(T), rng.standard_normal(T))
        cands = [
            solve(spec, u, *z0, TIGHT),
            solve(spec, u, *z0, SolverConfig(method="extragradient", tol=1e-10, max_iter=200000)),
            solve(spec, u, *z0, NESTED_TIGHT),
        ]
        for i, a in enumerate(cands):
            assert a.converged
            for b in cands[i + 1:]:
                assert product_distance(a, b) <= 1e-6
                assert abs(a.value - b.value) <= 1e-8


def test_saddle_set_domain_error_counts_as_failed_start():
    # starts that step into x + 1.5 <= 0 raise DomainError inside the solver
    spec, u = log_problem()
    sset = saddle_set(spec, u, SolverConfig(method="extragradient"), radii=(4.0, 4.0))
    assert sset.attempts == 8
    assert 1 <= sset.failures < 8
    assert len(sset.points) == 1 and sset.points[0].converged


# --- misc ------------------------------------------------------------------------------

def test_exhausted_runs_report_max_iter_iterations():
    spec, u = log_problem()
    z0 = (GridFunction.zeros(3), GridFunction.zeros(3))
    eg = solve(spec, u, *z0, SolverConfig(method="extragradient", max_iter=3))
    assert not eg.converged and eg.iterations == 3
    nt = solve(spec, u, *z0, SolverConfig(max_iter=1))
    assert not nt.converged and nt.iterations == 1
    for method in ("nested", "nested-xfirst"):
        w0 = GridFunction.from_interior([0.5, -0.3, 0.2])
        ns = solve(spec, u, w0, w0, SolverConfig(method=method, max_iter=1))
        assert not ns.converged and ns.iterations == 1


def test_last_trace_row_matches_candidate():
    spec = ProblemSpec.create(3, 1.0, "x*y + exp(x/2) - exp(y/2) + u*x")
    u = ParameterFunction.constant(0.4, 3, 1.0)
    z0 = start([0.3, -0.1, 0.2], [0.1, 0.4, -0.2])
    for method in ("extragradient", "newton", "nested"):
        cand = solve(spec, u, *z0, SolverConfig(method=method, tol=1e-11, record_trace=True))
        assert cand.converged
        it, _, res, value = cand.trace[-1]
        assert it == cand.iterations
        assert res == cand.residual_norm
        assert value == cand.value


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(method="sgd")
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)


def test_solver_config_rejects_nonfinite_tol():
    for tol in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SolverConfig(tol=tol)


def test_candidate_value_consistency_invariant():
    # value of every solver output equals the recomputed action
    from saddlebvp import action
    spec, u = bilinear_spec(1.0)
    for cfg in (TIGHT, EG_TIGHT, NESTED_TIGHT):
        cand = solve(spec, u, *start(1.0, 1.0), cfg)
        recomputed = action(spec, u, cand.x, cand.y)
        assert abs(cand.value - recomputed) <= 1e-10 * (1 + abs(recomputed))
