import dataclasses

import numpy as np
import pytest

from conftest import dirichlet_matrix, nonlinear_instance, per_pair_gap
from saddlebvp import (GridFunction, ParameterFunction, ParameterSequence,
                       ProblemSpec, SolverConfig, action, h_norm, run_sequence, uniform_gap,
                       upper_limit_check)
from saddlebvp.dependence import (GAP_SAMPLES, DependenceError, DependenceReport,
                                  SequenceEntry, geometric_schedule, sequence_from_dict)
from saddlebvp.grid import random_interior
from saddlebvp.problem import ProblemError, make_candidates_i
from saddlebvp.solvers import SaddleSet, SolverError, saddle_set

CFG = SolverConfig(method="newton", tol=1e-12, multistart=4)


def bilinear_family():
    spec = ProblemSpec.create(1, 2.0, "x*y + u*(x - y)")
    u0 = ParameterFunction.constant(1.0, 1, 2.0)
    return spec, u0


# --- schedules and sequences -----------------------------------------------------

def test_geometric_schedule():
    assert geometric_schedule(1) == [1]
    assert geometric_schedule(64) == [1, 2, 4, 8, 16, 32, 64]
    assert geometric_schedule(100) == [1, 2, 4, 8, 16, 32, 64, 100]
    with pytest.raises(DependenceError):
        geometric_schedule(0)


def test_rule_sequence_terms_and_clamping():
    u0 = ParameterFunction.constant(0.9, 2, 1.0)
    seq = ParameterSequence.rule(u0, np.array([1.0, -0.5]), N=16)
    u1, clamped = seq.term(1)
    assert clamped  # 0.9 + 1.0 exits the box and is clipped to 1.0
    assert u1.values == pytest.approx([1.0, 0.4])
    u16, clamped = seq.term(16)
    assert not clamped
    assert u16.values == pytest.approx([0.9625, 0.86875])


def test_rule_sequence_distance_nonincreasing():
    u0 = ParameterFunction.constant(0.5, 3, 1.0)
    seq = ParameterSequence.rule(u0, np.array([0.8, -0.6, 0.2]), N=32)
    dists = [np.max(np.abs(seq.term(n)[0].values - u0.values))
             for n in range(1, 33)]
    assert all(a >= b for a, b in zip(dists, dists[1:]))


def test_explicit_terms_sequence():
    u0 = ParameterFunction.constant(0.0, 1, 1.0)
    terms = [ParameterFunction.constant(0.5, 1, 1.0),
             ParameterFunction.constant(0.25, 1, 1.0)]
    seq = ParameterSequence.from_terms(u0, terms)
    assert seq.N == 2
    assert seq.term(2)[0].values == pytest.approx([0.25])
    with pytest.raises(DependenceError):
        seq.term(3)


def test_sequence_validation():
    u0 = ParameterFunction.constant(0.0, 2, 1.0)
    with pytest.raises(DependenceError):
        ParameterSequence(u0=u0, N=4)  # neither direction nor terms
    with pytest.raises(DependenceError):
        ParameterSequence.rule(u0, np.array([1.0]), N=4)  # wrong length


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sequence_direction_must_be_finite(bad):
    u0 = ParameterFunction.constant(0.0, 2, 1.0)
    with pytest.raises(DependenceError, match="direction must be finite"):
        ParameterSequence.rule(u0, np.array([0.5, bad]), N=4)


def test_sequence_from_dict():
    u = ParameterFunction.constant(0.5, 3, 2.0)
    seq = sequence_from_dict({"direction": "k", "N": 8}, u)
    assert seq.u0 is u and seq.N == 8
    assert np.array_equal(seq.direction, [1.0, 2.0, 3.0])
    seq = sequence_from_dict({"u0": [0.0, 0.1, 0.2], "terms": [[0.0, 0.1, 0.3]]}, u)
    assert np.array_equal(seq.u0.values, [0.0, 0.1, 0.2]) and seq.u0.bound == 2.0
    assert seq.N == 1
    with pytest.raises(DependenceError, match="not both"):
        sequence_from_dict({"direction": "1", "terms": [[0.0, 0.0, 0.0]]}, u)
    with pytest.raises(DependenceError, match="either a direction or explicit terms"):
        sequence_from_dict({"u0": "0"}, u)
    with pytest.raises(ProblemError, match="u0 must have length T=3"):
        sequence_from_dict({"u0": [0.0, 0.1], "direction": "1"}, u)
    with pytest.raises(DependenceError, match="N must be an integer"):
        sequence_from_dict({"direction": "1", "N": float("inf")}, u)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_dependence_tolerances_must_be_positive_and_finite(bad):
    spec, u0 = bilinear_family()
    seq = ParameterSequence.rule(u0, np.array([0.5]), N=2)
    with pytest.raises(DependenceError, match="tol_dep must be positive and finite"):
        run_sequence(spec, seq, CFG, tol_dep=bad)
    report = run_sequence(spec, seq, CFG)
    with pytest.raises(DependenceError, match="tol must be positive and finite"):
        upper_limit_check(report, bad)


# --- uniform gap -------------------------------------------------------------------

def test_uniform_gap_identical_parameters():
    spec, u0 = bilinear_family()
    assert uniform_gap(spec, u0, u0, (4.0, 4.0), samples=64) == 0.0


def test_uniform_gap_linear_field_against_exact_sup():
    # F = u*x: sup over the ball of |du . x| = r * sqrt(1^T L^-1 1) * |du|
    T = 3
    spec = ProblemSpec.create(T, 1.0, "u*x")
    u_a = ParameterFunction.constant(1.0, T, 1.0)
    u_b = ParameterFunction.constant(0.0, T, 1.0)
    r = 2.0
    L = dirichlet_matrix(T)
    exact = r * np.sqrt(np.ones(T) @ np.linalg.solve(L, np.ones(T)))
    cauchy_schwarz = np.sqrt(T * 2.0) * r  # sqrt(T c2) r with c2(3) = 2... placeholder
    from saddlebvp import embedding_constant
    cauchy_schwarz = np.sqrt(T * embedding_constant(2, T)) * r
    sampled = uniform_gap(spec, u_a, u_b, (r, r), samples=4000, seed=1)
    assert sampled <= exact * (1 + 1e-12)
    assert exact <= cauchy_schwarz * (1 + 1e-12)
    assert sampled >= 0.8 * exact  # dense sampling gets close to the sup


def test_uniform_gap_monotone_in_samples():
    spec, u0 = bilinear_family()
    u1 = ParameterFunction.constant(0.5, 1, 2.0)
    gaps = [uniform_gap(spec, u0, u1, (3.0, 3.0), samples=n, seed=2)
            for n in (10, 50, 250, 1000)]
    assert all(a <= b for a, b in zip(gaps, gaps[1:]))


def test_uniform_gap_triangle_inequality_on_shared_samples():
    spec, _ = bilinear_family()
    rng = np.random.default_rng(20)
    for _ in range(10):
        ua, ub, uc = (ParameterFunction.constant(rng.uniform(-2, 2), 1, 2.0)
                      for _ in range(3))
        kw = {"samples": 100, "seed": 3}
        ab = uniform_gap(spec, ua, ub, (3.0, 3.0), **kw)
        ac = uniform_gap(spec, ua, uc, (3.0, 3.0), **kw)
        cb = uniform_gap(spec, uc, ub, (3.0, 3.0), **kw)
        assert ab <= ac + cb + 1e-12


def test_uniform_gap_equals_full_action_difference():
    # the quadratic terms cancel: the gap of the integrand sums is the gap of the actions
    rng = np.random.default_rng(23)
    spec, u0 = nonlinear_instance(rng, 5)
    u1 = ParameterFunction(rng.uniform(-1, 1, 5), 1.0)
    r = 3.0
    gap = uniform_gap(spec, u0, u1, (r, r), samples=16, seed=6)
    draws = np.random.default_rng(6)
    worst = 0.0
    for i in range(16):
        x = GridFunction.from_interior(random_interior(spec.T, r, draws))
        y = GridFunction.from_interior(random_interior(spec.T, r, draws))
        if i % 2 == 0:
            x, y = (r / h_norm(x)) * x, (r / h_norm(y)) * y
        worst = max(worst, abs(action(spec, u0, x, y) - action(spec, u1, x, y)))
    assert gap == pytest.approx(worst, rel=1e-12)


def test_uniform_gap_bounded_by_parameter_lipschitz():
    # F holds u only in u*(x - y), so node k changes by at most |du(k)| (|x(k)| + |y(k)|),
    # and |x(k)| <= r sqrt(k (T + 1 - k) / (T + 1)) on the ball of radius r.
    rng = np.random.default_rng(21)
    T = 4
    spec, u0 = nonlinear_instance(rng, T)
    u1 = ParameterFunction(np.clip(u0.values + 0.3, -1, 1), 1.0)
    box = (3.0, 3.0)
    gap = uniform_gap(spec, u0, u1, box, samples=500, seed=4)
    k = np.arange(1, T + 1)
    lip = sum(box) * np.sqrt(k * (T + 1 - k) / (T + 1))
    assert 0 < gap <= np.abs(u1.values - u0.values) @ lip * (1 + 1e-9)


def nan_field(c):
    # 0*inf is nan where exp(c*x) overflows, at x > 709.78/c: on part of the
    # ball when c matches the draws' largest node values at this T.
    return f"u*x - y^2/4 + 0*exp({c}*x)"


@pytest.mark.parametrize("T, samples, c", [(1, 9, 700), (5, 40, 600), (300, 40, 1500),
                                           (5000, 6, 4800)])
def test_uniform_gap_matches_the_per_pair_loop(T, samples, c):
    # 4096 // T rows per block: T = 300 spreads 40 draws over 4 blocks and
    # T = 5000 puts each draw in a block of its own.
    spec = ProblemSpec.create(T, 1.0, nan_field(c))
    rng = np.random.default_rng(T)
    u_a, u_b = (ParameterFunction(rng.uniform(-1, 1, T), 1.0) for _ in range(2))
    radii = (4.0, 3.0)
    with np.errstate(over="ignore", invalid="ignore"):
        gap = uniform_gap(spec, u_a, u_b, radii, samples=samples, seed=T)
        want, differences = per_pair_gap(spec, u_a, u_b, radii, samples, T)
    assert np.isnan(differences).any() and not np.isnan(differences).all()
    assert type(gap) is float and gap == want


# --- run_sequence --------------------------------------------------------------------

def test_run_sequence_gaps_match_the_per_pair_loop():
    # The GAP_SAMPLES = 128 draws at T = 100 are 4 blocks of at most 40 rows,
    # shared by every term; the integrand is nan on part of the ball.
    T = 100
    spec = ProblemSpec.create(T, 1.0, nan_field(1050))
    u0 = ParameterFunction(0.5 * np.sin(3 * np.arange(1, T + 1)), 1.0)
    seq = ParameterSequence.rule(u0, 0.5 * np.cos(np.arange(1, T + 1)), N=8)
    cfg = SolverConfig(method="newton", multistart=2, seed=11)
    with np.errstate(over="ignore", invalid="ignore"):
        report = run_sequence(spec, seq, cfg, radii=(4.0, 4.0))
        assert [e.error for e in report.entries] == [None] * 4
        for entry in report.entries:
            want, differences = per_pair_gap(spec, entry.u, u0, (4.0, 4.0), GAP_SAMPLES, 11)
            assert np.isnan(differences).any() and not np.isnan(differences).all()
            assert entry.gap == want, entry.n
            assert entry.gap == uniform_gap(spec, entry.u, u0, (4.0, 4.0), samples=GAP_SAMPLES,
                                            seed=11)


@pytest.mark.parametrize("method", ["newton", "extragradient", "nested"])
def test_run_sequence_gaps_skip_draws_outside_the_domain(method):
    # sqrt(y + 1) is undefined on part of the ball: those draws hold nan and
    # are skipped, as verify_saddle skips its probes there, and the gaps of
    # the linear u-term fall as 1/n
    T = 3
    spec = ProblemSpec.create(T, 1.0, "x^2 - y^2 + sqrt(y + 1) + u*(x - y)")
    u0 = ParameterFunction.constant(0.2, T, 1.0)
    seq = ParameterSequence.rule(u0, np.full(T, 0.5), N=16)
    report = run_sequence(spec, seq, SolverConfig(method=method))
    assert [e.error for e in report.entries] == [None] * 5
    for entry in report.entries:
        want, differences = per_pair_gap(spec, entry.u, u0, (4.0, 4.0), GAP_SAMPLES, 0)
        assert np.isnan(differences).any() and not np.isnan(differences).all()
        assert entry.gap == want, entry.n
        assert entry.gap * entry.n == pytest.approx(report.entries[0].gap, rel=1e-12)


def test_constant_sequence_is_exact():
    spec, u0 = bilinear_family()
    terms = [u0] * 4
    seq = ParameterSequence.from_terms(u0, terms)
    report = run_sequence(spec, seq, CFG, radii=(4.0, 4.0))
    assert report.all_nonempty and not report.partial
    for entry in report.entries:
        assert entry.dist <= 1e-12
        assert entry.value == pytest.approx(report.a0, abs=1e-14)
    assert report.dist_converged and report.values_converged


def test_closed_form_family_rates():
    # saddle path (-u/5, -3u/5): dist_n = sqrt(4/5)/n, a_n - a_0 = (2/n + 1/n^2)/5
    spec, u0 = bilinear_family()
    seq = ParameterSequence.rule(u0, np.array([1.0]), N=64)
    report = run_sequence(spec, seq, CFG, radii=(4.0, 4.0), tol_dep=2e-2)
    assert report.a0 == pytest.approx(0.2, abs=1e-12)
    for entry in report.entries:
        n = entry.n
        assert entry.dist == pytest.approx(np.sqrt(0.8) / n, abs=1e-9)
        assert entry.value - report.a0 == pytest.approx((2.0 / n + 1.0 / n ** 2) / 5.0,
                                                        abs=1e-10)
    assert report.values_converged  # |a_64 - a_0| ~ 6.3e-3 <= 2e-2


def test_report_values_recompute_from_candidates():
    from saddlebvp import action
    spec, u0 = bilinear_family()
    seq = ParameterSequence.rule(u0, np.array([1.0]), N=8)
    report = run_sequence(spec, seq, CFG, radii=(4.0, 4.0))
    for entry in report.entries:
        best = min(entry.saddles.points, key=lambda c: c.residual_norm)
        recomputed = action(spec, entry.u, best.x, best.y)
        assert abs(entry.value - recomputed) <= 1e-10 * (1 + abs(recomputed))


def test_value_gap_bounded_by_uniform_gap():
    spec, u0 = bilinear_family()
    seq = ParameterSequence.rule(u0, np.array([1.0]), N=16)
    report = run_sequence(spec, seq, CFG, radii=(4.0, 4.0))
    for entry in report.entries:
        assert abs(entry.value - report.a0) <= entry.gap + 2 * CFG.tol


def test_upper_limit_check_constant_sequence():
    spec, u0 = bilinear_family()
    seq = ParameterSequence.from_terms(u0, [u0] * 3)
    report = run_sequence(spec, seq, CFG, radii=(4.0, 4.0))
    check = upper_limit_check(report, tol=1e-8)
    assert check.passed
    assert all(entry["verified"] for entry in check.limits)


def test_upper_limit_check_extrapolates_linear_family():
    spec, u0 = bilinear_family()
    seq = ParameterSequence.rule(u0, np.array([1.0]), N=100)
    report = run_sequence(spec, seq, CFG, radii=(4.0, 4.0))
    # raw tail distance ~ 8.9e-3 at n=100; the 1/n extrapolation lands on the limit
    assert report.entries[-1].dist > 1e-3
    check = upper_limit_check(report, tol=1e-4)
    assert check.passed, check.violations
    assert check.limits[0]["distance_to_baseline"] <= 1e-10


def test_upper_limit_check_flags_wrong_baseline():
    spec, u0 = bilinear_family()
    seq = ParameterSequence.rule(u0, np.array([1.0]), N=16)
    report = run_sequence(spec, seq, CFG, radii=(4.0, 4.0))
    shifted = GridFunction.from_interior([5.0])
    wrong_rep = dataclasses.replace(report.baseline.points[0], x=shifted)
    wrong_set = dataclasses.replace(report.baseline, points=(wrong_rep,))
    adversarial = dataclasses.replace(report, baseline=wrong_set)
    check = upper_limit_check(adversarial, tol=1e-4)
    assert not check.passed
    assert any("baseline" in v for v in check.violations)


def test_upper_limit_check_limit_outside_the_domain():
    # tail points x = -1.2 at n = 32 and x = -1.4 at n = 64 extrapolate to
    # x = -1.6, where log(x + 1.5) is undefined: a violation, not an error
    spec = ProblemSpec.create(1, 1.0, "x^2 - y^2 + log(x + 1.5)")
    u0 = ParameterFunction.constant(0.0, 1, 1.0)
    cfg = SolverConfig(method="newton")
    baseline = saddle_set(spec, u0, cfg)
    entries = []
    for n, x in ((32, -1.2), (64, -1.4)):
        (cand,) = make_candidates_i(spec, u0, np.array([[x, 0.0]]), "newton", [1], [True], [None])
        entries.append(SequenceEntry(n=n, u=u0, saddles=SaddleSet((cand,), 1e-4, 1),
                                     value=cand.value, dist=0.0, gap=0.0, clamped=False))
    report = DependenceReport(
        u0=u0, baseline=baseline, entries=tuple(entries), schedule=(32, 64), tol_dep=1e-4,
        a0=baseline.points[0].value, final_dist=0.0, final_value_gap=0.0, all_nonempty=True,
        dist_converged=True, values_converged=True, partial=False, spec=spec, cfg=cfg)
    check = upper_limit_check(report, tol=1e-4)
    assert not check.passed
    assert check.violations[-1] == ("limit of branch at n=64 lies outside the integrand's "
                                    "domain: log of nonpositive value in 'log(x + 1.5)'")
    (limit,) = check.limits
    assert limit["verified"] is False
    # on T = 1 the difference norm of a value d is sqrt(2) |d|
    assert limit["distance_to_baseline"] == pytest.approx(min(
        np.sqrt(2.0) * np.hypot(-1.6 - rep.x(1), rep.y(1)) for rep in baseline.points))


def test_run_sequence_partial_on_failing_term():
    # u = -1 makes the x-curvature matrix exactly singular for this field
    spec = ProblemSpec.create(1, 1.0, "u*x^2")
    u0 = ParameterFunction.constant(0.0, 1, 1.0)
    terms = [ParameterFunction.constant(-1.0, 1, 1.0),
             ParameterFunction.constant(0.5, 1, 1.0)]
    seq = ParameterSequence.from_terms(u0, terms)
    report = run_sequence(spec, seq, CFG, radii=(2.0, 2.0))
    assert report.partial
    assert report.entries[0].error == "every start failed"
    assert report.entries[1].error is None
    assert not report.all_nonempty


def test_run_sequence_raises_when_baseline_fails():
    spec = ProblemSpec.create(1, 1.0, "-x^2")
    u0 = ParameterFunction.constant(0.0, 1, 1.0)
    seq = ParameterSequence.rule(u0, np.array([0.1]), N=2)
    with pytest.raises(SolverError):
        run_sequence(spec, seq, CFG, radii=(2.0, 2.0))


def test_nonlinear_family_distance_trend():
    rng = np.random.default_rng(22)
    spec, u0 = nonlinear_instance(rng, 3)
    direction = rng.uniform(-1, 1, 3) * 1e-3
    seq = ParameterSequence.rule(u0, direction, N=32)
    report = run_sequence(spec, seq, CFG, radii=(6.0, 6.0), tol_dep=1e-4)
    dists = [e.dist for e in report.entries]
    assert dists[-1] <= 1e-4
    assert dists[-1] <= dists[0] / 16  # roughly O(1/n)
    assert upper_limit_check(report, tol=1e-4).passed
