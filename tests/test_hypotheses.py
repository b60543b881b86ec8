import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dirichlet_matrix, nonlinear_instance
from saddlebvp import (GridFunction, ParameterFunction, ProblemSpec, ball_radii,
                       check_concavity_y, check_convexity_x, embedding_constant,
                       fit_growth_certificate, verify_growth)
from saddlebvp.expressions import ExprError, compile_trees, depends_on
from saddlebvp.hypotheses import (_NODE_BLOCK_VALUES, DEFAULT_TOL, GrowthCertificate,
                                  HypothesisError, _node_classes, certificate_from_dict)


def zero_u(T, D=1.0):
    return ParameterFunction.constant(0.0, T, D)


# --- convexity / concavity ----------------------------------------------------

def test_convexity_zero_field():
    spec = ProblemSpec.create(3, 1.0, "0*x")
    rep = check_convexity_x(spec, zero_u(3), GridFunction.zeros(3), box=2.0, density=16)
    assert rep.passed and rep.exact


def test_convexity_linear_in_x():
    spec = ProblemSpec.create(2, 1.0, "x*y + x - y")
    rep = check_convexity_x(spec, zero_u(2), GridFunction.zeros(2), box=2.0, density=16)
    assert rep.passed and rep.exact


def test_convexity_boundary_and_violation():
    # T=1: curvature 2 - 2 = 0 sits on the boundary, 2 - 4 < 0 is violated
    spec = ProblemSpec.create(1, 1.0, "-x^2")
    rep = check_convexity_x(spec, zero_u(1), GridFunction.zeros(1), box=2.0, density=16)
    assert rep.passed and rep.worst_margin == pytest.approx(0.0, abs=1e-12)

    spec = ProblemSpec.create(1, 1.0, "-2*x^2")
    rep = check_convexity_x(spec, zero_u(1), GridFunction.zeros(1), box=2.0, density=16)
    assert not rep.passed and rep.exact
    assert rep.counterexample["kind"] == "hessian"
    assert rep.counterexample["eigenvalue"] == pytest.approx(-2.0, abs=1e-12)


@pytest.mark.parametrize("check", [check_convexity_x, check_concavity_y])
def test_curvature_check_rejects_a_density_below_3(check):
    spec = ProblemSpec.create(2, 1.0, "x^2 - y^2")
    with pytest.raises(HypothesisError, match="density must be at least 3, got 2"):
        check(spec, zero_u(2), GridFunction.zeros(2), box=1.0, density=2)


def test_concavity_mirror_cases():
    spec = ProblemSpec.create(3, 1.0, "0*x")
    assert check_concavity_y(spec, zero_u(3), GridFunction.zeros(3), 2.0, 16).passed

    spec = ProblemSpec.create(2, 1.0, "x*y")
    rep = check_concavity_y(spec, zero_u(2), GridFunction.zeros(2), 2.0, 16)
    assert rep.passed and rep.exact

    spec = ProblemSpec.create(1, 1.0, "y^2")
    rep = check_concavity_y(spec, zero_u(1), GridFunction.zeros(1), 2.0, 16)
    assert rep.passed and rep.worst_margin == pytest.approx(0.0, abs=1e-12)

    spec = ProblemSpec.create(1, 1.0, "2*y^2")
    rep = check_concavity_y(spec, zero_u(1), GridFunction.zeros(1), 2.0, 16)
    assert not rep.passed
    assert rep.counterexample["eigenvalue"] == pytest.approx(-2.0, abs=1e-12)


def test_convexity_state_dependent_sampling():
    spec = ProblemSpec.create(2, 1.0, "x^4 - y^4")
    convex = check_convexity_x(spec, zero_u(2), GridFunction.zeros(2), 2.0, 32)
    concave = check_concavity_y(spec, zero_u(2), GridFunction.zeros(2), 2.0, 32)
    assert convex.passed and not convex.exact
    assert concave.passed and not concave.exact

    spec = ProblemSpec.create(1, 1.0, "-x^4")
    rep = check_convexity_x(spec, zero_u(1), GridFunction.zeros(1), 2.0, 32)
    assert not rep.passed and not rep.exact


def test_convexity_decided_exactly_for_quadratics():
    # curvature free of the state: one matrix decides, no sampling error
    spec = ProblemSpec.create(4, 1.0, "0.3*x^2 - 0.1*y^2 + u*x*y")
    rep = check_convexity_x(spec, zero_u(4), GridFunction.zeros(4), 50.0, 3)
    assert rep.passed and rep.exact


STUDY_F = "0.4*x^2 - 0.4*y^2 + 0.2*x*y + 0.25*sin(x) + 0.25*cos(y) + u*(x - y)"


def test_curvature_margin_is_the_box_minimum():
    # F_xx = 0.8 - 0.25 sin(x) and -F_yy = 0.8 + 0.25 cos(y) both reach 0.55 in
    # the box on every node, so the margin is lambda_min(L) + 0.55; the grid
    # check may undershoot it by its pad, never overshoot it
    T = 100
    spec = ProblemSpec.create(T, 1.0, STUDY_F)
    u = ParameterFunction(np.linspace(-0.5, 0.5, T), 1.0)
    true = 0.55 + np.linalg.eigvalsh(dirichlet_matrix(T))[0]
    assert true == pytest.approx(0.55097, abs=1e-5)
    for check in (check_convexity_x, check_concavity_y):
        rep = check(spec, u, GridFunction.zeros(T), 6.0)
        assert rep.passed and not rep.exact
        assert 0.5500 <= rep.worst_margin <= true


def test_curvature_pad_is_per_node():
    # node 1 has no curvature and node 2 a rough F_xx = 40 - 25 cos(5x) >= 15,
    # whose grid pad is 0.125: node 1 must keep a pad of 0
    spec = ProblemSpec.create(2, 1.0, "(k - 1)*(20*x^2 + cos(5*x))")
    rep = check_convexity_x(spec, zero_u(2), GridFunction.zeros(2), 2.0)
    true = np.linalg.eigvalsh(dirichlet_matrix(2) + np.diag([0.0, 15.0]))[0]
    assert rep.passed and not rep.exact
    assert true - 0.05 <= rep.worst_margin <= true


def test_curvature_counterexample_matches_eigvalsh():
    # F_xx = 0.2 + 2 cos(x + k) and -F_yy = 0.2 + 2 cos(y + k) reach -1.8 on every node
    T = 3
    spec = ProblemSpec.create(T, 1.0, "0.1*x^2 - 2*cos(x + k) - 0.1*y^2 + 2*cos(y + k)")
    k = np.arange(1, T + 1)
    for check in (check_convexity_x, check_concavity_y):
        rep = check(spec, zero_u(T), GridFunction.zeros(T), 4.0)
        assert not rep.passed and not rep.exact
        assert rep.counterexample["kind"] == "hessian"
        point = np.array(rep.counterexample["point"])
        assert point.shape == (T,) and np.all(np.abs(point) <= 4.0)
        dense = np.linalg.eigvalsh(dirichlet_matrix(T) + np.diag(0.2 + 2 * np.cos(point + k)))[0]
        assert rep.counterexample["eigenvalue"] == pytest.approx(dense, abs=1e-12)
        assert rep.worst_margin <= dense < -1.0


_coef = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(T=st.integers(1, 6), a=st.floats(-0.5, 1.0), p=_coef, w=st.floats(0.2, 3.0),
       c=_coef, q=_coef, box=st.floats(0.5, 3.0), anchor=st.floats(-1.0, 1.0),
       seed=st.integers(0, 2 ** 16))
def test_curvature_check_against_sampled_eigvalsh(T, a, p, w, c, q, box, anchor, seed):
    # F_xx = 2a - p w^2 sin(w x + c k) + 2q y^2 and -F_yy = 2a + p w^2 sin(w y + c k) - 2q x^2,
    # with the other slot at the anchor: neither check may report a margin above
    # a dense eigenvalue at a box point, and a passing check leaves no box point
    # below -tol
    F = (f"{a!r}*x^2 + {p!r}*sin({w!r}*x + {c!r}*k) - {a!r}*y^2"
         f" + {p!r}*sin({w!r}*y + {c!r}*k) + {q!r}*x^2*y^2")
    spec = ProblemSpec.create(T, 1.0, F)
    k = np.arange(1, T + 1)
    L = dirichlet_matrix(T)
    fixed = GridFunction.from_interior(np.full(T, anchor))
    points = np.random.default_rng(seed).uniform(-box, box, (64, T))
    for check, curvature in (
            (check_convexity_x, lambda s: 2 * a - p * w ** 2 * np.sin(w * s + c * k) + 2 * q * anchor ** 2),
            (check_concavity_y, lambda s: 2 * a + p * w ** 2 * np.sin(w * s + c * k) - 2 * q * anchor ** 2)):
        rep = check(spec, zero_u(T), fixed, box)
        sampled = min(np.linalg.eigvalsh(L + np.diag(curvature(s)))[0] for s in points)
        assert rep.worst_margin <= sampled + 1e-12
        if rep.passed:
            assert sampled >= -DEFAULT_TOL - 1e-12


# --- growth bounds --------------------------------------------------------------

def test_verify_growth_zero_field_zero_certificate():
    spec = ProblemSpec.create(2, 1.0, "0*x")
    cert = GrowthCertificate.constant(2, 0, 0, 0, 0, 0, 0, box_radius=3.0)
    rep = verify_growth(spec, cert)
    assert rep.passed
    assert rep.worst_lower_margin == 0.0
    assert rep.worst_upper_margin == 0.0


def test_verify_growth_bilinear_parameter_cert():
    # u*(x - y) with |u| <= 1: +-|s| sits above -0.1 s^2 - 2.5 with equality at |s| = 5
    spec = ProblemSpec.create(2, 1.0, "u*(x - y)")
    cert = GrowthCertificate.constant(
        2, alpha1=0.1, beta1=0.0, gamma1=-2.5, alpha2=0.1, beta2=0.0, gamma2=2.5,
        box_radius=6.0, anchor_y=GridFunction.zeros(2), anchor_x=GridFunction.zeros(2))
    rep = verify_growth(spec, cert, grid_density=241)
    assert rep.passed
    assert abs(rep.worst_lower_margin) < 1e-12  # tight at s = +-5
    assert abs(rep.worst_upper_margin) < 1e-12


def test_verify_growth_rejects_unbounded_claim():
    # x^2 admits no linear upper bound uniformly over the box
    spec = ProblemSpec.create(2, 1.0, "x^2")
    cert = GrowthCertificate.constant(2, 0, 0, 0, 0, 0, 0, box_radius=3.0)
    rep = verify_growth(spec, cert)
    assert not rep.passed
    assert rep.counterexample["kind"] == "upper growth bound violated"
    assert rep.worst_upper_margin < -1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("key", ["alpha1", "beta1", "gamma1", "alpha2", "beta2", "gamma2",
                                 "box_radius"])
def test_certificate_numbers_must_be_finite(key, bad):
    # a NaN slips through every comparison, so verify_growth would pass it
    numbers = dict(alpha1=0, beta1=0, gamma1=-0.1, alpha2=0, beta2=0, gamma2=0.1, box_radius=4.0)
    numbers[key] = bad
    with pytest.raises(HypothesisError, match=key.replace("_", " ") + " must be finite"):
        GrowthCertificate.constant(3, **numbers)


def test_verify_growth_alpha_margin():
    spec = ProblemSpec.create(1, 1.0, "0*x")  # c2 = 1/2, so the limit is 1
    cert = GrowthCertificate.constant(1, alpha1=1.0, beta1=0, gamma1=0,
                                      alpha2=0.0, beta2=0, gamma2=0, box_radius=1.0)
    rep = verify_growth(spec, cert)
    assert not rep.passed and not rep.alpha_ok
    assert "alpha margin violated" in rep.counterexample["kind"]


def test_verify_growth_anchored_vs_uniform():
    # exp(x) has no uniform-in-x upper bound matching gamma2 fitted at x = 0
    spec = ProblemSpec.create(1, 1.0, "exp(x) - y^2/4")
    anchored = GrowthCertificate.constant(
        1, alpha1=0, beta1=0, gamma1=-2.3, alpha2=0.3, beta2=0, gamma2=1.1,
        box_radius=3.0, anchor_x=GridFunction.zeros(1))
    assert verify_growth(spec, anchored).passed
    uniform = GrowthCertificate.constant(1, alpha1=0, beta1=0, gamma1=-2.3,
                                         alpha2=0.3, beta2=0, gamma2=1.1,
                                         box_radius=3.0)
    rep = verify_growth(spec, uniform)
    assert not rep.passed
    assert rep.counterexample["kind"] == "upper growth bound violated"


def _sample_grid(R, D, n):
    return (np.linspace(-R, R, n), np.linspace(-D, D, max(5, n // 8)),
            np.linspace(-R, R, max(5, n // 8)))


def _node_by_node(spec, lower, anchor, n, R, values):
    """``values(k, free, F)`` at one node after another on the growth grid.

    The free slot runs over ``s[:, None, None]``, the parameter over ``us``
    and an unanchored other slot over ``other``, one kernel call per node.
    """
    s, us, other = _sample_grid(R, spec.D, n)
    free = s[:, None, None]
    for k in range(1, spec.T + 1):
        fixed = other[None, None, :] if anchor is None else np.float64(anchor(k))
        xy = (free, fixed) if lower else (fixed, free)
        (F,) = spec.field.value_kernel(float(k), *xy, us[None, :, None])
        yield k, values(k, free, F)


def _growth_node_loop(spec, cert, n):
    """Worst margin and its witness per side, node by node: the first strict minimum."""
    s, us, other = _sample_grid(cert.box_radius, spec.D, n)
    sides = []
    for lower in (True, False):
        alpha, beta, gamma = ((cert.alpha1, cert.beta1, cert.gamma1) if lower
                              else (cert.alpha2, cert.beta2, cert.gamma2))
        anchor = cert.anchor_y if lower else cert.anchor_x
        shape = (n, us.size, 1 if anchor is not None else other.size)

        def margin(k, free, F):
            bound = (-alpha if lower else alpha) * free ** 2 + beta * free + gamma[k - 1]
            return np.broadcast_to(np.asarray(F - bound if lower else bound - F, dtype=float),
                                   shape)

        worst, witness = np.inf, None
        for k, m in _node_by_node(spec, lower, anchor, n, cert.box_radius, margin):
            idx = np.unravel_index(np.argmin(m), m.shape)
            if m[idx] < worst:
                worst = float(m[idx])
                witness = {"k": k, "s": float(s[idx[0]]), "u": float(us[idx[1]]),
                           "anchored": float(anchor(k)) if anchor is not None
                           else float(other[idx[2]])}
        sides.append((worst, witness))
    return sides


def _fit_node_loop(spec, R, n, anchor_y=None, anchor_x=None, slack=1e-6):
    """fit_growth_certificate's gammas node by node, each with its own second-difference pad."""
    alpha = 0.25 / embedding_constant(2, spec.T)

    def pad(vals):
        out = 0.0
        for axis in range(vals.ndim):
            if vals.shape[axis] >= 3:
                out = max(out, 0.5 * float(np.max(np.abs(np.diff(vals, n=2, axis=axis)))))
        return out

    lower = _node_by_node(spec, True, anchor_y, n, R,
                          lambda k, free, F: np.asarray(F + alpha * free ** 2, dtype=float))
    upper = _node_by_node(spec, False, anchor_x, n, R,
                          lambda k, free, F: np.asarray(F - alpha * free ** 2, dtype=float))
    gamma1, gamma2 = [], []
    for (_, lo), (_, up) in zip(lower, upper):
        gamma1.append(float(np.min(lo)) - pad(lo) - slack)
        gamma2.append(float(np.max(up)) + pad(up) + slack)
    return gamma1, gamma2


def _growth_cases():
    # the study integrand and certificate (T = 100, anchors 0; three nodes per
    # kernel call), the same failing below, an anchorless certificate failing
    # above, and a field that is nan at the nodes k >= 6 (exp(900) - exp(900))
    study = ProblemSpec.create(
        100, 1.0, "0.4*x^2 - 0.4*y^2 + 0.2*x*y + 0.25*sin(x) + 0.25*cos(y) + u*(x - y)")
    zeros = GridFunction.zeros(100)
    cert = GrowthCertificate.constant(100, 0.0, 0.0, -(1.25 ** 2) / 1.6 - 0.25, 0.0, 0.0,
                                      1.0 / 1.6 + 0.25, 6.0, anchor_y=zeros, anchor_x=zeros)
    failing = GrowthCertificate.constant(100, 0.0, 0.0, -0.5, 0.0, 0.0, 0.5, 6.0,
                                         anchor_y=zeros, anchor_x=zeros)
    bilinear = ProblemSpec.create(7, 1.0, "x^2 - y^2 + 3*u*x*y + sin(k*x)")
    anchorless = GrowthCertificate.constant(7, 0.0, 0.1, -40.0, 0.0, -0.1, 1.0, 3.0)
    nan_field = ProblemSpec.create(9, 1.0, "x^2 - y^2 + u*x + exp(300*(k - 3)) - exp(300*(k - 3))")
    ramp = GridFunction.from_interior(np.linspace(-1, 1, 9))
    nan_cert = GrowthCertificate.constant(9, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 2.0, anchor_y=ramp)
    # k-free fields, so nodes with equal gamma and anchor bits form one class:
    # seven lower classes, where anchors 0.5 (node 4) and -0.5 (node 6) tie
    # at the smallest margin across classes, and an anchorless upper side
    # with two classes of gamma2; then anchors at 3 that make F nan
    # (0 * exp(900)) at nodes 1, 3 and 6, with node 2 (0.5) tying node 4 (-0.5)
    classes = ProblemSpec.create(10, 1.0, "x^2 - y^2 + u*x")
    classes_cert = GrowthCertificate(
        alpha1=0.0, beta1=0.0, gamma1=[-1, -0.2, -1, -0.2, -0.2, -0.2, -1, -1, -0.2, -0.2],
        alpha2=0.0, beta2=0.0, gamma2=[7, 8, 7, 7, 8, 8, 7, 8, 7, 7], box_radius=2.0,
        anchor_y=GridFunction.from_interior([0.5, 0.25, -0.5, 0.5, 0.25, -0.5, 0, 0, 0.25, -0.25]))
    nan_classes = ProblemSpec.create(8, 1.0, "x^2 - y^2 + u*x + 0*exp(300*y)")
    nan_classes_cert = GrowthCertificate.constant(
        8, 0.0, 0.0, -0.1, 0.0, 0.0, 0.0, 2.0,
        anchor_y=GridFunction.from_interior([3, 0.5, 3, -0.5, 0, 3, 0.5, 0]))
    return [(study, cert, 201, None), (study, failing, 201, "lower"),
            (bilinear, anchorless, 41, "upper"), (nan_field, nan_cert, 201, "lower"),
            (classes, classes_cert, 41, "lower"), (nan_classes, nan_classes_cert, 41, "lower")]


@pytest.mark.parametrize("case", range(6))
def test_node_blocked_growth_margins_equal_the_node_loop(case):
    spec, cert, n, fails = _growth_cases()[case]
    with np.errstate(invalid="ignore", over="ignore"):
        rep = verify_growth(spec, cert, grid_density=n)
        (lower, lower_witness), (upper, upper_witness) = _growth_node_loop(spec, cert, n)
    assert rep.worst_lower_margin.hex() == lower.hex()
    assert rep.worst_upper_margin.hex() == upper.hex()
    if fails is None:
        assert rep.passed and rep.counterexample is None
    else:
        witness, margin = ((lower_witness, lower) if fails == "lower"
                           else (upper_witness, upper))
        assert rep.counterexample["kind"] == f"{fails} growth bound violated"
        assert {key: rep.counterexample[key] for key in witness} == witness
        assert rep.counterexample["margin"].hex() == margin.hex()
    if case == 3:
        # the nan nodes k >= 6 are skipped: the witness sits at a node before them
        assert rep.counterexample["k"] <= 5
    if case == 4:
        # the tie across classes goes to the first node in node order
        assert (rep.counterexample["k"], rep.counterexample["anchored"]) == (4, 0.5)
    if case == 5:
        # the nan classes are skipped, and the tie goes to node 2
        assert (rep.counterexample["k"], rep.counterexample["anchored"]) == (2, 0.5)


@pytest.mark.parametrize("case", range(6))
def test_node_blocked_fit_equals_the_node_loop(case):
    spec, cert, n, _ = _growth_cases()[case]
    kwargs = {"anchor_y": cert.anchor_y, "anchor_x": cert.anchor_x}
    with np.errstate(invalid="ignore", over="ignore"):
        gamma1, gamma2 = _fit_node_loop(spec, cert.box_radius, n, **kwargs)
        nan_nodes = {3: np.arange(5, 9), 5: [0, 2, 5]}.get(case)
        if nan_nodes is not None:  # nan gammas at the nan nodes, which a certificate rejects
            assert np.flatnonzero(np.isnan(gamma1)).tolist() == list(nan_nodes)
            with pytest.raises(HypothesisError, match="gamma1 must be finite"):
                fit_growth_certificate(spec, cert.box_radius, density=n, **kwargs)
            return
        fitted = fit_growth_certificate(spec, cert.box_radius, density=n, **kwargs)
    assert [g.hex() for g in fitted.gamma1] == [g.hex() for g in gamma1]
    assert [g.hex() for g in fitted.gamma2] == [g.hex() for g in gamma2]


def test_node_blocked_growth_raises_the_node_loop_domain_error():
    # node 1 divides by zero; node 3 takes log(0), a guard that comes first in
    # the tree, so a block of all nodes alone would raise the log error
    spec = ProblemSpec.create(5, 1.0, "x^2 - y^2 + log(3 - k) + 1/(k - 1)")
    cert = GrowthCertificate.constant(5, 0.0, 0.0, -1.0, 0.0, 0.0, 1.0, 2.0,
                                      anchor_y=GridFunction.zeros(5))
    for check in (lambda: verify_growth(spec, cert, grid_density=9),
                  lambda: fit_growth_certificate(spec, 2.0, density=9)):
        with pytest.raises(ExprError, match="division by zero"):
            check()


@pytest.mark.parametrize("density", [201, 8192])
def test_node_blocked_curvature_raises_the_node_loop_domain_error(density):
    # as above, in the curvature of the free slot: at density 201 all five
    # nodes share one block, at 8192 the blocks hold two nodes each
    u = ParameterFunction.constant(0.0, 5, 1.0)
    for check, F in ((check_convexity_x, "x^2*(log(3 - k) + 1/(k - 1)) - y^2"),
                     (check_concavity_y, "x^2 - y^2*(log(3 - k) + 1/(k - 1))")):
        with pytest.raises(ExprError, match="division by zero"):
            check(ProblemSpec.create(5, 1.0, F), u, GridFunction.zeros(5), 2.0, density)


def test_node_classes_are_keyed_by_bits_and_by_k_when_f_uses_it():
    # 0.0 and -0.0 are told apart; gammas and anchors key together, None adds nothing
    gamma = np.array([1.0, 1.0, 2.0, 1.0, 1.0])
    anchor = GridFunction.from_interior([0.0, -0.0, 0.0, 0.0, -0.0])
    first, cls = _node_classes(ProblemSpec.create(5, 1.0, "x^2 - y^2 + u*x*y"), gamma, anchor, None)
    assert first.tolist() == [0, 1, 2] and cls.tolist() == [0, 1, 2, 0, 1]
    first, cls = _node_classes(ProblemSpec.create(5, 1.0, "x^2 - y^2"), None)
    assert first.tolist() == [0] and cls.tolist() == [0] * 5
    first, cls = _node_classes(ProblemSpec.create(5, 1.0, "x^2 - y^2 + k"), gamma, anchor)
    assert first.tolist() == cls.tolist() == list(range(5))


def test_node_classes_raise_the_first_nodes_domain_error():
    # a k-free field: node 1 (y = 0) divides by zero and node 3 (y = -1)
    # takes log(0), a guard that comes first in the tree, so a block of the
    # three classes alone would raise the log error
    spec = ProblemSpec.create(4, 1.0, "x^2 - y^2 + log(y + 1) + 1/y")
    anchor = GridFunction.from_interior([0.0, 1.0, -1.0, 1.0])
    cert = GrowthCertificate.constant(4, 0.0, 0.0, -1.0, 0.0, 0.0, 1.0, 2.0, anchor_y=anchor)
    for check in (lambda: verify_growth(spec, cert, grid_density=9),
                  lambda: fit_growth_certificate(spec, 2.0, density=9, anchor_y=anchor)):
        with pytest.raises(ExprError, match="division by zero"):
            check()


def _whole_grid_curvature(spec, u, fixed, box, density, convex):
    """The curvature check on the whole ``(density, T)`` grid in one kernel call."""
    node, free, other = (spec.field.fxx, "x", "y") if convex else (spec.field.fyy, "y", "x")
    s = np.linspace(-box, box, density)
    (curv,) = compile_trees((node,))(**{"k": spec.nodes(), "u": u.values, free: s[:, None],
                                        other: fixed.interior})
    curv = np.broadcast_to(np.asarray(curv, dtype=float), (density, spec.T))
    curv = curv if convex else -curv
    idx = np.argmin(curv, axis=0)
    low = curv[idx, np.arange(spec.T)]
    pad = 0.5 * np.max(np.abs(np.diff(curv, n=2, axis=0)), axis=0)
    if not depends_on(node, free):
        pad = np.zeros(spec.T)
    return (spec.lap.smallest_eigenvalue_shifted(low - pad), s[idx].tolist(),
            spec.lap.smallest_eigenvalue_shifted(low))


@pytest.mark.parametrize("F, exact, passed", [
    ("(0.3 + 0.01*k)*x^2 + u*x*y - (0.3 + 0.01*k)*y^2", True, True),
    ("0.4*x^2 + 0.25*sin(x + k) - 0.4*y^2 + 0.25*cos(y*k/50) + u*(x - y)", False, True),
    ("0.1*x^2 - 2*cos(x + k) - 0.1*y^2 + 2*cos(y + k)", False, False)])
def test_curvature_node_blocks_equal_the_whole_grid(F, exact, passed):
    # T = 82 at density 201 spans two node blocks (81 nodes and 1)
    T, density = 82, 201
    assert _NODE_BLOCK_VALUES // density == 81
    spec = ProblemSpec.create(T, 1.0, F)
    u = ParameterFunction(np.sin(np.arange(T)), 1.0)
    fixed = GridFunction.from_interior(np.linspace(-1.0, 1.0, T))
    for check, convex in ((check_convexity_x, True), (check_concavity_y, False)):
        rep = check(spec, u, fixed, 3.0, density)
        margin, point, eigenvalue = _whole_grid_curvature(spec, u, fixed, 3.0, density, convex)
        assert (rep.exact, rep.passed) == (exact, passed)
        assert rep.worst_margin.hex() == margin.hex()
        if not passed:
            assert rep.counterexample["point"] == point
            assert rep.counterexample["eigenvalue"].hex() == eigenvalue.hex()


# --- ball radii ------------------------------------------------------------------

def test_ball_radii_unit_gap():
    cert = GrowthCertificate.constant(1, 0, 0, 0.0, 0, 0, 1.0, box_radius=1.0)
    radii = ball_radii(cert, c2=0.5, T=1)
    assert radii.r2 == pytest.approx(np.sqrt(2.0), abs=1e-14)
    assert radii.r1 == pytest.approx(np.sqrt(2.0), abs=1e-14)
    assert radii.value_lower == 0.0 and radii.value_upper == 1.0


def test_ball_radii_quarter_margin():
    # alpha2 = 1/(4 c2) halves the margin: a2 = 1/4 and r2 = 2
    cert = GrowthCertificate.constant(1, 0, 0, 0.0, alpha2=0.5, beta2=0, gamma2=1.0,
                                      box_radius=1.0)
    radii = ball_radii(cert, c2=0.5, T=1)
    assert radii.a2 == pytest.approx(0.25)
    assert radii.r2 == pytest.approx(2.0, abs=1e-14)


def test_ball_radii_pure_linear_term():
    # gamma-tilde2 = value_lower makes r2 = beta_tilde2 / a2
    cert = GrowthCertificate.constant(1, 0, 0, 0.0, alpha2=0, beta2=3.0, gamma2=0.0,
                                      box_radius=1.0)
    radii = ball_radii(cert, c2=0.5, T=1)
    assert radii.beta_tilde2 == pytest.approx(3.0 * np.sqrt(0.5))
    assert radii.r2 == pytest.approx(radii.beta_tilde2 / radii.a2, rel=1e-14)
    assert radii.r2 == pytest.approx(4.242640687119285, abs=1e-12)


def test_ball_radii_margin_violation_raises():
    cert = GrowthCertificate.constant(1, alpha1=1.2, beta1=0, gamma1=0,
                                      alpha2=0, beta2=0, gamma2=0, box_radius=1.0)
    with pytest.raises(HypothesisError):
        ball_radii(cert, c2=0.5, T=1)


def test_ball_radii_anchor_terms_enter():
    anchor = GridFunction.from_interior([1.0])  # h-norm^2 = 2
    cert = GrowthCertificate.constant(1, 0, 0, 0.0, 0, 0, 1.0, box_radius=1.0,
                                      anchor_y=anchor)
    radii = ball_radii(cert, c2=0.5, T=1)
    assert radii.gamma_tilde1 == pytest.approx(-1.0)  # 0 - ||anchor||^2 / 2
    assert radii.value_lower == pytest.approx(-1.0)
    assert radii.r2 == pytest.approx(2.0, abs=1e-14)  # gap widens from 1 to 2


def test_ball_radii_monotone_in_alpha2():
    c2 = 0.5
    prev = 0.0
    for alpha2 in (0.0, 0.25, 0.5, 0.75, 0.9):
        cert = GrowthCertificate.constant(1, 0, 0, 0.0, alpha2=alpha2, beta2=0,
                                          gamma2=1.0, box_radius=1.0)
        r2 = ball_radii(cert, c2, 1).r2
        assert r2 > prev
        prev = r2


def test_majorant_below_value_lower_outside_r2():
    cert = GrowthCertificate.constant(3, 0.1, 0.2, -0.5, 0.15, -0.3, 0.8,
                                      box_radius=2.0)
    c2 = embedding_constant(2, 3)
    radii = ball_radii(cert, c2, 3)
    for t in np.linspace(radii.r2 * 1.0001, radii.r2 * 10, 50):
        majorant = -radii.a2 * t ** 2 + radii.beta_tilde2 * t + radii.gamma_tilde2
        assert majorant < radii.value_lower


# --- fitted certificates -----------------------------------------------------------

def test_fitted_certificate_verifies():
    rng = np.random.default_rng(14)
    for T in (1, 3, 6):
        spec, u, = nonlinear_instance(rng, T)
        cert = fit_growth_certificate(spec, box_radius=10.0)
        rep = verify_growth(spec, cert)
        assert rep.passed, rep.counterexample
        assert rep.worst_margin >= -1e-9


def test_fitted_certificate_margins_hold_off_grid():
    rng = np.random.default_rng(15)
    spec, u = nonlinear_instance(rng, 3)
    cert = fit_growth_certificate(spec, box_radius=8.0)
    # random off-grid points stay above the bound up to the fitter's padding
    for _ in range(500):
        k = int(rng.integers(1, 4))
        s = rng.uniform(-8, 8)
        uu = rng.uniform(-1, 1)
        yy = rng.uniform(-8, 8)
        F = spec.field
        from saddlebvp.expressions import evaluate
        val = evaluate(F.f, {"k": float(k), "x": s, "y": yy, "u": uu})
        bound = -cert.alpha1 * s ** 2 + cert.beta1 * s + cert.gamma1[k - 1]
        assert val >= bound - 1e-9



def test_fitted_certificate_rejects_a_density_below_9():
    spec = ProblemSpec.create(2, 1.0, "x^2 - y^2 + u*x")
    for density in (3, -4):
        with pytest.raises(HypothesisError, match=f"density must be at least 9, got {density}"):
            fit_growth_certificate(spec, 2.0, density=density)
    # densities from 9 on give the values they always gave
    expected = {9: ("-0x1.4c000431bde83p+2", "0x1.c0000431bde83p+2"),
                241: ("-0x1.0e048580d3279p+2", "0x1.8137b8b4065acp+2")}
    for density, (gamma1, gamma2) in expected.items():
        kwargs = {} if density == 241 else {"density": density}
        cert = fit_growth_certificate(spec, 2.0, **kwargs)
        assert [g.hex() for g in cert.gamma1] == [gamma1] * 2
        assert [g.hex() for g in cert.gamma2] == [gamma2] * 2

def test_certificate_dict_roundtrip():
    data = {"alpha1": 0.1, "beta1": -0.2, "gamma1": [0.3, 0.3], "alpha2": 0.4, "beta2": 0.5,
            "gamma2": -0.6, "box": 7.0, "anchor_y": [0.0, 0.0], "anchor_x": None}
    back = certificate_from_dict(data, 2)
    cert = GrowthCertificate.constant(2, 0.1, -0.2, 0.3, 0.4, 0.5, -0.6,
                                      box_radius=7.0, anchor_y=GridFunction.zeros(2))
    scalars = ("alpha1", "beta1", "alpha2", "beta2", "box_radius")
    assert [getattr(back, f) for f in scalars] == [getattr(cert, f) for f in scalars]
    assert np.array_equal(back.gamma1, cert.gamma1)
    assert np.array_equal(back.gamma2, cert.gamma2)
    assert np.array_equal(back.anchor_y.values, cert.anchor_y.values)
    assert back.anchor_x is None


def test_certificate_validation():
    with pytest.raises(HypothesisError):
        GrowthCertificate.constant(1, 0, 0, 0, 0, 0, 0, box_radius=-1.0)
    with pytest.raises(HypothesisError):
        certificate_from_dict({"alpha1": 0.0}, 1)
    with pytest.raises(HypothesisError):
        GrowthCertificate(alpha1=0, beta1=0, gamma1=np.zeros(2), alpha2=0, beta2=0,
                          gamma2=np.zeros(3), box_radius=1.0)
