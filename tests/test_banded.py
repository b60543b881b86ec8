"""Banded operator core against dense oracles built from ``conftest.dirichlet_matrix``."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, eigvalsh_tridiagonal, lapack, solve_banded

from conftest import dirichlet_matrix, nonlinear_instance
from saddlebvp import (GridFunction, ParameterFunction, ProblemSpec, SolverConfig, grid,
                       laplacian, solvers)
from saddlebvp.hypotheses import check_concavity_y, check_convexity_x
from saddlebvp.problem import jacobian_i, operator_i, second_partials_i

SIZES = (1, 2, 3, 17)


def random_point(T, seed):
    rng = np.random.default_rng(seed)
    spec, u = nonlinear_instance(rng, T)
    return spec, u, rng.uniform(-2, 2, T), rng.uniform(-2, 2, T)


def test_norm_inf_matches_row_sums():
    for T in range(1, 7):
        expected = np.max(np.sum(np.abs(dirichlet_matrix(T)), axis=1))
        assert laplacian(T).norm_inf == expected


@pytest.mark.parametrize("T", SIZES)
def test_shifted_solve_matches_dense(T):
    rng = np.random.default_rng(T)
    shift = rng.uniform(-1, 1, T)
    rhs = rng.standard_normal(T)
    v = laplacian(T).solve_shifted(shift, rhs)
    expected = np.linalg.solve(dirichlet_matrix(T) + np.diag(shift), rhs)
    assert np.allclose(v, expected, rtol=1e-12, atol=1e-12)


def _banded_reference(*args):
    # scipy's general banded solver, or the error it raises
    try:
        return solve_banded(*args, check_finite=False)
    except LinAlgError as exc:
        return exc


@settings(max_examples=60, deadline=None)
@given(T=st.sampled_from((1, 2, 5, 100, 801)), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from((0.0, 0.5, 1.0, 1e3)))
def test_lapack_solves_equal_solve_banded(T, seed, scale):
    rng = np.random.default_rng(seed)
    inputs = scale * rng.standard_normal((5, T))
    shift_x, coupling, shift_y, rhs_x, rhs_y = inputs.copy()
    lap = laplacian(T)
    # the coupled matrix on interleaved unknowns: entry (i, j) in row 2 + i - j
    band = np.zeros((5, 2 * T))
    band[0, 2:] = band[4, :-2] = -1.0
    band[1, 1::2] = coupling
    band[2, 0::2], band[2, 1::2] = 2.0 + shift_x, 2.0 + shift_y
    band[3, 0::2] = -coupling
    rhs = np.empty(2 * T)
    rhs[0::2], rhs[1::2] = rhs_x, rhs_y
    expected = _banded_reference((2, 2), band, rhs)
    try:
        v = np.empty(2 * T)
        v[0::2], v[1::2] = lap.solve_coupled(shift_x, coupling, shift_y, rhs_x, rhs_y)
    except LinAlgError as exc:
        v = exc
    if isinstance(expected, LinAlgError):
        assert isinstance(v, LinAlgError)
    else:
        assert v.tobytes() == expected.tobytes()

    tridiagonal = np.empty((3, T))
    tridiagonal[0] = tridiagonal[2] = -1.0
    tridiagonal[1] = 2.0 + shift_x
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = _banded_reference((1, 1), tridiagonal, rhs_x)
    try:
        v = lap.solve_shifted(shift_x, rhs_x)
    except LinAlgError as exc:
        v = exc
    if isinstance(expected, LinAlgError):
        assert isinstance(v, LinAlgError)
    else:
        assert v.tobytes() == expected.tobytes()
    # the solves work on copies of their inputs
    assert np.array_equal(np.array([shift_x, coupling, shift_y, rhs_x, rhs_y]), inputs)


def _row_solves(lap, blocks):
    # each row alone through the 1-d solve; a row whose solve raises holds nan
    rows = []
    for row in zip(*blocks):
        try:
            rows.append(np.concatenate(lap.solve_coupled(*row)))
        except LinAlgError:
            rows.append(np.full(2 * lap.dimension, np.nan))
    return np.array(rows)


@settings(max_examples=80, deadline=None)
@given(T=st.sampled_from((1, 2, 5, 100, 801)), B=st.integers(1, 17),
       seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from((0.0, 0.5, 1.0, 1e3)),
       zeros=st.booleans(),
       broken=st.sampled_from((None, "singular", "inf", "nan", "nan-and-singular")))
@example(T=1, B=2, seed=3, scale=0.5, zeros=True, broken=None)  # flips a zero's sign with a gap < 4
@example(T=2, B=4, seed=1, scale=0.0, zeros=False, broken=None)  # signed zeros across a dgtsv seam
@example(T=100, B=40, seed=0, scale=1.0, zeros=False, broken="nan-and-singular")
def test_block_solves_equal_row_solves(T, B, seed, scale, zeros, broken):
    if broken == "nan-and-singular":
        B = max(B, 5)  # both broken rows between finite rows
    rng = np.random.default_rng(seed)
    inputs = scale * rng.standard_normal((5, B, T))
    if zeros:
        # integral values, no coupling and signed zeros on the right: the
        # exact zeros a stacked LU would meet from a neighbouring system
        inputs = np.round(inputs)
        inputs[1] = 0.0
        inputs[3:] *= rng.choice((-1.0, 0.0, 1.0), size=(2, B, T))
    bad = int(rng.integers(B))
    if broken == "nan-and-singular":
        bad, nan_row = 1 + rng.permutation(B - 2)[:2]
        # a nan in the shift or the right-hand side of the shifted solve
        inputs[(0, 3)[int(rng.integers(2))], nan_row, int(rng.integers(T))] = np.nan
    if broken in ("singular", "nan-and-singular"):
        # the path-graph Laplacian on x, uncoupled: its last LU pivot is exactly 0
        inputs[0, bad] = 0.0
        inputs[0, bad, 0] -= 1.0
        inputs[0, bad, -1] -= 1.0
        inputs[1, bad] = 0.0
    elif broken is not None:
        value = np.inf if broken == "inf" else np.nan
        inputs[int(rng.integers(5)), bad, int(rng.integers(T))] = value
    given_inputs = inputs.copy()
    lap = laplacian(T)
    with np.errstate(all="ignore"):
        expected = _row_solves(lap, inputs)
        vx, vy = lap.solve_coupled(*inputs)
        # the tridiagonal solve of the x block alone, by the same rule
        shifted = lap.solve_shifted(inputs[0], inputs[3])
        shifted_rows = []
        for shift, rhs in zip(inputs[0], inputs[3]):
            try:
                shifted_rows.append(lap.solve_shifted(shift, rhs))
            except LinAlgError:
                shifted_rows.append(np.full(T, np.nan))
    assert np.concatenate((vx, vy), axis=1).tobytes() == expected.tobytes()
    assert shifted.tobytes() == np.array(shifted_rows).tobytes()
    if broken in ("singular", "nan-and-singular"):
        assert np.isnan(expected[bad]).all()
        assert T == 1 or np.isnan(shifted[bad]).all()
    if broken == "nan-and-singular":
        assert np.isnan(shifted[nan_row]).any()
    assert inputs.tobytes() == given_inputs.tobytes()


def test_lapack_solves_on_singular_matrices():
    # exactly singular: a zero pivot in the LU raises
    with pytest.raises(LinAlgError):
        laplacian(1).solve_coupled([-2.0], [0.0], [1.0], [1.0], [1.0])
    with pytest.raises(LinAlgError):
        laplacian(2).solve_shifted([-1.0, -1.0], [1.0, 2.0])
    with pytest.raises(LinAlgError):
        laplacian(2).solve_coupled([-1.0, -1.0], [0.0, 0.0], [0.0, 0.0], [1.0, 2.0], [0.0, 0.0])
    # for T = 1 the shifted solve is a division: a zero pivot gives inf, not an error
    lap = laplacian(1)
    assert np.isposinf(lap.solve_shifted([-2.0], [1.0])[0])
    assert np.isnan(lap.solve_shifted([-2.0], [0.0])[0])


@pytest.mark.parametrize("T", SIZES)
def test_newton_direction_matches_dense_solve(T):
    # newton's step: the band of jacobian_i solved with -G on the right
    spec, u, xv, yv = random_point(T, 100 + T)
    z = np.concatenate((xv, yv))[None]
    (G,), _ = operator_i(spec, u, z)
    J = [diagonal[0] for diagonal in jacobian_i(spec, u, z)[0]]
    dx, dy = spec.lap.solve_coupled(*J, -G[:T], -G[T:])
    fxx, fxy, fyy = second_partials_i(spec, u, xv, yv)
    L = dirichlet_matrix(T)
    M = np.block([[L + np.diag(fxx), np.diag(fxy)],
                  [-np.diag(fxy), L - np.diag(fyy)]])
    d = np.linalg.solve(M, -G)
    assert np.allclose(np.concatenate((dx, dy)), d, rtol=1e-12, atol=1e-12)
    cond = spec.lap.coupled_condition(*J)
    assert cond == pytest.approx(np.linalg.cond(M, 1), rel=0.5)


@pytest.mark.parametrize("T", SIZES)
@pytest.mark.parametrize("outer", ["y", "x"])
@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_schur_direction_matches_lstsq_formula(T, outer, lam, monkeypatch):
    # nested's outer step, the direction callback its block hands to the
    # outer _damped_newton: the w half solves the reduced Hessian's system and
    # the v half is +0.0
    half = 1 if outer == "y" else 0
    w, v = (slice(T, None), slice(None, T)) if half else (slice(None, T), slice(T, None))
    spec, u, xv, yv = random_point(T, 200 + T)
    z = np.concatenate((xv, yv))[None]
    directions = []
    damped_newton = solvers._damped_newton

    def capture(residual, direction, V, *args):
        if V.shape[1] == 2 * T:  # the outer level; the inner one runs on (B, T) halves
            directions.append(direction)
        return damped_newton(residual, direction, V, *args)

    monkeypatch.setattr(solvers, "_damped_newton", capture)
    solvers.runs(spec, u, z, SolverConfig(method="nested" if outer == "y" else "nested-xfirst",
                                          max_iter=1))
    (direction,) = directions

    def shifted(spec, u, Z):
        # lam shifts the outer diagonal of the Jacobian, which shifts S by lam * I
        J, errors = jacobian_i(spec, u, Z)
        return tuple(d + lam if i == 2 * half else d for i, d in enumerate(J)), errors

    monkeypatch.setattr(solvers, "jacobian_i", shifted)
    (G,), _ = operator_i(spec, u, z)
    D, errors = direction(np.arange(1), z.copy(), G[w][None])
    assert errors == {} and D.shape == z.shape
    assert np.all(D[0, v] == 0) and not np.signbit(D[0, v]).any()
    # reduced Hessian M_ww - M_wv M_vv^{-1} M_vw of the dense Jacobian M of G
    fxx, fxy, fyy = second_partials_i(spec, u, xv, yv)
    L = dirichlet_matrix(T)
    M = np.block([[L + np.diag(fxx), np.diag(fxy)],
                  [-np.diag(fxy), L - np.diag(fyy)]])
    cross = np.linalg.lstsq(M[v, v], M[v, w], rcond=None)[0]
    S = M[w, w] - M[w, v] @ cross
    expected = np.linalg.solve(S + lam * np.eye(T), -G[w])
    assert np.allclose(D[0, w], expected, rtol=1e-11, atol=1e-12)


@pytest.mark.parametrize("T", SIZES)
def test_smallest_shifted_eigenvalue_matches_eigvalsh(T):
    shift = np.random.default_rng(300 + T).uniform(-3, 3, T)
    lam = laplacian(T).smallest_eigenvalue_shifted(shift)
    expected = np.linalg.eigvalsh(dirichlet_matrix(T) + np.diag(shift))[0]
    assert lam == pytest.approx(expected, abs=1e-12)


def _tridiagonal_reference(shift):
    # scipy's tridiagonal eigenvalue by index, or the error it raises
    T = len(shift)
    try:
        return eigvalsh_tridiagonal(2.0 + shift, np.full(T - 1, -1.0), select="i",
                                    select_range=(0, 0))[0]
    except ValueError as exc:
        return exc


@settings(max_examples=80, deadline=None)
@given(T=st.sampled_from((1, 2, 5, 100, 801)), seed=st.integers(0, 2 ** 32 - 1),
       exponent=st.floats(-8.0, 3.0))
def test_smallest_shifted_eigenvalue_equals_eigvalsh_tridiagonal(T, seed, exponent):
    shift = 10.0 ** exponent * np.random.default_rng(seed).standard_normal(T)
    lam = laplacian(T).smallest_eigenvalue_shifted(shift)
    assert isinstance(lam, float)
    assert lam.hex() == float(_tridiagonal_reference(shift)).hex()


@pytest.mark.parametrize("T", SIZES)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_smallest_shifted_eigenvalue_rejects_nonfinite_shifts(T, value):
    shift = np.zeros(T)
    shift[T // 2] = value
    expected = _tridiagonal_reference(shift)
    assert isinstance(expected, ValueError)
    with pytest.raises(ValueError) as info:
        laplacian(T).smallest_eigenvalue_shifted(shift)
    assert str(info.value) == str(expected)


def test_lapack_routines_are_scipys():
    for name in ("dgbsv", "dgtsv", "dgbtrf", "dgbcon", "dstebz"):
        assert getattr(grid.lapack, name) is getattr(lapack, name)


@pytest.mark.parametrize("T", SIZES)
def test_curvature_margins_match_eigvalsh(T):
    # curvature free of the state: one point decides and the margin is the eigenvalue
    spec = ProblemSpec.create(T, 1.0, "1.3*sin(3*k)*x^2 - 1.1*cos(2*k)*y^2")
    u = ParameterFunction.constant(0.0, T, 1.0)
    k = np.arange(1, T + 1)
    L = dirichlet_matrix(T)
    fixed = GridFunction.zeros(T)
    rep = check_convexity_x(spec, u, fixed, box=1.0, density=4)
    assert rep.exact
    expected = np.linalg.eigvalsh(L + np.diag(2.6 * np.sin(3 * k)))[0]
    assert rep.worst_margin == pytest.approx(expected, abs=1e-12)
    rep = check_concavity_y(spec, u, fixed, box=1.0, density=4)
    expected = np.linalg.eigvalsh(L - np.diag(-2.2 * np.cos(2 * k)))[0]
    assert rep.worst_margin == pytest.approx(expected, abs=1e-12)


def test_large_problem_memory_is_linear():
    # a dense Laplacian at T = 10^5 would need 80 GB
    T = 10 ** 5
    tracemalloc.start()
    try:
        spec = ProblemSpec.create(T, 1.0, "x*y")
        u = ParameterFunction.constant(0.5, T, 1.0)
        operator_i(spec, u, np.concatenate((np.full(T, 0.1), np.full(T, -0.2)))[None])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20

