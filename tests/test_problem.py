import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import central_fd_gradient, dirichlet_matrix, quadratic_instance
from saddlebvp import (GridFunction, ParameterFunction, ProblemSpec, action, expressions, grad,
                       load_problem, residual)
from saddlebvp.expressions import (Call, DomainError, Neg, Num, Pow, ScalarField, Var,
                                   evaluate, parse)
from saddlebvp.grid import squared_norm
from saddlebvp.problem import (ProblemError, action_i, integrand_sum_i, jacobian_i,
                               make_candidates_i, operator_i, parameter_values, problem_from_dict,
                               read_json, real_numbers, residual_from_grad, second_partials_i)


class _Count(int):
    """An int subclass: a real number that is neither a plain int nor a bool."""


@pytest.mark.parametrize("value, verdict", [
    (1, True), (2.5, True), (float("nan"), True), (True, False), ("1", False), (None, False),
    ([], True), ([0, 1, -2], True), ([0.0, 1, float("inf")], True), ([_Count(3), 1.0], True),
    ([1, True], False), ([False], False), ([1.0, "2"], False), (["a"], False),
    ([1, None], False), ([None], False), ([1.0, {}], False), ([1, (2,)], False),
    ([[1, 2.0], [3]], True), ([[1], 2], True), ([[]], True), ([[1, True]], False),
    ([[1, "x"]], False), ([[None]], False),
    (np.float64(1.5), True), (np.int32(3), True), (np.bool_(True), False),
    ([np.float64(1.5), 2], True), ([np.int64(2), np.float32(0.5)], True),
    ([1, np.bool_(False)], False), ([np.str_("1")], False),
    (np.array([1.0, 2.0]), True), (np.array([1, 2]), True), (np.array([[1.0]]), True),
    (np.array([True]), False), (np.array(["1"]), False), (np.array([1.0], dtype=object), False),
    (np.array(2.0), True), ([np.array([1.0, 2.0]), 3], True), ([np.array([True])], False),
])
def test_real_numbers_verdicts(value, verdict):
    # flat lists of plain ints and floats take a fast path; every other value
    # (bools, strings, None, nested lists, numpy scalars and arrays) is
    # judged element by element, with the same verdict as before
    assert real_numbers(value) is verdict


def hessian_blocks(spec, u, x, y):
    """Dense blocks ``(L + diag(F_xx), diag(F_xy), -L + diag(F_yy))`` of the action's Hessian."""
    fxx, fxy, fyy = second_partials_i(spec, u, x.interior, y.interior)
    L = dirichlet_matrix(spec.T)
    return L + np.diag(fxx), np.diag(fxy), -L + np.diag(fyy)


def closed_form_instance():
    spec = ProblemSpec.create(1, 2.0, "x*y + x - y")
    u = ParameterFunction.constant(0.3, 1, 2.0)  # F ignores u here
    x = GridFunction.from_interior([-0.2])
    y = GridFunction.from_interior([-0.6])
    return spec, u, x, y


# --- parameter box -----------------------------------------------------------

def test_parameter_box_enforced():
    ParameterFunction(np.array([1.0, -1.0]), 1.0)
    with pytest.raises(ProblemError):
        ParameterFunction(np.array([1.0, -1.0000001]), 1.0)


def test_parameter_from_expression():
    def from_expression(text):
        return ParameterFunction(parameter_values(text, 5, "u"), 1.0)

    u = from_expression("sin(3.141592653589793*k/6)")
    assert u.values == pytest.approx(np.sin(np.pi * np.arange(1, 6) / 6), abs=1e-12)
    with pytest.raises(ProblemError):
        from_expression("x + k")
    with pytest.raises(ProblemError):
        from_expression("2*k")  # exits the box


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_input_numbers_must_be_finite(bad):
    with pytest.raises(ProblemError, match="D must be positive and finite"):
        ProblemSpec.create(2, bad, "x*y")
    with pytest.raises(ProblemError, match="bound must be positive and finite"):
        ParameterFunction(np.zeros(2), bad)
    with pytest.raises(ProblemError, match="values must be finite"):
        ParameterFunction(np.array([0.5, bad]), 1.0)


def test_parameter_constant():
    u = ParameterFunction.constant(-0.5, 4, 1.0)
    assert np.array_equal(u.values, np.full(4, -0.5))
    assert u.T == 4


# --- action -------------------------------------------------------------------

def test_action_zero_field():
    spec = ProblemSpec.create(3, 1.0, "0*x")
    u = ParameterFunction.constant(0.0, 3, 1.0)
    z = GridFunction.zeros(3)
    assert action(spec, u, z, z) == 0.0


def test_action_closed_form_saddle_value():
    spec, u, x, y = closed_form_instance()
    assert action(spec, u, x, y) == pytest.approx(0.2, abs=1e-12)


def test_action_linear_parameter_field():
    spec = ProblemSpec.create(2, 1.0, "u*x")
    u = ParameterFunction.constant(1.0, 2, 1.0)
    x = GridFunction(np.array([0.0, 1.0, 1.0, 0.0]))
    y = GridFunction.zeros(2)
    assert action(spec, u, x, y) == pytest.approx(3.0, abs=1e-14)


def test_action_dimension_mismatch():
    spec = ProblemSpec.create(3, 1.0, "x*y")
    u = ParameterFunction.constant(0.0, 3, 1.0)
    with pytest.raises(ProblemError):
        action(spec, u, GridFunction.zeros(2), GridFunction.zeros(3))


def test_action_antisymmetry_under_swap():
    # with F'(k,x,y,u) = -F(k,y,x,u), swapping the pair negates the value
    def swap_negate(node):
        if isinstance(node, Var):
            return Var({"x": "y", "y": "x"}.get(node.name, node.name))
        if isinstance(node, Num):
            return node
        if isinstance(node, Neg):
            return Neg(swap_negate(node.arg))
        if isinstance(node, Call):
            return Call(node.func, swap_negate(node.arg))
        if isinstance(node, Pow):
            return Pow(swap_negate(node.base), swap_negate(node.exponent))
        return type(node)(swap_negate(node.left), swap_negate(node.right))

    from saddlebvp.expressions import ScalarField, parse
    rng = np.random.default_rng(9)
    text = "x^2*y - sin(y) + u*x + k*y/3"
    spec = ProblemSpec.create(4, 1.0, text)
    swapped = ProblemSpec.create(4, 1.0, ScalarField.from_ast(Neg(swap_negate(parse(text)))))
    u = ParameterFunction(rng.uniform(-1, 1, 4), 1.0)
    for _ in range(20):
        x = GridFunction.from_interior(rng.standard_normal(4))
        y = GridFunction.from_interior(rng.standard_normal(4))
        assert action(swapped, u, y, x) == pytest.approx(-action(spec, u, x, y), abs=1e-12)


# --- gradient -----------------------------------------------------------------

def test_grad_zero_field_at_origin():
    spec = ProblemSpec.create(3, 1.0, "0*x")
    u = ParameterFunction.constant(0.0, 3, 1.0)
    z = GridFunction.zeros(3)
    gx, gy = grad(spec, u, z, z)
    assert np.array_equal(gx, np.zeros(3))
    assert np.array_equal(gy, np.zeros(3))


def test_grad_vanishes_at_closed_form_saddle():
    spec, u, x, y = closed_form_instance()
    gx, gy = grad(spec, u, x, y)
    assert gx == pytest.approx([0.0], abs=1e-14)
    assert gy == pytest.approx([0.0], abs=1e-14)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(10)
    fields = ["x*y + x - y", "x^2 - y^2 + u*(x - y)", "sin(x)*cos(y) + u*x",
              "exp(x/3 - y/3) + k*x/10", "tanh(x*y) + u*y"]
    for trial in range(30):
        T = int(rng.integers(1, 21))
        spec = ProblemSpec.create(T, 1.0, fields[trial % len(fields)])
        u = ParameterFunction(rng.uniform(-1, 1, T), 1.0)
        x = GridFunction.from_interior(rng.uniform(-1.5, 1.5, T))
        y = GridFunction.from_interior(rng.uniform(-1.5, 1.5, T))
        gx, gy = grad(spec, u, x, y)
        fx, fy = central_fd_gradient(spec, u, x, y)
        assert np.all(np.abs(gx - fx) <= 1e-6 * (1 + np.abs(fx)))
        assert np.all(np.abs(gy - fy) <= 1e-6 * (1 + np.abs(fy)))


# --- residual -----------------------------------------------------------------

def test_residual_zero_cases():
    spec = ProblemSpec.create(3, 1.0, "0*x")
    u = ParameterFunction.constant(0.0, 3, 1.0)
    z = GridFunction.zeros(3)
    assert residual(spec, u, z, z) == 0.0


def test_residual_closed_form_saddle():
    spec, u, x, y = closed_form_instance()
    assert residual(spec, u, x, y) <= 1e-12


def test_residual_direct_substitution():
    spec = ProblemSpec.create(1, 1.0, "x*y")
    u = ParameterFunction.constant(0.0, 1, 1.0)
    x = GridFunction.from_interior([1.0])
    y = GridFunction.from_interior([0.0])
    # max(|-2 - 0|, |0 + 1|) = 2
    assert residual(spec, u, x, y) == 2.0


def test_residual_equals_gradient_max_norm():
    # the defect components are -(grad_x) and +(grad_y) entrywise
    rng = np.random.default_rng(11)
    spec = ProblemSpec.create(6, 1.0, "x^2 - y^2 + sin(x*y) + u*x")
    u = ParameterFunction(rng.uniform(-1, 1, 6), 1.0)
    for _ in range(20):
        x = GridFunction.from_interior(rng.standard_normal(6))
        y = GridFunction.from_interior(rng.standard_normal(6))
        gx, gy = grad(spec, u, x, y)
        expected = max(np.max(np.abs(gx)), np.max(np.abs(gy)))
        assert residual(spec, u, x, y) == pytest.approx(expected, rel=1e-15)


# --- hessian blocks -------------------------------------------------------------

def test_hessian_blocks_zero_field():
    spec = ProblemSpec.create(3, 1.0, "0*x")
    u = ParameterFunction.constant(0.0, 3, 1.0)
    z = GridFunction.zeros(3)
    Axx, Axy, Ayy = hessian_blocks(spec, u, z, z)
    L = dirichlet_matrix(3)
    assert np.array_equal(Axx, L)
    assert np.array_equal(Axy, np.zeros((3, 3)))
    assert np.array_equal(Ayy, -L)


def test_hessian_blocks_bilinear_t1():
    spec = ProblemSpec.create(1, 1.0, "x*y")
    u = ParameterFunction.constant(0.0, 1, 1.0)
    z = GridFunction.zeros(1)
    Axx, Axy, Ayy = hessian_blocks(spec, u, z, z)
    assert np.array_equal(Axx, [[2.0]])
    assert np.array_equal(Axy, [[1.0]])
    assert np.array_equal(Ayy, [[-2.0]])


def test_hessian_blocks_match_directional_second_differences():
    rng = np.random.default_rng(12)
    spec = ProblemSpec.create(5, 1.0, "exp(x/2)*y + sin(x) - y^2 + u*x*y")
    u = ParameterFunction(rng.uniform(-1, 1, 5), 1.0)
    x = GridFunction.from_interior(rng.uniform(-1, 1, 5))
    y = GridFunction.from_interior(rng.uniform(-1, 1, 5))
    Axx, Axy, Ayy = hessian_blocks(spec, u, x, y)
    h = 1e-4
    for _ in range(10):
        v = rng.standard_normal(5)
        w = rng.standard_normal(5)

        def val(t):
            return action(spec, u, GridFunction.from_interior(x.interior + t * v),
                          GridFunction.from_interior(y.interior + t * w))

        second_fd = (val(h) - 2.0 * val(0.0) + val(-h)) / h ** 2
        quad = v @ Axx @ v + 2.0 * v @ Axy @ w + w @ Ayy @ w
        assert second_fd == pytest.approx(quad, abs=1e-5 * (1 + abs(quad)))


# --- kernels ----------------------------------------------------------------------

def test_each_quantity_keeps_its_own_domain():
    # F_x = 2x + 1/(x + 1.5) is defined at x = -2, where log(x + 1.5) is not.
    spec = ProblemSpec.create(3, 1.0, "x^2 - y^2 + log(x + 1.5)")
    u = ParameterFunction.constant(0.0, 3, 1.0)
    xv, yv = np.full(3, -2.0), np.array([0.5, 0.0, -0.5])
    gx, gy = grad(spec, u, GridFunction.from_interior(xv), GridFunction.from_interior(yv))
    env = {"k": spec.nodes(), "x": xv, "y": yv, "u": u.values}
    assert np.isfinite(gx).all() and np.isfinite(gy).all()
    assert gx.tobytes() == (spec.lap.apply(xv) + evaluate(spec.field.fx, env)).tobytes()
    assert gy.tobytes() == (-spec.lap.apply(yv) + evaluate(spec.field.fy, env)).tobytes()
    with pytest.raises(DomainError, match="log of nonpositive value"):
        action_i(spec, u, xv, yv)


def test_field_results_never_write_through_to_inputs():
    # Partials that are bare variables come back as the kernel's own arguments.
    field = ScalarField(f=parse("x*y"), fx=Var("y"), fy=Var("x"), fxx=Var("k"),
                        fxy=Var("x"), fyy=Var("y"), source="x*y")
    specs = [ProblemSpec(T=4, D=1.0, field=field),
             ProblemSpec.create(4, 1.0, "x*y")]
    u = ParameterFunction.constant(0.5, 4, 1.0)
    for spec in specs:
        assert spec.nodes() is spec.nodes() and not spec.nodes().flags.writeable
        xv, yv = np.array([1.0, -2.0, 3.0, 0.5]), np.array([0.25, 4.0, -1.0, 2.0])
        Z = np.concatenate((xv, yv))[None]
        before = (xv.copy(), yv.copy(), Z.copy(), spec.nodes().copy())
        for out in (operator_i(spec, u, Z)[0], *jacobian_i(spec, u, Z)[0],
                    *second_partials_i(spec, u, xv, yv)):
            out[:] = 99.0
        assert all(np.array_equal(a, b) for a, b in zip((xv, yv, Z, spec.nodes()), before))


# Integrands whose kernels return full arrays, scalars (F constant in x, or
# bare x), arrays in k and u alone (F_x = k*u, F_xx = 2*k) and the operand
# itself (F_x = y).
BLOCK_FIELDS = (
    "x*y + exp(0.35*x) - exp(0.35*y) + u*(x - y)",
    "0.4*x^2 - 0.4*y^2 + 0.2*x*y + 0.25*sin(x) + 0.25*cos(y) + u*(x - y)",
    "log(x^2 + 1) - sqrt(y^2 + 2) + tanh(x*y) + x/(1 + y^2) + (x^2 + 1)^1.5 + abs(u)*x^3",
    "k*u - y^2",
    "x",
    "k*u*x - y^4",
    "k*x^2 - x*y",
)


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


@settings(max_examples=60, deadline=None)
@given(T=st.sampled_from([1, 2, 5, 100, 801]), B=st.integers(1, 6),
       source=st.sampled_from(BLOCK_FIELDS), seed=st.integers(0, 2 ** 32 - 1))
def test_block_rows_equal_one_row_calls(T, B, source, seed):
    rng = np.random.default_rng(seed)
    spec = ProblemSpec.create(T, 1.0, source)
    u = ParameterFunction(rng.uniform(-1.0, 1.0, T), 1.0)
    scale = 10.0 ** rng.integers(-3, 2, size=(B, 1))
    X, Y = scale * rng.standard_normal((B, T)), scale * rng.standard_normal((B, T))
    Z = np.concatenate((X, Y), axis=1)
    block = (spec.lap.apply(X), *np.split(operator_i(spec, u, Z)[0], 2, axis=1),
             action_i(spec, u, X, Y), integrand_sum_i(spec, u, X, Y),
             *second_partials_i(spec, u, X, Y))
    for i in range(B):
        xv, yv = X[i].copy(), Y[i].copy()
        gx, gy = grad(spec, u, GridFunction.from_interior(xv), GridFunction.from_interior(yv))
        alone = (spec.lap.apply(xv), gx, -gy, action_i(spec, u, xv, yv),
                 integrand_sum_i(spec, u, xv, yv), *second_partials_i(spec, u, xv, yv))
        assert [_bits(b[i]) for b in block] == [_bits(a) for a in alone]
        # row norms keep the summation order of the 1-d product
        assert _bits(squared_norm(X)[i]) == _bits(squared_norm(xv)) == _bits(xv @ xv)
    assert isinstance(alone[3], float) and isinstance(alone[4], float)


def _layouts(rng, T=5):
    """Points ``(k, x, y, u)`` in the layouts the library evaluates fields in."""
    nodes = np.arange(1.0, T + 1)
    column = np.linspace(-2.0, 2.0, 7)[:, None]
    return {
        "solver 1-d": (nodes, rng.standard_normal(T), rng.standard_normal(T), rng.uniform(-1, 1, T)),
        "solver block": (nodes, rng.standard_normal((3, T)), rng.standard_normal((3, T)),
                         rng.uniform(-1, 1, T)),
        "curvature x": (nodes, column, rng.standard_normal(T), rng.uniform(-1, 1, T)),
        "curvature y": (nodes, rng.standard_normal(T), column, rng.uniform(-1, 1, T)),
        "growth": (nodes[:, None, None, None], np.linspace(-2.0, 2.0, 6)[None, :, None, None],
                   np.linspace(-2.0, 2.0, 5)[None, None, None, :],
                   np.linspace(-1.0, 1.0, 4)[None, None, :, None]),
    }


@pytest.mark.parametrize("source", BLOCK_FIELDS)
def test_field_kernels_return_values_in_the_shape_of_their_points(source):
    field = ScalarField.from_text(source)
    kernels = ((field.value_kernel, (field.f,)), (field.gradient_kernel, (field.fx, field.fy)),
               (field.hessian_kernel, (field.fxx, field.fxy, field.fyy)))
    for layout, points in _layouts(np.random.default_rng(7)).items():
        k, x, y, u = points
        env = dict(zip("kxyu", points))
        for kernel, trees in kernels:
            for tree, out in zip(trees, kernel(*points)):
                value = evaluate(tree, env)
                shape = np.broadcast(x, y, value).shape
                assert type(out) is np.ndarray and out.dtype == np.float64, (layout, tree)
                assert out.shape == shape, (layout, tree)
                assert not any(np.shares_memory(out, a) for a in points), (layout, tree)


@pytest.mark.parametrize("source", BLOCK_FIELDS[:2])
def test_solver_kernels_of_the_workload_integrands_do_no_shape_work(source, monkeypatch):
    # The eg-stiff and study integrands: f, F_x and F_y use both x and y, so
    # their kernels return the operations' own arrays; F_xx, F_xy and F_yy do not.
    calls = []

    def counting(value, *args):
        calls.append(value)
        return fill(value, *args)

    fill = expressions._fill
    monkeypatch.setattr(expressions, "_fill", counting)
    spec = ProblemSpec.create(7, 1.0, source)
    u = ParameterFunction(np.linspace(-0.5, 0.5, 7), 1.0)
    X, Y = np.random.default_rng(3).standard_normal((2, 4, 7))
    operator_i(spec, u, np.concatenate((X, Y), axis=1))
    integrand_sum_i(spec, u, X, Y)
    assert calls == []
    second_partials_i(spec, u, X, Y)
    assert len(calls) == 3


# Stacked rows z = (x, y) with zeros of both signs, and at T = 3 a row
# outside the domain of sqrt(x + 2) and of its derivatives.
STACKED_CASES = [
    (1, "x*y + u*(x - y)", [[0.0, -0.0], [-0.0, 0.0], [0.5, -1.25]]),
    (1, "x^2 - y^2 + sqrt(x + 2)", [[-3.0, 0.0], [0.0, -0.0], [1.0, 2.0]]),
    (3, "x^2 - y^2 + sqrt(x + 2)",
     [[0.0, -0.0, 1.0, -0.0, 0.0, 0.5], [-3.0, 0.0, 0.0, 0.0, 0.0, 0.0],
      [-0.0, -0.0, -0.0, -0.0, -0.0, -0.0], [0.25, -1.0, 1.5, 2.0, -0.5, 0.0]]),
    (3, "0.4*x^2 - 0.4*y^2 + 0.2*x*y + 0.25*sin(x) + 0.25*cos(y) + u*(x - y)",
     [[0.0, -0.0, 0.0, -0.0, 0.0, -0.0], [1.0, -2.0, 0.5, 0.25, 3.0, -1.0]]),
]


def _stacked_case(T, source, rows):
    spec = ProblemSpec.create(T, 1.0, source)
    u = ParameterFunction(np.linspace(-0.5, 0.5, T), 1.0)
    return spec, u, np.array(rows)


def _row_alone(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return exc


@pytest.mark.parametrize("T, source, rows", STACKED_CASES)
def test_operator_i_halves_are_grad_with_the_y_half_negated(T, source, rows):
    # (g_x, -g_y) of the public grad at each row alone, bit for bit, zeros
    # keeping their signs; a row outside the domain holds nan and its own error
    spec, u, Z = _stacked_case(T, source, rows)
    G, errors = operator_i(spec, u, Z)
    assert G.shape == Z.shape
    for i, z in enumerate(Z):
        alone = _row_alone(grad, spec, u, GridFunction.from_interior(z[:T]),
                           GridFunction.from_interior(z[T:]))
        if isinstance(alone, DomainError):
            assert str(errors[i]) == str(alone) and np.isnan(G[i]).all()
            continue
        assert i not in errors
        assert _bits(G[i]) == _bits(np.concatenate((alone[0], -alone[1])))
    assert len(errors) == sum(z[0] < -2.0 for z in Z)


@pytest.mark.parametrize("T, source, rows", STACKED_CASES)
def test_jacobian_i_is_the_band_of_the_operator(T, source, rows):
    # (F_xx, F_xy, -F_yy) of second_partials_i at each row alone, bit for bit
    spec, u, Z = _stacked_case(T, source, rows)
    J, errors = jacobian_i(spec, u, Z)
    for i, z in enumerate(Z):
        alone = _row_alone(second_partials_i, spec, u, z[:T], z[T:])
        if isinstance(alone, DomainError):
            assert str(errors[i]) == str(alone) and all(np.isnan(d[i]).all() for d in J)
            continue
        assert i not in errors
        fxx, fxy, fyy = alone
        assert [_bits(d[i]) for d in J] == [_bits(fxx), _bits(fxy), _bits(-fyy)]
    assert len(errors) == sum(z[0] < -2.0 for z in Z)


def test_make_candidates_i_takes_the_gradient_error_first():
    # at x = -1.5 both the gradient (1/(x + 1.5)) and the action (log) raise:
    # the gradient's error wins; at x = -1.6 only the action raises
    spec = ProblemSpec.create(1, 1.0, "x^2 - y^2 + log(x + 1.5)")
    u = ParameterFunction.constant(0.0, 1, 1.0)
    Z = np.array([[0.2, 0.1], [-1.5, 0.0], [-1.6, 0.3]])
    ok, both, action_only = make_candidates_i(spec, u, Z, "newton", [1, 2, 3], [True] * 3,
                                              [None] * 3)
    assert ok.value == action(spec, u, ok.x, ok.y)
    assert isinstance(both, DomainError) and str(both).startswith("division by zero")
    assert isinstance(action_only, DomainError)
    assert str(action_only).startswith("log of nonpositive value")


def test_residual_from_grad_rows_keep_the_one_point_nan_rule():
    # max(nan, a) is nan but max(a, nan) is a: a nan in gy alone is not reported
    gx = np.array([[1.0, np.nan], [1.0, -3.0], [2.0, 0.5]])
    gy = np.array([[0.5, 0.25], [np.nan, 2.0], [-4.0, 1.0]])
    rows = residual_from_grad(gx, gy)
    assert [_bits(r) for r in rows] == [_bits(residual_from_grad(a, b)) for a, b in zip(gx, gy)]
    assert np.isnan(rows[0]) and rows.tolist()[1:] == [3.0, 4.0]


# --- candidates ------------------------------------------------------------------

def test_make_candidates_i_recomputes_value():
    spec, u, x, y = closed_form_instance()
    (cand,) = make_candidates_i(spec, u, np.concatenate((x.interior, y.interior))[None], "test",
                                [3], [True], [None])
    assert cand.value == pytest.approx(action(spec, u, x, y), rel=1e-10)
    assert cand.residual_norm == residual(spec, u, x, y)
    assert cand.method == "test" and cand.iterations == 3 and cand.converged


# --- problem files ----------------------------------------------------------------

def test_load_problem_roundtrip(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"T": 2, "D": 1.5, "F": "x*y + u*x",
                                "u": [0.5, -1.0]}))
    spec, u = load_problem(path)
    assert spec.T == 2 and spec.D == 1.5
    assert np.array_equal(u.values, [0.5, -1.0])


def test_load_problem_u_expression(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"T": 3, "D": 2.0, "F": "u*x", "u": "k/2"}))
    _, u = load_problem(path)
    assert np.array_equal(u.values, [0.5, 1.0, 1.5])


def test_load_problem_validates_box(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"T": 2, "D": 1.0, "F": "u*x", "u": [0.0, 1.5]}))
    with pytest.raises(ProblemError):
        load_problem(path)


def test_problem_from_dict_errors():
    with pytest.raises(ProblemError):
        problem_from_dict({"T": 2, "D": 1.0, "F": "x"})
    with pytest.raises(ProblemError):
        problem_from_dict({"T": 0, "D": 1.0, "F": "x", "u": []})
    with pytest.raises(ProblemError):
        problem_from_dict({"T": 2, "D": 1.0, "F": "x", "u": [0.0, 0.0, 0.0]})


def test_parameter_values_checks_length_and_names_the_input():
    assert np.array_equal(parameter_values("k/2", 3, "u"), [0.5, 1.0, 1.5])
    assert np.array_equal(parameter_values([1, 2, 3], 3, "u"), [1.0, 2.0, 3.0])
    with pytest.raises(ProblemError, match="u0 must have length T=5"):
        parameter_values([0.1, 0.2], 5, "u0")
    with pytest.raises(ProblemError, match="direction may only use k"):
        parameter_values("x + k", 5, "direction")


def test_read_json_wants_an_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ProblemError, match="must contain a JSON object"):
        read_json(path)
    path.write_text('{"D": NaN}')
    assert np.isnan(read_json(path)["D"])  # the types reject it, not the reader


def test_load_problem_bad_json(tmp_path):
    path = tmp_path / "p.json"
    path.write_text("{not json")
    with pytest.raises(ProblemError):
        load_problem(path)


def test_quadratic_instance_generator_is_certifiable():
    # the conftest generator must produce convex-concave fields
    rng = np.random.default_rng(13)
    for _ in range(5):
        spec, u, coeffs = quadratic_instance(rng, 4)
        Axx, _, Ayy = hessian_blocks(spec, u, GridFunction.zeros(4), GridFunction.zeros(4))
        assert np.min(np.linalg.eigvalsh(Axx)) > 0
        assert np.max(np.linalg.eigvalsh(Ayy)) < 0
