import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlebvp import expressions
from saddlebvp.expressions import (Add, Call, DerivativeError, Div, DomainError, ExprError,
                                   Mul, Neg, Num, Pow, ScalarField, Sub, SyntaxErrorAt,
                                   Var, compile_trees, differentiate, evaluate, parse,
                                   to_string, variables)


def env(k=1.0, x=0.0, y=0.0, u=0.0):
    return {"k": k, "x": x, "y": y, "u": u}


# --- parsing ----------------------------------------------------------------

def test_parse_sum_of_product():
    assert parse("x*y + u") == Add(Mul(Var("x"), Var("y")), Var("u"))


def test_parse_difference_of_powers():
    assert parse("x^2 - y^2") == Sub(Pow(Var("x"), Num(2.0)), Pow(Var("y"), Num(2.0)))


def test_parse_incomplete_input_offset():
    with pytest.raises(SyntaxErrorAt) as err:
        parse("sin(k*x) /")
    assert err.value.offset == 9


def test_parse_unknown_identifier_offset():
    with pytest.raises(SyntaxErrorAt) as err:
        parse("x + foo")
    assert err.value.offset == 4


def test_parse_unknown_character():
    with pytest.raises(SyntaxErrorAt) as err:
        parse("x ? y")
    assert err.value.offset == 2


def test_parse_function_needs_parens():
    with pytest.raises(SyntaxErrorAt):
        parse("sin x")


def test_parse_unbalanced_paren():
    with pytest.raises(SyntaxErrorAt):
        parse("(x + y")


def test_parse_empty():
    with pytest.raises(SyntaxErrorAt):
        parse("   ")


def test_unary_minus_binds_looser_than_power():
    assert parse("-x^2") == Neg(Pow(Var("x"), Num(2.0)))
    assert evaluate(parse("-2^2"), env()) == -4.0


def test_power_right_associative():
    assert evaluate(parse("2^3^2"), env()) == 512.0


def test_negative_literal_folds():
    assert parse("-3.5") == Num(-3.5)
    assert parse("x^-2") == Pow(Var("x"), Num(-2.0))


def test_whitespace_ignored():
    assert parse(" x *\ty\n+ u ") == parse("x*y+u")


# --- evaluation --------------------------------------------------------------

def test_eval_basic():
    assert evaluate(parse("x*y + u"), env(k=1, x=2, y=3, u=-1)) == 5.0


def test_eval_exp_zero():
    assert evaluate(parse("exp(0)"), env()) == 1.0


def test_eval_log_domain_error():
    with pytest.raises(DomainError) as err:
        evaluate(parse("log(x)"), env(x=-1.0))
    assert "log(x)" in str(err.value)


def test_eval_sqrt_domain_error():
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(y - 2)"), env(y=0.0))


def test_eval_division_by_zero():
    with pytest.raises(DomainError):
        evaluate(parse("1/x"), env(x=0.0))


def test_eval_fractional_power_of_negative():
    with pytest.raises(DomainError):
        evaluate(parse("x^0.5"), env(x=-2.0))
    assert evaluate(parse("x^3"), env(x=-2.0)) == -8.0


def test_eval_zero_to_negative_power():
    with pytest.raises(DomainError):
        evaluate(parse("x^-1"), env(x=0.0))


def test_eval_broadcasts_arrays():
    k = np.arange(1.0, 4.0)
    out = evaluate(parse("k*x + u"), {"k": k, "x": 2.0, "y": 0.0, "u": 1.0})
    assert np.array_equal(out, [3.0, 5.0, 7.0])


def test_eval_deterministic():
    ast = parse("sin(k*x)*exp(y) + tanh(u)/3")
    e = env(k=3.0, x=0.37, y=-1.2, u=0.55)
    assert evaluate(ast, e) == evaluate(ast, e)


# --- differentiation ----------------------------------------------------------

def test_diff_power_rule():
    assert differentiate(parse("x^2"), "x") == Mul(Num(2.0), Var("x"))


def test_diff_bilinear():
    assert differentiate(parse("x*y + u"), "x") == Var("y")


def test_diff_only_x_or_y():
    with pytest.raises(DerivativeError):
        differentiate(parse("u*x"), "u")


def test_diff_folding_is_minimal():
    # identity/annihilator folds only: no constant arithmetic like 2*3 -> 6
    d = differentiate(parse("3*x^2"), "x")
    assert "6" not in to_string(d)


def central_fd(ast, var, e, h=None):
    v = e[var]
    if h is None:
        h = 1e-6 * (1.0 + abs(v))
    hi = evaluate(ast, {**e, var: v + h})
    lo = evaluate(ast, {**e, var: v - h})
    return (hi - lo) / (2.0 * h)


def test_diff_sin_product_vs_fd():
    ast = parse("sin(x*y)")
    dy = differentiate(ast, "y")
    rng = np.random.default_rng(7)
    for _ in range(100):
        e = env(k=float(rng.integers(1, 9)), x=rng.uniform(-2, 2),
                y=rng.uniform(-2, 2), u=rng.uniform(-1, 1))
        fd = central_fd(ast, "y", e)
        assert abs(evaluate(dy, e) - fd) <= 1e-6 * (1.0 + abs(fd))


@pytest.mark.parametrize("text", [
    "sin(x)*cos(y)",
    "exp(x*y/4)",
    "log(2.5 + x^2 + y^2)",
    "sqrt(1.2 + x^2)",
    "tanh(x - y)",
    "(1.5 + x^2)^y",
    "y/(2 + x^2)",
    "u*x - k*y + x^3",
    "exp(-x^2)*sin(k*y)",
])
@pytest.mark.parametrize("var", ["x", "y"])
def test_diff_function_set_vs_fd(text, var):
    ast = parse(text)
    d = differentiate(ast, var)
    rng = np.random.default_rng(hash((text, var)) % 2 ** 32)
    for _ in range(100):
        e = env(k=float(rng.integers(1, 6)), x=rng.uniform(-1.5, 1.5),
                y=rng.uniform(-1.5, 1.5), u=rng.uniform(-1, 1))
        fd = central_fd(ast, var, e)
        assert abs(evaluate(d, e) - fd) <= 1e-6 * (1.0 + abs(fd))


def test_second_derivative_symmetry():
    rng = np.random.default_rng(8)
    for text in ("sin(x*y)", "exp(x/2 + y/3)*u", "x^2*y^3", "tanh(x)*log(2 + y^2)"):
        ast = parse(text)
        dxy = differentiate(differentiate(ast, "x"), "y")
        dyx = differentiate(differentiate(ast, "y"), "x")
        for _ in range(25):
            e = env(k=1.0, x=rng.uniform(-1.5, 1.5), y=rng.uniform(-1.5, 1.5),
                    u=rng.uniform(-1, 1))
            assert evaluate(dxy, e) == pytest.approx(evaluate(dyx, e), abs=1e-9)


def test_derivatives_are_redifferentiable():
    ast = parse("exp(x*y) + sqrt(1 + x^2)")
    d1 = differentiate(ast, "x")
    d2 = differentiate(d1, "x")
    e = env(x=0.4, y=-0.3)
    fd = central_fd(d1, "x", e)
    assert abs(evaluate(d2, e) - fd) <= 1e-6 * (1.0 + abs(fd))


# --- abs restrictions ---------------------------------------------------------

def test_abs_evaluates():
    assert evaluate(parse("abs(x)"), env(x=-3.0)) == 3.0


def test_abs_not_differentiable_in_its_variable():
    with pytest.raises(DerivativeError):
        differentiate(parse("abs(x)*y"), "x")


def test_abs_of_parameter_is_constant_for_xy():
    d = differentiate(parse("abs(u)*x"), "x")
    assert d == Call("abs", Var("u"))


def test_scalar_field_rejects_abs_on_state_paths():
    with pytest.raises(DerivativeError):
        ScalarField.from_text("abs(y) + x")
    field = ScalarField.from_text("abs(u)*x - abs(k)*y")
    assert variables(field.fx) == {"u"}


# --- printing / round trip ------------------------------------------------------

def _ast_strategy():
    leaves = st.one_of(
        st.builds(Num, st.floats(allow_nan=False, allow_infinity=False,
                                 min_value=-1e6, max_value=1e6)),
        st.sampled_from([Var("k"), Var("x"), Var("y"), Var("u"), Num(0.0), Num(-0.0)]),
        # Integral and special constants, so that the powers the compiler
        # leaves unguarded come up often; 1e999 is infinity.
        st.sampled_from([Num(c) for c in (1.0, 2.0, 3.0, 4.0, -1.0, -2.0, 0.5, 1e999)]),
    )

    def extend(children):
        def neg(a):
            return Num(-a.value) if isinstance(a, Num) else Neg(a)
        return st.one_of(
            st.builds(lambda a, b: Add(a, b), children, children),
            st.builds(lambda a, b: Sub(a, b), children, children),
            st.builds(lambda a, b: Mul(a, b), children, children),
            st.builds(lambda a, b: Div(a, b), children, children),
            st.builds(lambda a, b: Pow(a, b), children, children),
            st.builds(neg, children),
            st.builds(lambda f, a: Call(f, a), st.sampled_from(
                ["sin", "cos", "exp", "log", "sqrt", "abs", "tanh"]), children),
        )
    return st.recursive(leaves, extend, max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(_ast_strategy())
def test_parse_print_round_trip(ast):
    assert parse(to_string(ast)) == ast


def test_round_trip_spot_checks():
    for text in ("x*y + u", "-x^2", "x^-2", "(x + y)*(x - y)", "x - (y - u)",
                 "sin(k*x)/cos(y)", "2^3^2", "x/(y*u)", "-(x + y)^2", "x^1e999 - -1e999"):
        ast = parse(text)
        assert parse(to_string(ast)) == ast


# --- compiled kernels -------------------------------------------------------------

def _outcome(fn):
    """``("ok", shape, value bits)`` or ``("raised", class, message)`` for one evaluation."""
    with np.errstate(all="ignore"):
        try:
            value = np.asarray(fn(), dtype=float)
        except Exception as exc:
            return ("raised", type(exc), str(exc))
    return ("ok", value.shape, value.tobytes())


_SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e-300, 700.0])


def _env_values(seed, shapes):
    # Random values mixed with zeros of both signs, integers and halves, so
    # that the domain guards and signed-zero results are exercised.
    rng = np.random.default_rng(seed)
    env = {}
    for name, shape in zip("kxyu", shapes):
        values = np.where(rng.random(shape) < 0.5, rng.normal(scale=3.0, size=shape),
                          rng.choice(_SPECIAL, size=shape))
        env[name] = float(values) if shape == () else values
    return env


@settings(max_examples=300, deadline=None)
@given(st.lists(_ast_strategy(), min_size=1, max_size=3), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["scalar", "nodes", "samples", "growth"]))
def test_compiled_kernel_matches_interpreter(trees, seed, layout):
    # Signed-zero partners of the first tree: merging the two constants
    # would give both results the same sign.
    trees = (*trees, Mul(trees[0], Num(0.0)), Mul(trees[0], Num(-0.0)))
    shapes = {"scalar": [()] * 4, "nodes": [(5,)] * 4,
              "samples": [(5,), (3, 1), (5,), (3, 1)],
              "growth": [(2, 1, 1, 1), (1, 3, 1, 1), (1, 1, 1, 4), (1, 1, 2, 1)]}[layout]
    env = _env_values(seed, shapes)

    def filled(tree):
        # The interpreter's value in the shape the kernels promise.
        value = evaluate(tree, env)
        return np.broadcast_to(value, np.broadcast(env["x"], env["y"], value).shape)

    expected = []
    for tree in trees:
        expected.append(_outcome(lambda: filled(tree)))
        if expected[-1][0] == "raised":
            break
    kernel = compile_trees(trees)
    if expected[-1][0] == "raised":
        # The trees run in order, so the kernel raises where the first
        # rejected tree does, with the same class and message.
        assert _outcome(lambda: kernel(**env)) == expected[-1]
    else:
        with np.errstate(all="ignore"):
            values = kernel(**env)
        assert [_outcome(lambda: v) for v in values] == expected


def test_compiled_kernel_keeps_signed_zeros_apart():
    x = Var("x")
    kernel = compile_trees((Mul(x, Num(0.0)), Mul(x, Num(-0.0)), Add(Num(-0.0), Num(-0.0))))
    pos, neg, zero_sum = kernel(1.0, 2.0, 3.0, 4.0)
    assert (np.signbit(pos), np.signbit(neg), np.signbit(zero_sum)) == (False, True, True)


def test_compiled_kernel_computes_each_shared_subtree_once():
    class CountingFloat(float):
        adds = 0

        def __add__(self, other):
            CountingFloat.adds += 1
            return float(self) + other

    tree = parse("log(x + 1.5)/(x + 1.5) + log(x + 1.5)")
    kernel = compile_trees((tree, parse("log(x + 1.5)")))
    x = CountingFloat(0.5)
    value, log_value = kernel(0.0, x, 0.0, 0.0)
    assert CountingFloat.adds == 1
    assert value == evaluate(tree, {"k": 0.0, "x": x, "y": 0.0, "u": 0.0})
    assert CountingFloat.adds == 4 and log_value == np.log(2.0)
    with pytest.raises(DomainError, match=r"log of nonpositive value in 'log\(x \+ 1.5\)'"):
        kernel(0.0, np.array([0.5, -2.0]), 0.0, 0.0)


def test_compiled_kernel_leaves_out_only_guards_that_cannot_fire(monkeypatch):
    calls = []

    def counting(guard):
        def wrapped(*args):
            calls.append(guard.__name__)
            return guard(*args)
        return wrapped

    monkeypatch.setattr(expressions, "_pow", counting(expressions._pow))
    monkeypatch.setattr(expressions, "_div", counting(expressions._div))
    x = np.array([-2.0, 0.0, 3.0])
    for text, guards in [("x^2", []), ("x^0 + x^-0", []), ("x^y", ["_pow"]), ("x^-1", ["_pow"]),
                         ("x^0.5", ["_pow"]), ("x^1e999", ["_pow"]), ("x/y", ["_div"]),
                         ("x/0", ["_div"])]:
        calls.clear()
        with np.errstate(all="ignore"):
            outcome = _outcome(lambda: compile_trees((parse(text),))(1.0, x, 2.0, 0.0)[0])
        assert calls == guards, text
        assert outcome == _outcome(lambda: evaluate(parse(text), env(x=x, y=2.0))), text
    for point in (0.0, 1.0, -1.0, x):
        with pytest.raises(DomainError, match="division by zero"):
            compile_trees((parse("x/0"),))(1.0, point, 0.0, 0.0)


def test_compiled_kernel_rejects_names_outside_the_grammar():
    with pytest.raises(ExprError):
        compile_trees((Var("z"),))
    with pytest.raises(ExprError):
        compile_trees((Call("exec", Var("x")),))


def test_scalar_field_kernels_ignored_by_equality_and_rebuilt_by_pickle():
    a, b = ScalarField.from_text("x*y + exp(x)"), ScalarField.from_text("x*y + exp(x)")
    assert a.gradient_kernel is not b.gradient_kernel
    assert a == b and hash(a) == hash(b)
    c = pickle.loads(pickle.dumps(a))
    assert c == a and c.gradient_kernel(1.0, 0.5, 2.0, 0.0) == a.gradient_kernel(1.0, 0.5, 2.0, 0.0)
