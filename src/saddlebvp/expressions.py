"""Minimal expression language for integrands ``F(k, x, y, u)``.

Supports the four variables ``k, x, y, u``, arithmetic ``+ - * / ^``
(``^`` right-associative), unary minus, and the functions
``sin cos exp log sqrt abs tanh``.  Expressions are parsed into immutable
ASTs that can be evaluated (scalars or numpy arrays), differentiated
symbolically with respect to ``x`` or ``y``, and compiled into numpy
kernels that share common subexpressions and reproduce the evaluator bit
for bit.
"""

import math
import re
import struct
from dataclasses import dataclass, field

import numpy as np

VARIABLES = ("k", "x", "y", "u")
FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs", "tanh")


class ExprError(ValueError):
    pass


class SyntaxErrorAt(ExprError):
    """Parse failure; ``offset`` is the byte position in the source text."""

    def __init__(self, message, offset):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class DomainError(ExprError):
    """Evaluation left the domain of a subexpression (log, sqrt, /, ^)."""

    def __init__(self, message, node):
        super().__init__(f"{message} in '{to_string(node)}'")
        self.node = node


class DerivativeError(ExprError):
    pass


# --- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Div:
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: object


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


# --- parser ----------------------------------------------------------------

_NUMBER = re.compile(r"\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.items = []  # (kind, value, offset)
        pos = 0
        n = len(text)
        while pos < n:
            if text[pos].isspace():
                pos += 1
                continue
            m = _NUMBER.match(text, pos)
            if m:
                self.items.append(("num", float(m.group(0)), pos))
                pos = m.end()
                continue
            m = _IDENT.match(text, pos)
            if m:
                self.items.append(("name", m.group(0), pos))
                pos = m.end()
                continue
            if text[pos] in "()+-*/^":
                self.items.append((text[pos], text[pos], pos))
                pos += 1
                continue
            raise SyntaxErrorAt(f"unexpected character {text[pos]!r}", pos)
        self.items.append(("end", None, n))
        self.i = 0

    def peek(self):
        return self.items[self.i]

    def next(self):
        tok = self.items[self.i]
        self.i += 1
        return tok

    def error_offset(self):
        # Point at the operator missing its operand when input ends early.
        kind, _, offset = self.items[self.i]
        if kind == "end" and self.i > 0:
            return self.items[self.i - 1][2]
        return offset


def parse(text: str):
    """Parse source text into an AST.

    Precedence (tightest first): ``^`` (right-associative), unary minus,
    ``* /``, ``+ -``.  Raises :class:`SyntaxErrorAt` with the byte offset of
    the problem on malformed input.
    """
    if not text or text.isspace():
        raise SyntaxErrorAt("empty expression", 0)
    toks = _Tokens(text)
    ast = _parse_sum(toks)
    kind, value, offset = toks.peek()
    if kind != "end":
        raise SyntaxErrorAt(f"unexpected {value!r}", offset)
    return ast


def _parse_sum(toks):
    node = _parse_term(toks)
    while toks.peek()[0] in ("+", "-"):
        op = toks.next()[0]
        rhs = _parse_term(toks)
        node = Add(node, rhs) if op == "+" else Sub(node, rhs)
    return node


def _parse_term(toks):
    node = _parse_factor(toks)
    while toks.peek()[0] in ("*", "/"):
        op = toks.next()[0]
        rhs = _parse_factor(toks)
        node = Mul(node, rhs) if op == "*" else Div(node, rhs)
    return node


def _parse_factor(toks):
    if toks.peek()[0] == "-":
        toks.next()
        inner = _parse_factor(toks)
        if isinstance(inner, Num):
            return Num(-inner.value)
        return Neg(inner)
    return _parse_power(toks)


def _parse_power(toks):
    base = _parse_atom(toks)
    if toks.peek()[0] == "^":
        toks.next()
        expo = _parse_factor(toks)  # right-associative; allows a^-b
        return Pow(base, expo)
    return base


def _parse_atom(toks):
    kind, value, offset = toks.peek()
    if kind == "num":
        toks.next()
        return Num(value)
    if kind == "name":
        toks.next()
        if value in VARIABLES:
            return Var(value)
        if value in FUNCTIONS:
            k2, _, off2 = toks.peek()
            if k2 != "(":
                raise SyntaxErrorAt(f"function {value!r} needs parenthesized argument", off2 if k2 != "end" else offset)
            toks.next()
            arg = _parse_sum(toks)
            k3, _, off3 = toks.peek()
            if k3 != ")":
                raise SyntaxErrorAt("expected ')'", toks.error_offset())
            toks.next()
            return Call(value, arg)
        raise SyntaxErrorAt(f"unknown identifier {value!r}", offset)
    if kind == "(":
        toks.next()
        node = _parse_sum(toks)
        k2, _, off2 = toks.peek()
        if k2 != ")":
            raise SyntaxErrorAt("expected ')'", toks.error_offset())
        toks.next()
        return node
    raise SyntaxErrorAt("expected a value", toks.error_offset())


# --- printing --------------------------------------------------------------

def to_string(node) -> str:
    """Render an AST back to source; ``parse(to_string(ast))`` is structurally equal."""
    return _print(node, 0)


def _print(node, context):
    if isinstance(node, Num):
        # repr gives "inf", which does not parse; 1e999 reads back as infinity.
        s = repr(node.value)
        if math.isinf(node.value):
            s = s.replace("inf", "1e999")
        if s.startswith("-"):  # reparses via unary-minus folding, needs Neg's precedence
            return s if context <= 3 else f"({s})"
        return s
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({_print(node.arg, 0)})"
    if isinstance(node, Neg):
        s = "-" + _print(node.arg, 3)
        return s if context <= 3 else f"({s})"
    if isinstance(node, (Add, Sub)):
        op = " + " if isinstance(node, Add) else " - "
        s = _print(node.left, 1) + op + _print(node.right, 2)
        return s if context <= 1 else f"({s})"
    if isinstance(node, (Mul, Div)):
        op = "*" if isinstance(node, Mul) else "/"
        s = _print(node.left, 2) + op + _print(node.right, 3)
        return s if context <= 2 else f"({s})"
    if isinstance(node, Pow):
        s = _print(node.base, 5) + "^" + _print(node.exponent, 4)
        return s if context <= 4 else f"({s})"
    raise TypeError(f"not an AST node: {node!r}")


# --- evaluation ------------------------------------------------------------

# The domain guards, shared by the interpreter and the compiled kernels so
# that the conditions and messages cannot drift apart.

def _div(num, den, node):
    if np.any(den == 0):
        raise DomainError("division by zero", node)
    return num / den


def _pow(base, expo, node):
    neg = np.asarray(base) < 0
    if np.any(neg) and np.any(neg & (np.asarray(expo) != np.floor(expo))):
        raise DomainError("fractional power of negative base", node)
    if np.any((np.asarray(base) == 0) & (np.asarray(expo) < 0)):
        raise DomainError("zero raised to a negative power", node)
    return _power(base, expo)


def _power(base, expo):
    # The unguarded power: 0-d results come back as Python floats.
    out = np.power(base, expo)
    return float(out) if np.ndim(out) == 0 else out


def _log(v, node):
    if np.any(np.asarray(v) <= 0):
        raise DomainError("log of nonpositive value", node)
    return np.log(v) if np.ndim(v) else float(np.log(v))


def _sqrt(v, node):
    if np.any(np.asarray(v) < 0):
        raise DomainError("sqrt of negative value", node)
    return np.sqrt(v) if np.ndim(v) else float(np.sqrt(v))


_GUARDED = {"log": _log, "sqrt": _sqrt}
_UFUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs, "tanh": np.tanh}
_OPERATORS = {Add: "+", Sub: "-", Mul: "*"}


def evaluate(node, env):
    """Evaluate an AST in IEEE double precision.

    ``env`` maps each of ``k, x, y, u`` to a float or numpy array
    (arrays broadcast elementwise).  Raises :class:`DomainError` on
    log of a nonpositive value, sqrt of a negative, division by zero,
    or a fractional power of a negative base.  This tree walk is the
    reference that :func:`compile_trees` must reproduce bit for bit.
    """
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -evaluate(node.arg, env)
    if isinstance(node, Add):
        return evaluate(node.left, env) + evaluate(node.right, env)
    if isinstance(node, Sub):
        return evaluate(node.left, env) - evaluate(node.right, env)
    if isinstance(node, Mul):
        return evaluate(node.left, env) * evaluate(node.right, env)
    if isinstance(node, Div):
        return _div(evaluate(node.left, env), evaluate(node.right, env), node)
    if isinstance(node, Pow):
        return _pow(evaluate(node.base, env), evaluate(node.exponent, env), node)
    if isinstance(node, Call):
        v = evaluate(node.arg, env)
        if node.func in _GUARDED:
            return _GUARDED[node.func](v, node)
        out = _UFUNCS[node.func](v)
        return float(out) if np.ndim(out) == 0 else out
    raise TypeError(f"not an AST node: {node!r}")


def _fill(value, k, x, y, u):
    """``value`` as a float array in the broadcast shape of ``x``, ``y`` and itself, never an argument."""
    shape = np.broadcast(x, y, value).shape
    if (type(value) is np.ndarray and value.shape == shape
            and value is not k and value is not x and value is not y and value is not u):
        return value
    out = np.empty(shape)
    out[...] = value
    return out


def compile_trees(trees):
    """Compile ASTs into one function ``kernel(k, x, y, u) -> tuple`` of their values.

    The generated code performs one numpy operation per structurally
    distinct subtree, in the post-order :func:`evaluate` walks, with the same
    operators, ufuncs and domain guards, so every value (nan and the sign of
    zero included) and every :class:`DomainError` equal the interpreter's.
    Constants are keyed by their bits, so ``0.0`` and ``-0.0`` stay apart.
    At array points each value is a float array in the broadcast shape of
    ``x``, ``y`` and the value, never an argument (equal trees may share
    one): an operation on both ``x`` and ``y`` gives one, :func:`_fill` the rest.

    A power whose exponent is a constant, finite, integral and ``>= 0``
    (``-0.0`` too) is a bare ``np.power``: its guard cannot fire, since
    neither a fractional exponent nor a negative one is there to reject.
    The values are the guarded ones, since the guard only decides whether
    to raise.
    """
    namespace = {"_div": _div, "_pow": _pow, "_power": _power, "_fill": _fill,
                 **{f"_{name}": fn for name, fn in {**_GUARDED, **_UFUNCS}.items()}}
    names = {}  # structural key -> name of its value in the generated code
    lines = []

    def bind(value):
        name = f"c{len(namespace)}"
        namespace[name] = value
        return name

    def visit(node):
        # Returns (name, key); keys nest the children's keys, so equal keys
        # mean equal trees with bit-equal constants.
        if isinstance(node, Var):
            if node.name not in VARIABLES:
                raise ExprError(f"unknown variable {node.name!r}")
            return node.name, node.name
        if isinstance(node, Num):
            key = (Num, struct.pack("<d", node.value))
            if key not in names:
                names[key] = bind(node.value)
            return names[key], key
        if isinstance(node, (Neg, Call)):
            if isinstance(node, Call) and node.func not in FUNCTIONS:
                raise ExprError(f"unknown function {node.func!r}")
            children = [visit(node.arg)]
        elif isinstance(node, Pow):
            children = [visit(node.base), visit(node.exponent)]
        elif isinstance(node, (Add, Sub, Mul, Div)):
            children = [visit(node.left), visit(node.right)]
        else:
            raise TypeError(f"not an AST node: {node!r}")
        func = node.func if isinstance(node, Call) else type(node).__name__.lower()
        key = (func, *(k for _, k in children))
        if key in names:
            return names[key], key
        args = [name for name, _ in children]
        if isinstance(node, Neg):
            expr = f"-{args[0]}"
        elif type(node) in _OPERATORS:
            expr = f"{args[0]} {_OPERATORS[type(node)]} {args[1]}"
        elif func in _UFUNCS:
            expr = f"_{func}({args[0]})"
        elif (isinstance(node, Pow) and isinstance(node.exponent, Num)
              and node.exponent.value >= 0 and node.exponent.value.is_integer()):
            expr = f"_power({args[0]}, {args[1]})"
        else:  # division, power, log and sqrt carry their node for the error message
            expr = f"_{func}({', '.join(args)}, {bind(node)})"
        names[key] = f"t{len(lines)}"
        lines.append(f"    {names[key]} = {expr}")
        return names[key], key

    def result(tree):
        name = visit(tree)[0]
        return name if {"x", "y"} <= variables(tree) else f"_fill({name}, k, x, y, u)"

    results = "".join(result(tree) + ", " for tree in trees)
    source = "\n".join(["def kernel(k, x, y, u):", *lines, f"    return ({results})"])
    # The trees in the file name tell kernels apart in tracebacks and profiles.
    filename = f"<kernel {', '.join(map(to_string, trees))}>"
    exec(compile(source, filename, "exec"), namespace)
    return namespace["kernel"]


# --- differentiation -------------------------------------------------------

def variables(node):
    """Set of variable names occurring in the AST."""
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Num):
        return set()
    if isinstance(node, Neg):
        return variables(node.arg)
    if isinstance(node, Call):
        return variables(node.arg)
    if isinstance(node, Pow):
        return variables(node.base) | variables(node.exponent)
    return variables(node.left) | variables(node.right)


def depends_on(node, var):
    return var in variables(node)


def _is(node, c):
    return isinstance(node, Num) and node.value == c


def _fold_neg(a):
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _fold_add(a, b):
    if _is(a, 0):
        return b
    if _is(b, 0):
        return a
    return Add(a, b)


def _fold_sub(a, b):
    if _is(b, 0):
        return a
    if _is(a, 0):
        return _fold_neg(b)
    return Sub(a, b)


def _fold_mul(a, b):
    if _is(a, 0) or _is(b, 0):
        return Num(0.0)
    if _is(a, 1):
        return b
    if _is(b, 1):
        return a
    return Mul(a, b)


def _fold_div(a, b):
    if _is(a, 0):
        return Num(0.0)
    if _is(b, 1):
        return a
    return Div(a, b)


def _fold_pow(a, b):
    if _is(b, 0):
        return Num(1.0)
    if _is(b, 1):
        return a
    return Pow(a, b)


def differentiate(node, var):
    """Symbolic partial derivative with respect to ``var`` (``"x"`` or ``"y"``).

    Identity and annihilator folds only, so derivative trees stay auditable;
    results can be differentiated again.  ``abs`` is rejected whenever its
    argument depends on ``var``.
    """
    if var not in ("x", "y"):
        raise DerivativeError(f"can only differentiate with respect to x or y, not {var!r}")
    return _diff(node, var)


def _diff(node, var):
    if not depends_on(node, var):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0)
    if isinstance(node, Neg):
        return _fold_neg(_diff(node.arg, var))
    if isinstance(node, Add):
        return _fold_add(_diff(node.left, var), _diff(node.right, var))
    if isinstance(node, Sub):
        return _fold_sub(_diff(node.left, var), _diff(node.right, var))
    if isinstance(node, Mul):
        return _fold_add(_fold_mul(_diff(node.left, var), node.right),
                         _fold_mul(node.left, _diff(node.right, var)))
    if isinstance(node, Div):
        if not depends_on(node.right, var):
            return _fold_div(_diff(node.left, var), node.right)
        num = _fold_sub(_fold_mul(_diff(node.left, var), node.right),
                        _fold_mul(node.left, _diff(node.right, var)))
        return _fold_div(num, _fold_pow(node.right, Num(2.0)))
    if isinstance(node, Pow):
        base, expo = node.base, node.exponent
        if isinstance(expo, Num):
            return _fold_mul(_fold_mul(expo, _fold_pow(base, Num(expo.value - 1.0))),
                             _diff(base, var))
        if not depends_on(expo, var):
            return _fold_mul(_fold_mul(expo, _fold_pow(base, _fold_sub(expo, Num(1.0)))),
                             _diff(base, var))
        # general case via the logarithmic derivative
        inner = _fold_add(_fold_mul(_diff(expo, var), Call("log", base)),
                          _fold_div(_fold_mul(expo, _diff(base, var)), base))
        return _fold_mul(node, inner)
    if isinstance(node, Call):
        a = node.arg
        da = _diff(a, var)
        if node.func == "sin":
            return _fold_mul(Call("cos", a), da)
        if node.func == "cos":
            return _fold_neg(_fold_mul(Call("sin", a), da))
        if node.func == "exp":
            return _fold_mul(Call("exp", a), da)
        if node.func == "log":
            return _fold_div(da, a)
        if node.func == "sqrt":
            return _fold_div(da, _fold_mul(Num(2.0), Call("sqrt", a)))
        if node.func == "tanh":
            return _fold_mul(_fold_sub(Num(1.0), Pow(Call("tanh", a), Num(2.0))), da)
        raise DerivativeError(f"abs({to_string(a)}) is not differentiable in {var}")
    raise TypeError(f"not an AST node: {node!r}")


# --- scalar fields ---------------------------------------------------------

@dataclass(frozen=True)
class ScalarField:
    """An integrand with its symbolic partials in ``x`` and ``y``.

    ``fx, fy`` are the first partials; ``fxx, fxy, fyy`` the second
    (``fxy`` taken as d/dy of ``fx``).  Construction fails if ``abs``
    appears where a derivative is required.

    Construction also compiles three kernels ``(k, x, y, u) -> tuple``
    (see :func:`compile_trees`): ``value_kernel`` gives ``(f,)``,
    ``gradient_kernel`` ``(fx, fy)`` and ``hessian_kernel``
    ``(fxx, fxy, fyy)``, each value in the shape of the points.  They stay
    separate because a partial can be defined where ``f`` is not
    (``log(x + 1.5)`` has the partial ``1/(x + 1.5)``).  Equality and hashing ignore them.
    """

    f: object
    fx: object
    fy: object
    fxx: object
    fxy: object
    fyy: object
    source: str
    value_kernel: object = field(init=False, repr=False, compare=False)
    gradient_kernel: object = field(init=False, repr=False, compare=False)
    hessian_kernel: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "value_kernel", compile_trees((self.f,)))
        object.__setattr__(self, "gradient_kernel", compile_trees((self.fx, self.fy)))
        object.__setattr__(self, "hessian_kernel",
                           compile_trees((self.fxx, self.fxy, self.fyy)))

    def __reduce__(self):
        # Generated functions do not pickle; unpickling compiles them again.
        return type(self), (self.f, self.fx, self.fy, self.fxx, self.fxy, self.fyy, self.source)

    @classmethod
    def from_ast(cls, ast, source=None):
        fx = differentiate(ast, "x")
        fy = differentiate(ast, "y")
        return cls(f=ast, fx=fx, fy=fy,
                   fxx=differentiate(fx, "x"),
                   fxy=differentiate(fx, "y"),
                   fyy=differentiate(fy, "y"),
                   source=source if source is not None else to_string(ast))

    @classmethod
    def from_text(cls, text):
        return cls.from_ast(parse(text), source=text)
