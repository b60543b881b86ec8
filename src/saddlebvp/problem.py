"""Problem assembly: parameter box, action functional, gradient, residual.

A problem couples a grid size ``T``, a parameter bound ``D``, and an
integrand ``F(k, x, y, u)``.  The action of a pair ``(x, y)`` of grid
functions under a parameter ``u`` is

    sum_{k=1}^{T+1} (|dx(k-1)|^2 - |dy(k-1)|^2) / 2  +  sum_{k=1}^{T} F(k, x(k), y(k), u(k))

and its stationary points are exactly the solutions of the second-order
system  ``d2x(k-1) = F_x``, ``d2y(k-1) = -F_y`` with zero boundary values.

The public operations take :class:`~saddlebvp.grid.GridFunction` arguments;
the ``*_i`` variants work directly on interior value arrays.  The solvers
reach the field only through :func:`operator_i` and :func:`jacobian_i`, on
``(B, 2T)`` blocks of stacked rows ``z = (x, y)``: the operator
``G = (grad_x J, -grad_y J)``, whose zeros are the saddle points, and the
band diagonals ``(F_xx, F_xy, -F_yy)`` of its Jacobian, so the sign of every
y half is decided here.
"""

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .expressions import ExprError, ScalarField, compile_trees, parse, variables
from .grid import (DirichletLaplacian, GridFunction, delta_i, laplacian, random_interior_rows,
                   squared_norm)


class ProblemError(ValueError):
    pass


def real_numbers(value) -> bool:
    """Whether ``value`` is a real number, a numeric array or a nested list of them.

    JSON strings and booleans are not numbers here, though ``float`` reads them.
    """
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iuf"
    if isinstance(value, list):  # a flat list of plain ints and floats passes at C speed
        return set(map(type, value)) <= {int, float} or all(real_numbers(v) for v in value)
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def parameter_values(value, T, name):
    """Values at the nodes ``1..T`` of an expression in ``k`` or an array of ``T`` numbers.

    Every node array in an input file is read here, with no bound applied;
    ``name`` is its key, for error messages.  An expression is evaluated at ``T`` zero points.
    """
    if isinstance(value, str):
        ast = parse(value)
        extra = variables(ast) - {"k"}
        if extra:
            raise ProblemError(f"{name} may only use k, found {sorted(extra)}")
        (value,) = compile_trees((ast,))(np.arange(1, T + 1, dtype=float), np.zeros(T), 0.0, 0.0)
    if not real_numbers(value):
        raise ProblemError(f"{name} must be an expression in k or {T} numbers")
    vals = np.asarray(value, dtype=float)
    if vals.shape != (T,):
        raise ProblemError(f"{name} must have length T={T}, got shape {vals.shape}")
    return vals


@dataclass(frozen=True)
class ParameterFunction:
    """Values at nodes ``1..T`` with max-norm at most ``bound``."""

    values: np.ndarray
    bound: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ProblemError(f"parameter needs a 1-d array of length T >= 1, got shape {v.shape}")
        if not (math.isfinite(self.bound) and self.bound > 0):
            raise ProblemError(f"parameter bound must be positive and finite, got {self.bound}")
        if not np.isfinite(v).all():
            raise ProblemError("parameter values must be finite")
        if np.max(np.abs(v)) > self.bound:
            raise ProblemError(
                f"parameter max-norm {np.max(np.abs(v))} exceeds bound {self.bound}")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "bound", float(self.bound))

    @classmethod
    def constant(cls, c, T, bound):
        return cls(np.full(T, float(c)), bound)

    @property
    def T(self):
        return self.values.size


@dataclass(frozen=True)
class ProblemSpec:
    """Grid size, parameter bound and integrand; ``lap`` is the ``T x T`` difference matrix."""

    T: int
    D: float
    field: ScalarField
    lap: DirichletLaplacian = field(init=False, repr=False, compare=False)
    _nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.T < 1:
            raise ProblemError(f"T must be >= 1, got {self.T}")
        if not (math.isfinite(self.D) and self.D > 0):
            raise ProblemError(f"D must be positive and finite, got {self.D}")
        object.__setattr__(self, "lap", laplacian(self.T))
        k = np.arange(1, self.T + 1, dtype=float)
        k.flags.writeable = False
        object.__setattr__(self, "_nodes", k)

    @classmethod
    def create(cls, T, D, F):
        """Build a problem from an integrand given as text or ScalarField."""
        if isinstance(F, str):
            F = ScalarField.from_text(F)
        return cls(T=int(T), D=float(D), field=F)

    def nodes(self):
        """The node indices ``1..T`` as one shared read-only float array."""
        return self._nodes


def _check_dims(spec, u, x, y):
    if x.T != spec.T or y.T != spec.T:
        raise ProblemError(f"grid functions must have T={spec.T} interior nodes, "
                           f"got {x.T} and {y.T}")
    if u.T != spec.T:
        raise ProblemError(f"parameter must have length T={spec.T}, got {u.T}")


# Batched evaluations take (B, T) blocks of about this many values.  A kernel
# keeps every temporary alive until it returns, so the block, not the number
# of points, bounds the memory of a batched evaluation.
_BLOCK_VALUES = 4096


def block_rows(T):
    """Rows ``B`` of a ``(B, T)`` evaluation block, at least 1."""
    return max(1, _BLOCK_VALUES // T)


def ball_pair_blocks(T, n, radii, rng):
    """``n`` pairs of ball draws from the one ``rng``, as ``(P, Q)`` blocks of ``block_rows(T)`` pairs.

    Pair ``i`` is ``random_interior(T, radii[0], rng)`` and then
    ``random_interior(T, radii[1], rng)``, row ``i`` of the blocks in turn
    (the last block holds fewer); each block is one
    :func:`~saddlebvp.grid.random_interior_rows` call.
    """
    for start in range(0, n, block_rows(T)):
        rows = min(block_rows(T), n - start)
        V = random_interior_rows(T, [(radius, rng) for _ in range(rows) for radius in radii])
        yield V[0::2], V[1::2]


def rows_apart(fn, n, shapes):
    """``fn`` on a block of ``n`` rows, and ``{row: ExprError}`` for the rows outside the domain.

    ``fn(slice(None))`` evaluates the whole block and ``fn(i)`` row ``i``
    alone, as a 1-d call; each returns one array per entry of ``shapes``,
    the shape of one row's value.  A domain guard tests every row at once,
    so after an ``ExprError`` each row is evaluated alone and only the rows
    that raise fail, each with its own error and nan values.  A one-row
    block's error is its row's, so that row is not evaluated again.
    """
    try:
        return fn(slice(None)), {}
    except ExprError as exc:
        errors = {0: exc}
    out = tuple(np.full((n, *shape), np.nan) for shape in shapes)
    if n > 1:
        errors = {}
        for i in range(n):
            try:
                for block, row in zip(out, fn(i)):
                    block[i] = row
            except ExprError as exc:
                errors[i] = exc
    return out, errors


def row_values(kernel, spec, u, X, Y):
    """The float ``kernel(spec, u, x, y)`` (an action or integrand sum) at each row of ``X``, ``Y``.

    A row outside the integrand's domain holds nan (:func:`rows_apart`).
    """
    return rows_apart(lambda i: (kernel(spec, u, X[i], Y[i]),), len(X), ((),))[0][0]


def integrand_sum_i(spec, u, xv, yv):
    """``sum_k F(k, x(k), y(k), u(k))``: the action without its quadratic terms.

    ``xv`` and ``yv`` may also be ``(B, T)`` blocks of points, one per row,
    evaluated in one kernel call; the result is then the array of the ``B``
    row sums, each equal bit for bit to the float its row alone gives: each
    row of the kernel's values is summed along the last axis, in the 1-d order.
    """
    (f,) = spec.field.value_kernel(spec.nodes(), xv, yv, u.values)
    s = f.sum(axis=-1)
    return float(s) if xv.ndim == 1 else s


def action_i(spec, u, xv, yv):
    """The action at interior values; a ``(B, T)`` block gives the ``B`` row values."""
    dx = delta_i(xv)
    dy = delta_i(yv)
    a = 0.5 * (squared_norm(dx) - squared_norm(dy)) + integrand_sum_i(spec, u, xv, yv)
    return float(a) if xv.ndim == 1 else a


def operator_i(spec, u, Z):
    """``G = (grad_x J, -grad_y J)`` at each row ``z = (x, y)`` of the ``(B, 2T)`` block ``Z``.

    One gradient-kernel call on the halves of ``Z``, by :func:`rows_apart`,
    and one Laplacian product on its ``(B, 2, T)`` view.  The halves hold
    :func:`grad`'s ``gx`` and ``-gy`` bit for bit: the y half is
    ``-((-L y) + F_y)``, whose zeros keep their sign.  Returns
    ``(G, {row: ExprError})``, nan in the rows outside the domain.
    """
    T = spec.T
    # contiguous halves, as rows alone are: exp, sin and the like run faster on them
    X, Y = np.ascontiguousarray(Z[:, :T]), np.ascontiguousarray(Z[:, T:])
    (FX, FY), errors = rows_apart(
        lambda i: spec.field.gradient_kernel(spec.nodes(), X[i], Y[i], u.values), len(Z),
        ((T,), (T,)))
    G = spec.lap.apply(Z.reshape(len(Z), 2, T)).reshape(len(Z), 2 * T)
    G[:, :T] += FX
    GY = G[:, T:]
    np.subtract(FY, GY, out=GY)  # F_y - L y is (-L y) + F_y, bit for bit
    np.negative(GY, out=GY)
    return G, errors


def residual_from_grad(gx, gy):
    """Max-norm system defect from the partial gradients at the same point.

    ``gx = L x + F_x`` and ``gy = -L y + F_y``, or the halves of ``G``, are
    up to sign the defects ``d2x - F_x`` and ``d2y + F_y`` of the two
    equations.  A ``(B, T)`` block gives one defect per row.  The larger of
    the two maxima is taken as Python's ``max`` takes it, so a nan in ``gx``
    gives nan and one in ``gy`` alone does not.
    """
    mx, my = abs(gx).max(axis=-1), abs(gy).max(axis=-1)
    r = np.where(my > mx, my, mx)
    return float(r) if gx.ndim == 1 else r


def second_partials_i(spec, u, xv, yv):
    """Diagonals ``(F_xx, F_xy, F_yy)`` at the interior nodes, as arrays in the shape of ``xv``."""
    return spec.field.hessian_kernel(spec.nodes(), xv, yv, u.values)


def jacobian_i(spec, u, Z):
    """Band diagonals ``(F_xx, F_xy, -F_yy)`` of the Jacobian of ``G`` at each row of ``Z``.

    ``G``'s Jacobian is ``[[L + F_xx, F_xy], [-F_xy, L - F_yy]]``, the matrix
    :meth:`~saddlebvp.grid.DirichletLaplacian.solve_coupled` takes from these
    ``(B, T)`` diagonals.  Evaluated by :func:`second_partials_i` on the
    halves of the ``(B, 2T)`` block ``Z`` through :func:`rows_apart`; returns
    ``(diagonals, {row: ExprError})``, nan in the rows outside the domain.
    """
    T = spec.T
    X, Y = np.ascontiguousarray(Z[:, :T]), np.ascontiguousarray(Z[:, T:])  # as in operator_i
    (FXX, FXY, FYY), errors = rows_apart(
        lambda i: second_partials_i(spec, u, X[i], Y[i]), len(Z), ((T,),) * 3)
    return (FXX, FXY, -FYY), errors


def action(spec: ProblemSpec, u: ParameterFunction, x: GridFunction, y: GridFunction) -> float:
    """Value of the action functional at ``(x, y)`` under parameter ``u``."""
    _check_dims(spec, u, x, y)
    return action_i(spec, u, x.values[1:-1], y.values[1:-1])


def grad(spec: ProblemSpec, u: ParameterFunction, x: GridFunction, y: GridFunction):
    """Partial gradients ``(L x + F_x, -L y + F_y)`` over the interior nodes."""
    _check_dims(spec, u, x, y)
    xv, yv = x.values[1:-1], y.values[1:-1]
    fx, fy = spec.field.gradient_kernel(spec.nodes(), xv, yv, u.values)
    return spec.lap.apply(xv) + fx, -spec.lap.apply(yv) + fy


def residual(spec: ProblemSpec, u: ParameterFunction, x: GridFunction, y: GridFunction) -> float:
    """Max-norm defect of the second-order system at ``(x, y)``.

    Zero exactly when ``(x, y)`` solves the system: the second differences of
    ``x`` match ``F_x`` and those of ``y`` match ``-F_y`` at every node.
    """
    return residual_from_grad(*grad(spec, u, x, y))


@dataclass(frozen=True)
class SaddleCandidate:
    """A solver output: the point, its value, and convergence diagnostics."""

    x: GridFunction
    y: GridFunction
    value: float
    grad_norm: float
    residual_norm: float
    method: str
    iterations: int
    converged: bool = True
    trace: list = field(default=None, repr=False, compare=False)


def make_candidates_i(spec, u, Z, method, iterations, converged, traces):
    """Candidates at the rows ``z = (x, y)`` of the ``(B, 2T)`` block ``Z``.

    Value and norms are recomputed from each point, by one
    :func:`operator_i` and one ``action_i`` call on the block (each through
    :func:`rows_apart`); ``iterations``, ``converged`` and ``traces`` hold
    one entry per row.  A row outside the integrand's domain gets its
    gradient's ``ExprError``, else its action's, in place of a candidate.
    """
    T = spec.T
    G, errors = operator_i(spec, u, Z)
    (values,), action_errors = rows_apart(lambda i: (action_i(spec, u, Z[i, :T], Z[i, T:]),),
                                          len(Z), ((),))
    errors = {**action_errors, **errors}
    values = values.tolist()
    grad_norms = np.sqrt(squared_norm(G[:, :T]) + squared_norm(G[:, T:])).tolist()
    residuals = residual_from_grad(G[:, :T], G[:, T:]).tolist()
    return [errors[r] if r in errors else
            SaddleCandidate(x=GridFunction.from_interior(Z[r, :T]),
                            y=GridFunction.from_interior(Z[r, T:]),
                            value=values[r], grad_norm=grad_norms[r], residual_norm=residuals[r],
                            method=method, iterations=iterations[r], converged=converged[r],
                            trace=traces[r])
            for r in range(len(Z))]


# --- problem files ---------------------------------------------------------

def problem_from_dict(data) -> tuple[ProblemSpec, ParameterFunction]:
    """Build ``(spec, u)`` from a problem mapping.

    Expected keys: ``T`` (int), ``D`` (number), ``F`` (expression text),
    ``u`` (expression in ``k`` or an array of ``T`` numbers).
    """
    for key in ("T", "D", "F", "u"):
        if key not in data:
            raise ProblemError(f"problem file missing key {key!r}")
    T, D, F = data["T"], data["D"], data["F"]
    if isinstance(T, bool) or not isinstance(T, int) or T < 1:
        raise ProblemError(f"T must be a positive integer, got {T!r}")
    if isinstance(D, bool) or not isinstance(D, numbers.Real):
        raise ProblemError(f"D must be a number, got {json.dumps(D, default=repr)}")
    if not isinstance(F, str):
        raise ProblemError(f"F must be an expression string, got {json.dumps(F, default=repr)}")
    spec = ProblemSpec.create(T, D, F)
    return spec, ParameterFunction(parameter_values(data["u"], T, "u"), spec.D)


def read_json(path) -> dict:
    """The JSON object in a file: problems, certificates and sequences are all read here."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ProblemError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ProblemError(f"{path} must contain a JSON object")
    return data


def load_problem(path) -> tuple[ProblemSpec, ParameterFunction]:
    """Read a problem JSON file; validates the parameter against the bound."""
    return problem_from_dict(read_json(path))
