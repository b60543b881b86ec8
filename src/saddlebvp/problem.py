"""Problem assembly: parameter box, action functional, gradient, residual.

A problem couples a grid size ``T``, a parameter bound ``D``, and an
integrand ``F(k, x, y, u)``.  The action of a pair ``(x, y)`` of grid
functions under a parameter ``u`` is

    sum_{k=1}^{T+1} (|dx(k-1)|^2 - |dy(k-1)|^2) / 2  +  sum_{k=1}^{T} F(k, x(k), y(k), u(k))

and its stationary points are exactly the solutions of the second-order
system  ``d2x(k-1) = F_x``, ``d2y(k-1) = -F_y`` with zero boundary values.

The public operations take :class:`~saddlebvp.grid.GridFunction` arguments;
the ``*_i`` variants work directly on interior value arrays and are what the
solver iterations call.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .expressions import ScalarField, evaluate, parse, variables
from .grid import DirichletLaplacian, GridFunction, laplacian


class ProblemError(ValueError):
    pass


def node_values(text, T):
    """Values of an expression in ``k`` at the nodes ``1..T``, with no bound applied."""
    ast = parse(text)
    extra = variables(ast) - {"k"}
    if extra:
        raise ProblemError(f"expression may only use k, found {sorted(extra)}")
    k = np.arange(1, T + 1, dtype=float)
    vals = evaluate(ast, {"k": k, "x": 0.0, "y": 0.0, "u": 0.0})
    return np.broadcast_to(np.asarray(vals, dtype=float), (T,)).copy()


@dataclass(frozen=True)
class ParameterFunction:
    """Values at nodes ``1..T`` with max-norm at most ``bound``."""

    values: np.ndarray
    bound: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ProblemError(f"parameter needs a 1-d array of length T >= 1, got shape {v.shape}")
        if self.bound <= 0:
            raise ProblemError(f"parameter bound must be positive, got {self.bound}")
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

    @classmethod
    def from_expression(cls, text, T, bound):
        """Evaluate an expression in ``k`` at the nodes ``1..T``."""
        return cls(node_values(text, T), bound)

    @property
    def T(self):
        return self.values.size

    @property
    def max_norm(self):
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True)
class ProblemSpec:
    """Grid size, parameter bound, integrand, and the difference matrix."""

    T: int
    D: float
    field: ScalarField
    lap: DirichletLaplacian

    def __post_init__(self):
        if self.T < 1:
            raise ProblemError(f"T must be >= 1, got {self.T}")
        if self.D <= 0:
            raise ProblemError(f"D must be positive, got {self.D}")
        if self.lap.dimension != self.T:
            raise ProblemError(
                f"difference matrix dimension {self.lap.dimension} does not match T={self.T}")

    @classmethod
    def create(cls, T, D, F):
        """Build a problem from an integrand given as text or ScalarField."""
        if isinstance(F, str):
            F = ScalarField.from_text(F)
        return cls(T=int(T), D=float(D), field=F, lap=laplacian(int(T)))

    def nodes(self):
        return np.arange(1, self.T + 1, dtype=float)


def _check_dims(spec, u, x, y):
    if x.T != spec.T or y.T != spec.T:
        raise ProblemError(f"grid functions must have T={spec.T} interior nodes, "
                           f"got {x.T} and {y.T}")
    if u.T != spec.T:
        raise ProblemError(f"parameter must have length T={spec.T}, got {u.T}")


def _env(spec, u, xv, yv):
    return {"k": spec.nodes(), "x": xv, "y": yv, "u": u.values}


def _eval(spec, node, env):
    out = evaluate(node, env)
    return np.broadcast_to(np.asarray(out, dtype=float), (spec.T,))


def integrand_sum_i(spec, u, xv, yv) -> float:
    """``sum_k F(k, x(k), y(k), u(k))``: the action without its quadratic terms."""
    return float(np.sum(_eval(spec, spec.field.f, _env(spec, u, xv, yv))))


def action_i(spec, u, xv, yv) -> float:
    dx = np.diff(np.concatenate(([0.0], xv, [0.0])))
    dy = np.diff(np.concatenate(([0.0], yv, [0.0])))
    return float(0.5 * (dx @ dx - dy @ dy) + integrand_sum_i(spec, u, xv, yv))


def grad_i(spec, u, xv, yv):
    env = _env(spec, u, xv, yv)
    gx = spec.lap.apply(xv) + _eval(spec, spec.field.fx, env)
    gy = -spec.lap.apply(yv) + _eval(spec, spec.field.fy, env)
    return gx, gy


def residual_from_grad(gx, gy) -> float:
    """Max-norm system defect from the partial gradients at the same point.

    ``gx = L x + F_x`` and ``gy = -L y + F_y`` are, up to sign, the defects
    ``d2x - F_x`` and ``d2y + F_y`` of the two equations.
    """
    return float(max(np.max(np.abs(gx)), np.max(np.abs(gy))))


def second_partials_i(spec, u, xv, yv):
    """Diagonals ``(F_xx, F_xy, F_yy)`` at the interior nodes."""
    env = _env(spec, u, xv, yv)
    return (_eval(spec, spec.field.fxx, env),
            _eval(spec, spec.field.fxy, env),
            _eval(spec, spec.field.fyy, env))


def action(spec: ProblemSpec, u: ParameterFunction, x: GridFunction, y: GridFunction) -> float:
    """Value of the action functional at ``(x, y)`` under parameter ``u``."""
    _check_dims(spec, u, x, y)
    return action_i(spec, u, x.values[1:-1], y.values[1:-1])


def grad(spec: ProblemSpec, u: ParameterFunction, x: GridFunction, y: GridFunction):
    """Partial gradients ``(L x + F_x, -L y + F_y)`` over the interior nodes."""
    _check_dims(spec, u, x, y)
    return grad_i(spec, u, x.values[1:-1], y.values[1:-1])


def residual(spec: ProblemSpec, u: ParameterFunction, x: GridFunction, y: GridFunction) -> float:
    """Max-norm defect of the second-order system at ``(x, y)``.

    Zero exactly when ``(x, y)`` solves the system: the second differences of
    ``x`` match ``F_x`` and those of ``y`` match ``-F_y`` at every node.
    """
    return residual_from_grad(*grad(spec, u, x, y))


def hessian_blocks(spec: ProblemSpec, u: ParameterFunction, x: GridFunction, y: GridFunction):
    """Second-derivative blocks ``(L + diag(F_xx), diag(F_xy), -L + diag(F_yy))``.

    Dense ``T x T`` arrays, for small ``T``; the solvers work on the band.
    """
    _check_dims(spec, u, x, y)
    fxx, fxy, fyy = second_partials_i(spec, u, x.values[1:-1], y.values[1:-1])
    L = spec.lap.matrix
    return L + np.diag(fxx), np.diag(fxy), -L + np.diag(fyy)


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


def make_candidate(spec, u, x, y, method, iterations, converged=True, trace=None):
    """Assemble a candidate; value and norms are recomputed from the point."""
    gx, gy = grad(spec, u, x, y)
    return SaddleCandidate(
        x=x, y=y,
        value=action(spec, u, x, y),
        grad_norm=float(np.sqrt(gx @ gx + gy @ gy)),
        residual_norm=residual_from_grad(gx, gy),
        method=method, iterations=iterations, converged=converged, trace=trace,
    )


# --- problem files ---------------------------------------------------------

def problem_from_dict(data) -> tuple[ProblemSpec, ParameterFunction]:
    """Build ``(spec, u)`` from a problem mapping.

    Expected keys: ``T`` (int), ``D`` (number), ``F`` (expression text),
    ``u`` (expression in ``k`` or an array of ``T`` numbers).
    """
    for key in ("T", "D", "F", "u"):
        if key not in data:
            raise ProblemError(f"problem file missing key {key!r}")
    T = data["T"]
    if not isinstance(T, int) or T < 1:
        raise ProblemError(f"T must be a positive integer, got {T!r}")
    D = float(data["D"])
    spec = ProblemSpec.create(T, D, str(data["F"]))
    u_spec = data["u"]
    if isinstance(u_spec, str):
        u = ParameterFunction.from_expression(u_spec, T, D)
    else:
        vals = np.asarray(u_spec, dtype=float)
        if vals.shape != (T,):
            raise ProblemError(f"u must have length T={T}, got shape {vals.shape}")
        u = ParameterFunction(vals, D)
    return spec, u


def load_problem(path) -> tuple[ProblemSpec, ParameterFunction]:
    """Read a problem JSON file; validates the parameter against the bound."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ProblemError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ProblemError(f"problem file {path} must contain a JSON object")
    return problem_from_dict(data)
