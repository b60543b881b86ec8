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
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .expressions import ScalarField, evaluate, parse, variables
from .grid import DirichletLaplacian, GridFunction, laplacian


class ProblemError(ValueError):
    pass


def real_numbers(value) -> bool:
    """Whether ``value`` is a real number, a numeric array or a nested list of them.

    JSON strings and booleans are not numbers here, though ``float`` reads them.
    """
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iuf"
    if isinstance(value, list):
        return all(real_numbers(v) for v in value)
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def parameter_values(value, T, name):
    """Values at the nodes ``1..T`` of an expression in ``k`` or an array of ``T`` numbers.

    Every node array in an input file is read here, with no bound applied;
    ``name`` is its key, for error messages.
    """
    if isinstance(value, str):
        ast = parse(value)
        extra = variables(ast) - {"k"}
        if extra:
            raise ProblemError(f"{name} may only use k, found {sorted(extra)}")
        k = np.arange(1, T + 1, dtype=float)
        value = np.broadcast_to(evaluate(ast, {"k": k, "x": 0.0, "y": 0.0, "u": 0.0}), (T,))
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

    @classmethod
    def from_expression(cls, text, T, bound):
        """Evaluate an expression in ``k`` at the nodes ``1..T``."""
        return cls(parameter_values(text, T, "expression"), bound)

    @property
    def T(self):
        return self.values.size

    @property
    def max_norm(self):
        return float(np.max(np.abs(self.values)))


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


def _nodal(spec, out, xv, yv):
    """A field kernel result as values at the ``T`` nodes.

    Constant trees give scalars and bare ``x``/``y`` trees give ``xv``/``yv``
    back; both come out as read-only broadcast views, so no caller can write
    through them into its own iterate.
    """
    if isinstance(out, np.ndarray) and out.shape == (spec.T,) and out is not xv and out is not yv:
        return out
    return np.broadcast_to(np.asarray(out, dtype=float), (spec.T,))


def integrand_sum_i(spec, u, xv, yv):
    """``sum_k F(k, x(k), y(k), u(k))``: the action without its quadratic terms.

    ``xv`` and ``yv`` may also be ``(B, T)`` blocks of points, one per row,
    evaluated in one kernel call; the result is then the array of the ``B``
    row sums, each equal bit for bit to the float its row alone gives.
    """
    (f,) = spec.field.value_kernel(spec.nodes(), xv, yv, u.values)
    # Each row is summed along the contiguous last axis, in the 1-d order;
    # filling a fresh array is cheaper than np.broadcast_to on small T.
    full = np.empty(xv.shape)
    full[...] = f
    s = full.sum(axis=-1)
    return float(s) if xv.ndim == 1 else s


def _differences(v):
    # np.diff of v padded with the zero boundary values, without the padding copy.
    d = np.empty(v.size + 1)
    d[0] = v[0]
    np.subtract(v[1:], v[:-1], out=d[1:-1])
    d[-1] = 0.0 - v[-1]
    return d


def action_i(spec, u, xv, yv) -> float:
    dx = _differences(xv)
    dy = _differences(yv)
    return float(0.5 * (dx @ dx - dy @ dy) + integrand_sum_i(spec, u, xv, yv))


def grad_i(spec, u, xv, yv):
    fx, fy = spec.field.gradient_kernel(spec.nodes(), xv, yv, u.values)
    return (spec.lap.apply(xv) + _nodal(spec, fx, xv, yv),
            -spec.lap.apply(yv) + _nodal(spec, fy, xv, yv))


def residual_from_grad(gx, gy) -> float:
    """Max-norm system defect from the partial gradients at the same point.

    ``gx = L x + F_x`` and ``gy = -L y + F_y`` are, up to sign, the defects
    ``d2x - F_x`` and ``d2y + F_y`` of the two equations.
    """
    return float(max(abs(gx).max(), abs(gy).max()))


def second_partials_i(spec, u, xv, yv):
    """Diagonals ``(F_xx, F_xy, F_yy)`` at the interior nodes."""
    return tuple(_nodal(spec, out, xv, yv)
                 for out in spec.field.hessian_kernel(spec.nodes(), xv, yv, u.values))


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
