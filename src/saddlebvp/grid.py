"""Discrete function space with zero Dirichlet boundary values.

Functions live on the integer nodes ``0..T+1`` and vanish at both ends.
The space carries the difference norm ``||x|| = sqrt(sum_k |x(k)-x(k-1)|^2)``,
whose quadratic form is realized by the tridiagonal matrix with 2 on the
diagonal and -1 off it.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal, lapack, solve_banded
from scipy.optimize import minimize


class GridError(ValueError):
    """Invalid grid function or operator input."""


def _freeze(a):
    a = np.asarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class GridFunction:
    """Real values at nodes ``0..T+1`` with ``values[0] = values[T+1] = 0``.

    Instances are immutable; arithmetic returns new objects and always
    preserves the zero boundary values.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 3:
            raise GridError(f"need a 1-d array of length T+2 with T >= 1, got shape {v.shape}")
        if v[0] != 0.0 or v[-1] != 0.0:
            raise GridError(f"boundary values must be exactly zero, got ({v[0]!r}, {v[-1]!r})")
        if not np.all(np.isfinite(v)):
            raise GridError("grid values must be finite")
        object.__setattr__(self, "values", _freeze(v))

    @classmethod
    def from_interior(cls, interior):
        """Build from the interior values at nodes ``1..T``."""
        interior = np.asarray(interior, dtype=float)
        padded = np.zeros(interior.size + 2)
        padded[1:-1] = interior
        return cls(padded)

    @classmethod
    def zeros(cls, T):
        return cls(np.zeros(T + 2))

    @property
    def T(self):
        """Number of interior nodes."""
        return self.values.size - 2

    @property
    def interior(self):
        """Copy of the values at nodes ``1..T``."""
        return self.values[1:-1].copy()

    def __add__(self, other):
        return GridFunction.from_interior(self.values[1:-1] + other.values[1:-1])

    def __sub__(self, other):
        return GridFunction.from_interior(self.values[1:-1] - other.values[1:-1])

    def __neg__(self):
        return GridFunction.from_interior(-self.values[1:-1])

    def __mul__(self, c):
        return GridFunction.from_interior(float(c) * self.values[1:-1])

    __rmul__ = __mul__

    def __call__(self, k):
        return float(self.values[k])


def delta(x: GridFunction) -> np.ndarray:
    """Forward differences ``x(k) - x(k-1)`` for ``k = 1..T+1``."""
    return np.diff(x.values)


def second_difference(x: GridFunction, k: int) -> float:
    """Second difference ``x(k+1) - 2 x(k) + x(k-1)`` at an interior node.

    Equals minus the k-th row of the Dirichlet matrix applied to the
    interior values.
    """
    if not 1 <= k <= x.T:
        raise GridError(f"index k={k} outside interior range 1..{x.T}")
    v = x.values
    return float(v[k + 1] - 2.0 * v[k] + v[k - 1])


def h_norm(x: GridFunction) -> float:
    """Difference norm ``sqrt(sum_k |x(k) - x(k-1)|^2)``."""
    d = np.diff(x.values)
    return float(np.sqrt(d @ d))


@dataclass(frozen=True)
class DirichletLaplacian:
    """Symmetric tridiagonal matrix (2 on the diagonal, -1 off it).

    Acts on interior values ``1..T``.  Positive definite; its quadratic form
    reproduces the squared difference norm: ``x_int @ L @ x_int == h_norm(x)**2``.
    Only the dimension is stored.  The solves and the eigenvalue below work on
    the band of ``L`` shifted by a diagonal, in ``O(T)`` time and memory.
    """

    dimension: int

    @property
    def matrix(self) -> np.ndarray:
        """Dense ``T x T`` copy, built on each access (for small ``T``)."""
        T = self.dimension
        return _freeze(2.0 * np.eye(T) - np.eye(T, k=1) - np.eye(T, k=-1))

    def apply(self, interior):
        """Matrix-vector product on interior values.

        A ``(B, T)`` block is multiplied row by row, each row bit for bit as alone.
        """
        v = np.asarray(interior, dtype=float)
        out = 2.0 * v
        out[..., :-1] -= v[..., 1:]
        out[..., 1:] -= v[..., :-1]
        return out

    def quadratic_form(self, x: GridFunction) -> float:
        """``0.5 * x_int @ L @ x_int``."""
        v = x.values[1:-1]
        return 0.5 * float(v @ self.apply(v))

    def eigenvalues(self) -> np.ndarray:
        """Closed-form spectrum ``4 sin^2(j pi / (2(T+1)))``, ``j = 1..T``."""
        j = np.arange(1, self.dimension + 1)
        return 4.0 * np.sin(j * np.pi / (2.0 * (self.dimension + 1))) ** 2

    @property
    def smallest_eigenvalue(self) -> float:
        return float(4.0 * np.sin(np.pi / (2.0 * (self.dimension + 1))) ** 2)

    @property
    def norm_inf(self) -> float:
        """Maximum absolute row sum: 2 for ``T = 1``, 3 for ``T = 2``, else 4."""
        return float(min(self.dimension + 1, 4))

    def solve_shifted(self, shift, rhs):
        """Solve ``(L + diag(shift)) v = rhs`` by tridiagonal LU.

        Raises ``LinAlgError`` on an exactly singular matrix; may return a
        non-finite ``v`` for a singular or non-finite one.
        """
        T = self.dimension
        ab = np.empty((3, T))
        ab[0] = ab[2] = -1.0
        ab[1] = 2.0 + np.asarray(shift, dtype=float)
        # for T = 1 scipy divides by the diagonal, so a zero pivot gives inf, not an error
        with np.errstate(divide="ignore", invalid="ignore"):
            return solve_banded((1, 1), ab, rhs, check_finite=False)

    def smallest_eigenvalue_shifted(self, shift) -> float:
        """Smallest eigenvalue of ``L + diag(shift)`` by tridiagonal bisection."""
        d = 2.0 + np.asarray(shift, dtype=float)
        e = np.full(self.dimension - 1, -1.0)
        return float(eigvalsh_tridiagonal(d, e, select="i", select_range=(0, 0))[0])

    def _coupled_band(self, shift_x, coupling, shift_y):
        """Band storage of the coupled matrix of :meth:`solve_coupled`.

        Unknowns are interleaved as ``(x_1, y_1, x_2, y_2, ...)``, which puts
        the ``2T x 2T`` matrix in a band of two diagonals on each side;
        row ``2 + i - j`` of the result holds entry ``(i, j)``, the layout of
        ``scipy.linalg.solve_banded((2, 2), ...)``.
        """
        ab = np.zeros((5, 2 * self.dimension))
        ab[0, 2:] = ab[4, :-2] = -1.0
        ab[1, 1::2] = coupling
        ab[2, 0::2] = 2.0 + np.asarray(shift_x, dtype=float)
        ab[2, 1::2] = 2.0 + np.asarray(shift_y, dtype=float)
        ab[3, 0::2] = -np.asarray(coupling, dtype=float)
        return ab

    def solve_coupled(self, shift_x, coupling, shift_y, rhs_x, rhs_y):
        """Solve ``[[L + diag(shift_x), diag(c)], [-diag(c), L + diag(shift_y)]] v = rhs``.

        Returns ``(v_x, v_y)``.  Banded LU with partial pivoting on the
        interleaved unknowns.  Raises ``LinAlgError`` on an exactly singular
        matrix; may return non-finite values for a singular or non-finite one.
        """
        rhs = np.empty(2 * self.dimension)
        rhs[0::2] = rhs_x
        rhs[1::2] = rhs_y
        v = solve_banded((2, 2), self._coupled_band(shift_x, coupling, shift_y), rhs,
                         check_finite=False)
        return v[0::2], v[1::2]

    def coupled_condition(self, shift_x, coupling, shift_y) -> float:
        """1-norm condition estimate of the coupled matrix (LAPACK ``gbtrf``/``gbcon``)."""
        band = self._coupled_band(shift_x, coupling, shift_y)
        ab = np.zeros((7, band.shape[1]))  # two extra rows for the fill-in of pivoting
        ab[2:] = band
        lu, piv, info = lapack.dgbtrf(ab, 2, 2)
        if info > 0:
            return np.inf  # a zero pivot: exactly singular
        rcond, _ = lapack.dgbcon(2, 2, lu, piv, float(np.max(np.sum(np.abs(band), axis=0))))
        return np.inf if rcond == 0.0 else 1.0 / rcond


def laplacian(T: int) -> DirichletLaplacian:
    """Dirichlet second-difference operator of size ``T x T``."""
    if T < 1:
        raise GridError(f"T must be >= 1, got {T}")
    return DirichletLaplacian(dimension=T)


def random_in_ball(T, radius, rng):
    """Draw a grid function uniformly from the ball ``h_norm(x) <= radius``.

    Direction is isotropic in the difference norm; the radial law
    ``r = radius * U**(1/T)`` makes the draw uniform over the T-dimensional ball.
    """
    padded = np.zeros(T + 2)
    padded[1:-1] = rng.standard_normal(T)
    d = np.diff(padded)
    n = float(np.sqrt(d @ d))
    if n == 0.0:
        return GridFunction.zeros(T)
    r = radius * rng.uniform() ** (1.0 / T)
    return GridFunction(padded * (r / n))


@dataclass(frozen=True)
class EmbeddingEstimate:
    """Best constant found for ``sum |x(k)|^m <= c * sum |dx(k-1)|^m``.

    For ``m = 2`` the value is exact (inverse of the smallest matrix
    eigenvalue).  For ``m > 2`` it is the largest ratio located by
    multistart maximization, hence a certified *lower* estimate of the
    true constant; ``upper_bound`` pads it for callers that need a safe
    over-estimate.
    """

    m: int
    T: int
    value: float
    maximizer: GridFunction
    exact: bool

    def upper_bound(self, safety: float = 1.05) -> float:
        return self.value if self.exact else self.value * safety

    def __float__(self):
        return self.value


def _power_sum_ratio(interior, m):
    x = np.concatenate(([0.0], interior, [0.0]))
    d = np.diff(x)
    return np.sum(np.abs(interior) ** m) / np.sum(np.abs(d) ** m)


def _sine_mode(T):
    k = np.arange(1, T + 1)
    return np.sin(k * np.pi / (T + 1))


def embedding_estimate(m: int, T: int, *, starts: int = 16, seed: int = 0) -> EmbeddingEstimate:
    """Embedding constant of the difference norm, with its maximizer.

    Parameters
    ----------
    m : int
        Power of the inequality, ``m >= 2``.
    T : int
        Number of interior nodes.
    starts : int
        Number of random restarts for the ``m > 2`` maximization.
    seed : int
        Seed for the restart draws; results are deterministic given it.
    """
    if m < 2:
        raise GridError(f"m must be >= 2, got {m}")
    if T < 1:
        raise GridError(f"T must be >= 1, got {T}")

    lam_min = 4.0 * np.sin(np.pi / (2.0 * (T + 1))) ** 2
    sine = _sine_mode(T)
    if m == 2:
        return EmbeddingEstimate(
            m=m, T=T, value=1.0 / lam_min,
            maximizer=GridFunction.from_interior(sine / np.linalg.norm(sine)),
            exact=True,
        )

    # Maximize log(sum |x|^m) - log(sum |dx|^m); scale invariant, so restarts
    # live on the Euclidean unit sphere.
    def neg_log_ratio(v):
        x = np.concatenate(([0.0], v, [0.0]))
        d = np.diff(x)
        num = np.sum(np.abs(v) ** m)
        den = np.sum(np.abs(d) ** m)
        gn = m * v * np.abs(v) ** (m - 2)
        gd_edges = m * d * np.abs(d) ** (m - 2)
        gd = gd_edges[:-1] - gd_edges[1:]
        return np.log(den) - np.log(num), gd / den - gn / num

    rng = np.random.default_rng(seed)
    tent = np.minimum(np.arange(1, T + 1), np.arange(T, 0, -1)).astype(float)
    candidates = [sine, tent]
    for _ in range(starts):
        candidates.append(rng.standard_normal(T))

    best_val, best_v = -np.inf, None
    for v0 in candidates:
        v0 = v0 / np.linalg.norm(v0)
        res = minimize(neg_log_ratio, v0, jac=True, method="L-BFGS-B",
                       options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-12})
        val = _power_sum_ratio(res.x, m)
        if val > best_val:
            best_val, best_v = val, res.x
    best_v = best_v / np.linalg.norm(best_v)
    if best_v[np.argmax(np.abs(best_v))] < 0:
        best_v = -best_v
    return EmbeddingEstimate(m=m, T=T, value=float(best_val),
                             maximizer=GridFunction.from_interior(best_v), exact=False)


def embedding_constant(m: int, T: int, *, starts: int = 16, seed: int = 0) -> float:
    """Smallest constant ``c`` with ``sum |x(k)|^m <= c sum |dx(k-1)|^m`` over the space.

    Exact for ``m = 2``; a multistart lower estimate for ``m > 2``
    (see :func:`embedding_estimate` for the maximizer and exactness flag).
    """
    return embedding_estimate(m, T, starts=starts, seed=seed).value
