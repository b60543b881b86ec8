"""Discrete function space with zero Dirichlet boundary values.

Functions live on the integer nodes ``0..T+1`` and vanish at both ends.
The space carries the difference norm ``||x|| = sqrt(sum_k |x(k)-x(k-1)|^2)``,
whose quadratic form is realized by the tridiagonal matrix with 2 on the
diagonal and -1 off it.  The embedding constants ``c_m`` of the norm,
``sum |x(k)|^m <= c_m sum |dx(k-1)|^m``, are exact: a closed form for
``m = 2`` and a shooting test for ``m > 2`` (:func:`embedding_estimate`).

The band solves and the shifted eigenvalue call LAPACK routines (``dgtsv``,
``dgbsv``, ``dgbtrf``, ``dgbcon``, ``dstebz``) in scipy's f2py extension
``scipy/linalg/_flapack``, loaded from its file by :func:`_load_flapack`
without importing the ``scipy.linalg`` package.
"""

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError


def _load_flapack():
    """scipy's LAPACK extension module, without running ``scipy.linalg/__init__``.

    It holds the routine objects that ``scipy.linalg.lapack`` exports.  The
    package import it skips would cost most of ``import saddlebvp.cli``: its
    array-API shim imports ``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``.
    """
    scipy = importlib.util.find_spec("scipy")
    path = [os.path.join(d, "linalg") for d in scipy.submodule_search_locations] if scipy else []
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", path)
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack not found in {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


lapack = _load_flapack()


class GridError(ValueError):
    """Invalid grid function or operator input."""


@dataclass(frozen=True)
class GridFunction:
    """Real values at nodes ``0..T+1`` with ``values[0] = values[T+1] = 0``.

    Instances are immutable; arithmetic returns new objects and always
    preserves the zero boundary values.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)  # a copy: the caller's array stays writable
        if v.ndim != 1 or v.size < 3:
            raise GridError(f"need a 1-d array of length T+2 with T >= 1, got shape {v.shape}")
        if v[0] != 0.0 or v[-1] != 0.0:
            raise GridError(f"boundary values must be exactly zero, got ({v[0]!r}, {v[-1]!r})")
        if not np.isfinite(v).all():
            raise GridError("grid values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

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


def delta_i(v):
    """:func:`delta` at interior values ``v``; a ``(B, T)`` block gives ``(B, T+1)`` rows.

    The differences of ``v`` padded with the zero boundary values, without
    the padding copy.
    """
    d = np.empty(v.shape[:-1] + (v.shape[-1] + 1,))
    d[..., 0] = v[..., 0]
    np.subtract(v[..., 1:], v[..., :-1], out=d[..., 1:-1])
    d[..., -1] = 0.0 - v[..., -1]
    return d


def delta(x: GridFunction) -> np.ndarray:
    """Forward differences ``x(k) - x(k-1)`` for ``k = 1..T+1``."""
    return delta_i(x.values[1:-1])


def squared_norm(v):
    """``v @ v``, or for a ``(B, T)`` block the ``B`` row values.

    A stacked ``matmul`` sums each row in the order of the 1-d product, so
    every row equals its own ``v @ v`` bit for bit; ``einsum`` and
    ``(v * v).sum(-1)`` do not.
    """
    return np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0]


def h_norm_i(v):
    """:func:`h_norm` at interior values; a ``(B, T)`` block gives the ``B`` row norms."""
    n = np.sqrt(squared_norm(delta_i(v)))
    return float(n) if v.ndim == 1 else n


def h_norm(x: GridFunction) -> float:
    """Difference norm ``sqrt(sum_k |x(k) - x(k-1)|^2)``."""
    return h_norm_i(x.values[1:-1])


@dataclass(frozen=True)
class DirichletLaplacian:
    """Symmetric tridiagonal matrix (2 on the diagonal, -1 off it).

    Acts on interior values ``1..T``.  Positive definite; its quadratic form
    reproduces the squared difference norm: ``x_int @ L @ x_int == h_norm(x)**2``.
    Only the dimension is stored.  The solves and the eigenvalue below work on
    the band of ``L`` shifted by a diagonal, in ``O(T)`` time and memory.
    """

    dimension: int

    def apply(self, interior):
        """Matrix-vector product on interior values.

        A ``(B, T)`` block is multiplied row by row, each row bit for bit as alone.
        """
        v = np.asarray(interior, dtype=float)
        out = 2.0 * v
        out[..., :-1] -= v[..., 1:]
        out[..., 1:] -= v[..., :-1]
        return out

    @property
    def smallest_eigenvalue(self) -> float:
        return float(4.0 * np.sin(np.pi / (2.0 * (self.dimension + 1))) ** 2)

    @property
    def norm_inf(self) -> float:
        """Maximum absolute row sum: 2 for ``T = 1``, 3 for ``T = 2``, else 4."""
        return float(min(self.dimension + 1, 4))

    def solve_shifted(self, shift, rhs):
        """Solve ``(L + diag(shift)) v = rhs`` by tridiagonal LU (``_flapack.dgtsv``).

        Raises ``LinAlgError`` on an exactly singular matrix; may return a
        non-finite ``v`` for a singular or non-finite one.  For ``T = 1`` the
        solve is one division, so a zero pivot gives ``inf``, not an error.
        The result equals ``scipy.linalg.solve_banded``'s on the same band bit for bit.

        ``(B, T)`` blocks solve ``B`` systems, row ``i`` of the result from
        row ``i`` of ``shift`` and ``rhs``, in one ``dgtsv`` call on the
        systems stacked down one tridiagonal with zero off-diagonals at the
        seams, so each row equals its 1-d solve bit for bit.  When a system is
        singular, or a value is not finite or zero (the sign of a zero may
        come from the neighbouring system), the rows are solved one at a time
        instead; a row whose 1-d solve raises ``LinAlgError`` holds nan.
        """
        T = self.dimension
        b = np.array(rhs, dtype=float)
        d = np.add(2.0, shift, out=np.empty_like(b))
        if T == 1:
            with np.errstate(divide="ignore", invalid="ignore"):
                return b / d
        off = np.full(b.size - 1, -1.0)
        off[T - 1::T] = 0.0
        _, _, _, v, info = lapack.dgtsv(off, d.reshape(-1), off.copy(), b.reshape(-1),
                                        overwrite_dl=True, overwrite_d=True, overwrite_du=True,
                                        overwrite_b=True)
        if b.ndim == 1 and info > 0:
            raise LinAlgError("singular matrix")
        if b.ndim == 1 or (info == 0 and np.isfinite(v).all() and v.all()):
            return v.reshape(b.shape)
        return self._solve_rows(self.solve_shifted, 1, shift, rhs)[0]

    def smallest_eigenvalue_shifted(self, shift) -> float:
        """Smallest eigenvalue of ``L + diag(shift)`` by bisection (``_flapack.dstebz``).

        The call is the one
        ``scipy.linalg.eigvalsh_tridiagonal(d, e, select="i", select_range=(0, 0))``
        makes, with that function's checks: ``ValueError`` on a non-finite shift, ``d[0]``
        itself for ``T = 1`` and ``LinAlgError`` when ``dstebz`` reports failure.
        """
        d = np.asarray_chkfinite(2.0 + np.asarray(shift, dtype=float))
        if self.dimension == 1:
            return float(d[0])
        e = np.full(self.dimension - 1, -1.0)
        _, w, _, _, info = lapack.dstebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "E")
        if info != 0:
            raise LinAlgError(f"dstebz did not converge (LAPACK info={info})")
        return float(w[0])

    def _coupled_band(self, shift_x, coupling, shift_y, rows=(), gap=0):
        """LAPACK ``gbsv`` band storage of the coupled matrix of :meth:`solve_coupled`.

        Unknowns are interleaved as ``(x_1, y_1, x_2, y_2, ...)``, which puts
        the ``2T x 2T`` matrix in a band of two diagonals on each side; row
        ``4 + i - j`` of the result holds entry ``(i, j)``, and rows 0 and 1
        are the zero fill rows that pivoting writes into.  With ``rows = (B,)``
        and ``(B, T)`` inputs the ``B`` matrices follow each other down the
        diagonal, each followed by ``gap`` unknowns of an identity block.
        """
        T = self.dimension
        coupling = np.asarray(coupling, dtype=float)
        # C-order (B, 2T + gap, 7) is the Fortran-order (7, B (2T + gap)) band, built in place
        ab = np.zeros(rows + (2 * T + gap, 7))
        ab[..., 2:2 * T, 2] = ab[..., :2 * T - 2, 6] = -1.0
        ab[..., 1:2 * T:2, 3] = coupling
        ab[..., 0:2 * T:2, 4] = 2.0 + np.asarray(shift_x, dtype=float)
        ab[..., 1:2 * T:2, 4] = 2.0 + np.asarray(shift_y, dtype=float)
        ab[..., 0:2 * T:2, 5] = -coupling
        ab[..., 2 * T:, 4] = 1.0
        return ab.reshape(-1, 7).T

    def solve_coupled(self, shift_x, coupling, shift_y, rhs_x, rhs_y):
        """Solve ``[[L + diag(shift_x), diag(c)], [-diag(c), L + diag(shift_y)]] v = rhs``.

        Returns ``(v_x, v_y)``.  Banded LU with partial pivoting on the
        interleaved unknowns (``_flapack.dgbsv``), equal bit for bit to what
        ``scipy.linalg.solve_banded`` returns on the same band.  Raises
        ``LinAlgError`` on an exactly singular matrix; may return non-finite
        values for a singular or non-finite one.

        ``(B, T)`` blocks of the five arrays solve ``B`` systems, row ``i``
        of each output from row ``i`` of each input, in one ``gbsv`` call on
        the systems stacked down one band.  Four identity unknowns between
        consecutive systems keep the LU of each system away from its
        neighbours' entries, zeros included, so each row equals its 1-d solve
        bit for bit.  When a system is singular or a value is not finite the
        rows are solved one at a time instead; a row whose 1-d solve raises
        ``LinAlgError`` holds nan.
        """
        T = self.dimension
        rhs_x = np.asarray(rhs_x, dtype=float)
        gap = 4 if rhs_x.ndim == 2 else 0
        rhs = np.zeros(rhs_x.shape[:-1] + (2 * T + gap,))
        rhs[..., 0:2 * T:2] = rhs_x
        rhs[..., 1:2 * T:2] = rhs_y
        ab = self._coupled_band(shift_x, coupling, shift_y, rhs_x.shape[:-1], gap)
        _, _, v, info = lapack.dgbsv(2, 2, ab, rhs.reshape(-1), overwrite_ab=True,
                                     overwrite_b=True)
        if rhs_x.ndim == 1:
            if info > 0:
                raise LinAlgError("singular matrix")
            return v[0::2], v[1::2]
        v = v.reshape(rhs.shape)
        if info > 0 or not np.isfinite(v).all():
            return tuple(self._solve_rows(self.solve_coupled, 2, shift_x, coupling, shift_y,
                                          rhs_x, rhs_y))
        return v[:, 0:2 * T:2], v[:, 1:2 * T:2]

    @staticmethod
    def _solve_rows(solve, outputs, *blocks):
        """``outputs`` arrays of ``solve`` on ``(B, T)`` blocks by rows; singular rows hold nan."""
        blocks = np.broadcast_arrays(*blocks)
        out = np.empty((outputs,) + blocks[0].shape)
        for i, row in enumerate(zip(*blocks)):
            try:
                out[:, i] = solve(*row)
            except LinAlgError:
                out[:, i] = np.nan
        return out

    def coupled_condition(self, shift_x, coupling, shift_y) -> float:
        """1-norm condition estimate of the coupled matrix (``_flapack.dgbtrf``/``dgbcon``)."""
        ab = self._coupled_band(shift_x, coupling, shift_y)
        anorm = float(np.max(np.sum(np.abs(ab[2:]), axis=0)))
        lu, piv, info = lapack.dgbtrf(ab, 2, 2, overwrite_ab=True)
        if info > 0:
            return np.inf  # a zero pivot: exactly singular
        rcond, _ = lapack.dgbcon(2, 2, lu, piv, anorm)
        return np.inf if rcond == 0.0 else 1.0 / rcond


def laplacian(T: int) -> DirichletLaplacian:
    """Dirichlet second-difference operator of size ``T x T``."""
    if T < 1:
        raise GridError(f"T must be >= 1, got {T}")
    return DirichletLaplacian(dimension=T)


def random_interior(T, radius, rng):
    """Interior values of a draw uniform in the ball ``h_norm(x) <= radius``.

    Direction is isotropic in the difference norm; the radial law
    ``r = radius * U**(1/T)`` makes the draw uniform over the T-dimensional ball.
    The one-row case of :func:`random_interior_rows`.
    """
    return random_interior_rows(T, ((radius, rng),))[0]


def random_interior_rows(T, draws):
    """A ``(B, T)`` block of :func:`random_interior` draws, one row per ``(radius, rng)`` in the sequence ``draws``.

    The rngs are called in the order of the pairs, ``T`` normals and then
    one uniform per row, so a shared rng ends in the state a loop of
    one-row draws leaves and each row holds the bits of its one-row draw.
    The norms come from one :func:`h_norm_i` call on the block.  A row whose
    normals are all zero draws no uniform and stays zero.
    """
    V = np.empty((len(draws), T))
    r = np.zeros(len(draws))
    for i, (radius, rng) in enumerate(draws):
        row = V[i]
        rng.standard_normal(out=row)
        if row[0] or row.any():  # the first normal alone decides almost every row
            r[i] = radius * rng.random() ** (1.0 / T)  # random() on [0, 1), the bits of uniform()
    n = h_norm_i(V)
    V *= np.divide(r, n, out=np.ones_like(r), where=n > 0.0)[:, None]
    return V


@dataclass(frozen=True)
class EmbeddingEstimate:
    """Smallest ``c`` with ``sum |x(k)|^m <= c * sum |dx(k-1)|^m``, with a function attaining it.

    ``maximizer`` has Euclidean norm 1 and positive interior values.
    """

    m: int
    T: int
    value: float
    maximizer: GridFunction


def _shoot(m, T, lam):
    """Values at nodes ``1..T+1`` of the shooting solution, or None once one is ``<= 0``.

    Solves ``phi(dx_k) = phi(dx_{k-1}) - lam * phi(x_k)``, ``phi(t) = |t|^(m-2) t``,
    from ``x_0 = 0``, ``x_1 = 1``; every ``x_k`` it reaches is positive, so
    ``phi(x_k) = x_k^(m-1)``.
    """
    q = 1.0 / (m - 1)
    x = p = 1.0  # x_1 and phi(dx_0)
    xs = [x]
    for _ in range(T):
        p -= lam * x ** (m - 1)
        x += math.copysign(abs(p) ** q, p)
        if x <= 0.0:
            return None
        xs.append(x)
    return xs


def embedding_estimate(m: int, T: int) -> EmbeddingEstimate:
    """Embedding constant ``c_m`` of the difference norm, with its maximizer.

    ``c_m = 1 / lambda_1``, where ``lambda_1`` is the smallest ``lambda`` at
    which ``sum |dx|^m - lambda * sum |x|^m`` fails to be positive for every
    nonzero ``x``.  For ``m = 2`` that is the smallest eigenvalue of the
    Dirichlet matrix, and the maximizer is its sine mode.  For ``m > 2`` the
    discrete roundabout theorem for half-linear difference equations (Dosly &
    Rehak, *Half-Linear Differential Equations*, 2005) makes the functional
    positive exactly when the solution of :func:`_shoot` stays positive on
    ``1..T+1``.  Bisection on ``(0, 2]`` (from ``lambda = 2`` on, ``x_2 <= 0``)
    runs until the midpoint equals an end and returns the value
    ``1 / lambda_lo``, where ``lambda_lo`` is the lower end, and the positive
    solution there, restricted to ``1..T``, as the maximizer.  The value
    bounds ``c_m`` from above and the ratio at the maximizer from below; the
    two agree to rounding.
    """
    if m < 2:
        raise GridError(f"m must be >= 2, got {m}")
    if T < 1:
        raise GridError(f"T must be >= 1, got {T}")
    if m == 2:
        sine = np.sin(np.arange(1, T + 1) * np.pi / (T + 1))
        return EmbeddingEstimate(m=m, T=T, value=1.0 / laplacian(T).smallest_eigenvalue,
                                 maximizer=GridFunction.from_interior(sine / np.linalg.norm(sine)))

    lo, hi, positive = 0.0, 2.0, None
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        try:
            shot = _shoot(m, T, mid)
        except OverflowError:  # x_k^(m-1) with x_k up to T+1
            raise GridError(f"c_{m} for T={T} is beyond double precision") from None
        if shot is None:
            hi = mid
        else:
            lo, positive = mid, shot
    v = np.array(positive[:T])
    return EmbeddingEstimate(m=m, T=T, value=1.0 / lo,
                             maximizer=GridFunction.from_interior(v / np.linalg.norm(v)))


def embedding_constant(m: int, T: int) -> float:
    """Smallest constant ``c`` with ``sum |x(k)|^m <= c sum |dx(k-1)|^m`` over the space.

    See :func:`embedding_estimate`, which also returns a maximizer.
    """
    return embedding_estimate(m, T).value
