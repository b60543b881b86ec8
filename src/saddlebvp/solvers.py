"""Saddle-point solvers and a posteriori verification.

Three routes to a saddle point of the action, the methods of
:data:`METHODS`, chosen by ``SolverConfig.method``:

* ``"extragradient"`` -- the two-step scheme for the monotone operator
  ``(grad_x J, -grad_y J)`` with a locally backtracked step; needs only
  first derivatives.
* ``"newton"`` -- damped Newton on the first-order system; quadratic
  convergence near a solution.
* ``"nested"`` and ``"nested-xfirst"`` -- the constructive route of the
  existence argument: ``"nested"`` minimizes exactly in ``x`` at fixed
  ``y``, then takes Newton steps on the gradient of the concave reduced
  function of ``y`` (max-min); ``"nested-xfirst"`` mirrors it (min-max).
  Both orders make the minimax equality checkable.

``newton`` and both levels of the nested methods share one damped-Newton
loop (:func:`_damped_newton`), which backtracks until the Euclidean norm of
its residual falls by the Armijo fraction.  The loop works on a block of
rows, one run per row.

:func:`runs`, the one driver, runs the block function of ``cfg.method`` in
:data:`METHODS` on many starts in lockstep, and :func:`solve` is its
one-row case, the run from one start.  Every method keeps each
iterate as one stacked row ``z = (x, y)`` of a ``(B, 2T)`` block (nested
steps one half of it on each level) and reaches the field only through
:func:`~saddlebvp.problem.operator_i`, the operator
``G = (grad_x J, -grad_y J)`` of a whole block, and
:func:`~saddlebvp.problem.jacobian_i`, the band diagonals of its Jacobian.
Each row keeps its own step, iterate and stop, and one kernel call per
iteration serves every live row, as one band solve per iteration serves
newton's and nested's steps.  The candidates of a block
come from one operator and one action call.  The problem layer and the band
solve treat a block row by row bit for bit as alone, and every block goes
through :func:`~saddlebvp.problem.rows_apart`, so each start ends exactly
where its own run ends and only the rows that leave the domain fail.

With ``record_trace`` every start of a block records its trace
(:class:`_Traces`): each iteration keeps its arrays, and the residuals and
actions of ``block_rows(T)`` recorded rows come from one call each (an
iteration of more than half that many rows from its own call).
``trace.csv`` writes the first representative's trace.

``verify_saddle`` checks a candidate a posteriori: small system defect,
sampled saddle inequalities, and the second-order test that ``x -> J(x, y*)``
is locally convex and ``y -> J(x*, y)`` locally concave.
"""

from dataclasses import dataclass

import numpy as np

from .expressions import ExprError
from .grid import h_norm, h_norm_i, random_interior_rows, squared_norm
from .problem import (SaddleCandidate, action_i, ball_pair_blocks, block_rows, jacobian_i,
                      make_candidates_i, operator_i, residual, residual_from_grad, row_values,
                      second_partials_i)

INNER_MAX_ITER = 200
INNER_TOL_FACTOR = 1e-2     # nested inner solves stop at this fraction of the outer tolerance
ARMIJO = 1e-4
EG_NU = 0.9                 # extragradient predictor test: |G(z_hat) - G(z)| <= EG_NU |G(z)|
EG_GROWTH = 1.1             # extragradient step growth after an accepted step
EG_MIN_STEP = 1e-12         # extragradient halving floor; below it the start stops
EG_PATIENCE = 50            # extragradient stops after this many iterations without a new best |G|
DEFAULT_RADII = (4.0, 4.0)  # multistart ball radii when no certificate gives them
CLUSTER_RADIUS = 1e-4       # saddle_set merges converged candidates closer than this


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by all solvers; ``tol`` is an absolute stopping tolerance."""

    method: str = "newton"
    tol: float = 1e-10
    max_iter: int = 20000
    multistart: int = 8
    seed: int = 0
    record_trace: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; "
                             f"expected one of {', '.join(sorted(METHODS))}")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.multistart < 1:
            raise ValueError("multistart must be >= 1")


def radii_pair(radii, default=None):
    """Ball radii ``(rx, ry)`` from a certificate's ``BallRadii`` or a pair.

    ``None`` gives ``default``.
    """
    if radii is None:
        return default
    if isinstance(radii, tuple):
        return radii
    return radii.r1, radii.r2


def product_distance(a, b) -> float:
    """Distance between two candidate points in the product difference norm."""
    return float(np.hypot(h_norm_i(a.x.values[1:-1] - b.x.values[1:-1]),
                          h_norm_i(a.y.values[1:-1] - b.y.values[1:-1])))


def _norm(G, T):
    """``sqrt(|G_x|^2 + |G_y|^2)`` of each row of a ``(B, 2T)`` block, summed by halves."""
    halves = squared_norm(G.reshape(len(G), 2, T))
    return np.sqrt(halves[:, 0] + halves[:, 1])


class _Traces:
    """The trace rows ``(it, |G|_2, residual, action)`` of the ``n`` runs of one block.

    :meth:`add` takes one iteration of the live rows: the iteration, their
    block indices, norms and ``(B, 2T)`` iterates ``Z = (x, y)``, and their
    operator values ``G`` (:func:`~saddlebvp.problem.operator_i`), or
    ``None`` to have them computed here.  The arrays wait, kept and not
    copied, until ``block_rows(T)`` rows are pending; then one
    ``residual_from_grad`` and one :func:`~saddlebvp.problem.row_values`
    call of ``action_i`` cover them all, each row bit for bit as alone (nan
    outside the domain), and the batch's rows join their runs' lists.  An
    iteration of more than half that many rows is such a batch on its own.
    :meth:`lists` evaluates the rest.
    """

    def __init__(self, spec, u, n):
        self.spec, self.u = spec, u
        self.size = block_rows(spec.T)
        self.pending, self.filled = [], 0
        self.traces = [[] for _ in range(n)]

    def add(self, it, rows, norms, Z, G=None, copy=False):
        # With copy, the rows of Z and G that wait are copied: the caller
        # writes those arrays in place later.  An iteration of more than half
        # a batch is evaluated at once, alone: one call per iteration, as
        # without batches, and nothing to copy or join.  A block's live rows
        # never grow, so no rows are pending then.
        if 2 * len(rows) > self.size:
            self.pending.append((it, rows, norms, Z, G))
            self._flush()
            return
        start = 0
        while start < len(rows):
            part = slice(start, start + min(len(rows) - start, self.size - self.filled))
            self.filled += part.stop - part.start
            start = part.stop
            z, g = Z[part], None if G is None else G[part]
            if copy and self.filled < self.size:
                z, g = z.copy(), None if g is None else g.copy()
            self.pending.append((it, rows[part], norms[part], z, g))
            if self.filled == self.size:
                self._flush()

    def _flush(self):
        its, rows, norms, Z, G = zip(*self.pending)
        self.pending, self.filled = [], 0
        join = np.concatenate if len(its) > 1 else (lambda parts: parts[0])
        its = [it for it, r in zip(its, rows) for _ in range(len(r))]
        rows, Z = join(rows).tolist(), join(Z)
        G = operator_i(self.spec, self.u, Z)[0] if G[0] is None else join(G)
        T = self.spec.T
        values = zip(its, join(norms).tolist(), residual_from_grad(G[:, :T], G[:, T:]).tolist(),
                     row_values(action_i, self.spec, self.u, Z[:, :T], Z[:, T:]).tolist())
        for r, row in zip(rows, values):
            self.traces[r].append(row)

    def lists(self):
        """Each run's trace rows in iteration order."""
        if self.pending:
            self._flush()
        return self.traces


def _finish(spec, u, method, Z, iterations, converged, errors, traces):
    """Per run, the exception in ``errors`` that ended it, else its candidate at the row ``Z[r]``.

    The candidates come from one block (:func:`~saddlebvp.problem.make_candidates_i`);
    a row outside the integrand's domain gets its ``ExprError`` instead.
    """
    made = [r for r in range(len(Z)) if r not in errors]
    cands = iter(make_candidates_i(spec, u, Z[made], method, iterations[made].tolist(),
                                   converged[made].tolist(), [traces[r] for r in made]))
    return [errors[r] if r in errors else next(cands) for r in range(len(Z))]


def _extragradient_block(spec, u, Z, cfg, traces):
    """Extragradient on ``G = (grad_x J, -grad_y J)`` with a local step rule.

    The step ``gamma`` starts at ``1 / |L|_inf`` and is halved until the
    predictor ``z_hat = z - gamma G(z)`` passes Khobotov's test
    ``|G(z_hat) - G(z)| <= EG_NU |G(z)|``, i.e.
    ``gamma |G(z_hat) - G(z)| <= EG_NU |z_hat - z|``; a predictor outside the
    integrand's domain is rejected.  The corrector is ``z - gamma G(z_hat)``,
    after which ``gamma`` grows by ``EG_GROWTH``.  A run stops when the
    Euclidean norm of ``G`` drops below ``tol``.  ``EG_PATIENCE`` iterations
    without a new smallest norm (iterates that run away, or a norm stuck at
    its rounding level), a step below ``EG_MIN_STEP`` and iteration
    exhaustion end it at its best iterate, flagged as not converged.  An
    iterate or best iterate outside the domain ends it with its
    ``ExprError``.
    """
    # Row r of the (B, 2T) blocks below is the run from start rows[r], its
    # iterate z = (x, y), and G is the operator at it.  Every row has its own
    # step, best iterate and stop; a row that stops leaves the blocks, so the
    # rows left are the runs that took the corrector step.  The y half of
    # z - gamma G is y + gamma grad_y J bit for bit.  The arrays are never
    # written in place, so the trace keeps them.
    T = spec.T
    rows = np.arange(len(Z))
    gamma = np.full(len(Z), 1.0 / spec.lap.norm_inf)
    best_gn, best_Z = np.full(len(Z), np.inf), Z
    best_it = np.zeros(len(Z), dtype=int)
    end_Z = np.empty_like(Z)
    iterations = np.full(len(Z), cfg.max_iter)
    ended_converged = np.zeros(len(Z), dtype=bool)
    failed = {}

    def predictor(Z, G, gn, gamma):
        # Khobotov's test; a predictor outside the domain holds nan and fails,
        # as it is rejected alone
        GH, _ = operator_i(spec, u, Z - gamma[:, None] * G)
        return GH, _norm(GH - G, T) <= EG_NU * gn

    for it in range(cfg.max_iter):
        if not rows.size:
            break
        G, errors = operator_i(spec, u, Z)
        gn = _norm(G, T)
        if traces is not None:
            ok = np.array([r not in errors for r in range(rows.size)]) if errors else slice(None)
            traces.add(it, rows[ok], gn[ok], Z[ok], G[ok])
        better = gn < best_gn
        if better.all():
            best_gn, best_Z, best_it = gn, Z, np.full(rows.size, it)
        else:
            best_gn = np.where(better, gn, best_gn)
            best_Z = np.where(better[:, None], Z, best_Z)
            best_it = np.where(better, it, best_it)
        converged = gn <= cfg.tol
        # a failed row has gn = nan and stops here; the others stop on no progress
        going = ~converged & np.isfinite(gn) & (it - best_it < EG_PATIENCE)

        # Predictor rounds: the rows in s try their step, and those it fails halve it.
        GH, accepted = np.empty_like(G), np.zeros(rows.size, dtype=bool)
        s = np.flatnonzero(going & (gamma >= EG_MIN_STEP))
        while s.size:
            if s.size == rows.size:  # every row: the whole blocks, no indexing
                GH, accepted = predictor(Z, G, gn, gamma)
                if accepted.all():
                    break
            else:
                GH[s], accepted[s] = predictor(Z[s], G[s], gn[s], gamma[s])
            s = s[~accepted[s]]
            gamma[s] *= 0.5
            s = s[gamma[s] >= EG_MIN_STEP]

        if accepted.all():
            Z = Z - gamma[:, None] * GH
            gamma *= EG_GROWTH
            continue
        stop = ~accepted  # step floor reached, or stopped above
        # a converged run ends where it is, the others at their best
        end_Z[rows[stop]] = np.where(converged[stop, None], Z[stop], best_Z[stop])
        iterations[rows[stop]], ended_converged[rows[stop]] = it, converged[stop]
        failed.update((rows[r], exc) for r, exc in errors.items())
        Z = Z[accepted] - gamma[accepted, None] * GH[accepted]
        gamma = gamma[accepted] * EG_GROWTH
        rows, best_gn, best_Z, best_it = (a[accepted] for a in (rows, best_gn, best_Z, best_it))
    end_Z[rows] = best_Z
    return end_Z, iterations, ended_converged, failed


def _damped_newton(residual, direction, V, tol, max_iter, on_iterate=None, condition=None):
    """Damped Newton on ``residual(v) = 0`` from every row ``v`` of the ``(B, n)`` block ``V``.

    The callbacks get ``rows``, the block indices of the rows they are given.
    ``residual(rows, V)`` returns ``(R, errors)``: the residual at each row
    and ``{row: exception}`` for the rows where it failed, whose rows of
    ``R`` are not read.  ``direction(rows, V, R)`` returns ``(D, errors)``
    in the same way, each row of ``D`` solving ``J d = -r`` with ``J`` the
    residual's Jacobian at that row, or nan where the solve failed.

    Every row runs on its own.  Each iteration calls
    ``on_iterate(it, rows, V, R, |R|_2)`` on the live rows; a row then stops
    if the max-norm of its residual is at most ``tol``.  Its step ``t``
    halves from 1 down to ``1e-12`` until
    ``|r(v + t d)|_2 <= (1 - ARMIJO t) |r(v)|_2``; a trial point outside the
    domain (an ``ExprError``) is a rejected step, and a row whose line
    search finds no step stops flagged as not converged.  One ``residual``
    call per line-search round and one ``direction`` call per iteration
    serve every live row.  A singular or non-finite direction ends its row
    with :class:`SolverError`, with the estimate ``condition(v)`` in the
    message when given; any other error ends its row too.

    Returns ``(V, iterations, converged, errors)``: each row's last iterate,
    iteration count and flag, and ``{row: exception}`` for the rows that an
    exception ended.
    """
    V = np.array(V, dtype=float)  # residual may write into its rows, as nested does
    end = np.full_like(V, np.nan)
    iterations = np.full(len(V), max_iter)
    converged = np.zeros(len(V), dtype=bool)
    rows = np.arange(len(V))
    R, ended = residual(rows, V)
    if ended:
        live = np.ones(len(V), dtype=bool)
        live[list(ended)] = False
        rows, V, R = rows[live], V[live], R[live]
    for it in range(max_iter):
        if not rows.size:
            break
        rn = np.sqrt(squared_norm(R))
        if on_iterate is not None:
            on_iterate(it, rows, V, R, rn)
        done = np.abs(R).max(axis=1) <= tol
        if done.any():
            end[rows[done]], iterations[rows[done]], converged[rows[done]] = V[done], it, True
            rows, V, R, rn = rows[~done], V[~done], R[~done], rn[~done]
            if not rows.size:
                break

        D, errors = direction(rows, V, R)
        failed = ~np.isfinite(D).all(axis=1)
        if errors:
            failed[list(errors)] = True
        if failed.any():
            for r in np.flatnonzero(failed):
                if r in errors:
                    ended[rows[r]] = errors[r]
                    continue
                detail = "" if condition is None else f" (cond estimate {condition(V[r]):.3e})"
                ended[rows[r]] = SolverError(f"singular Jacobian at iteration {it}{detail}")
            rows, V, R, rn, D = (a[~failed] for a in (rows, V, R, rn, D))

        # The rows still searching have all halved their step as often, so
        # one t is the step of each of them.
        t = 1.0
        search = np.arange(rows.size)
        fatal = []
        while search.size and t >= 1e-12:
            VT = V[search] + t * D[search]
            RT, errors = residual(rows[search], VT)
            passed = np.sqrt(squared_norm(RT)) <= (1.0 - ARMIJO * t) * rn[search]
            retry = ~passed
            for i, exc in errors.items():
                # a trial point outside the domain is a rejected step; other errors end the row
                passed[i], retry[i] = False, isinstance(exc, ExprError)
                if not retry[i]:
                    ended[rows[search[i]]] = exc
                    fatal.append(search[i])
            V[search[passed]], R[search[passed]] = VT[passed], RT[passed]
            search = search[retry]
            t *= 0.5
        if search.size or fatal:  # a line search stall, or an error
            end[rows[search]], iterations[rows[search]] = V[search], it
            going = np.ones(rows.size, dtype=bool)
            going[search] = going[fatal] = False
            rows, V, R = rows[going], V[going], R[going]
    end[rows] = V
    return end, iterations, converged, ended


def _newton_block(spec, u, Z0, cfg, traces):
    """Damped Newton on the first-order system ``(L x + F_x, L y - F_y)``.

    Runs :func:`_damped_newton` on the residual ``(grad_x J, -grad_y J)``,
    whose Jacobian ``[[L + F_xx, F_xy], [-F_xy, L - F_yy]]`` is solved as a
    band (:meth:`~saddlebvp.grid.DirichletLaplacian.solve_coupled`); a run
    stops when the max-norm defect falls below ``tol``.  A singular Jacobian
    ends a run with :class:`SolverError` (with a condition estimate), and a
    start that leaves the integrand's domain with its ``ExprError``; a
    stalled line search ends it flagged as not converged.
    """
    T = spec.T

    def step(rows, Z, G):
        # The nan partials of a row outside the domain only send the band
        # solve to its row-by-row path; a nan row of D fails as singular.
        J, errors = jacobian_i(spec, u, Z)
        D = np.empty_like(Z)
        D[:, :T], D[:, T:] = spec.lap.solve_coupled(*J, -G[:, :T], -G[:, T:])
        return D, errors

    def condition(z):
        J, _ = jacobian_i(spec, u, z[None])
        return spec.lap.coupled_condition(*(diagonal[0] for diagonal in J))

    def record(it, rows, Z, G, gn):
        traces.add(it, rows, gn, Z, G, copy=True)  # the line search writes Z and G in place

    return _damped_newton(lambda rows, Z: operator_i(spec, u, Z), step, Z0, cfg.tol,
                          cfg.max_iter, None if traces is None else record, condition)


def _nested_block(spec, u, Z0, cfg, traces):
    """Nested solve: Newton steps on the gradient of the reduced function.

    With ``"nested"`` the inner problem finds the minimum of the convex
    ``x``-section exactly and the outer loop finds the stationary point of
    the concave reduced function ``y -> min_x J(x, y)``, realizing
    ``max_y min_x``; ``"nested-xfirst"`` mirrors the construction and
    realizes ``min_x max_y``.  With ``w`` the outer half of ``z = (x, y)``
    (``y`` for ``"nested"``, ``x`` for ``"nested-xfirst"``) and ``v`` the
    other, a run starts from the ``w`` half of its row of ``Z0`` alone, and
    both levels run :func:`_damped_newton` on a half of ``G``: the inner one
    on ``G_v`` at fixed ``w`` with the tridiagonal Hessian (``L + F_xx`` or
    ``L - F_yy``) to ``INNER_TOL_FACTOR * tol``, from 0 and then warm from
    the last accepted inner point; the outer one on the reduced gradient
    ``G_w(w, v*(w))`` with the Schur complement direction, the ``w`` half of
    one solve of the whole Jacobian band, to ``tol``.  Only trace rows
    evaluate the action.  A start that leaves the integrand's domain ends
    its run with its ``ExprError``, and a singular Hessian of either level,
    inner ones at trial points included, with :class:`SolverError`.
    """
    # v is the other half of z = (x, y), and outer the index of w
    T = spec.T
    outer = 0 if cfg.method == "nested-xfirst" else 1
    halves = (slice(None, T), slice(T, None))
    w, v = halves[outer], halves[1 - outer]
    tol_inner = max(INNER_TOL_FACTOR * cfg.tol, 1e-14)

    def inner_min(Z):
        # from the v half of each row of Z, at its w half
        def at(rows, V):
            # only the w halves are copied from Z; rows are valid indices, and
            # mode="clip" lets take write into out without a buffer
            Z_rows = np.empty((len(rows), 2 * T))
            np.take(Z[:, w], rows, axis=0, out=Z_rows[:, w], mode="clip")
            Z_rows[:, v] = V
            return Z_rows

        def gradient(rows, V):
            G, errors = operator_i(spec, u, at(rows, V))
            return G[:, v], errors

        def step(rows, V, G):
            J, errors = jacobian_i(spec, u, at(rows, V))
            return spec.lap.solve_shifted(J[2 * (1 - outer)], -G), errors

        return _damped_newton(gradient, step, Z[:, v], tol_inner, INNER_MAX_ITER)

    # A trial keeps the accepted v as the inner warm start, and the residual overwrites it
    # with the inner argmin, so every accepted z holds (w, v*(w)).  The inner level runs on
    # the v halves alone: a zero w step would turn a -0.0 into +0.0.
    def reduced_gradient(rows, Z):
        V, _, _, errors = inner_min(Z)
        Z[:, v] = V
        G, grad_errors = operator_i(spec, u, Z)
        return G[:, w], {**grad_errors, **errors}

    def step(rows, Z, G):
        # The w half of the whole band's solve with (-G_w, 0) on its right
        # side is the reduced Hessian's step: eliminating the convex inner
        # unknowns leaves the Schur complement J_ww - J_wv J_vv^-1 J_vw, the
        # Jacobian of the reduced gradient w -> G_w(w, v*(w)).
        J, errors = jacobian_i(spec, u, Z)
        rhs = [np.zeros_like(G), np.zeros_like(G)]
        rhs[outer] = -G
        D = np.zeros_like(Z)
        D[:, w] = spec.lap.solve_coupled(*J, *rhs)[outer]
        return D, errors

    def record(it, rows, Z, G, gn):
        # the trace's operator values join its batch; the line search writes Z in place
        traces.add(it, rows, gn, Z, copy=True)

    Z = np.zeros_like(Z0)  # the first inner start is 0
    Z[:, w] = Z0[:, w]
    return _damped_newton(reduced_gradient, step, Z, cfg.tol, cfg.max_iter,
                          None if traces is None else record)


# block(spec, u, Z0, cfg, traces) -> (Z, iterations, converged, {row: exception}), on
# (B, 2T) rows z = (x, y), traces a _Traces or None
METHODS = {"extragradient": _extragradient_block, "newton": _newton_block,
           "nested": _nested_block, "nested-xfirst": _nested_block}


def runs(spec, u, Z0, cfg: SolverConfig):
    """Runs of ``cfg.method`` from each row ``z = (x, y)`` of the ``(S, 2T)`` block ``Z0``.

    The starts advance in lockstep, in blocks of ``block_rows(T)`` rows, by
    the block function :data:`METHODS` holds for the method (nested: from the
    y halves, nested-xfirst: from the x halves).  Each run ends bit for bit
    where it ends alone.  Returns, per start, its candidate or the
    ``SolverError`` or ``ExprError`` it raises alone.
    """
    size = block_rows(spec.T)
    ends = []
    for i in range(0, len(Z0), size):
        Z = Z0[i:i + size]
        traces = _Traces(spec, u, len(Z)) if cfg.record_trace else None
        end = METHODS[cfg.method](spec, u, Z, cfg, traces)
        ends += _finish(spec, u, cfg.method, *end,
                        [None] * len(Z) if traces is None else traces.lists())
    return ends


def solve(spec, u, x0, y0, cfg: SolverConfig):
    """The run of ``cfg.method`` from the start ``(x0, y0)``, two grid functions.

    This is the one-row case of :func:`runs`: it returns the run's
    :class:`~saddlebvp.problem.SaddleCandidate`, bit for bit the one
    :func:`runs` gives for that row, and raises the :class:`SolverError` or
    ``ExprError`` that ends the run.  The nested methods read only the outer
    half of the start, ``y0`` for ``"nested"`` and ``x0`` for
    ``"nested-xfirst"``; their inner solves start at 0.
    """
    (end,) = runs(spec, u, np.concatenate((x0.interior, y0.interior))[None], cfg)
    if isinstance(end, Exception):
        raise end
    return end


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of the a posteriori saddle checks; failures are listed, not raised."""

    passed: bool
    residual_norm: float
    residual_ok: bool
    inequality_gap_y: float
    inequality_gap_x: float
    inequalities_ok: bool
    curvature_x: float
    curvature_y: float
    value: float
    eps: float
    failures: tuple


def verify_saddle(spec, u, cand, probes=64, eps=1e-8, radii=None, seed=0, tol_res=None):
    """Check that a candidate is a saddle point solving the system.

    (a) system defect below ``tol_res`` (default ``1e-8 * (1 + max row sum
    of the difference matrix)``); (b) sampled saddle inequalities against
    ``probes`` random points of the product ball, skipping any outside the
    integrand's domain (each probe draws ``y`` and then ``x`` from the one
    rng, in the ``(B, T)`` blocks of ``block_rows(T)`` probes that
    :func:`~saddlebvp.problem.ball_pair_blocks` draws and the gaps are
    evaluated in, each gap bit for bit its one-probe value); (c) the
    second-order test: the smallest eigenvalues
    ``curvature_x`` of ``L + diag(F_xx)`` and ``curvature_y`` of
    ``L - diag(F_yy)`` at the candidate are at least ``-eps``.  At a
    stationary point (c) is the second-order necessary condition of the
    minimum in ``x`` and of the maximum in ``y``; (b) is the global check.
    """
    if tol_res is None:
        tol_res = 1e-8 * (1.0 + spec.lap.norm_inf)
    rx, ry = radii_pair(radii, (2.0 * (1.0 + h_norm(cand.x)), 2.0 * (1.0 + h_norm(cand.y))))
    rn = residual(spec, u, cand.x, cand.y)
    residual_ok = rn <= tol_res

    rng = np.random.default_rng(seed)
    xv = cand.x.interior
    yv = cand.y.interior
    value = action_i(spec, u, xv, yv)

    # Python's max, in draw order, skips the nan gap of a probe outside the domain.
    worst_y = worst_x = -np.inf
    for PY, PX in ball_pair_blocks(spec.T, max(1, probes), (ry, rx), rng):
        gaps_y = row_values(action_i, spec, u, np.tile(xv, (len(PY), 1)), PY) - value
        gaps_x = -(row_values(action_i, spec, u, PX, np.tile(yv, (len(PX), 1))) - value)
        worst_y = max(worst_y, *gaps_y.tolist())
        worst_x = max(worst_x, *gaps_x.tolist())
    inequalities_ok = worst_y <= eps and worst_x <= eps

    fxx, _, fyy = second_partials_i(spec, u, xv, yv)
    curvature_x = spec.lap.smallest_eigenvalue_shifted(fxx)
    curvature_y = spec.lap.smallest_eigenvalue_shifted(-fyy)

    failures = []
    if not residual_ok:
        failures.append(f"residual {rn:.3e} exceeds {tol_res:.3e}")
    if worst_y > eps:
        failures.append(f"saddle inequality fails in y by {worst_y:.3e}")
    if worst_x > eps:
        failures.append(f"saddle inequality fails in x by {worst_x:.3e}")
    if curvature_x < -eps:
        failures.append(f"x-Hessian eigenvalue {curvature_x:.3e} is negative")
    if curvature_y < -eps:
        failures.append(f"y-Hessian eigenvalue {-curvature_y:.3e} is positive")
    return VerifyReport(
        passed=not failures, residual_norm=rn, residual_ok=residual_ok,
        inequality_gap_y=float(worst_y), inequality_gap_x=float(worst_x),
        inequalities_ok=inequalities_ok, curvature_x=curvature_x, curvature_y=curvature_y,
        value=float(value), eps=eps, failures=tuple(failures))


@dataclass(frozen=True)
class SaddleSet:
    """Cluster representatives of converged multistart candidates."""

    points: tuple
    cluster_radius: float
    attempts: int = 0
    failures: int = 0

    @property
    def all_failed(self):
        return not self.points


def saddle_set(spec, u, cfg: SolverConfig, radii=None, starts=None):
    """Multistart solve and clustering of the distinct saddle points found.

    Starts are ``cfg.multistart`` draws uniform in the product ball (radii
    from a certificate when available), each from its own generator spawned
    from ``cfg.seed``, or the rows ``z = (x, y)`` of the ``(S, 2T)`` block
    ``starts``, run as given; ``attempts`` is the number of starts.
    Converged candidates closer than ``CLUSTER_RADIUS`` in the product norm
    collapse to the best-resolved representative.  A start that raises
    :class:`SolverError` or leaves the expression domain (``ExprError``)
    counts as failed.  Results are deterministic for a fixed seed.

    The starts run in one :func:`runs` call, in lockstep; each ends exactly
    as it does alone, so the set does not depend on how the starts are
    grouped.
    """
    if starts is None:
        rx, ry = radii_pair(radii, DEFAULT_RADII)
        # Each start's own rng draws its x and then its y, the two halves of its row.
        rngs = [np.random.default_rng(c)
                for c in np.random.SeedSequence(cfg.seed).spawn(cfg.multistart)]
        starts = random_interior_rows(spec.T, [(r, rng) for rng in rngs for r in (rx, ry)])
        starts = starts.reshape(-1, 2 * spec.T)

    results = runs(spec, u, starts, cfg)
    converged = [c for c in results if isinstance(c, SaddleCandidate) and c.converged]
    failures = len(results) - len(converged)
    reps = []
    for cand in sorted(converged, key=lambda c: c.residual_norm):
        if all(product_distance(cand, rep) > CLUSTER_RADIUS for rep in reps):
            reps.append(cand)
    reps.sort(key=lambda c: (c.value, tuple(c.x.interior)))
    return SaddleSet(points=tuple(reps), cluster_radius=CLUSTER_RADIUS,
                     attempts=len(starts), failures=failures)
