"""Saddle-point solvers and a posteriori verification.

Three routes to a saddle point of the action:

* ``extragradient`` -- the two-step scheme for the monotone operator
  ``(grad_x J, -grad_y J)`` with a locally backtracked step; needs only
  first derivatives.
* ``newton`` -- damped Newton on the first-order system; quadratic
  convergence near a solution.
* ``nested`` -- the constructive route of the existence argument: an exact
  minimization in ``x`` at fixed ``y``, then Newton steps on the gradient of
  the concave reduced function of ``y``.

``newton`` and both levels of ``nested`` share one damped-Newton loop
(:func:`_damped_newton`), which backtracks until the Euclidean norm of its
residual falls by the Armijo fraction.  The loop works on a block of rows,
one run per row.

``extragradient_runs`` and ``newton_runs`` advance many starts in lockstep,
as the rows of ``(B, T)`` (newton: ``(B, 2T)``) arrays: each row keeps its
own step, iterate and stop, and one kernel call per iteration serves every
live row, as one band solve per iteration serves newton's.  The starts
arrive as arrays of interior values, and the candidates of a block come
from one gradient and one action call.  The problem layer and the band
solve treat a block row by row bit for bit as alone, and every block goes
through :func:`~saddlebvp.problem.rows_apart`, so each start ends exactly
where its own run ends and only the rows that leave the domain fail.
Nested starts run one by one, each level of each as a one-row block.

``verify_saddle`` checks a candidate a posteriori: small system defect,
sampled saddle inequalities, and the second-order test that ``x -> J(x, y*)``
is locally convex and ``y -> J(x*, y)`` locally concave.
"""

from dataclasses import dataclass

import numpy as np

from .expressions import ExprError
from .grid import GridFunction, h_norm, h_norm_i, random_interior, squared_norm
from .problem import (SaddleCandidate, action_i, block_rows, grad_i, make_candidate,
                      make_candidates_i, residual, residual_from_grad, row_blocks, rows_apart,
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
        if self.method not in ("extragradient", "newton", "nested"):
            raise ValueError(f"unknown method {self.method!r}")
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


def _action_or_nan(spec, u, X, Y):
    """Action at each row of a ``(B, T)`` block, ``nan`` outside the integrand's domain.

    Traces and probes read it (:func:`~saddlebvp.problem.rows_apart`), so
    recording a trace cannot fail a start.
    """
    return rows_apart(lambda i: (action_i(spec, u, X[i], Y[i]),), len(X), ((),))[0][0]


def _rows(kernel, outputs, spec, u, X, Y):
    """``kernel(spec, u, X, Y)``, ``outputs`` arrays, by :func:`~saddlebvp.problem.rows_apart`."""
    return rows_apart(lambda i: kernel(spec, u, X[i], Y[i]), len(X), (X.shape[1:],) * outputs)


def _finish(spec, u, method, finished, traces, ends):
    """Put into ``ends`` each finished run's candidate, or the ``ExprError`` that making it raises.

    ``finished`` holds ``(start, x, y, iterations, converged)`` per run, with
    interior values ``x`` and ``y``; the candidates come from one block.
    """
    if not finished:
        return
    starts, xs, ys, iterations, converged = zip(*finished)
    cands = make_candidates_i(spec, u, np.array(xs), np.array(ys), method, iterations, converged,
                              [traces[i] for i in starts])
    for i, cand in zip(starts, cands):
        ends[i] = cand


def extragradient(spec, u, z0, cfg: SolverConfig):
    """Extragradient on ``G = (grad_x J, -grad_y J)`` with a local step rule.

    The step ``gamma`` starts at ``1 / |L|_inf`` and is halved until the
    predictor ``z_hat = z - gamma G(z)`` passes Khobotov's test
    ``|G(z_hat) - G(z)| <= EG_NU |G(z)|``, i.e.
    ``gamma |G(z_hat) - G(z)| <= EG_NU |z_hat - z|``; a predictor outside the
    integrand's domain is rejected.  The corrector is ``z - gamma G(z_hat)``,
    after which ``gamma`` grows by ``EG_GROWTH``.  Stops when the Euclidean
    norm of ``G`` drops below ``tol``.  ``EG_PATIENCE`` iterations
    without a new smallest norm (iterates that run away, or a norm stuck at
    its rounding level), a step below ``EG_MIN_STEP`` and iteration
    exhaustion return the best iterate flagged as not converged.  An iterate
    or best iterate outside the domain raises its ``ExprError``.

    This is the one-start case of :func:`extragradient_runs`.
    """
    x0, y0 = z0
    (end,) = extragradient_runs(spec, u, x0.values[None, 1:-1], y0.values[None, 1:-1], cfg)
    return _raise_or_return(end)


def extragradient_runs(spec, u, X0, Y0, cfg: SolverConfig):
    """:func:`extragradient` from each row of the ``(S, T)`` interior values ``X0``, ``Y0``, in lockstep.

    The starts advance together as the rows of ``(B, T)`` arrays, in groups
    of ``block_rows(T)``, so one kernel call per iteration serves every run
    that is still going.  Each run ends bit for bit where it ends alone.
    Returns, per start, its candidate or the ``ExprError`` it raises alone.
    """
    size = block_rows(spec.T)
    return [end for i in range(0, len(X0), size)
            for end in _lockstep(spec, u, X0[i:i + size], Y0[i:i + size], cfg)]


def _lockstep(spec, u, X, Y, cfg):
    # Row r of the arrays below is the run from start rows[r].  Every row
    # has its own step, best iterate and stop; a row that stops leaves the
    # arrays, so the rows left are the runs that took the corrector step.
    rows = np.arange(len(X))
    gamma = np.full(len(X), 1.0 / spec.lap.norm_inf)
    best_gn, best_X, best_Y = np.full(len(X), np.inf), X, Y
    best_it = np.zeros(len(X), dtype=int)
    traces = [[] if cfg.record_trace else None for _ in rows]
    ends = [None] * len(X)
    finished = []

    def finish(r, xv, yv, iterations, converged):
        finished.append((rows[r], xv.copy(), yv.copy(), iterations, converged))

    for it in range(cfg.max_iter):
        if not rows.size:
            break
        (GX, GY), errors = _rows(grad_i, 2, spec, u, X, Y)
        gn = np.sqrt(squared_norm(GX) + squared_norm(GY))
        if cfg.record_trace:
            values = zip(gn.tolist(), residual_from_grad(GX, GY).tolist(),
                         _action_or_nan(spec, u, X, Y).tolist())
            for r, (g, res, value) in enumerate(values):
                if r not in errors:
                    traces[rows[r]].append((it, g, res, value))
        better = gn < best_gn
        best_gn = np.where(better, gn, best_gn)
        best_X = np.where(better[:, None], X, best_X)
        best_Y = np.where(better[:, None], Y, best_Y)
        best_it = np.where(better, it, best_it)
        converged = gn <= cfg.tol
        # a failed row has gn = nan and stops here; the others stop on no progress
        going = ~converged & np.isfinite(gn) & (it - best_it < EG_PATIENCE)

        GXH, GYH = np.empty_like(GX), np.empty_like(GY)
        accepted = np.zeros(rows.size, dtype=bool)
        search = going & (gamma >= EG_MIN_STEP)
        while search.any():
            s = np.flatnonzero(search)
            step = gamma[s, None]
            (gxh, gyh), _ = _rows(grad_i, 2, spec, u, X[s] - step * GX[s], Y[s] + step * GY[s])
            GXH[s], GYH[s] = gxh, gyh
            dx, dy = gxh - GX[s], gyh - GY[s]
            # a predictor outside the domain holds nan and fails, as it is rejected alone
            passed = np.sqrt(squared_norm(dx) + squared_norm(dy)) <= EG_NU * gn[s]
            accepted[s] = passed
            gamma[s[~passed]] *= 0.5
            search[s] = ~passed & (gamma[s] >= EG_MIN_STEP)

        for r in np.flatnonzero(~accepted):  # step floor reached, or stopped above
            if r in errors:
                ends[rows[r]] = errors[r]
            elif converged[r]:
                finish(r, X[r], Y[r], it, True)
            else:
                finish(r, best_X[r], best_Y[r], it, False)
        step = gamma[accepted, None]
        X = X[accepted] - step * GXH[accepted]
        Y = Y[accepted] + step * GYH[accepted]
        gamma = gamma[accepted] * EG_GROWTH
        rows, best_gn, best_X, best_Y, best_it = (
            a[accepted] for a in (rows, best_gn, best_X, best_Y, best_it))
    for r in range(rows.size):
        finish(r, best_X[r], best_Y[r], cfg.max_iter, False)
    _finish(spec, u, "extragradient", finished, traces, ends)
    return ends


def _damped_newton(residual, direction, V, tol, max_iter, on_iterate=None, condition=None):
    """Damped Newton on ``residual(v) = 0`` from every row ``v`` of the ``(B, n)`` block ``V``.

    ``residual(V)`` returns ``(R, errors)``: the residual at each row and
    ``{row: ExprError}`` for the rows outside the integrand's domain, whose
    rows of ``R`` are not read.  ``direction(V, R)`` returns ``(D, errors)``
    in the same way, each row of ``D`` solving ``J d = -r`` with ``J`` the
    residual's Jacobian at that row, or nan where the solve failed.

    Every row runs on its own.  Each iteration calls
    ``on_iterate(it, rows, V, R, |R|_2)`` on the live rows, ``rows`` being
    their indices in the block; a row then stops if the max-norm of its
    residual is at most ``tol``.  Its step ``t`` halves from 1 down to
    ``1e-12`` until ``|r(v + t d)|_2 <= (1 - ARMIJO t) |r(v)|_2``; a trial
    point outside the domain is a rejected step, and a row whose line search
    finds no step stops flagged as not converged.  One ``residual`` call per
    line-search round and one ``direction`` call per iteration serve every
    live row.  A singular or non-finite direction ends its row with
    :class:`SolverError`, with the estimate ``condition(v)`` in the message
    when given; a row outside the domain at its start or where its direction
    is evaluated ends with that ``ExprError``.

    Returns, per row, ``(v, iterations, converged)`` or the exception that
    ended it.
    """
    V = np.array(V, dtype=float)  # residual may write into its rows, as nested does
    ends = [None] * len(V)
    rows = np.arange(len(V))
    R, errors = residual(V)
    for r, exc in errors.items():
        ends[r] = exc
    if errors:
        live = np.ones(len(V), dtype=bool)
        live[list(errors)] = False
        rows, V, R = rows[live], V[live], R[live]
    for it in range(max_iter):
        if not rows.size:
            break
        rn = np.sqrt(squared_norm(R))
        if on_iterate is not None:
            on_iterate(it, rows, V, R, rn)
        done = np.abs(R).max(axis=1) <= tol
        if done.any():
            for r in np.flatnonzero(done):
                ends[rows[r]] = (V[r], it, True)
            rows, V, R, rn = rows[~done], V[~done], R[~done], rn[~done]
            if not rows.size:
                break

        D, errors = direction(V, R)
        failed = ~np.isfinite(D).all(axis=1)
        if errors:
            failed[list(errors)] = True
        if failed.any():
            for r in np.flatnonzero(failed):
                if r in errors:
                    ends[rows[r]] = errors[r]
                    continue
                detail = "" if condition is None else f" (cond estimate {condition(V[r]):.3e})"
                ends[rows[r]] = SolverError(f"singular Jacobian at iteration {it}{detail}")
            rows, V, R, rn, D = (a[~failed] for a in (rows, V, R, rn, D))

        # The rows still searching have all halved their step as often, so
        # one t is the step of each of them.
        t = 1.0
        search = np.arange(rows.size)
        while search.size and t >= 1e-12:
            VT = V[search] + t * D[search]
            RT, errors = residual(VT)
            # a trial point outside the domain is rejected
            passed = np.sqrt(squared_norm(RT)) <= (1.0 - ARMIJO * t) * rn[search]
            if errors:
                passed[list(errors)] = False
            V[search[passed]], R[search[passed]] = VT[passed], RT[passed]
            search = search[~passed]
            t *= 0.5
        if search.size:  # line search stall
            for r in search:
                ends[rows[r]] = (V[r], it, False)
            going = np.ones(rows.size, dtype=bool)
            going[search] = False
            rows, V, R = rows[going], V[going], R[going]
    for r in range(rows.size):
        ends[rows[r]] = (V[r], max_iter, False)
    return ends


def _one_row(fn, width):
    """``fn`` on 1-d arrays as a ``residual`` or ``direction`` of :func:`_damped_newton`.

    The block has one row, and the result ``width`` values.  A ``LinAlgError``
    (a singular solve) gives a nan row; an ``ExprError`` is the row's.
    """
    def block(V, *R):
        def row(_):  # a one-row block is evaluated once, as its row
            try:
                return (fn(V[0], *(r[0] for r in R))[None],)
            except np.linalg.LinAlgError:
                return (np.full((1, width), np.nan),)
        (out,), errors = rows_apart(row, 1, ((width,),))
        return out, errors
    return block


def _raise_or_return(end):
    """A run's end as :func:`_damped_newton` or a ``*_runs`` function gives it; exceptions raise."""
    if isinstance(end, Exception):
        raise end
    return end


def newton(spec, u, z0, cfg: SolverConfig):
    """Damped Newton on the first-order system ``(L x + F_x, L y - F_y)``.

    Runs :func:`_damped_newton` on the residual ``(grad_x J, -grad_y J)``,
    whose Jacobian ``[[L + F_xx, F_xy], [-F_xy, L - F_yy]]`` is solved as a
    band (:meth:`~saddlebvp.grid.DirichletLaplacian.solve_coupled`); stops
    when the max-norm defect falls below ``tol``.  Raises
    :class:`SolverError` on a singular Jacobian (with a condition estimate)
    and the ``ExprError`` of a start that leaves the integrand's domain;
    stalls return the iterate flagged.

    This is the one-start case of :func:`newton_runs`.
    """
    x0, y0 = z0
    (end,) = newton_runs(spec, u, x0.values[None, 1:-1], y0.values[None, 1:-1], cfg)
    return _raise_or_return(end)


def newton_runs(spec, u, X0, Y0, cfg: SolverConfig):
    """:func:`newton` from each row of the ``(S, T)`` interior values ``X0``, ``Y0``, in lockstep.

    The starts advance together as the rows of one ``(B, 2T)`` block of
    :func:`_damped_newton`, in groups of ``block_rows(T)``, so one gradient
    and one second-partials kernel call and one band solve per iteration,
    and one gradient call per line-search round, serve every run that is
    still going.  Each run ends bit for bit where it ends alone.
    Returns, per start, its candidate or the ``SolverError`` or ``ExprError``
    it raises alone.
    """
    size = block_rows(spec.T)
    return [end for i in range(0, len(X0), size)
            for end in _newton_block(spec, u, X0[i:i + size], Y0[i:i + size], cfg)]


def _newton_block(spec, u, X0, Y0, cfg):
    T = spec.T
    traces = [[] if cfg.record_trace else None for _ in X0]

    def system(V):
        (GX, GY), errors = _rows(grad_i, 2, spec, u, V[:, :T], V[:, T:])
        return np.concatenate((GX, -GY), axis=1), errors

    def step(V, R):
        # The nan partials of a row outside the domain only send the band
        # solve to its row-by-row path; a nan row of D fails as singular.
        (FXX, FXY, FYY), errors = _rows(second_partials_i, 3, spec, u, V[:, :T], V[:, T:])
        D = np.empty_like(V)
        D[:, :T], D[:, T:] = spec.lap.solve_coupled(FXX, FXY, -FYY, -R[:, :T], -R[:, T:])
        return D, errors

    def condition(v):
        fxx, fxy, fyy = second_partials_i(spec, u, v[:T], v[T:])
        return spec.lap.coupled_condition(fxx, fxy, -fyy)

    def record(it, rows, V, R, rn):
        values = zip(rn.tolist(), residual_from_grad(R[:, :T], R[:, T:]).tolist(),
                     _action_or_nan(spec, u, V[:, :T], V[:, T:]).tolist())
        for r, row in zip(rows, values):
            traces[r].append((it, *row))

    ends = _damped_newton(system, step, np.concatenate((X0, Y0), axis=1), cfg.tol,
                          cfg.max_iter, record if cfg.record_trace else None, condition)
    finished = [(i, end[0][:T], end[0][T:], end[1], end[2])
                for i, end in enumerate(ends) if not isinstance(end, Exception)]
    _finish(spec, u, "newton", finished, traces, ends)
    return ends


def _order(outer):
    """Sign ``s`` of the outer step and slot of the outer variable in ``(x, y)``.

    ``outer="y"`` ascends in ``y`` over ``min_x`` (``s = -1``); ``outer="x"``
    descends in ``x`` over ``max_y`` (``s = +1``).
    """
    if outer == "y":
        return -1.0, 1
    if outer == "x":
        return 1.0, 0
    raise ValueError(f"outer must be 'y' or 'x', got {outer!r}")


def _pair(slot, w, v):
    """``(x, y)`` from the outer value ``w`` in ``slot`` and the inner value ``v``."""
    return (v, w) if slot == 1 else (w, v)


def _schur_solve(lap, partials, slot, s, g):
    """Outer direction ``d`` with ``S d = -g``, ``S`` the reduced Hessian.

    ``S = J_ww - J_wv J_vv^{-1} J_vw`` is the Schur complement of the convex
    inner block ``-s J_vv = L - s F_vv``, the Jacobian of the reduced gradient
    ``w -> grad_w J(w, v*(w))``.  Rather than forming it, solve the Jacobian
    band ``[[L + F_xx, F_xy], [-F_xy, L - F_yy]]`` with ``-s g`` in the outer
    slots and 0 in the inner ones: eliminating the inner unknowns leaves
    ``s S d = -s g``.
    """
    fxx, fxy, fyy = partials
    rhs = [np.zeros_like(g), np.zeros_like(g)]
    rhs[slot] = -s * g
    return lap.solve_coupled(fxx, fxy, -fyy, *rhs)[slot]


def nested_minimax(spec, u, y0, cfg: SolverConfig, outer="y"):
    """Nested solve: Newton steps on the gradient of the reduced function.

    With ``outer="y"`` (the default) the inner problem finds the minimum of
    the convex ``x``-section exactly and the outer loop finds the stationary
    point of the concave reduced function ``y -> min_x J(x, y)``, realizing
    ``max_y min_x``; ``outer="x"`` mirrors the construction and realizes
    ``min_x max_y`` (pass the starting ``x`` as ``y0``).  Both levels run
    :func:`_damped_newton`, each on a one-row block: the inner one on
    ``-s grad_v J(v, w)`` with the tridiagonal Hessian ``L - s F_vv`` to
    ``INNER_TOL_FACTOR * tol``, warm from the last accepted inner point; the
    outer one on the reduced gradient ``grad_w J(w, v*(w))`` with the Schur
    complement direction (:func:`_schur_solve`) to ``tol``.  Only trace rows
    evaluate the action.
    """
    s, slot = _order(outer)
    T = spec.T
    tol_inner = max(INNER_TOL_FACTOR * cfg.tol, 1e-14)
    trace = [] if cfg.record_trace else None

    def at(z):
        return _pair(slot, z[..., :T], z[..., T:])

    def inner_min(w, v0):
        def gradient(v):
            return -s * grad_i(spec, u, *_pair(slot, w, v))[1 - slot]

        def step(v, g):
            shift = -s * second_partials_i(spec, u, *_pair(slot, w, v))[2 * (1 - slot)]
            return spec.lap.solve_shifted(shift, -g)

        (end,) = _damped_newton(_one_row(gradient, T), _one_row(step, T), v0[None],
                                tol_inner, INNER_MAX_ITER)
        return _raise_or_return(end)[0]

    # The outer iterate is z = (w, v).  A trial keeps the accepted v as the
    # inner warm start, and the residual overwrites it with the inner
    # argmin, so every accepted z holds (w, v*(w)).
    def reduced_gradient(z):
        z[T:] = inner_min(z[:T], z[T:])
        return grad_i(spec, u, *at(z))[slot]

    def step(z, g):
        d = _schur_solve(spec.lap, second_partials_i(spec, u, *at(z)), slot, s, g)
        return np.concatenate((d, np.zeros(T)))

    def record(it, rows, Z, G, gn):
        trace.append((it, float(gn[0]), residual_from_grad(*grad_i(spec, u, *at(Z[0]))),
                      float(_action_or_nan(spec, u, *at(Z))[0])))

    (end,) = _damped_newton(
        _one_row(reduced_gradient, T), _one_row(step, 2 * T),
        np.concatenate((y0.interior, np.zeros(T)))[None], cfg.tol, cfg.max_iter,
        record if trace is not None else None)
    z, it, converged = _raise_or_return(end)
    xv, yv = at(z)
    method = "nested" if outer == "y" else "nested-xfirst"
    return make_candidate(spec, u, GridFunction.from_interior(xv),
                          GridFunction.from_interior(yv), method,
                          iterations=it, converged=converged, trace=trace)


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
    integrand's domain (the probes are drawn in order and evaluated in
    ``(B, T)`` blocks, each gap bit for bit its one-probe value); (c) the second-order test: the smallest eigenvalues
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

    def draws():
        for _ in range(max(1, probes)):
            py = random_interior(spec.T, ry, rng)
            px = random_interior(spec.T, rx, rng)
            yield py, px

    # Python's max, in draw order, skips the nan gap of a probe outside the domain.
    worst_y = worst_x = -np.inf
    for PY, PX in row_blocks(spec.T, draws()):
        gaps_y = _action_or_nan(spec, u, np.tile(xv, (len(PY), 1)), PY) - value
        gaps_x = -(_action_or_nan(spec, u, PX, np.tile(yv, (len(PX), 1))) - value)
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


def saddle_set(spec, u, cfg: SolverConfig, radii=None):
    """Multistart solve and clustering of the distinct saddle points found.

    Starts are uniform in the product ball (radii from a certificate when
    available); converged candidates closer than ``CLUSTER_RADIUS`` in the
    product norm collapse to the best-resolved representative.  A start that
    raises :class:`SolverError` or leaves the expression domain (``ExprError``)
    counts as failed.  Results are deterministic for a fixed seed.

    Extragradient and newton starts run in one :func:`extragradient_runs` or
    :func:`newton_runs` call, in lockstep; each ends exactly as it does
    alone, so the set does not depend on how the starts are grouped.  Nested
    starts run one by one from their ``y`` draws.
    """
    rx, ry = radii_pair(radii, DEFAULT_RADII)
    X0, Y0 = np.empty((2, cfg.multistart, spec.T))
    for i, child in enumerate(np.random.SeedSequence(cfg.seed).spawn(cfg.multistart)):
        rng = np.random.default_rng(child)
        X0[i] = random_interior(spec.T, rx, rng)
        Y0[i] = random_interior(spec.T, ry, rng)

    def nested(y0):
        try:
            return nested_minimax(spec, u, GridFunction.from_interior(y0), cfg)
        except (SolverError, ExprError):
            return None

    if cfg.method == "extragradient":
        results = extragradient_runs(spec, u, X0, Y0, cfg)
    elif cfg.method == "newton":
        results = newton_runs(spec, u, X0, Y0, cfg)
    else:
        results = [nested(y0) for y0 in Y0]

    converged = [c for c in results if isinstance(c, SaddleCandidate) and c.converged]
    failures = len(results) - len(converged)
    reps = []
    for cand in sorted(converged, key=lambda c: c.residual_norm):
        if all(product_distance(cand, rep) > CLUSTER_RADIUS for rep in reps):
            reps.append(cand)
    reps.sort(key=lambda c: (c.value, tuple(c.x.interior)))
    return SaddleSet(points=tuple(reps), cluster_radius=CLUSTER_RADIUS,
                     attempts=cfg.multistart, failures=failures)
