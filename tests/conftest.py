"""Shared oracles and instance generators for the test suite.

The finite-difference and direct-solve helpers here are written from the
definitions only (they build their own matrices and difference quotients)
so they stay independent of the library code they are used to check.
"""

import numpy as np

from saddlebvp import GridFunction, ParameterFunction, ProblemSpec, action, grad
from saddlebvp.expressions import ExprError, evaluate
from saddlebvp.solvers import EG_GROWTH, EG_MIN_STEP, EG_NU, EG_PATIENCE


def central_fd_gradient(spec, u, x, y, h=5e-6):
    """Central differences of the action in every interior coordinate."""
    xv = x.interior
    yv = y.interior
    gx = np.empty(spec.T)
    gy = np.empty(spec.T)
    for k in range(spec.T):
        step = h * (1.0 + abs(xv[k]))
        xp, xm = xv.copy(), xv.copy()
        xp[k] += step
        xm[k] -= step
        gx[k] = (action(spec, u, GridFunction.from_interior(xp), y)
                 - action(spec, u, GridFunction.from_interior(xm), y)) / (2 * step)
        step = h * (1.0 + abs(yv[k]))
        yp, ym = yv.copy(), yv.copy()
        yp[k] += step
        ym[k] -= step
        gy[k] = (action(spec, u, x, GridFunction.from_interior(yp))
                 - action(spec, u, x, GridFunction.from_interior(ym))) / (2 * step)
    return gx, gy


def dirichlet_matrix(T):
    """Second-difference matrix built from scratch (test-side copy)."""
    return 2.0 * np.eye(T) - np.eye(T, k=1) - np.eye(T, k=-1)


def quadratic_instance(rng, T, D=1.0):
    """Random quadratic integrand, convex in x and concave in y by construction."""
    a = rng.uniform(0.1, 0.8)
    b = rng.uniform(0.1, 0.8)
    c = rng.uniform(-0.4, 0.4)
    d = rng.uniform(-1.0, 1.0)
    e = rng.uniform(-1.0, 1.0)
    g = rng.uniform(-0.8, 0.8)
    h = rng.uniform(-0.8, 0.8)
    F = (f"{a!r}*x^2 - {b!r}*y^2 + {c!r}*x*y + {d!r}*x + {e!r}*y"
         f" + {g!r}*u*x + {h!r}*u*y")
    spec = ProblemSpec.create(T, D, F)
    u = ParameterFunction(rng.uniform(-D, D, T), D)
    return spec, u, (a, b, c, d, e, g, h)


def direct_quadratic_solve(T, u, coeffs):
    """Stationarity of a quadratic instance as one 2T x 2T linear system."""
    a, b, c, d, e, g, h = coeffs
    L = dirichlet_matrix(T)
    I = np.eye(T)
    A = np.block([[L + 2 * a * I, c * I],
                  [c * I, -(L + 2 * b * I)]])
    rhs = -np.concatenate((d + g * u.values, e + h * u.values))
    z = np.linalg.solve(A, rhs)
    return z[:T], z[T:]


def nonlinear_instance(rng, T, D=1.0):
    """Random smooth integrand with strict convexity/concavity margins.

    The quadratic coefficients dominate the bounded trigonometric parts, so
    F_xx >= 2a - |p| > 0 and F_yy <= -2b + |q| < 0 hold globally.
    """
    a = rng.uniform(0.3, 0.6)
    b = rng.uniform(0.3, 0.6)
    c = rng.uniform(-0.3, 0.3)
    p = rng.uniform(-0.3, 0.3)
    q = rng.uniform(-0.3, 0.3)
    F = (f"{a!r}*x^2 - {b!r}*y^2 + {c!r}*x*y + {p!r}*sin(x) + {q!r}*cos(y)"
         f" + u*(x - y)")
    spec = ProblemSpec.create(T, D, F)
    u = ParameterFunction(rng.uniform(-D / 2, D / 2, T), D)
    return spec, u


def per_pair_gap(spec, u_a, u_b, radii, samples, seed):
    """Sampled sup of ``|sum_k F(u_a) - sum_k F(u_b)|``, one ball pair at a time.

    Returns ``(sup, differences)``.  Each draw is ``x`` then ``y``, uniform in
    the ball of the difference norm: a Gaussian direction scaled to the
    radius ``r U^(1/T)``; the even draws are scaled onto the spheres.  Every
    pair's sums come from the interpreter on that pair alone, nan for a
    pair outside the integrand's domain, and the sup is the running ``max``,
    which passes over nan differences.
    """
    T = spec.T
    k = np.arange(1, T + 1, dtype=float)
    rng = np.random.default_rng(seed)

    def draw(radius):
        padded = np.zeros(T + 2)
        padded[1:-1] = rng.standard_normal(T)
        d = np.diff(padded)
        r = radius * rng.uniform() ** (1.0 / T)
        return padded * (r / np.sqrt(d @ d))

    def integrand_sum(u, xv, yv):
        try:
            f = evaluate(spec.field.f, {"k": k, "x": xv, "y": yv, "u": u.values})
        except ExprError:
            return np.nan
        return float(np.broadcast_to(f, (T,)).sum())

    worst, differences = 0.0, []
    for i in range(max(1, samples)):
        x, y = draw(radii[0]), draw(radii[1])
        xv, yv = x[1:-1], y[1:-1]
        if i % 2 == 0:
            dx, dy = np.diff(x), np.diff(y)
            xv = xv * (radii[0] / np.sqrt(dx @ dx))
            yv = yv * (radii[1] / np.sqrt(dy @ dy))
        differences.append(abs(integrand_sum(u_a, xv, yv) - integrand_sum(u_b, xv, yv)))
        worst = max(worst, differences[-1])
    return worst, differences


def reference_extragradient(spec, u, x0, y0, tol, max_iter):
    """Korpelevich's extragradient with Khobotov's step test, one start, from the definitions.

    A plain loop over the public ``grad`` and ``action`` at one point at a
    time, on ``G = (grad_x J, -grad_y J)``.  The step starts at one over the
    largest row sum of the difference matrix and halves until the predictor
    ``z_hat = z - gamma G(z)`` passes ``|G(z_hat) - G(z)| <= EG_NU |G(z)|``;
    a predictor outside the integrand's domain fails it, and a step below
    ``EG_MIN_STEP`` ends the run.  The corrector is ``z - gamma G(z_hat)``,
    after which the step grows by ``EG_GROWTH``.  The run stops when
    ``|G| <= tol``, ends at its best (smallest ``|G|``, first reached)
    iterate after ``EG_PATIENCE`` iterations without a new best, at a
    non-finite ``|G|``, or on exhaustion, and raises nothing: an iterate
    outside the domain, or an end point whose action is undefined, returns
    its ``ExprError``.

    Returns ``(x, y, iterations, converged, trace, rounds)``: interior
    values, the trace rows ``(it, |G|, max-norm defect, action or nan)`` of
    every iterate, and per iteration that searched its number of predictors.
    """
    def at(x, y):
        return GridFunction.from_interior(x), GridFunction.from_interior(y)

    def value(x, y):
        try:
            return action(spec, u, *at(x, y))
        except ExprError:
            return np.nan

    x, y = x0.interior.copy(), y0.interior.copy()
    gamma = 1.0 / np.abs(dirichlet_matrix(spec.T)).sum(axis=1).max()
    best_gn, best_x, best_y, best_it = np.inf, x, y, 0
    trace, rounds = [], []
    end = None
    for it in range(max_iter):
        try:
            gx, gy = grad(spec, u, *at(x, y))
        except ExprError as exc:
            return exc
        gn = float(np.sqrt(gx @ gx + gy @ gy))
        trace.append((it, gn, max(float(abs(gx).max()), float(abs(gy).max())), value(x, y)))
        if gn < best_gn:
            best_gn, best_x, best_y, best_it = gn, x, y, it
        if gn <= tol:
            end = (x, y, it, True)
            break
        if not np.isfinite(gn) or it - best_it >= EG_PATIENCE:
            end = (best_x, best_y, it, False)
            break
        passed, tries = False, 0
        while not passed and gamma >= EG_MIN_STEP:
            tries += 1
            try:
                gxh, gyh = grad(spec, u, *at(x - gamma * gx, y + gamma * gy))
                dx, dy = gxh - gx, gyh - gy
                passed = np.sqrt(dx @ dx + dy @ dy) <= EG_NU * gn
            except ExprError:
                pass
            if not passed:
                gamma *= 0.5
        rounds.append(tries)
        if not passed:
            end = (best_x, best_y, it, False)
            break
        x, y = x - gamma * gxh, y + gamma * gyh
        gamma *= EG_GROWTH
    if end is None:
        end = (best_x, best_y, max_iter, False)
    try:
        action(spec, u, *at(*end[:2]))
    except ExprError as exc:
        return exc
    return (*end, trace, rounds)
