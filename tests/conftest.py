"""Shared oracles and instance generators for the test suite.

The finite-difference and direct-solve helpers here are written from the
definitions only (they build their own matrices and difference quotients)
so they stay independent of the library code they are used to check.
"""

import numpy as np

from saddlebvp import GridFunction, ParameterFunction, ProblemSpec, action
from saddlebvp.expressions import evaluate


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
    pair's sums come from the interpreter on that pair alone, and the sup is
    the running ``max``, which passes over nan differences.
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
        f = evaluate(spec.field.f, {"k": k, "x": xv, "y": yv, "u": u.values})
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
