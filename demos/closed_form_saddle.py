"""Every solver method on an instance with a hand-solvable saddle point.

For T=1 and the integrand x*y + u*(x - y) with constant u, stationarity
reduces to the linear system 2x + y + u = 0, x - 2y - u = 0, whose solution
is (x, y) = (-u/5, -3u/5) with action value u^2/5.
"""

from saddlebvp import GridFunction, ParameterFunction, ProblemSpec, SolverConfig
from saddlebvp.solvers import METHODS, solve, verify_saddle

spec = ProblemSpec.create(1, 2.0, "x*y + u*(x - y)")
u = ParameterFunction.constant(1.0, 1, 2.0)
z0 = (GridFunction.from_interior([0.9]), GridFunction.from_interior([-1.4]))

print("expected saddle: x(1) = -0.2, y(1) = -0.6, value 0.2\n")
cands = {}
for method in METHODS:
    cand = cands[method] = solve(spec, u, *z0, SolverConfig(method=method, tol=1e-12))
    print(f"{method:>13}: x(1)={cand.x(1):+.12f}  y(1)={cand.y(1):+.12f}  "
          f"value={cand.value:.12f}  iters={cand.iterations}")

# both nesting orders give the same value: the minimax equality at the solution
maxmin, minmax = cands["nested"], cands["nested-xfirst"]
print(f"\nmax-min value {maxmin.value:.15f}")
print(f"min-max value {minmax.value:.15f}")
print(f"gap {abs(maxmin.value - minmax.value):.2e}")

report = verify_saddle(spec, u, maxmin)
print(f"\na posteriori verification: passed={report.passed} "
      f"(residual {report.residual_norm:.2e}, probe gaps {report.inequality_gap_x:.2e} / "
      f"{report.inequality_gap_y:.2e})")
