"""Continuous dependence of the saddle set on the parameter.

For u_n = u0 + v/n the saddle points of the closed-form bilinear instance
move along (-u/5, -3u/5), so their distance to the limit saddle decays like
sqrt(4/5)/n and the values like ((1 + 1/n)^2 - 1)/5.  The sweep recovers
both trends and the extrapolated tail re-verifies as a saddle of the limit
problem.
"""

import numpy as np

from saddlebvp import (ParameterFunction, ParameterSequence, ProblemSpec,
                       SolverConfig, run_sequence, uniform_gap, upper_limit_check)

spec = ProblemSpec.create(1, 2.0, "x*y + u*(x - y)")
u0 = ParameterFunction.constant(1.0, 1, 2.0)
seq = ParameterSequence.rule(u0, direction=np.array([1.0]), N=64)
cfg = SolverConfig(method="newton", tol=1e-12, multistart=4)

report = run_sequence(spec, seq, cfg, radii=(4.0, 4.0), tol_dep=1e-4)
print(f"limit value a0 = {report.a0:.12f} (closed form 0.2)\n")
print(f"{'n':>4} {'a_n':>18} {'dist_n':>12} {'sqrt(4/5)/n':>12} {'gap_n':>12}")
for e in report.entries:
    print(f"{e.n:>4} {e.value:>18.12f} {e.dist:>12.3e} {np.sqrt(0.8) / e.n:>12.3e} "
          f"{e.gap:>12.3e}")

check = upper_limit_check(report, tol=1e-4)
print(f"\nupper limit check (tol 1e-4): passed={check.passed}")
for entry in check.limits:
    print(f"  extrapolated limit: distance to baseline {entry['distance_to_baseline']:.2e}, "
          f"re-verified: {entry['verified']}")

gap = uniform_gap(spec, seq.term(8)[0], u0, (4.0, 4.0), samples=512)
print(f"\nsampled sup|J_8 - J_0| over the product ball: {gap:.6f}")
print(f"value drift |a_8 - a_0| = {abs(report.entries[3].value - report.a0):.6f} "
      "(bounded by the gap)")
