"""Certifying a problem and confining its saddle points a priori.

A growth certificate bounds the integrand below in x and above in y by
quadratics whose leading coefficients stay under 1/(2 c2).  From those
constants alone one gets radii r1, r2 such that every saddle point lies in
the product of the corresponding balls - checked here against the solver.
"""

from saddlebvp import (ProblemSpec, ParameterFunction, SolverConfig, ball_radii,
                       check_concavity_y, check_convexity_x, embedding_constant,
                       fit_growth_certificate, h_norm, saddle_set, verify_growth)
from saddlebvp.grid import GridFunction

spec = ProblemSpec.create(4, 1.0, "0.6*x^2 - 0.7*y^2 + 0.3*x*y + u*(x - y) + 0.1*sin(x)")
u = ParameterFunction.constant(0.8, 4, 1.0)
c2 = embedding_constant(2, spec.T)
print(f"T={spec.T}: c2 = {c2:.6f}, admissible alpha < {1 / (2 * c2):.6f}")

cert = fit_growth_certificate(spec, box_radius=8.0)
print(f"fitted certificate: alpha1={cert.alpha1:.6f} alpha2={cert.alpha2:.6f}")
print(f"  gamma1 = {cert.gamma1.round(4)}")
print(f"  gamma2 = {cert.gamma2.round(4)}")

growth = verify_growth(spec, cert)
print(f"growth bounds verified: {growth.passed} "
      f"(worst margins {growth.worst_lower_margin:.3e} / {growth.worst_upper_margin:.3e})")

zero = GridFunction.zeros(spec.T)
# one tridiagonal eigenvalue per side, from per-node minima of the curvature on the box
convex = check_convexity_x(spec, u, zero, box=8.0)
concave = check_concavity_y(spec, u, zero, box=8.0)
print(f"convex in x: {convex.passed} (margin {convex.worst_margin:.4f}, exact={convex.exact}); "
      f"concave in y: {concave.passed} (margin {concave.worst_margin:.4f}, exact={concave.exact})")

radii = ball_radii(cert, c2, spec.T)
print(f"\nball radii: r1 = {radii.r1:.4f}, r2 = {radii.r2:.4f}")
print(f"value bracket: [{radii.value_lower:.4f}, {radii.value_upper:.4f}]")

cfg = SolverConfig(method="newton", multistart=12, seed=3)
sset = saddle_set(spec, u, cfg, radii=radii)
for cand in sset.points:
    print(f"\nsaddle found: value {cand.value:.10f}")
    print(f"  h-norms ({h_norm(cand.x):.4f}, {h_norm(cand.y):.4f}) inside "
          f"({radii.r1:.4f}, {radii.r2:.4f}): {radii.contains(cand.x, cand.y)}")
    print(f"  value inside bracket: "
          f"{radii.value_lower <= cand.value <= radii.value_upper}")
