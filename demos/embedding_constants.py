"""Embedding constants of the difference norm.

The quadratic constant has a closed form through the smallest eigenvalue of
the Dirichlet second-difference matrix.  Higher powers come from a shooting
test on the half-linear difference equation: the constant is exact, and the
shooting solution attains it.
"""

import numpy as np

from saddlebvp import embedding_constant, embedding_estimate, h_norm
from saddlebvp.grid import GridFunction

print("quadratic embedding constant c_2 against the closed form")
for T in (1, 2, 5, 10, 50):
    c2 = embedding_constant(2, T)
    closed = 1.0 / (4.0 * np.sin(np.pi / (2 * (T + 1))) ** 2)
    print(f"  T={T:>3}  c2={c2:.12f}  closed form {closed:.12f}")

print("\nthe smallest-eigenvalue mode attains the quadratic ratio")
est = embedding_estimate(2, 7)
x = est.maximizer
ratio = np.sum(x.interior ** 2) / h_norm(x) ** 2
print(f"  T=7: ratio at maximizer {ratio:.12f} vs c2 {est.value:.12f}")

print("\nhigher powers: the shooting solution attains c_m")
for m in (3, 4, 6):
    est = embedding_estimate(m, 7)
    x = est.maximizer
    ratio = np.sum(np.abs(x.interior) ** m) / np.sum(np.abs(np.diff(x.values)) ** m)
    print(f"  m={m}: ratio at maximizer {ratio:.12f} vs c_{m} {est.value:.12f}")

print("\nrandom functions never beat the constant")
rng = np.random.default_rng(2)
worst = 0.0
c3 = embedding_constant(3, 7)
for _ in range(2000):
    x = GridFunction.from_interior(rng.standard_normal(7))
    num = np.sum(np.abs(x.interior) ** 3)
    den = np.sum(np.abs(np.diff(x.values)) ** 3)
    worst = max(worst, num / den)
print(f"  largest sampled cubic ratio {worst:.8f} <= c_3 {c3:.8f}")
