"""Dependence of the saddle-point set on the problem parameter.

For a sequence of parameters converging to a limit, the saddle values
converge to the limit value and the computed saddle points accumulate on
the saddle set of the limit problem.  This module measures both effects:
``uniform_gap`` estimates the sup-distance of two action functionals over
the confining product ball, ``run_sequence`` solves along the sequence and
records values and set distances, and ``upper_limit_check`` tests that the
accumulation points re-verify as saddles of the limit problem.
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import GridFunction, h_norm, random_in_ball
from .problem import ParameterFunction, integrand_sum_i, make_candidate
from .solvers import (DEFAULT_RADII, SolverError, product_distance, radii_pair,
                      saddle_set, verify_saddle)


class DependenceError(ValueError):
    pass


def geometric_schedule(N):
    """Indices ``1, 2, 4, ...`` up to and including ``N``."""
    if N < 1:
        raise DependenceError(f"N must be >= 1, got {N}")
    out = []
    n = 1
    while n < N:
        out.append(n)
        n *= 2
    out.append(N)
    return out


@dataclass(frozen=True)
class ParameterSequence:
    """A convergent parameter sequence: explicit terms or ``u0 + v/n``.

    Rule-based terms are clamped to the parameter box pointwise should the
    rule exit it; ``term`` reports whether clamping occurred.  For the rule
    form the max-norm distance to the limit is nonincreasing in ``n``.
    """

    u0: ParameterFunction
    N: int
    direction: np.ndarray = None
    terms: tuple = None

    def __post_init__(self):
        if self.N < 1:
            raise DependenceError(f"sequence length must be >= 1, got {self.N}")
        if (self.direction is None) == (self.terms is None):
            raise DependenceError("provide either a direction or explicit terms")
        if self.direction is not None:
            v = np.asarray(self.direction, dtype=float)
            if v.shape != (self.u0.T,):
                raise DependenceError(
                    f"direction must have length T={self.u0.T}, got shape {v.shape}")
            v = v.copy()
            v.flags.writeable = False
            object.__setattr__(self, "direction", v)
        else:
            terms = tuple(self.terms)
            if len(terms) != self.N:
                raise DependenceError(f"expected {self.N} terms, got {len(terms)}")
            for t in terms:
                if t.T != self.u0.T:
                    raise DependenceError("every term must match the limit's length")
            object.__setattr__(self, "terms", terms)

    @classmethod
    def rule(cls, u0, direction, N):
        return cls(u0=u0, N=N, direction=direction)

    @classmethod
    def from_terms(cls, u0, terms):
        return cls(u0=u0, N=len(terms), terms=tuple(terms))

    def term(self, n):
        """The n-th parameter and whether it was clamped to the box."""
        if not 1 <= n <= self.N:
            raise DependenceError(f"n={n} outside 1..{self.N}")
        if self.terms is not None:
            return self.terms[n - 1], False
        raw = self.u0.values + self.direction / n
        D = self.u0.bound
        clipped = np.clip(raw, -D, D)
        return ParameterFunction(clipped, D), bool(np.any(clipped != raw))

    def schedule(self):
        return geometric_schedule(self.N)


def uniform_gap(spec, u_a, u_b, box, samples=256, seed=0) -> float:
    """Sampled sup of ``|J_a - J_b|`` over the product ball.

    The quadratic terms cancel, so the gap is the largest sampled difference
    of the integrand sums.  Half the draws sit on the ball boundaries where
    linear-in-u integrands attain the sup; the estimate grows monotonically
    with the sample count on a common seed.
    """
    rx, ry = radii_pair(box)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(max(1, samples)):
        x = random_in_ball(spec.T, rx, rng)
        y = random_in_ball(spec.T, ry, rng)
        xv, yv = x.interior, y.interior
        if i % 2 == 0:  # push to the boundary for a tighter estimate
            nx, ny = h_norm(x), h_norm(y)
            if nx > 0:
                xv = xv * (rx / nx)
            if ny > 0:
                yv = yv * (ry / ny)
        fa = integrand_sum_i(spec, u_a, xv, yv)
        fb = integrand_sum_i(spec, u_b, xv, yv)
        worst = max(worst, abs(fa - fb))
    return float(worst)


def parameter_lipschitz(spec, box, samples=256, seed=0) -> float:
    """Sampled Lipschitz constant of the integrand in its parameter slot."""
    rx, ry = radii_pair(box)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(max(1, samples)):
        x = random_in_ball(spec.T, rx, rng)
        y = random_in_ball(spec.T, ry, rng)
        u1, u2 = rng.uniform(-spec.D, spec.D, size=2)
        if u1 == u2:
            continue
        (f1,) = spec.field.value_kernel(spec.nodes(), x.interior, y.interior, u1)
        (f2,) = spec.field.value_kernel(spec.nodes(), x.interior, y.interior, u2)
        f1 = np.broadcast_to(np.asarray(f1, float), (spec.T,))
        f2 = np.broadcast_to(np.asarray(f2, float), (spec.T,))
        worst = max(worst, float(np.max(np.abs(f1 - f2)) / abs(u1 - u2)))
    return worst


@dataclass(frozen=True)
class SequenceEntry:
    n: int
    u: ParameterFunction
    saddles: object
    value: float
    dist: float
    candidate_distances: tuple
    gap: float
    clamped: bool
    error: str = None


@dataclass(frozen=True)
class DependenceReport:
    """Results of a sweep along a parameter sequence.

    ``baseline`` approximates the limit problem's saddle set; each entry
    records the saddle value ``a_n``, the one-sided distance of its
    candidates to the baseline, and the sampled functional gap.
    """

    u0: ParameterFunction
    baseline: object
    entries: tuple
    schedule: tuple
    tol_dep: float
    a0: float
    final_dist: float
    final_value_gap: float
    all_nonempty: bool
    dist_converged: bool
    values_converged: bool
    partial: bool
    spec: object = field(repr=False, default=None)
    cfg: object = field(repr=False, default=None)
    radii: object = field(repr=False, default=None)


def _set_value(saddles):
    best = min(saddles.points, key=lambda c: c.residual_norm)
    return best.value


def _set_distance(saddles, baseline):
    dists = tuple(
        min(product_distance(c, rep) for rep in baseline.points)
        for c in saddles.points)
    return (max(dists) if dists else np.inf), dists


def run_sequence(spec, seq: ParameterSequence, cfg, radii=None, tol_dep=1e-4,
                 gap_samples=128) -> DependenceReport:
    """Solve the limit problem and every scheduled term of the sequence.

    Records per ``n`` the saddle value, the one-sided set distance to the
    limit's saddle set, and the sampled functional gap; solver failures at
    individual terms leave a partial report rather than aborting.
    """
    baseline = saddle_set(spec, seq.u0, cfg, radii=radii)
    if baseline.all_failed:
        raise SolverError("no saddle found for the limit parameter")
    a0 = _set_value(baseline)
    box = radii_pair(radii, DEFAULT_RADII)

    entries = []
    partial = False
    for n in seq.schedule():
        u_n, clamped = seq.term(n)
        try:
            sads = saddle_set(spec, u_n, cfg, radii=radii)
            if sads.all_failed:
                raise SolverError("every start failed")
        except SolverError as exc:
            partial = True
            entries.append(SequenceEntry(n=n, u=u_n, saddles=None, value=np.nan,
                                         dist=np.inf, candidate_distances=(),
                                         gap=np.nan, clamped=clamped, error=str(exc)))
            continue
        dist, per_cand = _set_distance(sads, baseline)
        gap = uniform_gap(spec, u_n, seq.u0, box, samples=gap_samples, seed=cfg.seed)
        entries.append(SequenceEntry(n=n, u=u_n, saddles=sads, value=_set_value(sads),
                                     dist=dist, candidate_distances=per_cand,
                                     gap=gap, clamped=clamped))
    good = [e for e in entries if e.error is None]
    final = good[-1] if good else None
    return DependenceReport(
        u0=seq.u0, baseline=baseline, entries=tuple(entries),
        schedule=tuple(seq.schedule()), tol_dep=tol_dep, a0=a0,
        final_dist=final.dist if final else np.inf,
        final_value_gap=abs(final.value - a0) if final else np.inf,
        all_nonempty=not partial and all(e.saddles is not None and e.saddles.points
                                         for e in entries),
        dist_converged=bool(final and final.dist <= tol_dep),
        values_converged=bool(final and abs(final.value - a0) <= tol_dep),
        partial=partial, spec=spec, cfg=cfg, radii=radii)


@dataclass(frozen=True)
class LimitCheck:
    passed: bool
    limits: tuple
    violations: tuple


def upper_limit_check(report: DependenceReport, tol) -> LimitCheck:
    """Test that tail accumulation points land in the limit's saddle set.

    Takes the entries with ``n >= N/2``, pairs each candidate at the largest
    ``n`` with its nearest neighbour at the previous tail index, and
    extrapolates the ``1/n`` trend to its limit (the candidate itself when
    only one tail index exists).  Each limit must lie within ``tol`` of the
    baseline set and re-verify as a saddle of the limit problem at
    ``tol``-level tolerances.
    """
    N = max(report.schedule)
    tail = [e for e in report.entries
            if e.error is None and e.saddles is not None and e.n >= N / 2]
    if not tail:
        return LimitCheck(passed=False, limits=(),
                          violations=("no usable tail entries",))
    last = tail[-1]
    prev = tail[-2] if len(tail) >= 2 else None

    spec, u0 = report.spec, report.u0
    violations = []
    limits = []
    for cand in last.saddles.points:
        if prev is not None and prev.saddles.points and prev.n != last.n:
            partner = min(prev.saddles.points, key=lambda c: product_distance(c, cand))
            n2, n1 = last.n, prev.n
            lx = (n2 * cand.x.interior - n1 * partner.x.interior) / (n2 - n1)
            ly = (n2 * cand.y.interior - n1 * partner.y.interior) / (n2 - n1)
        else:
            lx, ly = cand.x.interior, cand.y.interior
        limit = make_candidate(spec, u0, GridFunction.from_interior(lx),
                               GridFunction.from_interior(ly),
                               method="extrapolated-limit", iterations=0)
        dist = min(product_distance(limit, rep) for rep in report.baseline.points)
        check = verify_saddle(spec, u0, limit, probes=32, eps=tol,
                              radii=report.radii, seed=report.cfg.seed,
                              tol_res=tol * (1.0 + spec.lap.norm_inf))
        limits.append({"n": last.n, "distance_to_baseline": float(dist),
                       "verified": check.passed})
        if dist > tol:
            violations.append(
                f"limit of branch at n={last.n} is {dist:.3e} from the baseline set (tol {tol:.1e})")
        if not check.passed:
            violations.append(
                f"limit of branch at n={last.n} fails verification: {'; '.join(check.failures)}")
    return LimitCheck(passed=not violations, limits=tuple(limits),
                      violations=tuple(violations))
