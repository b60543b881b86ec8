"""Dependence of the saddle-point set on the problem parameter.

For a sequence of parameters converging to a limit, the saddle values
converge to the limit value and the computed saddle points accumulate on
the saddle set of the limit problem.  This module measures both effects:
``uniform_gap`` estimates the sup-distance of two action functionals over
the confining product ball, ``run_sequence`` solves along the sequence and
records values and set distances, and ``upper_limit_check`` tests that the
accumulation points re-verify as saddles of the limit problem.

``run_sequence`` follows the saddle set by continuation (Allgower & Georg,
*Introduction to Numerical Continuation Methods*, ch. 2): the limit's set
is solved cold, and every term starts from the limit's representatives,
where its saddle points accumulate, plus ``SWEEP_FRESH_STARTS`` fresh ball
draws that keep new branches findable.
"""

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .expressions import ExprError
from .grid import h_norm_i, random_interior_rows
from .problem import (ParameterFunction, ball_pair_blocks, integrand_sum_i, make_candidates_i,
                      parameter_values, real_numbers, row_values)
from .solvers import (DEFAULT_RADII, SolverError, product_distance, radii_pair,
                      saddle_set, verify_saddle)

GAP_SAMPLES = 128  # ball pairs of the sampled gap of each sweep term
SWEEP_FRESH_STARTS = 2  # ball draws of each sweep term next to the limit's representatives


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
            if not np.isfinite(v).all():
                raise DependenceError("direction must be finite")
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


def sequence_from_dict(data, u) -> ParameterSequence:
    """Build a sequence from its mapping (``docs/sequence.schema.json``).

    ``u`` is the problem's parameter: the default ``u0``, and the source of
    ``T`` and the bound.
    """
    if not isinstance(data, dict):
        raise DependenceError(f"sequence must be a JSON object, got {json.dumps(data, default=repr)}")
    if ("direction" in data) == ("terms" in data):
        raise DependenceError("a sequence needs either a direction or explicit terms, not both")
    u0 = ParameterFunction(parameter_values(data["u0"], u.T, "u0"), u.bound) if "u0" in data else u
    if "terms" in data:
        if not isinstance(data["terms"], list):
            raise DependenceError("terms must be a list of node arrays")
        if not real_numbers(data["terms"]):
            raise DependenceError("terms must hold numbers only")
        return ParameterSequence.from_terms(
            u0, [ParameterFunction(np.asarray(t, dtype=float), u.bound) for t in data["terms"]])
    N = data.get("N", 64)
    if isinstance(N, bool) or not isinstance(N, int):
        raise DependenceError(f"N must be an integer, got {N!r}")
    return ParameterSequence.rule(u0, parameter_values(data["direction"], u.T, "direction"), N)


def _check_tolerance(tol, name):
    if not (np.isfinite(tol) and tol > 0):
        raise DependenceError(f"{name} must be positive and finite, got {tol}")


def _sampled_gaps(spec, terms, u0, box, samples, seed):
    """``uniform_gap(spec, u, u0, box, samples, seed)`` for every ``u`` in ``terms``.

    Each draw takes ``x`` and then ``y`` from ``random_interior``, drawn in
    the blocks of :func:`~saddlebvp.problem.ball_pair_blocks`; the even
    draws are pushed to the ball boundaries, where linear-in-u integrands
    attain the sup.  One pass over the blocks of draws evaluates the limit's
    integrand sums once per block and each term's once.  A draw outside the
    domain holds nan, and ``np.fmax`` skips a nan difference exactly as
    ``max(worst, nan)`` keeps ``worst``, as ``verify_saddle``'s probes do.
    """
    if not terms:
        return []
    rx, ry = radii_pair(box)
    rng = np.random.default_rng(seed)
    worst = np.zeros(len(terms))
    first = 0  # index of the block's first draw
    for X, Y in ball_pair_blocks(spec.T, max(1, samples), (rx, ry), rng):
        # push to the boundary for a tighter estimate; a zero draw stays zero
        even = slice(first % 2, None, 2)
        for V, r in ((X, rx), (Y, ry)):
            n = h_norm_i(V[even])
            V[even] *= np.divide(r, n, out=np.ones_like(n), where=n > 0)[:, None]
        first += len(X)
        f0 = row_values(integrand_sum_i, spec, u0, X, Y)
        for j, u in enumerate(terms):
            worst[j] = np.fmax.reduce(np.abs(row_values(integrand_sum_i, spec, u, X, Y) - f0),
                                      initial=worst[j])
    return [float(w) for w in worst]


def uniform_gap(spec, u_a, u_b, box, samples=256, seed=0) -> float:
    """Sampled sup of ``|J_a - J_b|`` over the product ball.

    The quadratic terms cancel, so the gap is the largest sampled difference
    of the integrand sums.  Half the draws sit on the ball boundaries where
    linear-in-u integrands attain the sup; the estimate grows monotonically
    with the sample count on a common seed.  The draws depend only on
    ``spec.T``, ``box``, ``samples`` and ``seed``: ``run_sequence`` shares
    one draw set among all its terms and gets the same values.
    """
    return _sampled_gaps(spec, [u_a], u_b, box, samples, seed)[0]


@dataclass(frozen=True)
class SequenceEntry:
    n: int
    u: ParameterFunction
    saddles: object
    value: float
    dist: float
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


def _stacked_rows(points):
    """The ``(len(points), 2T)`` block of the candidates' rows ``z = (x, y)``."""
    return np.array([np.concatenate((c.x.interior, c.y.interior)) for c in points])


def _set_distance(saddles, baseline):
    return max((min(product_distance(c, rep) for rep in baseline.points)
                for c in saddles.points), default=np.inf)


def run_sequence(spec, seq: ParameterSequence, cfg, radii=None, tol_dep=1e-4) -> DependenceReport:
    """Solve the limit problem and every scheduled term of the sequence.

    The limit's saddle set comes from ``cfg.multistart`` cold starts, as
    ``saddle_set`` draws them.  Each term is one ``saddle_set`` call on
    given starts: the limit's representatives as stacked ``(x, y)`` rows,
    then ``SWEEP_FRESH_STARTS`` draws from the product ball.  The fresh draws
    of all terms come from one generator, the ``SeedSequence`` child of
    ``cfg.seed`` after the limit's starts, so they are independent of those
    starts and of the gap draws.

    Records per ``n`` the saddle value, the one-sided set distance to the
    limit's saddle set, and the sampled functional gap; solver failures at
    individual terms leave a partial report rather than aborting.  The gaps
    of all solved terms come from one draw set of ``GAP_SAMPLES`` ball pairs
    at ``cfg.seed``, evaluated after the last term is solved; each equals
    ``uniform_gap`` of that term and the limit.
    """
    _check_tolerance(tol_dep, "tol_dep")
    baseline = saddle_set(spec, seq.u0, cfg, radii=radii)
    if baseline.all_failed:
        raise SolverError("no saddle found for the limit parameter")
    a0 = _set_value(baseline)
    box = radii_pair(radii, DEFAULT_RADII)
    warm = _stacked_rows(baseline.points)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(cfg.multistart,)))

    entries = []
    partial = False
    for n in seq.schedule():
        u_n, clamped = seq.term(n)
        fresh = random_interior_rows(spec.T, [(r, rng) for _ in range(SWEEP_FRESH_STARTS)
                                              for r in box])
        sads = saddle_set(spec, u_n, cfg, starts=np.vstack((warm, fresh.reshape(-1, 2 * spec.T))))
        if sads.all_failed:
            partial = True
            entries.append(SequenceEntry(n=n, u=u_n, saddles=None, value=np.nan,
                                         dist=np.inf, gap=np.nan, clamped=clamped,
                                         error="every start failed"))
            continue
        entries.append(SequenceEntry(n=n, u=u_n, saddles=sads, value=_set_value(sads),
                                     dist=_set_distance(sads, baseline), gap=np.nan,
                                     clamped=clamped))
    solved = [i for i, e in enumerate(entries) if e.error is None]
    gaps = _sampled_gaps(spec, [entries[i].u for i in solved], seq.u0, box,
                         GAP_SAMPLES, cfg.seed)
    for i, gap in zip(solved, gaps):
        entries[i] = replace(entries[i], gap=gap)
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
    ``tol``-level tolerances; a limit outside the integrand's domain fails.
    """
    _check_tolerance(tol, "tol")
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
    T = spec.T
    Z = _stacked_rows(last.saddles.points)
    if prev is not None and prev.saddles.points and prev.n != last.n:
        partners = [min(prev.saddles.points, key=lambda c: product_distance(c, cand))
                    for cand in last.saddles.points]
        n2, n1 = last.n, prev.n
        P = _stacked_rows(partners)
        Z = (n2 * Z - n1 * P) / (n2 - n1)
    made = make_candidates_i(spec, u0, Z, "extrapolated-limit", [0] * len(Z),
                             [True] * len(Z), [None] * len(Z))
    for z, limit in zip(Z, made):
        dist = min(float(np.hypot(h_norm_i(z[:T] - rep.x.values[1:-1]),
                                  h_norm_i(z[T:] - rep.y.values[1:-1])))
                   for rep in report.baseline.points)
        if isinstance(limit, ExprError):
            passed, failure = False, f"lies outside the integrand's domain: {limit}"
        else:
            check = verify_saddle(spec, u0, limit, probes=32, eps=tol,
                                  radii=report.radii, seed=report.cfg.seed,
                                  tol_res=tol * (1.0 + spec.lap.norm_inf))
            passed, failure = check.passed, f"fails verification: {'; '.join(check.failures)}"
        limits.append({"n": last.n, "distance_to_baseline": dist, "verified": passed})
        if dist > tol:
            violations.append(
                f"limit of branch at n={last.n} is {dist:.3e} from the baseline set (tol {tol:.1e})")
        if not passed:
            violations.append(f"limit of branch at n={last.n} {failure}")
    return LimitCheck(passed=not violations, limits=tuple(limits),
                      violations=tuple(violations))
