"""Numerical certification of the structural assumptions on the integrand.

A problem is *certified* when, over a sampling box, the integrand satisfies

* a quadratic lower growth bound in its ``x`` slot:
  ``F(k, x, y(k), u) >= -alpha1 x^2 + beta1 x + gamma1(k)``,
* a quadratic upper growth bound in its ``y`` slot:
  ``F(k, x(k), y, u) <= alpha2 y^2 + beta2 y + gamma2(k)``,
* convexity of the action in ``x`` and concavity in ``y``,

with ``alpha1, alpha2 < 1/(2 c2)`` where ``c2`` is the quadratic embedding
constant of the grid.  The growth constants yield a priori radii ``r1, r2``
such that every saddle point lies in the product of the corresponding balls.

The growth bounds are sampled on grids, which cannot prove them globally;
reports carry the box and densities used.  Curvature is decided per node:
the Hessian blocks are the tridiagonal ``L`` plus a diagonal, so the worst
case over the box is estimated by one tridiagonal eigenvalue at the
per-node grid minima (with a second-difference pad for the gaps between
grid points), and is exact when the curvature does not depend on the free
slot.
"""

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .expressions import compile_trees, depends_on
from .grid import GridFunction, embedding_constant, h_norm
from .problem import real_numbers, rows_apart

DEFAULT_TOL = 1e-9  # a growth or curvature margin below -DEFAULT_TOL fails the check
_NODE_BLOCK_VALUES = 2 ** 14  # samples per kernel call of a node block, one node at least


class HypothesisError(ValueError):
    pass


@dataclass(frozen=True)
class GrowthCertificate:
    """User-supplied growth constants with their sampling box.

    ``gamma1, gamma2`` are arrays over the nodes ``1..T``.  ``anchor_y``
    (resp. ``anchor_x``) fixes the other slot of the integrand in the lower
    (resp. upper) bound; ``None`` requires the bound uniformly over the box,
    which is what parameter-dependence studies need.  A usable certificate
    has ``alpha1, alpha2 < 1/(2 c2)``; that margin is checked by
    :func:`verify_growth` and :func:`ball_radii` rather than at construction
    so that violating certificates can be reported, not crashed on.
    """

    alpha1: float
    beta1: float
    gamma1: np.ndarray
    alpha2: float
    beta2: float
    gamma2: np.ndarray
    box_radius: float
    anchor_y: GridFunction = None
    anchor_x: GridFunction = None

    def __post_init__(self):
        g1 = np.atleast_1d(np.asarray(self.gamma1, dtype=float))
        g2 = np.atleast_1d(np.asarray(self.gamma2, dtype=float))
        if g1.shape != g2.shape or g1.ndim != 1:
            raise HypothesisError(f"gamma arrays must share shape (T,), got {g1.shape} and {g2.shape}")
        for name, v in (("alpha1", self.alpha1), ("beta1", self.beta1), ("gamma1", g1),
                        ("alpha2", self.alpha2), ("beta2", self.beta2), ("gamma2", g2),
                        ("box radius", self.box_radius)):
            if not np.isfinite(v).all():
                raise HypothesisError(f"{name} must be finite")
        if self.box_radius <= 0:
            raise HypothesisError(f"box radius must be positive, got {self.box_radius}")
        for g in (g1, g2):
            g.flags.writeable = False
        object.__setattr__(self, "gamma1", g1)
        object.__setattr__(self, "gamma2", g2)
        for name in ("anchor_y", "anchor_x"):
            a = getattr(self, name)
            if a is not None and a.T != g1.size:
                raise HypothesisError(f"{name} has {a.T} interior nodes, expected {g1.size}")

    @property
    def T(self):
        return self.gamma1.size

    @classmethod
    def constant(cls, T, alpha1, beta1, gamma1, alpha2, beta2, gamma2,
                 box_radius, anchor_y=None, anchor_x=None):
        """Certificate with node-independent gamma constants."""
        return cls(alpha1=alpha1, beta1=beta1, gamma1=np.full(T, float(gamma1)),
                   alpha2=alpha2, beta2=beta2, gamma2=np.full(T, float(gamma2)),
                   box_radius=box_radius, anchor_y=anchor_y, anchor_x=anchor_x)


def certificate_from_dict(data, T) -> GrowthCertificate:
    if not isinstance(data, dict):
        raise HypothesisError(f"certificate must be a JSON object, got {json.dumps(data, default=repr)}")

    def number(key):
        v = data[key]
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise HypothesisError(f"{key} must be a number, got {json.dumps(v, default=repr)}")
        return float(v)

    def numbers_list(key):
        if not real_numbers(data[key]):
            raise HypothesisError(f"{key} must hold numbers only")
        return np.asarray(data[key], dtype=float)

    def gamma(key):
        v = data[key]
        return np.full(T, number(key)) if v is None or np.isscalar(v) else numbers_list(key)

    def anchor(key):
        return None if data.get(key) is None else GridFunction.from_interior(numbers_list(key))

    try:
        return GrowthCertificate(
            alpha1=number("alpha1"), beta1=number("beta1"), gamma1=gamma("gamma1"),
            alpha2=number("alpha2"), beta2=number("beta2"), gamma2=gamma("gamma2"),
            box_radius=number("box"), anchor_y=anchor("anchor_y"), anchor_x=anchor("anchor_x"))
    except KeyError as exc:
        raise HypothesisError(f"certificate missing key {exc.args[0]!r}") from exc


@dataclass(frozen=True)
class ConvexityReport:
    """``worst_margin`` estimates the smallest Hessian eigenvalue over the box from grid samples.

    It is exact when the curvature does not depend on the free slot.
    Otherwise it comes from the per-node grid minima with a second-difference
    pad, which is no bound: a dip narrower than the grid spacing can fall
    between the samples and go unseen.
    """

    passed: bool
    exact: bool
    worst_margin: float
    counterexample: dict = None


def check_convexity_x(spec, u, fixed, box, density=201) -> ConvexityReport:
    """Check convexity of ``x -> action(spec, u, x, fixed)`` on the box ``|x_k| <= box``.

    The x-Hessian is ``L + diag(F_xx)`` and its smallest eigenvalue does not
    decrease when a diagonal entry grows (Weyl), so its minimum over the box
    is ``lambda_min(L + diag(m))`` with ``m_k`` the minimum of ``F_xx`` over
    ``x_k``.  ``m_k`` is estimated on ``density`` grid points of
    ``[-box, box]`` and lowered by a pad of half the largest second
    difference of that node's column, an estimate of how far the true
    minimum can sit between grid points; a dip narrower than the spacing can
    escape both.  The check is ``exact`` when ``F_xx`` does not depend on
    ``x``.
    """
    return _check_curvature(spec, u, fixed, box, density, convex=True)


def check_concavity_y(spec, u, fixed, box, density=201) -> ConvexityReport:
    """Mirror image of :func:`check_convexity_x`: ``-L + diag(F_yy)`` must be negative semidefinite."""
    return _check_curvature(spec, u, fixed, box, density, convex=False)


def _grid_points(density):
    """The number of grid points per slot; a grid needs both ends and a midpoint."""
    if density < 3:
        raise HypothesisError(f"density must be at least 3, got {density}")
    return int(density)


def _check_curvature(spec, u, fixed, box, density, convex):
    """The curvature check, on the ``(T, density)`` grid in blocks of nodes (:func:`_node_blocks`).

    The kernel gives a block's ``(nodes, density)`` values, each node's row
    the one the whole grid gives, and the domain error raised is the first
    that a loop over the nodes meets.
    """
    node, free, other = ((spec.field.fxx, "x", "y") if convex
                         else (spec.field.fyy, "y", "x"))
    exact = not depends_on(node, free)
    s = np.linspace(-box, box, _grid_points(density))
    # One tree only: the field's Hessian kernel would also evaluate the other
    # two partials, which can leave their domain where this one does not.
    kernel = compile_trees((node,))
    anchored = fixed.values[1:-1]
    idx = np.empty(spec.T, dtype=int)
    low = np.empty(spec.T)
    pad = np.zeros(spec.T)

    def curvature(nodes):
        return kernel(**{"k": spec.nodes()[nodes, None], "u": u.values[nodes, None],
                         free: s[None, :], other: anchored[nodes, None]})

    for part, (curv,) in _node_blocks(((s.size,),), curvature, np.arange(spec.T)):
        if not convex:
            curv = -curv  # -(-L + diag(F_yy)) = L + diag(-F_yy)
        idx[part] = np.argmin(curv, axis=1)
        low[part] = curv[np.arange(len(curv)), idx[part]]
        if not exact:
            pad[part] = 0.5 * np.max(np.abs(np.diff(curv, n=2, axis=1)), axis=1)
    margin = spec.lap.smallest_eigenvalue_shifted(low - pad)
    if margin >= -DEFAULT_TOL:
        return ConvexityReport(passed=True, exact=exact, worst_margin=margin)
    return ConvexityReport(
        passed=False, exact=exact, worst_margin=margin,
        counterexample={"kind": "hessian", "point": s[idx].tolist(),
                        "eigenvalue": spec.lap.smallest_eigenvalue_shifted(low)})


@dataclass(frozen=True)
class GrowthReport:
    passed: bool
    alpha_ok: bool
    alpha_margins: tuple
    worst_lower_margin: float
    worst_upper_margin: float
    counterexample: dict = None
    box_radius: float = 0.0
    densities: tuple = ()

    @property
    def worst_margin(self):
        return min(self.worst_lower_margin, self.worst_upper_margin)


def verify_growth(spec, cert: GrowthCertificate, grid_density=201) -> GrowthReport:
    """Sample both growth bounds densely over the certificate's box.

    The free slot of each inequality runs over ``grid_density`` points in
    ``[-R, R]``; the parameter and (for anchorless certificates) the other
    slot run over coarser grids.  Reports the worst margin found; any margin
    below ``-DEFAULT_TOL`` is a counterexample.

    Each side samples the grid once per node class (:func:`_node_classes`,
    keyed by that side's gamma and anchor): the nodes of a class have the
    same margins, and the first of them is the node a loop over the nodes
    would report.  So the witness is the first smallest margin in node
    order, a node whose margins hold a nan is skipped, and the error raised
    is the first that a loop over the nodes meets.
    """
    if cert.T != spec.T:
        raise HypothesisError(f"certificate is for T={cert.T}, problem has T={spec.T}")
    n_free = _grid_points(grid_density)
    c2 = embedding_constant(2, spec.T)
    limit = 1.0 / (2.0 * c2)
    margins = (limit - cert.alpha1, limit - cert.alpha2)
    if margins[0] <= 0 or margins[1] <= 0:
        return GrowthReport(
            passed=False, alpha_ok=False, alpha_margins=margins,
            worst_lower_margin=-np.inf, worst_upper_margin=-np.inf,
            counterexample={"kind": "alpha margin violated",
                            "alpha1": cert.alpha1, "alpha2": cert.alpha2, "limit": limit},
            box_radius=cert.box_radius, densities=(grid_density,))

    R = cert.box_radius
    grid = _GrowthGrid(spec, R, n_free)

    def side_margin(lower):
        # The classes run in the order of their first nodes, so the first
        # class with the smallest margin holds the first such node.
        worst = np.inf
        witness = None
        alpha, beta, gamma = ((cert.alpha1, cert.beta1, cert.gamma1) if lower
                              else (cert.alpha2, cert.beta2, cert.gamma2))
        anchor = cert.anchor_y if lower else cert.anchor_x
        free = grid.free
        first, _ = _node_classes(spec, gamma, anchor)

        def margins(nodes):
            F = grid.integrand(nodes, lower, anchor)
            bound = (-alpha if lower else alpha) * free ** 2 + beta * free + _column(gamma[nodes])
            return (F - bound if lower else bound - F,)

        for part, (margin,) in _node_blocks((grid.shape(anchor),), margins, first):
            low = margin.min(axis=(1, 2, 3))
            j = int(np.argmin(np.where(np.isnan(low), np.inf, low)))
            if low[j] < worst:
                worst = float(low[j])
                idx = np.unravel_index(np.argmin(margin[j]), margin[j].shape)
                k = int(first[part][j]) + 1
                witness = {"k": k, "s": float(grid.s[idx[0]]), "u": float(grid.us[idx[1]]),
                           "anchored": float(anchor(k)) if anchor is not None
                           else float(grid.other[idx[2]])}
        return worst, witness

    lower_margin, lower_witness = side_margin(lower=True)
    upper_margin, upper_witness = side_margin(lower=False)
    counterexample = None
    if lower_margin < -DEFAULT_TOL:
        counterexample = {"kind": "lower growth bound violated", **lower_witness,
                          "margin": lower_margin}
    elif upper_margin < -DEFAULT_TOL:
        counterexample = {"kind": "upper growth bound violated", **upper_witness,
                          "margin": upper_margin}
    return GrowthReport(
        passed=counterexample is None, alpha_ok=True, alpha_margins=margins,
        worst_lower_margin=lower_margin, worst_upper_margin=upper_margin,
        counterexample=counterexample, box_radius=R,
        densities=(n_free, grid.us.size, grid.other.size))


def _column(v):
    """Values per node as a ``(K, 1, 1, 1)`` array, the node axis of a growth block."""
    return v[:, None, None, None]


def _node_classes(spec, *keys):
    """Classes of the nodes that sample the growth grid alike.

    Two nodes share a class when each entry of ``keys`` (node arrays, grid
    functions or None) holds the same bits at both, and, when ``F`` uses
    ``k``, never: every node is then its own class.  Returns ``(first,
    cls)``: the first node (0-based) of each class, the classes ordered by
    it, and the class of every node.
    """
    columns = [spec.nodes() if depends_on(spec.field.f, "k") else np.zeros(spec.T)]
    columns += [v.values[1:-1] if isinstance(v, GridFunction) else v
                for v in keys if v is not None]
    rows = np.stack(columns, axis=1)
    node_bytes = rows.view(f"V{rows.itemsize * rows.shape[1]}").ravel().tolist()
    heads = {}  # a node's bytes -> the first node with them, in node order
    head = [heads.setdefault(key, k) for k, key in enumerate(node_bytes)]
    first = np.array(list(heads.values()))
    return first, np.searchsorted(first, head)


class _GrowthGrid:
    """The sample grid of the growth bounds, evaluated in blocks of nodes.

    Per node the free slot runs over ``n`` points ``s`` of ``[-R, R]``, the
    parameter over ``max(5, n // 8)`` points ``us`` of ``[-D, D]`` and an
    unanchored other slot over as many points ``other`` of ``[-R, R]``.  A
    block of ``K`` nodes holds ``(K, n, n_u, n_other)`` samples (``n_other``
    is 1 when the other slot is anchored), each computed as the node alone
    computes it.  The callers sample only the first node of each node
    class (:func:`_node_classes`).
    """

    def __init__(self, spec, R, n):
        self.spec = spec
        self.s = np.linspace(-R, R, n)
        self.us = np.linspace(-spec.D, spec.D, max(5, n // 8))
        self.other = np.linspace(-R, R, max(5, n // 8))
        self.free = self.s[None, :, None, None]

    def integrand(self, nodes, lower, anchor):
        """``F`` at the nodes ``nodes`` (indices into ``0..T-1``); the free slot is ``x`` if ``lower``."""
        fixed = (self.other[None, None, None, :] if anchor is None
                 else _column(anchor.values[1:-1][nodes]))
        xy = (self.free, fixed) if lower else (fixed, self.free)
        (F,) = self.spec.field.value_kernel(_column(self.spec.nodes()[nodes]), *xy,
                                            self.us[None, None, :, None])
        return F

    def shape(self, anchor):
        """The ``(n, n_u, n_other)`` samples of one node, the other slot fixed by ``anchor``."""
        return self.s.size, self.us.size, 1 if anchor is not None else self.other.size


def _node_blocks(shapes, compute, nodes):
    """``(part, compute(nodes[part]))`` for consecutive slices ``part`` of the node array ``nodes``.

    ``compute`` returns one array per entry of ``shapes``, the shape of one
    node's samples, behind the node axis.  A slice holds as many nodes as
    keep these samples within ``_NODE_BLOCK_VALUES``, and one node at least.
    Its nodes are the rows of :func:`~saddlebvp.problem.rows_apart`, so the
    error raised is the first that a loop over ``nodes`` meets.
    """
    size = max(1, _NODE_BLOCK_VALUES // max(math.prod(shape) for shape in shapes))
    for start in range(0, nodes.size, size):
        part = slice(start, min(start + size, nodes.size))
        at = nodes[part]
        out, errors = rows_apart(lambda i: compute(at[i] if isinstance(i, slice) else at[i:i + 1]),
                                 at.size, shapes)
        if errors:
            raise errors[min(errors)]
        yield part, out


@dataclass(frozen=True)
class BallRadii:
    """A priori radii confining every saddle point, with derivation constants.

    ``a1 = 1/2 - c2 alpha1`` and ``a2 = 1/2 - c2 alpha2`` are the coercivity
    margins; ``value_lower <= saddle value <= value_upper`` bracket the
    optimal value via the quadratic minorant/majorant whose coefficients are
    the ``beta_tilde``/``gamma_tilde`` constants.
    """

    r1: float
    r2: float
    beta_tilde1: float
    gamma_tilde1: float
    beta_tilde2: float
    gamma_tilde2: float
    a1: float
    a2: float
    value_lower: float
    value_upper: float

    def contains(self, x: GridFunction, y: GridFunction, slack=1e-6) -> bool:
        return (h_norm(x) <= self.r1 * (1.0 + slack)
                and h_norm(y) <= self.r2 * (1.0 + slack))


def ball_radii(cert: GrowthCertificate, c2: float, T: int) -> BallRadii:
    """Radii of the balls that contain every saddle point.

    The x-side minorant ``a1 t^2 - bt1 t + gt1`` is coercive and the y-side
    majorant ``-a2 t^2 + bt2 t + gt2`` anti-coercive; bracketing the optimal
    value between the minorant's minimum and the majorant's maximum gives the
    radii as the positive roots of two quadratics.  The majorant falls below
    ``value_lower`` for ``h_norm(y) > r2``, and symmetrically for ``r1``.
    """
    if cert.T != T:
        raise HypothesisError(f"certificate is for T={cert.T}, expected {T}")
    a1 = 0.5 - c2 * cert.alpha1
    a2 = 0.5 - c2 * cert.alpha2
    if a1 <= 0 or a2 <= 0:
        raise HypothesisError(
            f"growth margin violated: need alpha < {1.0 / (2 * c2)}, "
            f"got alpha1={cert.alpha1}, alpha2={cert.alpha2}")
    scale = np.sqrt(T * c2)
    bt1 = abs(cert.beta1) * scale
    bt2 = abs(cert.beta2) * scale
    ny = 0.0 if cert.anchor_y is None else h_norm(cert.anchor_y)
    nx = 0.0 if cert.anchor_x is None else h_norm(cert.anchor_x)
    gt1 = float(np.sum(cert.gamma1)) - 0.5 * ny ** 2
    gt2 = float(np.sum(np.maximum(cert.gamma2, 0.0))) + 0.5 * nx ** 2
    value_lower = gt1 - bt1 ** 2 / (4.0 * a1)
    value_upper = gt2 + bt2 ** 2 / (4.0 * a2)
    disc2 = bt2 ** 2 + 4.0 * a2 * (gt2 - value_lower)
    disc1 = bt1 ** 2 + 4.0 * a1 * (value_upper - gt1)
    if disc1 < 0 or disc2 < 0:
        raise HypothesisError("inconsistent growth constants: empty value bracket")
    r2 = (bt2 + np.sqrt(disc2)) / (2.0 * a2)
    r1 = (bt1 + np.sqrt(disc1)) / (2.0 * a1)
    return BallRadii(r1=float(r1), r2=float(r2),
                     beta_tilde1=float(bt1), gamma_tilde1=float(gt1),
                     beta_tilde2=float(bt2), gamma_tilde2=float(gt2),
                     a1=float(a1), a2=float(a2),
                     value_lower=float(value_lower), value_upper=float(value_upper))


def _grid_gap_pad(vals):
    # Second differences estimate how far the sampled extreme can sit below the
    # true one between grid points (midpoint error ~ f'' h^2 / 8, kinks ~ jump h / 2).
    # One pad per node of a (K, n, n_u, n_other) block.
    pad = np.zeros(len(vals))
    for axis in (1, 2, 3):
        if vals.shape[axis] >= 3:
            pad = np.maximum(pad, 0.5 * np.abs(np.diff(vals, n=2, axis=axis)).max(axis=(1, 2, 3)))
    return pad


def fit_growth_certificate(spec, box_radius, alpha1=None, alpha2=None,
                           density=241, slack=1e-6, anchor_y=None, anchor_x=None):
    """Heuristic certificate: pick alphas, fit the gamma offsets by sampling.

    Uses half the admissible alpha margin unless alphas are given, sets the
    linear terms to zero, and chooses the gamma constants as the worst
    sampled slack of each bound over the box, padded by a second-difference
    estimate of the between-samples error so the result verifies on grids of
    comparable density.  Validity beyond the box is the caller's judgement.
    ``density`` is the number of samples per free slot, at least 9.
    The grid is sampled once per node class (:func:`_node_classes`, keyed
    by the two anchors), and each node gets its class's gammas.
    """
    if density < 9:
        raise HypothesisError(f"density must be at least 9, got {density}")
    c2 = embedding_constant(2, spec.T)
    if alpha1 is None:
        alpha1 = 0.25 / c2
    if alpha2 is None:
        alpha2 = 0.25 / c2
    R = float(box_radius)
    grid = _GrowthGrid(spec, R, int(density))
    free = grid.free

    def sides(nodes):
        return (grid.integrand(nodes, True, anchor_y) + alpha1 * free ** 2,
                grid.integrand(nodes, False, anchor_x) - alpha2 * free ** 2)

    first, cls = _node_classes(spec, anchor_y, anchor_x)
    gamma1 = np.empty(first.size)
    gamma2 = np.empty(first.size)
    for part, (lower, upper) in _node_blocks((grid.shape(anchor_y), grid.shape(anchor_x)),
                                             sides, first):
        gamma1[part] = lower.min(axis=(1, 2, 3)) - _grid_gap_pad(lower) - slack
        gamma2[part] = upper.max(axis=(1, 2, 3)) + _grid_gap_pad(upper) + slack
    return GrowthCertificate(alpha1=alpha1, beta1=0.0, gamma1=gamma1[cls],
                             alpha2=alpha2, beta2=0.0, gamma2=gamma2[cls],
                             box_radius=R, anchor_y=anchor_y, anchor_x=anchor_x)
