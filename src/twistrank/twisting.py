"""Exponential change of measure over short walks.

Given the base short-walk distribution p0 and a scalar path measure f, the
tilted distribution p(r) = C * exp(theta * f(r)) * p0(r) is the closest
distribution to p0 in Kullback-Leibler divergence among those whose mean
path measure hits a prescribed target.  This module evaluates path
measures, on one walk or on an ``(N, L)`` block of walks with one walk per
row, computes the tilt in the log domain, exposes the free energy
F = log(1/C) and its derivative (the mean measure), and solves for the
scalar temperature theta that achieves a target mean.

The tilt sees a walk only through its measure value, so pushing the base
walk distribution forward through the measure (:func:`measure_atoms`) gives
a table of at most n atoms on which every solve runs: in closed form for
the two sign atoms, by Newton iteration otherwise.  The oracle these atoms
are checked against enumerates every walk once into a :class:`PathTable`
(:func:`path_table`), which :func:`twist`, :func:`achievable_range` and
:func:`solve_theta_numeric` read at any temperature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, GraphError, SolveError
from .graph import AttributedGraph, GraphStats
from .sampling import WalkConfig, WalkPath, enumerate_paths

# Newton iteration: tolerance on the mean measure, and step limit.
NEWTON_TOL = 1e-11
NEWTON_MAX_ITER = 200


class SignProduct:
    """Product of the edge signs along a path; always +1 or -1.

    A length-2 path through two negative edges evaluates to +1, which is the
    friend-of-friend / enemy-of-enemy propagation rule behind influence
    scoring.
    """

    def evaluate(self, graph: AttributedGraph, nodes) -> float | np.ndarray:
        return _per_walk(_step_signs(graph, nodes).prod(axis=-1))


class SignMin:
    """Minimum edge sign along a path: -1 unless every traversed edge is positive.

    A path counts as fully trusted only when it is a chain of positive
    edges, so one negative edge poisons the whole walk.
    """

    def evaluate(self, graph: AttributedGraph, nodes) -> float | np.ndarray:
        return _per_walk(_step_signs(graph, nodes).min(axis=-1))


def _step_signs(graph: AttributedGraph, nodes) -> np.ndarray:
    """Edge signs of the steps of one walk, or of each walk of a block."""
    return graph.csr()[2][_step_entries(graph, nodes)]


def _step_entries(graph: AttributedGraph, nodes) -> np.ndarray:
    """CSR entry of each step of one walk, or of each walk of a block.

    Each step ``u -> w`` is found among the CSR entry codes ``row * n + col``,
    which ascend because the rows do and so does each row.  A step that is
    not an edge between graph nodes raises :class:`GraphError`.
    """
    n = graph.n
    indptr, indices, _ = graph.csr()
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    # The int64 maximum follows every code, so each step lands on an entry.
    codes = np.append(rows * n + indices, np.iinfo(np.int64).max)
    nodes = np.asarray(nodes, dtype=np.int64)
    u, w = nodes[..., :-1], nodes[..., 1:]
    steps = u * n + w
    at = np.searchsorted(codes, steps)
    # A node outside 0..n-1 would read another row: (0, n + w) is coded as (1, w).
    missing = (codes[at] != steps) | (np.minimum(u, w) < 0) | (np.maximum(u, w) >= n)
    if missing.any():
        raise GraphError(f"no edge between nodes {u[missing][0]} and {w[missing][0]}")
    return at


def _per_walk(values: np.ndarray) -> float | np.ndarray:
    # A float for one walk, an array of floats for a block of them.
    return float(values) if values.ndim == 0 else values.astype(float)


class MinInnerProduct:
    """Minimum, over the path's nodes, of the inner product with a score vector.

    The score vector plays the role of an advertisement profile over topics;
    a walk is only as receptive as its least receptive node.
    """

    def __init__(self, scores):
        self.scores = np.asarray(scores, dtype=float)
        if self.scores.ndim != 1 or self.scores.size == 0:
            raise ValueError("score vector must be a nonempty one-dimensional array")
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("score vector must be finite")

    def evaluate(self, graph: AttributedGraph, nodes) -> float | np.ndarray:
        self._check_dim(graph)
        nodes = np.asarray(nodes)
        _step_entries(graph, nodes)  # each step must be an edge, as for the sign measures
        # One dot product per node, not node_scores' matrix product, so that
        # the oracle shares no kernel with production.
        z = np.array([row @ self.scores for row in graph.node_attrs])
        return _per_walk(z[nodes].min(axis=-1))

    def node_scores(self, graph: AttributedGraph) -> np.ndarray:
        """Inner product of every node's attribute vector with the score vector.

        Finite attributes can still overflow it: such a score is +-inf or NaN,
        without a warning.  :attr:`~twistrank.centrality.TiltModel.capped_rows`
        rejects them.
        """
        self._check_dim(graph)
        with np.errstate(over="ignore", invalid="ignore"):
            return graph.node_attrs @ self.scores

    def capped_rows(self, graph: AttributedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The entries of ``graph.csr()`` as ``(middle, neighbour, capped)`` arrays.

        ``capped`` is min(z[middle], z[neighbour]): the measure of that edge,
        and the neighbour's score capped at the middle node's.  Rows stay in
        ``csr()`` order, so its ``indptr`` still delimits them, but within a
        row the entries are sorted by ascending ``capped``, ties in ``csr()``
        order and NaN last.

        The sort is one stable argsort of the int64 key ``middle * r +
        min(rank[middle], rank[neighbour])``, where ``rank`` numbers the r
        distinct scores in ascending order.  The rank of a min is the min of
        the ranks, except that a NaN score passes through ``np.minimum``; its
        entries take the top rank, which ``np.unique`` gives NaN.
        """
        z = self.node_scores(graph)
        indptr, neighbours, _ = graph.csr()
        middles = np.repeat(np.arange(graph.n), np.diff(indptr))
        capped = np.minimum(z[middles], z[neighbours])
        levels, rank = np.unique(z, return_inverse=True)
        key = np.minimum(rank[middles], rank[neighbours])
        key[np.isnan(capped)] = levels.size - 1
        order = np.argsort(middles * levels.size + key, kind="stable")
        return middles[order], neighbours[order], capped[order]

    def _check_dim(self, graph: AttributedGraph) -> None:
        if graph.attr_dim != self.scores.size:
            raise GraphError(
                f"score vector has dimension {self.scores.size} but node "
                f"attributes have dimension {graph.attr_dim}"
            )


def theta_value(theta) -> float:
    """``theta`` as a float; arrays and non-finite values are rejected."""
    if np.ndim(theta) != 0:
        raise ValueError(f"theta must be a scalar, got dimension {np.ndim(theta)}")
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    return theta


@dataclass(frozen=True)
class TwistResult:
    """Normalization and summary statistics of one tilt.

    ``free_energy`` is log(1/C); ``mean_measure`` is the average path
    measure under the tilted distribution, which equals the derivative of
    the free energy in theta.
    """

    free_energy: float
    mean_measure: float


@dataclass(frozen=True, eq=False)
class PathTable:
    """The enumerated walk support of one graph, measure and walk mix.

    ``paths`` are the walks of positive base mass, ``f`` their measures and
    ``logp0`` their log base masses.  None of it depends on theta, so one
    table serves :func:`twist`, :func:`achievable_range` and
    :func:`solve_theta_numeric` at every temperature.
    """

    paths: tuple[WalkPath, ...]
    f: np.ndarray       # shape (N,)
    logp0: np.ndarray   # shape (N,)


def path_table(g: AttributedGraph, measure, walk: WalkConfig) -> PathTable:
    """Enumerate every walk of ``walk`` on ``g`` and evaluate ``measure`` on it.

    This is the oracle the vectorised routes are checked against: it holds
    one Python object per walk, so it fails fast with
    :class:`~twistrank.errors.EnumerationBudgetError` when the walk count
    exceeds the default budget of :func:`enumerate_paths`.
    """
    # A tiny walk weight such as beta1 = 5e-324 gives paths whose base mass
    # underflows to 0; they are not part of the support.
    paths = tuple(p for p in enumerate_paths(g, walk) if p.base_prob > 0)
    # enumerate_paths yields every length-1 walk before any length-2 one, so
    # each length is one block of node ids, evaluated in one call.
    split = sum(len(p.nodes) == 2 for p in paths)
    blocks = [np.array([p.nodes for p in part]) for part in (paths[:split], paths[split:]) if part]
    f = np.concatenate([measure.evaluate(g, block) for block in blocks])
    logp0 = np.array([math.log(p.base_prob) for p in paths])
    return PathTable(paths=paths, f=f, logp0=logp0)


def _logsumexp(x: np.ndarray) -> float:
    """log(sum(exp(x))) of a nonempty array of finite values.

    The shifted form of Blanchard, Higham & Higham, "Accurately computing
    the log-sum-exp and softmax functions" (IMA J. Numer. Anal. 41(4),
    2021): the entries tied at the maximum leave the sum as a count, and
    the rest enter through log1p.
    """
    top = x.max()
    at_top = x == top
    count = np.count_nonzero(at_top)
    rest = np.exp(np.where(at_top, -np.inf, x) - top).sum()
    return float(np.log1p(rest / count) + np.log(count) + top)


def _tilt(f: np.ndarray, logp0: np.ndarray, theta: float) -> tuple[float, np.ndarray]:
    logw = theta * f + logp0
    log_z = _logsumexp(logw)
    return log_z, np.exp(logw - log_z)


def twist(table: PathTable, theta: float) -> tuple[TwistResult, np.ndarray]:
    """Tilt a path table's base distribution by exp(theta * f).

    Returns the normalization summary and the tilted mass of each path,
    aligned with ``table.paths`` and summing to 1.  All accumulation happens
    in the log domain, so large |theta * f| values do not overflow.
    """
    log_z, probs = _tilt(table.f, table.logp0, theta_value(theta))
    return TwistResult(free_energy=log_z, mean_measure=float(probs @ table.f)), probs


def achievable_range(table: PathTable) -> tuple[float, float]:
    """(min, max) of the measure over a path table's support.

    Any target mean strictly between the two is achievable by some finite
    temperature; values on or outside them are not.
    """
    return float(table.f.min()), float(table.f.max())


def solve_theta_closed(graph_stats: GraphStats, gamma: float) -> float:
    """Closed-form temperature for the single-step sign-product regime.

    With only length-1 walks, the mean sign under the tilt is
    (m+ e^theta - m- e^-theta) / (m+ e^theta + m- e^-theta); inverting it
    gives theta = ln sqrt(m- (1 + gamma) / (m+ (1 - gamma))).  Requires both
    positive and negative edges, otherwise the mean sign is constant and no
    finite temperature exists.
    """
    if not -1.0 < gamma < 1.0:
        raise SolveError(f"target mean sign must lie strictly in (-1, 1), got {gamma}")
    if graph_stats.m_pos == 0 or graph_stats.m_neg == 0:
        raise SolveError(
            "closed-form temperature needs both positive and negative edges "
            f"(m+ = {graph_stats.m_pos}, m- = {graph_stats.m_neg})"
        )
    return _two_atom_theta(-1.0, 1.0, graph_stats.m_neg, graph_stats.m_pos, gamma)


def _two_atom_theta(lo: float, hi: float, mass_lo: float, mass_hi: float, gamma: float) -> float:
    # With Z = mass_lo e^(theta lo) + mass_hi e^(theta hi), the mean hits gamma
    # where mass_lo e^(theta lo) (gamma - lo) = mass_hi e^(theta hi) (hi - gamma).
    return math.log(mass_lo * (gamma - lo) / (mass_hi * (hi - gamma))) / (hi - lo)


def measure_atoms(model) -> tuple[np.ndarray, np.ndarray]:
    """Push a tilt model's base walk distribution forward through its measure.

    ``model`` is a :class:`~twistrank.centrality.TiltModel`, whose signed
    degrees and capped rows are built once and reused here.  Returns
    ``(values, masses)``: ascending measure values and the total base mass of
    the walks taking each, summing to 1.  Since the tilt sees a walk only
    through its measure, Z(theta) = sum(masses * exp(theta * values)), so a
    temperature solve needs only this table.

    The sign measures have the two atoms -1 and +1, whose masses follow from
    the signed degrees k+ and k- in O(m): a middle node v splits the k_v^2
    two-step walks through it by the signs of their two edges.  The
    advertisement measure takes at most n values, the node scores; its
    atoms come from each node's neighbour scores sorted, in O(m log m).
    Atoms of zero mass may be present.
    """
    if model.graph.m == 0:
        raise GraphError("cannot push the walk distribution forward on an edgeless graph")
    if model.is_sign:
        return _sign_atoms(model.stats, model.walk, model.is_min)
    return _min_inner_atoms(model.graph, model.walk, model.capped_rows)


def _sign_atoms(gs: GraphStats, walk: WalkConfig, is_min: bool):
    pos = walk.beta1 * gs.m_pos / gs.m
    neg = walk.beta1 * gs.m_neg / gs.m
    if walk.beta2 > 0:
        live = gs.degree > 0
        k = gs.degree[live].astype(float)
        kp = gs.pos_degree[live].astype(float)
        kn = gs.neg_degree[live].astype(float)
        # Each ordered neighbour pair of v is one walk of mass beta2 / (2 m k_v).
        unit = walk.beta2 / (2 * gs.m * k)
        if is_min:
            plus, minus = kp * kp, k * k - kp * kp
        else:
            plus, minus = kp * kp + kn * kn, 2.0 * kp * kn
        pos += float(unit @ plus)
        neg += float(unit @ minus)
    return np.array([-1.0, 1.0]), np.array([neg, pos])


def _min_inner_atoms(g: AttributedGraph, walk: WalkConfig, capped_rows):
    middles, _, capped = capped_rows
    indptr = g.csr()[0]
    k = np.diff(indptr)[middles]
    i = np.arange(capped.size) - indptr[middles]
    # The edge (v, u) is one length-1 walk of measure capped.  The i-th
    # smallest capped score of row v is the measure of the 2 (k - 1 - i) + 1
    # ordered pairs through v whose lower-ranked end it is.
    masses = (walk.beta1 + walk.beta2 * (2 * (k - 1 - i) + 1) / k) / (2 * g.m)
    values, inverse = np.unique(capped, return_inverse=True)
    return values, np.bincount(inverse, weights=masses, minlength=values.size)


class AtomSolver:
    """The positive-mass atoms of a :func:`measure_atoms` table, ready for any target.

    The atoms are filtered and their masses logged once, and the tilted
    ``(mean, variance)`` is kept at every theta a solve visits.  The targets
    of a sweep then share the bracket points 0, +-1, +-2, ... rather than
    recomputing them.  A memo entry is the value a fresh evaluation would
    give, so each target's Newton path and theta are those of its own solve.
    """

    def __init__(self, values: np.ndarray, masses: np.ndarray):
        keep = masses > 0
        self.f, self.p = values[keep], masses[keep]
        self.logp = np.log(self.p)
        self.range = float(self.f.min()), float(self.f.max())
        self.moments: dict[float, tuple[float, float]] = {}

    def theta(self, gamma: float) -> float:
        """Solve mean(theta) = gamma; see :func:`solve_theta_atoms`."""
        gamma = float(gamma)
        _check_target(*self.range, gamma)
        if self.f.size == 2:
            (lo, hi), (mass_lo, mass_hi) = self.f.tolist(), self.p.tolist()
            return _two_atom_theta(lo, hi, mass_lo, mass_hi, gamma)
        return _solve_scalar(self._grad_var, gamma)

    def _grad_var(self, theta: float) -> tuple[float, float]:
        # -0.0 and 0.0 share a key; both give logw = theta * f + logp bit for bit.
        moments = self.moments.get(theta)
        if moments is None:
            moments = self.moments[theta] = _scalar_grad_var(self.f, self.logp, theta)
        return moments


def solve_theta_atoms(
    values: np.ndarray,
    masses: np.ndarray,
    gamma: float,
) -> float:
    """Solve mean(theta) = gamma on a :func:`measure_atoms` table.

    Two atoms of positive mass have a closed-form solution; more run the
    same safeguarded Newton iteration as :func:`solve_theta_numeric`, at
    O(atoms) per step.  The target must lie strictly between the smallest
    and largest atom of positive mass.  To solve many targets on one table,
    keep one :class:`AtomSolver`.
    """
    return AtomSolver(values, masses).theta(gamma)


def solve_theta_numeric(table: PathTable, gamma: float) -> float:
    """Solve F'(theta) = gamma by Newton iteration on a path table.

    The second derivative of the free energy is the variance of the measure
    under the tilt, so the mean is monotone in theta and admits a bisection
    fallback.  The target must lie strictly inside the achievable range
    (see :func:`achievable_range`).  Convergence is declared when the mean
    matches gamma within ``NEWTON_TOL``, followed by one polishing step.
    """
    gamma = float(gamma)
    _check_target(*achievable_range(table), gamma)
    return _solve_scalar(lambda t: _scalar_grad_var(table.f, table.logp0, t), gamma)


def _check_target(fmin: float, fmax: float, gamma: float) -> None:
    # sweep.json records these messages per failing target.
    if fmin == fmax:
        raise SolveError(
            f"measure is constant ({fmin}) on the support; "
            "the mean cannot be steered and the Hessian is singular"
        )
    if not fmin < gamma < fmax:
        raise SolveError(
            f"target mean {gamma} is outside the achievable range "
            f"({fmin}, {fmax}) (open interval)"
        )


def _scalar_grad_var(f: np.ndarray, logp0: np.ndarray, theta: float) -> tuple[float, float]:
    _, p = _tilt(f, logp0, theta)
    grad = float(p @ f)
    var = float(p @ (f - grad) ** 2)
    return grad, var


def _solve_scalar(grad_var, gamma: float) -> float:
    """Root of mean(theta) = gamma, where ``grad_var(theta)`` is the tilted
    ``(mean, variance)`` of the measure."""
    def residual(t: float) -> tuple[float, float]:
        grad, var = grad_var(t)
        return grad - gamma, var

    theta = 0.0
    r, var = residual(theta)
    if abs(r) <= NEWTON_TOL:
        return _polish_scalar(grad_var, gamma, theta, r, var)

    # Bracket the root: the gradient is nondecreasing in theta.
    lo, hi = -1.0, 1.0
    r_lo, _ = residual(lo)
    while r_lo > 0.0:
        lo *= 2.0
        if lo < -1e6:
            raise ConvergenceError("failed to bracket the temperature from below", r_lo)
        r_lo, _ = residual(lo)
    r_hi, _ = residual(hi)
    while r_hi < 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise ConvergenceError("failed to bracket the temperature from above", r_hi)
        r_hi, _ = residual(hi)

    if r > 0.0:
        hi = min(hi, theta)
    else:
        lo = max(lo, theta)

    for _ in range(NEWTON_MAX_ITER):
        candidate = theta - r / var if var > 0.0 else None
        if candidate is None or not lo < candidate < hi:
            candidate = 0.5 * (lo + hi)
        theta = candidate
        r, var = residual(theta)
        if abs(r) <= NEWTON_TOL:
            return _polish_scalar(grad_var, gamma, theta, r, var)
        if r > 0.0:
            hi = theta
        else:
            lo = theta
        if hi - lo <= 1e-16 * max(1.0, abs(theta)):
            break
    if abs(r) <= NEWTON_TOL:
        return _polish_scalar(grad_var, gamma, theta, r, var)
    raise ConvergenceError("temperature solve did not converge", abs(r))


def _polish_scalar(grad_var, gamma, theta, r, var) -> float:
    # One extra Newton step tightens the residual to machine precision,
    # which keeps theta accurate even where the gradient saturates.
    if var > 0.0 and r != 0.0:
        candidate = theta - r / var
        grad2, _ = grad_var(candidate)
        if abs(grad2 - gamma) < abs(r):
            return candidate
    return theta
