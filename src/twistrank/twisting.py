"""Exponential change of measure over short walks.

Given the base short-walk distribution p0 and a scalar path measure f, the
tilted distribution p(r) = C * exp(theta * f(r)) * p0(r) is the closest
distribution to p0 in Kullback-Leibler divergence among those whose mean
path measure hits a prescribed target.  This module evaluates path
measures, on one walk or on an ``(N, L)`` block of walks with one walk per
row, computes the tilt in the log domain, and solves for the scalar
temperature theta at which the mean measure, the derivative of the free
energy F = log(1/C), hits a target.

The tilt sees a walk only through its measure value, so pushing the base
walk distribution forward through the measure (:func:`measure_atoms`) gives
a table of at most n atoms on which every solve runs: in closed form for
the two sign atoms, by Newton iteration otherwise.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, GraphError, SolveError
from .graph import AttributedGraph, GraphStats, _row_entries
from .sampling import WalkConfig

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


class CappedRows(NamedTuple):
    """Entry ``j`` of row ``v`` (``indptr[v] <= j < indptr[v + 1]``) is the edge
    from ``middle[j]`` = v to ``neighbour[j]``, of measure ``levels[level[j]]``,
    where ``levels`` holds the distinct measures of the entries, ascending."""

    indptr: np.ndarray
    middle: np.ndarray
    neighbour: np.ndarray
    level: np.ndarray
    levels: np.ndarray


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
        # One BLAS dot product per node, not node_scores' multiply-and-sum, so
        # that the oracle shares no kernel with production.
        z = np.array([row @ self.scores for row in graph.node_attrs])
        return _per_walk(z[nodes].min(axis=-1))

    def node_scores(self, graph: AttributedGraph) -> np.ndarray:
        """Inner product of every node's attribute vector with the score vector.

        It is a numpy multiply-and-sum, not a BLAS product, so neither the BLAS
        kernel nor its thread count decides a bit of it.  Finite attributes
        can still overflow it: such a score is +-inf or NaN, without a
        warning.  :attr:`~twistrank.centrality.TiltModel.capped_rows` rejects
        them.
        """
        self._check_dim(graph)
        with np.errstate(over="ignore", invalid="ignore"):
            return (graph.node_attrs * self.scores).sum(axis=1)

    def capped_rows(self, graph: AttributedGraph) -> CappedRows:
        """Every edge in both directions, as the rows of :class:`CappedRows`.

        An edge's measure min(z[middle], z[neighbour]) caps the neighbour's
        score at the middle node's.  The rows are those of ``graph.csr()``,
        built from ``graph.pairs()`` without placing it; each is sorted by
        ascending measure, ties in ``csr()`` order.

        An entry's level is ``min(rank[middle], rank[neighbour])``, where
        ``rank`` numbers the distinct node scores in ascending order; an entry
        with a NaN end takes the top level, which ``np.unique`` gives NaN.  The
        levels no entry takes are dropped, and the rows are one stable argsort
        of the int64 key ``middle * r + level`` over the r levels left.
        """
        z = self.node_scores(graph)
        indptr, middle, neighbour = _row_entries(graph)
        levels, rank = np.unique(z, return_inverse=True)
        # Ranks are below n, so they take the node ids' width (int32 below 2**31).
        rank = rank.astype(middle.dtype)
        level = np.minimum(rank[middle], rank[neighbour])
        nan = np.isnan(z)
        level[nan[middle] | nan[neighbour]] = levels.size - 1
        used = np.zeros(levels.size, dtype=bool)
        used[level] = True
        level = (np.cumsum(used, dtype=level.dtype) - 1)[level]
        levels = levels[used]
        order = np.argsort(middle.astype(np.int64) * levels.size + level, kind="stable")
        return CappedRows(indptr, middle[order], neighbour[order], level[order], levels)

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
    atoms come from the capped rows, sorted once in O(m log m), summed by
    integer score level with no float sort.  Atoms of zero mass may be present.
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
        # Summed by numpy, not by a BLAS dot product, whose order depends on
        # the BLAS kernel and thread count.
        pos += float((unit * plus).sum())
        neg += float((unit * minus).sum())
    return np.array([-1.0, 1.0]), np.array([neg, pos])


def _min_inner_atoms(g: AttributedGraph, walk: WalkConfig, rows: CappedRows):
    k = np.diff(rows.indptr)[rows.middle]
    i = np.arange(rows.level.size) - rows.indptr[rows.middle]
    # The edge (v, u) is one length-1 walk of its level.  The i-th lowest
    # level of row v is the measure of the 2 (k - 1 - i) + 1 ordered pairs
    # through v whose lower-ranked end it is; every level is an atom.
    masses = (walk.beta1 + walk.beta2 * (2 * (k - 1 - i) + 1) / k) / (2 * g.m)
    return rows.levels, np.bincount(rows.level, weights=masses)


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
        """Solve mean(theta) = gamma: in closed form on two atoms, else by the
        Newton iteration of ``verify.solve_theta_numeric`` at O(atoms) per step.
        The target must lie strictly inside the atoms' range.  This is the one
        solver of ``TiltModel.theta``, for every measure and walk mix."""
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
    # numpy sums, not BLAS dot products, so that theta's bits do not depend
    # on the BLAS kernel or thread count.
    _, p = _tilt(f, logp0, theta)
    grad = float((p * f).sum())
    var = float((p * (f - grad) ** 2).sum())
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


# Forwarded to the oracle for perfbench/spans.py, as in sampling.py.
def __getattr__(name):
    if name in ("solve_theta_closed", "solve_theta_numeric"):
        from . import verify
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
