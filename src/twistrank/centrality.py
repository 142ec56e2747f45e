"""The centralities induced by twisted endpoint-pair distributions.

The bivariate distribution assigns to every ordered node pair (u, w) the
total tilted mass of the walks that start at u and end at w; its start
marginal is the centrality score.  Centralities skip the pairs: a
:class:`TiltModel` prepares one graph, measure and walk, then solves
each temperature on the measure's atoms and sums each start node's tilted
mass from per-node statistics, in O(m) for the sign measures and in
O(m log m), once, for the advertisement measure.

The tilt sees a walk only through its measure value, so pushing the base
walk distribution forward through the measure (:attr:`TiltModel.atoms`)
gives a table of at most n atoms on which every solve runs: in closed form
for the two sign atoms, by Newton iteration otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import GraphError
from .graph import AttributedGraph, GraphStats, _row_entries, stats
from .sampling import WalkConfig
from .twisting import AtomSolver, MinInnerProduct, SignMin, SignProduct, theta_value

CENTRALITY_KINDS = ("influence", "trust", "advertisement")


@dataclass(frozen=True, eq=False)
class CentralityRanking:
    """Normalized per-node scores plus a deterministic ranking order.

    Ties are broken by ascending node id, so repeated runs produce identical
    orders.
    """

    scores: np.ndarray
    order: np.ndarray

    @classmethod
    def from_scores(cls, scores) -> "CentralityRanking":
        scores = np.asarray(scores, dtype=float)
        order = np.lexsort((np.arange(scores.size), -scores))
        return cls(scores=scores, order=order)

    def top(self, k: int) -> list[int]:
        return [int(u) for u in self.order[: max(0, k)]]


def _step_weights(theta: float) -> tuple[float, float]:
    # e^theta and e^-theta, both scaled by e^-|theta|: exp(theta) overflows
    # past ~709, and the common scale cancels on normalizing.
    return math.exp(theta - abs(theta)), math.exp(-theta - abs(theta))


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


def _sign_scores(g, gs: GraphStats, walk: WalkConfig, theta: float, is_min: bool) -> np.ndarray:
    # Unnormalized start masses, without the common factor 1 / (2 m).
    ep, en = _step_weights(theta)
    kp, kn, k = gs.pos_degree, gs.neg_degree, gs.degree
    # Tilted weight k+ e^theta + k- e^-theta of the steps out of each node,
    # scaled as in _step_weights; also each node's length-1 start mass.
    out = kp * ep + kn * en
    scores = walk.beta1 * out
    if walk.beta2 > 0:
        # The second step's weight after a positive or a negative first edge
        # u-v, over k_v; an isolated node is no middle node.
        after_pos, after_neg = np.divide([out, k * en if is_min else kn * ep + kp * en], k,
                                         out=np.zeros((2, g.n)), where=k > 0)
        lo, hi, signs = g.pairs()
        two_step = np.zeros(g.n)
        # Each start u adds its middles v in ascending order, the v < u (pairs
        # with hi == u) first: the order of a bincount over the CSR entries.
        for middle, start in ((lo, hi), (hi, lo)):
            np.add.at(two_step, start, np.where(signs > 0, after_pos[middle], after_neg[middle]))
        scores = scores + walk.beta2 * two_step
    return scores


class CappedRows(NamedTuple):
    """Entry ``j`` of row ``v`` (``indptr[v] <= j < indptr[v + 1]``) is the edge
    from ``middle[j]`` = v to ``neighbour[j]``, of measure ``levels[level[j]]``,
    where ``levels`` holds the distinct measures of the entries, ascending."""

    indptr: np.ndarray
    middle: np.ndarray
    neighbour: np.ndarray
    level: np.ndarray
    levels: np.ndarray


def _capped_rows(graph: AttributedGraph, measure: MinInnerProduct) -> CappedRows:
    """An entry's level is ``min(rank[middle], rank[neighbour])``, where
    ``rank`` numbers the distinct node scores in ascending order.  The
    levels no entry takes are dropped, and the rows are one stable argsort
    of the int64 key ``middle * r + level`` over the r levels left.  The
    zero level is 0.0, never -0.0.
    """
    z = measure.node_scores(graph)
    bad = np.flatnonzero(~np.isfinite(z))
    if bad.size:
        u = bad[0]
        raise GraphError(
            f"the score of node {graph.original_ids[u]} is {z[u]}: the inner "
            "product of its attributes with the score vector is not finite"
        )
    indptr, middle, neighbour = _row_entries(graph)
    levels, rank = np.unique(z, return_inverse=True)
    # Ranks are below n, so they take the node ids' width (int32 below 2**31).
    rank = rank.astype(middle.dtype)
    level = np.minimum(rank[middle], rank[neighbour])
    used = np.zeros(levels.size, dtype=bool)
    used[level] = True
    level = (np.cumsum(used, dtype=level.dtype) - 1)[level]
    # np.unique keeps whichever zero its sort puts first; + 0.0 makes it 0.0.
    levels = levels[used] + 0.0
    order = np.argsort(middle.astype(np.int64) * levels.size + level, kind="stable")
    return CappedRows(indptr, middle[order], neighbour[order], level[order], levels)


def _min_inner_atoms(g: AttributedGraph, walk: WalkConfig, rows: CappedRows):
    k = np.diff(rows.indptr)[rows.middle]
    i = np.arange(rows.level.size) - rows.indptr[rows.middle]
    # The edge (v, u) is one length-1 walk of its level.  The i-th lowest
    # level of row v is the measure of the 2 (k - 1 - i) + 1 ordered pairs
    # through v whose lower-ranked end it is; every level is an atom.
    masses = (walk.beta1 + walk.beta2 * (2 * (k - 1 - i) + 1) / k) / (2 * g.m)
    return rows.levels, np.bincount(rows.level, weights=masses)


def _min_inner_scores(g, walk: WalkConfig, theta: float, rows: CappedRows) -> np.ndarray:
    # Unnormalized start masses, without the common factor 1 / (2 m).
    indptr, middles, starts, level = rows.indptr, rows.middle, rows.neighbour, rows.level
    # Every walk's exponent is theta times some entry's level (a two-step walk
    # u-v-u reaches the extreme), and every level is an entry's, so shifting by
    # the largest keeps all <= 0.  An exponent of -inf is a weight of 0, but
    # the largest must be finite.
    with np.errstate(over="ignore"):
        x = theta * rows.levels
    top = x.max()
    if not np.isfinite(top):
        raise ValueError(f"theta = {theta} is out of range for these node scores: "
                         "theta times a score overflows")
    weight = np.exp(x - top)[level]
    scores = walk.beta1 * np.bincount(starts, weights=weight, minlength=g.n)
    if walk.beta2 > 0:
        k = np.diff(indptr)[middles]
        prefix = _row_cumsum(weight, indptr)
        # Entry j is the walk's first step u-v at level t = level[j]; the
        # neighbours w of v below t sit before the first entry of its run of
        # equal levels in the row.
        run = np.ones(level.size, dtype=bool)
        run[1:] = (middles[1:] != middles[:-1]) | (level[1:] != level[:-1])
        first = np.maximum.accumulate(np.where(run, np.arange(level.size), 0))
        below = first - indptr[middles]
        head = np.where(below > 0, prefix[first - 1], 0.0)
        inner = head + (k - below) * weight
        scores = scores + walk.beta2 * np.bincount(starts, weights=inner / k, minlength=g.n)
    return scores


def _row_cumsum(x: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Inclusive prefix sums of ``x`` restarted at every row of ``indptr``.

    Rows of one length are summed as a 2-D block, so each sum accumulates
    only its own row and never cancels against earlier rows.
    """
    out = np.empty_like(x)
    lengths = np.diff(indptr)
    for length in np.unique(lengths[lengths > 0]):
        cols = indptr[:-1][lengths == length][:, None] + np.arange(length)
        out[cols] = np.cumsum(x[cols], axis=1)
    return out


class TiltModel:
    """One graph, path measure and walk mix, ready to be tilted at any temperature.

    The work that does not depend on theta is built lazily, at most once, and
    shared by every temperature: the signed degrees (``stats``), the
    advertisement measure's capped rows and score levels (``capped_rows``),
    the measure's atoms (``atoms``) and their positive-mass part with its log
    masses (``solver``), which also keeps the moments at every temperature a
    solve visits.  A build that fails raises again on the next use.
    """

    def __init__(self, g: AttributedGraph, measure, walk: WalkConfig | None = None):
        if not isinstance(measure, (SignProduct, SignMin, MinInnerProduct)):
            raise TypeError(
                f"no tilt model for measure {type(measure).__name__}: it has no "
                "per-node kernel and no structural pair assembly"
            )
        self.is_sign = not isinstance(measure, MinInnerProduct)
        self.is_min = isinstance(measure, SignMin)
        self.graph = g
        self.measure = measure
        self.walk = walk or WalkConfig()

    @cached_property
    def stats(self) -> GraphStats:
        return stats(self.graph)

    @cached_property
    def capped_rows(self) -> CappedRows:
        """Every edge in both directions, as the rows of :class:`CappedRows`.

        An edge's measure min(z[middle], z[neighbour]) caps the neighbour's
        score at the middle node's, where z is the advertisement measure's
        ``node_scores``.  The rows are those of ``graph.csr()``, built from
        ``graph.pairs()`` without placing it; each is sorted by ascending
        measure, ties in ``csr()`` order.  A node score that is not finite,
        on any node, is a :class:`GraphError` naming the first such node by
        its original id.
        """
        return _capped_rows(self.graph, self.measure)

    @cached_property
    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """The base walk distribution pushed forward through the measure.

        Returns ``(values, masses)``: ascending measure values and the total
        base mass of the walks taking each, summing to 1.  Since the tilt
        sees a walk only through its measure, Z(theta) = sum(masses *
        exp(theta * values)), so a temperature solve needs only this table.

        The sign measures have the two atoms -1 and +1, whose masses follow
        from the signed degrees k+ and k- in O(m): a middle node v splits the
        k_v^2 two-step walks through it by the signs of their two edges.  The
        advertisement measure takes at most n values, the node scores; its
        atoms come from ``capped_rows``, sorted once in O(m log m), summed by
        integer score level with no float sort.  Atoms of zero mass may be
        present.
        """
        if self.graph.m == 0:
            raise GraphError("cannot push the walk distribution forward on an edgeless graph")
        if self.is_sign:
            return _sign_atoms(self.stats, self.walk, self.is_min)
        return _min_inner_atoms(self.graph, self.walk, self.capped_rows)

    @cached_property
    def solver(self) -> AtomSolver:
        return AtomSolver(*self.atoms)

    def theta(self, gamma: float) -> float:
        """The temperature at which the tilted mean measure equals ``gamma``.

        Every target is inverted on the measure's atoms, at every walk mix: in
        closed form for the two sign atoms, by Newton iteration over at most n
        atoms for the advertisement measure.  The targets share one
        :class:`~twistrank.twisting.AtomSolver`, and each gets the theta of a
        fresh solver's ``theta``.
        """
        return self.solver.theta(gamma)

    def scores(self, theta: float) -> np.ndarray:
        """Start-node marginal of the tilted walk distribution, normalized to
        sum to 1, in node-id order.

        Equals the start marginal of the oracle's pair masses without building
        them.  For the sign measures a walk's tilt depends only on its edge
        signs, so each start node's mass follows from the signed degrees of
        itself and its neighbours, in O(m).  For the advertisement measure, a
        two-step walk u-v-w has measure min(t, z_w) with t = min(z_u, z_v), so
        its sum over w is a prefix sum of exp(theta z_w) below t along v's
        sorted capped row plus a count at or above it.
        """
        g = self.graph
        if g.m == 0:
            raise GraphError("cannot compute start marginals on an edgeless graph")
        theta = theta_value(theta)
        if self.is_sign:
            scores = _sign_scores(g, self.stats, self.walk, theta, self.is_min)
        else:
            scores = _min_inner_scores(g, self.walk, theta, self.capped_rows)
        return scores / scores.sum()

    def ranking(self, theta: float) -> CentralityRanking:
        """:meth:`scores` at ``theta``, ordered by descending score, then id."""
        return CentralityRanking.from_scores(self.scores(theta))


def resolve_theta(
    model: TiltModel,
    *,
    theta: float | None = None,
    gamma: float | None = None,
) -> float:
    """Resolve the temperature for a centrality run.

    Exactly one of ``theta`` and ``gamma`` must be given.  A gamma target is
    inverted by :meth:`TiltModel.theta`; no walk is enumerated.
    """
    if (theta is None) == (gamma is None):
        raise ValueError("exactly one of theta and gamma must be given")
    if theta is not None:
        return float(theta)
    return model.theta(float(gamma))


def centrality(
    g: AttributedGraph,
    kind: str,
    *,
    theta: float | None = None,
    gamma: float | None = None,
    walk: WalkConfig | None = None,
    ad_vector=None,
) -> CentralityRanking:
    """Compute an influence, trust, or advertisement centrality ranking.

    Dispatches the path measure for ``kind``, resolves the temperature from
    ``theta`` or ``gamma``, and returns the start marginal of the tilted
    walk distribution (:meth:`TiltModel.ranking`).
    """
    model = TiltModel(g, measure_for(kind, ad_vector), walk)
    return model.ranking(resolve_theta(model, theta=theta, gamma=gamma))


def measure_for(kind: str, ad_vector=None):
    """Path measure backing a centrality kind."""
    key = kind.lower()
    if key == "influence":
        return SignProduct()
    if key == "trust":
        return SignMin()
    if key in ("advertisement", "ad"):
        if ad_vector is None:
            raise ValueError("advertisement centrality requires a score vector")
        return MinInnerProduct(ad_vector)
    raise ValueError(f"unknown centrality kind {kind!r}; expected one of {CENTRALITY_KINDS}")


# Forwarded to the oracle for perfbench/spans.py, as in sampling.py.
def __getattr__(name):
    if name in ("bivariate", "marginal"):
        from . import verify
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
