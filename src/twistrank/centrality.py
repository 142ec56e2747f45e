"""Twisted endpoint-pair distributions and the centralities they induce.

The bivariate distribution assigns to every ordered node pair (u, w) the
total tilted mass of the walks that start at u and end at w; its start
marginal is the centrality score.  The assembly here runs directly over the
adjacency structure (edges plus wedges through each middle node), which is
algebraically the same endpoint grouping the path enumeration produces but
computed in one vectorised pass over the CSR entries.  Centralities skip the
pairs: a :class:`TiltModel` prepares one graph, measure and walk, then solves
each temperature on the measure's atoms and sums each start node's tilted
mass from per-node statistics, in O(m) for the sign measures and in
O(m log m), once, for the advertisement measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GraphError
from .graph import AttributedGraph, GraphStats, stats
from .sampling import WalkConfig, _check_budget
from .twisting import (
    AtomSolver,
    CappedRows,
    MinInnerProduct,
    SignMin,
    SignProduct,
    measure_atoms,
    theta_value,
)

CENTRALITY_KINDS = ("influence", "trust", "advertisement")


@dataclass(frozen=True, eq=False)
class BivariateDistribution:
    """Sparse probability mass over ordered node pairs.

    Only pairs connected by a walk of length 1 or 2 carry mass.  Pairs are
    stored as sorted ``u * n + w`` codes with aligned masses.
    """

    n: int
    codes: np.ndarray
    masses: np.ndarray

    def pair_mass(self, u: int, w: int) -> float:
        code = int(u) * self.n + int(w)  # node ids may come as int32
        i = int(np.searchsorted(self.codes, code))
        if i < self.codes.size and self.codes[i] == code:
            return float(self.masses[i])
        return 0.0

    def start_marginal(self) -> np.ndarray:
        return np.bincount(self.codes // self.n, weights=self.masses, minlength=self.n)

    def end_marginal(self) -> np.ndarray:
        return np.bincount(self.codes % self.n, weights=self.masses, minlength=self.n)


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


def bivariate(model: TiltModel, theta: float) -> BivariateDistribution:
    """Tilted mass of every ordered node pair, assembled structurally.

    For each pair the mass is C * [exp(theta * f(u, w)) * beta1 / (2 m) when
    the edge exists, plus the sum over middle nodes v of
    exp(theta * f(u, v, w)) * beta2 / (2 m * deg(v))].  Exponents are shifted
    by their maximum before exponentiation, so the normalization survives
    large |theta|.  The pair count grows like the walk count, so a walk mix
    with more than ``sampling.DEFAULT_PATH_BUDGET`` walks is rejected.
    """
    g = model.graph
    if g.m == 0:
        raise GraphError("cannot build a pair distribution on an edgeless graph")
    _check_budget(g, model.walk)
    theta = theta_value(theta)

    indptr, indices, signs = g.csr()
    if model.is_sign:
        edge_f = signs.astype(float)
        combine = np.minimum if model.is_min else np.multiply
    else:
        z = model.measure.node_scores(g)
        edge_f = np.minimum(z[np.repeat(np.arange(g.n), np.diff(indptr))], z[indices])
        combine = np.minimum
    codes, exps, wts = _pair_terms(g, model.walk, theta, edge_f, combine)

    shift = exps.max()
    unnorm = np.exp(exps - shift) * wts
    total = unnorm.sum()
    uniq, inverse = np.unique(codes, return_inverse=True)
    masses = np.bincount(inverse, weights=unnorm, minlength=uniq.size) / total
    return BivariateDistribution(n=g.n, codes=uniq, masses=masses)


def _pair_terms(g, walk, theta, edge_f, combine):
    """Pair codes, exponents and base weights of every walk of positive mass.

    ``edge_f`` is the measure of each CSR entry's edge, and ``combine`` joins
    the two edges' values into a two-step walk's measure.  Length-1 terms
    follow the CSR entries; length-2 terms follow the middle nodes' rows, each
    row's ordered entry pairs with the first entry outer.
    """
    indptr, indices, _ = g.csr()
    degree = np.diff(indptr)
    rows = np.repeat(np.arange(g.n), degree)
    inv_2m = 1.0 / (2 * g.m)
    codes, exps, wts = [], [], []
    if walk.beta1 > 0:
        codes.append(rows * g.n + indices)
        exps.append(theta * edge_f)
        wts.append(np.full(indices.size, walk.beta1 * inv_2m))
    if walk.beta2 > 0:
        k = degree[rows]
        first = np.repeat(np.arange(indices.size), k)
        # Entry ``first`` is paired with every entry of its own row in turn.
        second = np.arange(first.size) - np.repeat(np.cumsum(k) - k - indptr[rows], k)
        # int64 codes: the neighbour ids may be int32, and n * n need not fit.
        codes.append(indices[first].astype(np.int64) * g.n + indices[second])
        exps.append(theta * combine(edge_f[first], edge_f[second]))
        wts.append(walk.beta2 * inv_2m / k[first])
    return np.concatenate(codes), np.concatenate(exps), np.concatenate(wts)


def marginal(b: BivariateDistribution) -> CentralityRanking:
    """Start marginal of a pair distribution, as a ranking.

    For the symmetric built-in measures it equals the end marginal.
    """
    return CentralityRanking.from_scores(b.start_marginal())


def _step_weights(theta: float) -> tuple[float, float]:
    # e^theta and e^-theta, both scaled by e^-|theta|: exp(theta) overflows
    # past ~709, and the common scale cancels on normalizing.
    return math.exp(theta - abs(theta)), math.exp(-theta - abs(theta))


def _out_weights(gs: GraphStats, theta: float) -> np.ndarray:
    # Tilted weight k+ e^theta + k- e^-theta of the steps out of each node,
    # scaled as in _step_weights; also each node's length-1 start mass.
    ep, en = _step_weights(theta)
    return gs.pos_degree * ep + gs.neg_degree * en


def _sign_scores(g, gs: GraphStats, walk: WalkConfig, theta: float, is_min: bool) -> np.ndarray:
    # Unnormalized start masses, without the common factor 1 / (2 m).
    out = _out_weights(gs, theta)
    scores = walk.beta1 * out
    if walk.beta2 > 0:
        ep, en = _step_weights(theta)
        kp, kn, k = gs.pos_degree, gs.neg_degree, gs.degree
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


def _min_inner_scores(g, walk: WalkConfig, theta: float, rows: CappedRows) -> np.ndarray:
    # Unnormalized start masses, without the common factor 1 / (2 m).
    indptr, middles, starts, level = rows.indptr, rows.middle, rows.neighbour, rows.level
    # Every walk's exponent is theta times some entry's level (a two-step walk
    # u-v-u reaches the extreme), and every level is an entry's, so shifting by
    # the largest keeps all <= 0.
    x = theta * rows.levels
    weight = np.exp(x - x.max())[level]
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


def influence_closed_form(graph_stats: GraphStats, theta: float) -> CentralityRanking:
    """Single-step influence scores without any enumeration.

    When only length-1 walks are sampled, the sign-product tilt has the
    closed form score(u) = (k_u+ e^theta + k_u- e^-theta) /
    (2 (m+ e^theta + m- e^-theta)).  At theta = 0 this collapses to
    degree / (2 m).
    """
    if graph_stats.m == 0:
        raise GraphError("closed-form scores are undefined on an edgeless graph")
    scores = _out_weights(graph_stats, float(theta))
    return CentralityRanking.from_scores(scores / scores.sum())


class TiltModel:
    """One graph, path measure and walk mix, ready to be tilted at any temperature.

    The work that does not depend on theta is built lazily, at most once, and
    shared by every temperature: the signed degrees (``stats``), the
    advertisement measure's capped rows and score levels (``capped_rows``),
    the measure's atoms (``atoms``, see :func:`measure_atoms`) and their
    positive-mass part with its log masses (``solver``), which also keeps the
    moments at every temperature a solve visits.  A build that fails raises
    again on the next use.
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
        """The measure's capped rows, read from the graph's sorted pairs; a
        node score that is not finite is a :class:`GraphError` naming the
        first such node by its original id."""
        z = self.measure.node_scores(self.graph)
        bad = np.flatnonzero(~np.isfinite(z))
        if bad.size:
            u = bad[0]
            raise GraphError(
                f"the score of node {self.graph.original_ids[u]} is {z[u]}: the inner "
                "product of its attributes with the score vector is not finite"
            )
        return self.measure.capped_rows(self.graph)

    @cached_property
    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        return measure_atoms(self)

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

    def ranking(self, theta: float) -> CentralityRanking:
        """Start-node marginal of the tilted walk distribution, as a ranking.

        Equals ``marginal(bivariate(self, theta))`` without building the pair
        masses.  For the sign measures a walk's tilt depends only on its edge
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
        return CentralityRanking.from_scores(scores / scores.sum())


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
