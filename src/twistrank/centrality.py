"""The centralities induced by twisted endpoint-pair distributions.

The bivariate distribution assigns to every ordered node pair (u, w) the
total tilted mass of the walks that start at u and end at w; its start
marginal is the centrality score.  Centralities skip the pairs: a
:class:`TiltModel` prepares one graph, measure and walk, then solves
each temperature on the measure's atoms and sums each start node's tilted
mass from per-node statistics built once: in O(m) for the sign measures,
then O(n) per temperature, and in O(m log m) for the advertisement measure.

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
from . import graph as _graph
from .graph import AttributedGraph, GraphStats, _degrees, stats
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
        order = np.argsort(-scores, kind="stable")
        return cls(scores=scores, order=order)

    def top(self, k: int) -> list[int]:
        return [int(u) for u in self.order[: max(0, k)]]


def _tilt_weights(theta: float, masses) -> tuple[float, float]:
    # e^-theta and e^theta, the tilts of the atoms -1 and +1, scaled by
    # e^-|theta| against overflow; the scale cancels on normalizing.  A massless
    # atom weighs 0 and the other 1, which no underflow can turn into 0.
    neg, pos = masses != 0
    if neg and pos:
        return math.exp(-theta - abs(theta)), math.exp(theta - abs(theta))
    return float(neg), float(pos)


def _sign_masses(g, gs: GraphStats, walk: WalkConfig, is_min: bool):
    kp, kn, k = gs.pos_degree, gs.neg_degree, gs.degree
    if walk.beta2 == 0:
        return walk.beta1 * kp, walk.beta1 * kn
    n = g.n
    # Entry v (n + v) splits the second steps out of v after a positive
    # (negative) first edge into their shares of measure +1, the real part,
    # and -1, the imaginary part.  An isolated node is no middle node.
    k1 = np.maximum(k, 1)
    table = np.empty((2, n), dtype=complex)
    for row, (plus, minus) in zip(table, ((kp, kn), (0, k) if is_min else (kn, kp))):
        row.real, row.imag = plus / k1, minus / k1
    lo, hi, signs = g.pairs()
    two_step = np.zeros(n, dtype=complex)
    # Each start u adds its middles v in ascending order, the v < u (pairs
    # with hi == u) first, as a bincount over the CSR entries would; the parts
    # of a complex sum are two real sums in that order.
    for middle, start in ((lo, hi), (hi, lo)):
        # graph._index_dtype through the module: the oracle in verify binds
        # that name, and shares no private name with this module.
        entry = (signs < 0).astype(_graph._index_dtype(2 * n)) * n
        entry += middle
        np.add.at(two_step, start, table.ravel()[entry])
    return (walk.beta1 * kp + walk.beta2 * two_step.real,
            walk.beta1 * kn + walk.beta2 * two_step.imag)


class CappedRows(NamedTuple):
    """Entry ``j`` of row ``v`` (``indptr[v] <= j < indptr[v + 1]``, as in ``csr()``)
    is the edge from v to ``neighbour[j]``, of measure ``levels[level[j]]``,
    where ``levels`` holds the distinct measures of the entries, ascending."""

    indptr: np.ndarray
    neighbour: np.ndarray
    level: np.ndarray
    levels: np.ndarray


def _capped_rows(graph: AttributedGraph, measure: MinInnerProduct) -> CappedRows:
    """An entry's level in row v is ``min(rank[v], rank[neighbour])``, where
    ``rank`` numbers the distinct node scores in ascending order; the levels
    no entry takes are dropped.  The zero level is 0.0, never -0.0.

    Row v lists first its neighbours u with ``rank[u] < rank[v]``, by (rank,
    id), then the others, whose level is v's own, by id: the order of a
    stable sort by level of the row's entries in ``csr()`` order.  So each
    entry has a distinct int64 key, ``v * 2n + place[u]`` or ``v * 2n + n +
    u``, where ``place`` numbers the nodes in (rank, id) order, and one
    plain sort of the keys gives the rows; each sorted key, taken modulo 2n,
    is decoded back into its entry.  The keys are below 2n**2, so a graph of
    2**31 nodes or more is a GraphError, raised before anything is built.
    """
    n = graph.n
    if n >= 2**31:
        raise GraphError(f"cannot sort the capped rows of {n} nodes: their int64 row "
                         "keys hold at most 2**31 - 1 nodes")
    z = measure.node_scores(graph)
    bad = np.flatnonzero(~np.isfinite(z))
    if bad.size:
        u = bad[0]
        raise GraphError(
            f"the score of node {graph.original_ids[u]} is {z[u]}: the inner "
            "product of its attributes with the score vector is not finite"
        )
    lo, hi, _ = graph.pairs()
    node, m = lo.dtype, lo.size
    degree = _degrees(lo, hi, n)
    indptr = np.concatenate(([0], np.cumsum(degree)))
    levels, rank = np.unique(z, return_inverse=True)
    # Ranks are below n, so they take the node ids' width (int32 below 2**31).
    rank = rank.astype(node)
    # The keys rank * n + id are distinct, so a plain sort lists the nodes by
    # (rank, id) as a stable one would.  Every key sum and product is taken
    # in int64 by dtype=: numpy would take it in int32 with a Python int.
    by_place = np.sort(np.multiply(rank, n, dtype=np.int64) + np.arange(n))
    by_place %= n
    place = np.empty(n, dtype=node)
    place[by_place] = np.arange(n, dtype=node)
    # The keys of the entries (hi, lo), then (lo, hi), from middle v to
    # neighbour u.
    rank_lo, rank_hi = rank[lo], rank[hi]
    key = np.empty(2 * m, dtype=np.int64)
    for part, v, u, below in ((key[:m], hi, lo, rank_lo < rank_hi),
                              (key[m:], lo, hi, rank_hi < rank_lo)):
        np.add(u, n, out=part, dtype=np.int64)
        np.copyto(part, place[u], where=below)
        part += np.multiply(v, 2 * n, dtype=np.int64)
    used = np.zeros(levels.size, dtype=bool)
    used[np.minimum(rank_lo, rank_hi)] = True
    del rank_lo, rank_hi, place, part, below
    key.sort()
    # Sorted, the keys run through the rows in turn, and what is left of a key
    # modulo 2n is the place of a neighbour ranked below, or n + its id.
    key %= 2 * n
    neighbour = np.concatenate((by_place.astype(node), np.arange(n, dtype=node)))[key]
    # Each node's rank among the used levels.  The renumbering is monotone, so
    # it commutes with min; a node with an edge ranks at or above that edge's
    # level, which is used, so no entry reads the -1 of a rank below them all.
    used_rank = (np.cumsum(used, dtype=node) - 1)[rank]
    # A neighbour ranked below caps the entry at its level, any other
    # neighbour at the middle node's (n is above every level).
    level = np.concatenate((used_rank[by_place], np.full(n, n, dtype=node)))[key]
    del key
    np.minimum(level, np.repeat(used_rank, degree), out=level)
    # np.unique keeps whichever zero its sort puts first; + 0.0 makes it 0.0.
    return CappedRows(indptr, neighbour, level, levels[used] + 0.0)


def _min_inner_atoms(g: AttributedGraph, walk: WalkConfig, rows: CappedRows):
    if walk.beta2 == 0:
        # Every entry weighs beta1 / (2 m), the bits of the expression below.
        # bincount would add a level's c weights one at a time from 0.0,
        # which gives entry c - 1 of the running sum of that weight; this
        # needs no 2m-entry array.  Every level is some entry's, so c >= 1.
        count = np.bincount(rows.level)
        running = np.add.accumulate(np.full(count.max(), walk.beta1 / (2 * g.m)))
        return rows.levels, running[count - 1]
    length = np.diff(rows.indptr)
    k = np.repeat(length, length)
    i = np.arange(rows.level.size) - np.repeat(rows.indptr[:-1], length)
    # The edge (v, u) is one length-1 walk of its level.  The i-th lowest
    # level of row v is the measure of the 2 (k - 1 - i) + 1 ordered pairs
    # through v whose lower-ranked end it is; every level is an atom.
    masses = (walk.beta1 + walk.beta2 * (2 * (k - 1 - i) + 1) / k) / (2 * g.m)
    return rows.levels, np.bincount(rows.level, weights=masses)


def _min_inner_scores(g, walk: WalkConfig, theta: float, rows: CappedRows) -> np.ndarray:
    # Unnormalized start masses, without the common factor 1 / (2 m).
    indptr, starts, level = rows.indptr, rows.neighbour, rows.level
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
        length = np.diff(indptr)
        prefix = _row_cumsum(weight, indptr)
        # Entry j is the walk's first step u-v at level t = level[j]; the
        # neighbours w of v below t sit before the first entry of its run of
        # equal levels in the row, which a new level or a new row starts.
        run = np.ones(level.size, dtype=bool)
        run[1:] = level[1:] != level[:-1]
        run[indptr[:-1][length > 0]] = True
        first = np.maximum.accumulate(np.where(run, np.arange(level.size), 0))
        below = first - np.repeat(indptr[:-1], length)
        head = np.where(below > 0, prefix[first - 1], 0.0)
        k = np.repeat(length, length)
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
    # The row lengths that occur, ascending, from a count: no sort, no hash.
    for length in np.flatnonzero(np.bincount(lengths)[1:]) + 1:
        cols = indptr[:-1][lengths == length][:, None] + np.arange(length)
        out[cols] = np.cumsum(x[cols], axis=1)
    return out


class TiltModel:
    """One graph, path measure and walk mix, ready to be tilted at any temperature.

    The work that does not depend on theta is built lazily, at most once, and
    shared by every temperature: the signed degrees (``stats``), the sign
    measures' start masses (``sign_masses``), the advertisement measure's
    capped rows and score levels (``capped_rows``), the measure's atoms
    (``atoms``) and their positive-mass part with its log masses
    (``solver``), which also keeps the moments at every temperature a solve
    visits.  A build that fails raises again on the next use.
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
        ``node_scores``.  The rows are those of ``graph.csr()``, with its
        ``indptr``, built from ``graph.pairs()`` without placing it; each is
        sorted by ascending measure, ties in ``csr()`` order, by one plain
        sort of a distinct int64 key per entry, not a stable sort.  A node
        score that is not finite, on any node, is a :class:`GraphError`
        naming the first such node by its original id.
        """
        return _capped_rows(self.graph, self.measure)

    @cached_property
    def sign_masses(self) -> tuple[np.ndarray, np.ndarray]:
        """``(a, b)``: a_u (b_u) is 2 m times the base mass of the walks from u
        of measure +1 (-1), so u's tilted mass is e^theta a_u + e^-theta b_u.
        Each is summed directly, never as a difference that could round below
        0, in one pass over the edges each way."""
        return _sign_masses(self.graph, self.stats, self.walk, self.is_min)

    @cached_property
    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """The base walk distribution pushed forward through the measure.

        Returns ``(values, masses)``: ascending measure values and the total
        base mass of the walks taking each, summing to 1.  Since the tilt
        sees a walk only through its measure, Z(theta) = sum(masses *
        exp(theta * values)), so a temperature solve needs only this table.

        The sign measures have the two atoms -1 and +1, whose masses are the
        sums of ``sign_masses`` b and a over 2 m.  The
        advertisement measure takes at most n values, the node scores; its
        atoms come from ``capped_rows``, sorted once in O(m log m), summed by
        integer score level with no float sort.  Atoms of zero mass may be
        present.
        """
        if self.graph.m == 0:
            raise GraphError("cannot push the walk distribution forward on an edgeless graph")
        if self.is_sign:
            a, b = self.sign_masses
            return np.array([-1.0, 1.0]), np.array([b.sum(), a.sum()]) / (2 * self.graph.m)
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
        them.  For the sign measures each start node's mass is e^theta a +
        e^-theta b from ``sign_masses``, in O(n).  For the advertisement
        measure, a two-step walk u-v-w has measure min(t, z_w) with t =
        min(z_u, z_v), so its sum over w is a prefix sum of exp(theta z_w)
        below t along v's sorted capped row plus a count at or above it.
        """
        g = self.graph
        if g.m == 0:
            raise GraphError("cannot compute start marginals on an edgeless graph")
        theta = theta_value(theta)
        if self.is_sign:
            en, ep = _tilt_weights(theta, self.atoms[1])
            a, b = self.sign_masses
            scores = ep * a + en * b
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
