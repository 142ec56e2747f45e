"""Ranking comparison machinery: degree baselines, top-k sets, Jaccard, sweeps.

A sweep ranks one graph at many targets through a single
:class:`~twistrank.centrality.TiltModel`, so the work shared by the targets is
done once.  A top-k set is the first k nodes of the (descending score,
ascending id) order of :meth:`CentralityRanking.from_scores`, NaN last, but it
is selected in O(n) by a partition rather than a sort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TwistrankError
from .graph import AttributedGraph, GraphStats
from .centrality import CentralityRanking, TiltModel, measure_for, resolve_theta
from .sampling import WalkConfig

DEGREE_KINDS = ("positive", "negative", "total")


@dataclass(frozen=True)
class TopKSet:
    """The k highest-ranked nodes of a ranking, as a set."""

    k: int
    members: frozenset[int]


def _top_mask(scores: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the first k nodes of ``np.argsort(-scores, kind="stable")``.

    The k-th key comes from a partition; the nodes keyed strictly before it
    are taken, and its ties fill the rest in ascending id.  The key is the
    negated score with NaN last, as that sort orders it, so -0.0 ties 0.0.
    """
    key = -np.asarray(scores, dtype=float)
    if k >= key.size:
        return np.ones(key.size, dtype=bool)
    if k <= 0:
        return np.zeros(key.size, dtype=bool)
    kth = np.partition(key, k - 1)[k - 1]
    if np.isnan(kth):
        tied = np.isnan(key)
        mask = ~tied
    else:
        mask, tied = key < kth, key == kth
    mask[np.flatnonzero(tied)[: k - np.count_nonzero(mask)]] = True
    return mask


def top_k(ranking: CentralityRanking, k: int) -> TopKSet:
    """The set of ``ranking.top(k)`` for a ranking built by ``from_scores``,
    selected from its scores in O(n)."""
    members = np.flatnonzero(_top_mask(ranking.scores, k))
    return TopKSet(k=k, members=frozenset(members.tolist()))


def _degree_scores(graph_stats: GraphStats, kind: str) -> np.ndarray:
    if graph_stats.n == 0:
        raise TwistrankError("degree ranking is undefined on an empty graph")
    if kind == "positive":
        raw = graph_stats.pos_degree
    elif kind == "negative":
        raw = graph_stats.neg_degree
    elif kind == "total":
        raw = graph_stats.degree
    else:
        raise ValueError(f"unknown degree kind {kind!r}; expected one of {DEGREE_KINDS}")
    total = raw.sum()
    return raw / total if total > 0 else np.zeros(graph_stats.n)


def degree_ranking(graph_stats: GraphStats, kind: str) -> CentralityRanking:
    """Baseline ranking by positive, negative, or total degree.

    Scores are normalized to sum to 1 purely for interface uniformity; when
    the selected degree is zero everywhere the scores stay zero and the
    order falls back to ascending node id.
    """
    return CentralityRanking.from_scores(_degree_scores(graph_stats, kind))


def jaccard(s1, s2) -> float:
    """Set-overlap ratio |intersection| / |union|; two empty sets give 1."""
    a = frozenset(getattr(s1, "members", s1))
    b = frozenset(getattr(s2, "members", s2))
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)


@dataclass
class SweepRow:
    """One sweep target with its resolved temperature and baseline overlaps."""

    gamma: float | None
    theta: float | None
    jaccard_pos: float | None
    jaccard_neg: float | None
    jaccard_total: float | None
    error: str | None = None


def sweep(
    g: AttributedGraph,
    kind: str,
    mode: str,
    values,
    walk: WalkConfig | None = None,
    k: int = 100,
    ad_vector=None,
) -> list[SweepRow]:
    """Rank at each target and compare the top-k against degree baselines.

    ``mode`` selects whether ``values`` are gamma targets or temperatures.
    A failing target, such as a non-finite temperature, produces a row
    carrying the error message; the other rows are unaffected.  Output
    order follows the input order.  One :class:`TiltModel` serves every
    target, so the graph statistics, the measure's atoms and its sorted rows
    are built at most once.  Each target's top-k, and each baseline's, is
    selected from the normalized scores in O(n), ties in ascending node id,
    with no full ranking; the overlaps are integer counts, so every Jaccard
    value equals :func:`jaccard` of the ``top(k)`` sets of
    :meth:`TiltModel.ranking` and :func:`degree_ranking`.
    """
    if mode not in ("gamma", "theta"):
        raise ValueError(f"mode must be 'gamma' or 'theta', got {mode!r}")
    if k < 1:
        raise ValueError(f"top-k size must be at least 1, got {k}")
    model = TiltModel(g, measure_for(kind, ad_vector), walk)
    baselines = [_top_mask(_degree_scores(model.stats, name), k) for name in DEGREE_KINDS]
    # Both sets hold min(k, n) nodes, so the union is 2 min(k, n) - |both|.
    sizes = 2 * min(k, g.n)
    rows: list[SweepRow] = []
    for value in values:
        gamma = float(value) if mode == "gamma" else None
        given_theta = float(value) if mode == "theta" else None
        try:
            theta = resolve_theta(model, theta=given_theta, gamma=gamma)
            mine = _top_mask(model.scores(theta), k)
            both = [int(np.count_nonzero(mine & base)) for base in baselines]
            pos, neg, total = (b / (sizes - b) for b in both)
            rows.append(
                SweepRow(gamma=gamma, theta=theta, jaccard_pos=pos,
                         jaccard_neg=neg, jaccard_total=total)
            )
        except (TwistrankError, ValueError) as exc:
            rows.append(
                SweepRow(
                    gamma=gamma, theta=given_theta, jaccard_pos=None,
                    jaccard_neg=None, jaccard_total=None, error=str(exc),
                )
            )
    return rows
