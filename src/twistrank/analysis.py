"""Ranking comparison machinery: degree baselines, top-k sets, Jaccard, sweeps.

A sweep ranks one graph at many targets through a single
:class:`~twistrank.centrality.TiltModel`, so the work shared by the targets is
done once.
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


def top_k(ranking: CentralityRanking, k: int) -> TopKSet:
    return TopKSet(k=k, members=frozenset(ranking.top(k)))


def degree_ranking(graph_stats: GraphStats, kind: str) -> CentralityRanking:
    """Baseline ranking by positive, negative, or total degree.

    Scores are normalized to sum to 1 purely for interface uniformity; when
    the selected degree is zero everywhere the scores stay zero and the
    order falls back to ascending node id.
    """
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
    scores = raw / total if total > 0 else np.zeros(graph_stats.n)
    return CentralityRanking.from_scores(scores)


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
    A failing target produces a row carrying the error message; the other
    rows are unaffected.  Output order follows the input order.  One
    :class:`TiltModel` serves every target, so the graph statistics, the
    measure's atoms and its sorted rows are built at most once.
    """
    if mode not in ("gamma", "theta"):
        raise ValueError(f"mode must be 'gamma' or 'theta', got {mode!r}")
    if k < 1:
        raise ValueError(f"top-k size must be at least 1, got {k}")
    model = TiltModel(g, measure_for(kind, ad_vector), walk)
    baselines = {
        name: top_k(degree_ranking(model.stats, name), k) for name in DEGREE_KINDS
    }
    rows: list[SweepRow] = []
    for value in values:
        gamma = float(value) if mode == "gamma" else None
        given_theta = float(value) if mode == "theta" else None
        try:
            theta = resolve_theta(model, theta=given_theta, gamma=gamma)
            mine = top_k(model.ranking(theta), k)
            rows.append(
                SweepRow(
                    gamma=gamma,
                    theta=theta,
                    jaccard_pos=jaccard(mine, baselines["positive"]),
                    jaccard_neg=jaccard(mine, baselines["negative"]),
                    jaccard_total=jaccard(mine, baselines["total"]),
                )
            )
        except TwistrankError as exc:
            rows.append(
                SweepRow(
                    gamma=gamma, theta=given_theta, jaccard_pos=None,
                    jaccard_neg=None, jaccard_total=None, error=str(exc),
                )
            )
    return rows
