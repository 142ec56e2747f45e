"""Attributed-graph data model, sign statistics, and dataset preprocessing.

Graphs are undirected, carry one sign (+1 or -1) per edge, and optionally a
real-valued attribute vector per node.  An :class:`AttributedGraph` is
immutable after construction: every numeric kernel in the package reads from
the compact adjacency arrays built here, so they can be shared freely between
workers.

The preprocessing pipeline turns raw (possibly directed, duplicated, or
self-looped) edge records into a validated graph: it symmetrizes the input,
collapses parallel edges, drops self-loops, optionally injects negative edges
between partitions, and iteratively removes low-degree nodes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import GraphError

EdgeRecord = tuple[int, int, int]


class AttributedGraph:
    """Undirected graph with edge signs and per-node attribute vectors.

    Node ids are compacted to ``0..n-1``; the original external ids are kept
    in :attr:`original_ids`.  Build instances through :func:`load_graph` or
    :func:`preprocess`, which validate the invariants (no self-loops, one
    sign per unordered pair, signs exactly +1 or -1, a single attribute
    dimension shared by all nodes).
    """

    __slots__ = (
        "n", "original_ids", "node_attrs", "_edge_signs", "_nbr", "_sgn", "_index_of", "_csr"
    )

    def __init__(
        self,
        original_ids: Sequence[int],
        edge_signs: Mapping[tuple[int, int], int],
        node_attrs: np.ndarray,
    ):
        self.n = len(original_ids)
        self.original_ids = tuple(original_ids)
        self._index_of = {orig: i for i, orig in enumerate(self.original_ids)}
        self._edge_signs = dict(edge_signs)
        self.node_attrs = node_attrs

        buckets: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for (u, w), s in self._edge_signs.items():
            buckets[u].append((w, s))
            buckets[w].append((u, s))
        nbr, sgn = [], []
        for lst in buckets:
            lst.sort()
            nbr.append(np.array([w for w, _ in lst], dtype=np.int64))
            sgn.append(np.array([s for _, s in lst], dtype=np.int64))
        self._nbr = tuple(nbr)
        self._sgn = tuple(sgn)
        self._csr = None

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return len(self._edge_signs)

    @property
    def attr_dim(self) -> int:
        return self.node_attrs.shape[1]

    def neighbors(self, u: int) -> np.ndarray:
        return self._nbr[u]

    def neighbor_signs(self, u: int) -> np.ndarray:
        return self._sgn[u]

    def degree(self, u: int) -> int:
        return self._nbr[u].size

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All neighbour lists in one read-only ``(indptr, indices, signs)`` triple.

        Row ``u`` is ``indices[indptr[u]:indptr[u + 1]]`` (ascending ids) with
        the matching edge signs; every undirected edge appears in both rows.
        Built on first use and kept.
        """
        if self._csr is None:
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum([a.size for a in self._nbr], out=indptr[1:])
            empty = np.empty(0, dtype=np.int64)
            indices = np.concatenate((*self._nbr, empty))
            signs = np.concatenate((*self._sgn, empty))
            for arr in (indptr, indices, signs):
                arr.setflags(write=False)
            self._csr = (indptr, indices, signs)
        return self._csr

    def has_edge(self, u: int, w: int) -> bool:
        return (min(u, w), max(u, w)) in self._edge_signs

    def sign(self, u: int, w: int) -> int:
        """Sign of the edge between ``u`` and ``w``; raises if absent."""
        try:
            return self._edge_signs[(min(u, w), max(u, w))]
        except KeyError:
            raise GraphError(f"no edge between nodes {u} and {w}") from None

    def index_of(self, original_id: int) -> int:
        return self._index_of[original_id]

    def edge_list(self, original_ids: bool = False) -> list[EdgeRecord]:
        """Edges as sorted ``(u, w, sign)`` triples with ``u < w``."""
        if original_ids:
            ids = self.original_ids
            out = [
                (min(ids[u], ids[w]), max(ids[u], ids[w]), s)
                for (u, w), s in self._edge_signs.items()
            ]
        else:
            out = [(u, w, s) for (u, w), s in self._edge_signs.items()]
        return sorted(out)

    def attr_records(self, original_ids: bool = False) -> list[tuple[int, np.ndarray]]:
        if self.attr_dim == 0:
            return []
        ids = self.original_ids if original_ids else range(self.n)
        return [(i, self.node_attrs[u]) for u, i in zip(range(self.n), ids)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, AttributedGraph):
            return NotImplemented
        return (
            self.original_ids == other.original_ids
            and self._edge_signs == other._edge_signs
            and self.node_attrs.shape == other.node_attrs.shape
            and bool(np.array_equal(self.node_attrs, other.node_attrs))
        )

    def __hash__(self):
        return hash((self.original_ids, frozenset(self._edge_signs.items())))

    def __repr__(self) -> str:
        return f"AttributedGraph(n={self.n}, m={self.m}, attr_dim={self.attr_dim})"


@dataclass(frozen=True)
class GraphStats:
    """Edge and degree counts split by sign.

    ``degree``, ``pos_degree`` and ``neg_degree`` are arrays indexed by the
    compact node id.  Invariants: ``m == m_pos + m_neg``, per-node degrees
    add up the same way, and ``degree.sum() == 2 * m``.
    """

    m: int
    m_pos: int
    m_neg: int
    degree: np.ndarray
    pos_degree: np.ndarray
    neg_degree: np.ndarray

    @property
    def n(self) -> int:
        return self.degree.size


def load_graph(
    edge_records: Iterable[Sequence[int]],
    attr_records: Iterable[tuple[int, Sequence[float]]] | None = None,
) -> AttributedGraph:
    """Validate raw records and build a compact :class:`AttributedGraph`.

    ``edge_records`` are ``(u, w, sign)`` triples (or ``(u, w)`` pairs, which
    default to sign +1).  Duplicate records for the same unordered pair are
    collapsed when their signs agree and rejected otherwise.  Self-loops are
    rejected.  ``attr_records`` are ``(node, vector)`` pairs of finite values;
    all vectors must share one length, and nodes without a record get the
    zero vector.

    The node set is the union of edge endpoints and attribute-record ids,
    compacted to ``0..n-1`` in ascending original-id order.
    """
    pair_signs: dict[tuple[int, int], int] = {}
    node_ids: set[int] = set()
    for rec in edge_records:
        if len(rec) == 2:
            u, w = rec
            s = 1
        elif len(rec) == 3:
            u, w, s = rec
        else:
            raise GraphError(f"edge record {tuple(rec)!r} must have 2 or 3 fields")
        u, w = _check_node_id(u), _check_node_id(w)
        s = _check_sign(s, u, w)
        if u == w:
            raise GraphError(f"self-loop on node {u} is not allowed")
        key = (min(u, w), max(u, w))
        prev = pair_signs.get(key)
        if prev is not None and prev != s:
            raise GraphError(f"conflicting signs for edge {key}: {prev} and {s}")
        pair_signs[key] = s
        node_ids.add(u)
        node_ids.add(w)

    attrs_by_node: dict[int, np.ndarray] = {}
    attr_dim = 0
    if attr_records is not None:
        for node, vec in attr_records:
            node = _check_node_id(node)
            vec = np.asarray(vec, dtype=float)
            if vec.ndim != 1:
                raise GraphError(f"attribute vector for node {node} must be one-dimensional")
            if not np.all(np.isfinite(vec)):
                raise GraphError(f"attribute vector for node {node} must be finite")
            if attrs_by_node and vec.size != attr_dim:
                raise GraphError(
                    f"ragged attribute vectors: node {node} has length {vec.size}, "
                    f"expected {attr_dim}"
                )
            attr_dim = vec.size
            attrs_by_node[node] = vec
            node_ids.add(node)

    original_ids = sorted(node_ids)
    index_of = {orig: i for i, orig in enumerate(original_ids)}
    edge_signs = {
        (index_of[u], index_of[w]): s for (u, w), s in pair_signs.items()
    }
    node_attrs = np.zeros((len(original_ids), attr_dim), dtype=float)
    for node, vec in attrs_by_node.items():
        node_attrs[index_of[node]] = vec
    return AttributedGraph(original_ids, edge_signs, node_attrs)


def stats(g: AttributedGraph) -> GraphStats:
    """Edge counts and per-node degrees split by sign."""
    indptr, _, signs = g.csr()
    degree = np.diff(indptr)
    rows = np.repeat(np.arange(g.n), degree)
    pos_degree = np.bincount(rows[signs > 0], minlength=g.n)
    m_pos = int(pos_degree.sum()) // 2
    return GraphStats(
        m=g.m,
        m_pos=m_pos,
        m_neg=g.m - m_pos,
        degree=degree,
        pos_degree=pos_degree,
        neg_degree=degree - pos_degree,
    )


@dataclass(frozen=True)
class NegativeInjection:
    """Seeded injection of negative edges between partitions.

    ``partition`` maps every (original) node id to a partition label; the
    injected edges connect uniformly random non-adjacent node pairs whose
    labels differ.
    """

    count: int
    seed: int
    partition: Mapping[int, object]


@dataclass
class PreprocessReport:
    """What preprocessing changed, in terms of the original node ids."""

    self_loops_removed: int = 0
    duplicate_edges_collapsed: int = 0
    injected_edges: list[tuple[int, int]] = field(default_factory=list)
    removed_nodes: list[int] = field(default_factory=list)
    filter_rounds: int = 0

    def to_dict(self) -> dict:
        return {
            "self_loops_removed": self.self_loops_removed,
            "duplicate_edges_collapsed": self.duplicate_edges_collapsed,
            "injected_edges": [list(e) for e in self.injected_edges],
            "removed_nodes": list(self.removed_nodes),
            "filter_rounds": self.filter_rounds,
        }


@dataclass
class PreprocessResult:
    graph: AttributedGraph
    report: PreprocessReport


def preprocess(
    source: AttributedGraph | Iterable[Sequence[int]],
    *,
    min_degree: int = 0,
    inject: NegativeInjection | None = None,
    attr_records: Iterable[tuple[int, Sequence[float]]] | None = None,
) -> PreprocessResult:
    """Clean raw edge records into a validated graph.

    Steps, in order: symmetrize and deduplicate the input (anti-parallel or
    duplicate records with conflicting signs are rejected), drop self-loops,
    optionally inject ``inject.count`` negative edges between uniformly
    random cross-partition non-adjacent pairs (seeded, reproducible), then
    repeatedly remove nodes of degree below ``min_degree`` until the graph is
    stable.  Surviving nodes are compacted; the report lists the removals in
    terms of the original ids.

    ``source`` may be raw ``(u, w[, sign])`` records or an already validated
    :class:`AttributedGraph` (whose records are then re-filtered, which makes
    the operation idempotent when injection is disabled).
    """
    if min_degree < 0:
        raise ValueError("min_degree must be nonnegative")
    if isinstance(source, AttributedGraph):
        if attr_records is not None:
            raise ValueError("attr_records cannot be combined with a graph source")
        records: Iterable[Sequence[int]] = source.edge_list(original_ids=True)
        attr_records = source.attr_records(original_ids=True)
    else:
        records = source

    report = PreprocessReport()
    pair_signs: dict[tuple[int, int], int] = {}
    nodes: set[int] = set()
    for rec in records:
        if len(rec) == 2:
            u, w = rec
            s = 1
        elif len(rec) == 3:
            u, w, s = rec
        else:
            raise GraphError(f"edge record {tuple(rec)!r} must have 2 or 3 fields")
        u, w = _check_node_id(u), _check_node_id(w)
        s = _check_sign(s, u, w)
        if u == w:
            report.self_loops_removed += 1
            nodes.add(u)
            continue
        key = (min(u, w), max(u, w))
        prev = pair_signs.get(key)
        if prev is None:
            pair_signs[key] = s
        elif prev == s:
            report.duplicate_edges_collapsed += 1
        else:
            raise GraphError(f"conflicting signs for edge {key}: {prev} and {s}")
        nodes.add(u)
        nodes.add(w)

    if attr_records is not None:
        attr_records = list(attr_records)
        nodes.update(_check_node_id(node) for node, _ in attr_records)

    if inject is not None:
        _inject_negative_edges(pair_signs, sorted(nodes), inject, report)

    adjacency: dict[int, set[int]] = {v: set() for v in nodes}
    for (u, w) in pair_signs:
        adjacency[u].add(w)
        adjacency[w].add(u)

    removed: set[int] = set()
    while True:
        doomed = sorted(v for v in adjacency if len(adjacency[v]) < min_degree)
        if not doomed:
            break
        report.filter_rounds += 1
        for v in doomed:
            for w in adjacency[v]:
                adjacency[w].discard(v)
            del adjacency[v]
            removed.add(v)
    report.removed_nodes = sorted(removed)

    surviving_edges = [
        (u, w, s) for (u, w), s in pair_signs.items() if u in adjacency and w in adjacency
    ]
    surviving_attrs = None
    if attr_records is not None:
        surviving_attrs = [(node, vec) for node, vec in attr_records if node in adjacency]
    graph = load_graph(surviving_edges, surviving_attrs)
    # load_graph only sees edge-incident and attribute nodes; keep surviving
    # isolated nodes too (possible when min_degree == 0).
    missing = sorted(set(adjacency) - set(graph.original_ids))
    if missing:
        graph = load_graph(
            surviving_edges,
            (surviving_attrs or []) + [(v, np.zeros(graph.attr_dim)) for v in missing],
        )
    return PreprocessResult(graph=graph, report=report)


def _inject_negative_edges(
    pair_signs: dict[tuple[int, int], int],
    nodes: list[int],
    inject: NegativeInjection,
    report: PreprocessReport,
) -> None:
    missing = [v for v in nodes if v not in inject.partition]
    if missing:
        raise GraphError(
            f"partition labels missing for {len(missing)} nodes (first: {missing[:5]})"
        )
    candidates = [
        (u, w)
        for u, w in itertools.combinations(nodes, 2)
        if inject.partition[u] != inject.partition[w] and (u, w) not in pair_signs
    ]
    if inject.count > len(candidates):
        raise GraphError(
            f"cannot inject {inject.count} negative edges: only "
            f"{len(candidates)} cross-partition non-edges are available"
        )
    rng = np.random.default_rng(inject.seed)
    chosen = rng.choice(len(candidates), size=inject.count, replace=False)
    for idx in sorted(chosen):
        u, w = candidates[idx]
        pair_signs[(u, w)] = -1
        report.injected_edges.append((u, w))


def _check_node_id(u) -> int:
    if isinstance(u, bool) or int(u) != u or int(u) < 0:
        raise GraphError(f"node id {u!r} must be a nonnegative integer")
    return int(u)


def _check_sign(s, u, w) -> int:
    if s not in (1, -1):
        raise GraphError(f"edge ({u}, {w}) has sign {s!r}; signs must be +1 or -1")
    return int(s)
